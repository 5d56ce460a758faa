"""Renyi entropies of a density and their atom-pair decomposition.

All entropies are in nats. The order-2 entropy admits a full pair-pair
partition with weights over ordered atom 4-tuples; every order admits
atomic net and intra-atomic nonadditive terms.

``renyi_from_sums`` builds every result from the integrals of the
streamed walk (``reductions.integrals``). ``renyi_total``,
``renyi_net_nadd_intra`` and ``renyi2_partition`` are the direct
reference: each takes its integrals with ``quadrature.integrate`` over
whole arrays; of the walk's code they share only the sign rules of
``reductions._power``, their refusal message and the chunk partial of
``integrate``.
"""

import dataclasses
import itertools
import math

import numpy as np

from .density import NEGATIVE_CLAMP
from .quadrature import integrate
from .reductions import _power, _sign_message

# orders this close to 1 are rejected; the Shannon module is the limit
ALPHA_ONE_GUARD = 1e-9


def _validate_alpha(alpha: float) -> float:
    alpha = float(alpha)
    if not math.isfinite(alpha) or alpha <= 0:
        raise ValueError("order alpha must be a positive finite number")
    if abs(alpha - 1.0) <= ALPHA_ONE_GUARD:
        raise ValueError(
            "order alpha is numerically 1; use the Shannon entropy instead")
    return alpha


def _log0(v: float) -> float:
    """log|v|, with the value 0 assigned at v = 0."""
    return math.log(abs(v)) if v != 0 else 0.0


@dataclasses.dataclass(frozen=True)
class RenyiTotals:
    """Total Renyi entropy of the density and of its shape function."""

    alpha: float
    moment: float    # integral of rho**alpha
    density: float
    shape: float


def _totals(alpha: float, moment: float, n_grid: float) -> RenyiTotals:
    """Density and shape entropies from the moment int rho**alpha."""
    if moment <= 0 or not math.isfinite(moment):
        raise ValueError(f"integral of rho**alpha is {moment!r}; "
                         "cannot take its logarithm")
    pref = 1.0 / (1.0 - alpha)
    log_moment = math.log(moment)
    return RenyiTotals(alpha=alpha, moment=moment,
                       density=pref * log_moment,
                       shape=pref * (log_moment - alpha * math.log(n_grid)))


def _moment(values, weights, alpha: float, name: str) -> float:
    """int values**alpha by ``integrate``, with the sign rules of
    ``reductions._power``; a fractional order refuses values below the
    clamp threshold, as the walk does."""
    values = np.asarray(values, dtype=float)
    if not alpha.is_integer() and (values < NEGATIVE_CLAMP).any():
        raise ValueError(_sign_message(name, alpha))
    return integrate(_power(values, alpha, np.empty_like(values)),
                     weights=weights)


def renyi_total(rho, weights, alpha: float, n_grid: float) -> RenyiTotals:
    """Order-alpha Renyi entropy of a density sampled on a grid.

    The shape value follows by exact scaling: the shape function, the
    density divided by its grid integral n_grid, has the moment
    int sigma**alpha = int rho**alpha / n_grid**alpha.
    """
    alpha = _validate_alpha(alpha)
    return _totals(alpha, _moment(rho, weights, alpha, "the density"), n_grid)


@dataclasses.dataclass(frozen=True)
class Renyi2Partition:
    """Order-2 partition over ordered atom 4-tuples.

    p4 maps (a, b, c, d) to the fraction of the rho**2 integral carried
    by the pair-pair product rho^ab rho^cd; the fractions sum to 1.
    """

    p4: dict
    add: float
    nadd: float
    total: float

    @property
    def closure_residual(self) -> float:
        return self.add - self.nadd - self.total


def _partition(keys, gram) -> Renyi2Partition:
    """The order-2 partition from the Gram matrix of the pair terms."""
    nat = max(b for _, b in keys) + 1
    # the Gram row of each ordered atom pair; (b, a) shares that of (a, b)
    row = {(a, b): keys.index((min(a, b), max(a, b)))
           for a, b in itertools.product(range(nat), repeat=2)}
    integrals = {p + q: gram[row[p], row[q]]
                 for p, q in itertools.product(row, repeat=2)}
    norm = math.fsum(integrals.values())
    if norm <= 0 or not math.isfinite(norm):
        raise ValueError(f"ordered pair-pair integrals sum to {norm!r}")
    p4 = {t: v / norm for t, v in integrals.items()}
    add = -math.fsum(p4[t] * _log0(v) for t, v in integrals.items())
    nadd = -math.fsum(p * _log0(p) for p in p4.values())
    return Renyi2Partition(p4=p4, add=add, nadd=nadd, total=-math.log(norm))


def renyi2_partition(pairs, weights) -> Renyi2Partition:
    """Pair-pair partition of the order-2 entropy from pair-term arrays,
    each Gram entry int x_i x_j one ``integrate``."""
    keys = sorted(pairs)
    x = [np.asarray(pairs[k], dtype=float) for k in keys]
    gram = np.empty((len(keys), len(keys)))
    for i, j in itertools.combinations_with_replacement(range(len(keys)), 2):
        gram[i, j] = gram[j, i] = integrate(x[i] * x[j], weights=weights)
    return _partition(keys, gram)


@dataclasses.dataclass(frozen=True)
class RenyiNetTerms:
    """Atomic net and intra-atomic nonadditive terms at one order."""

    alpha: float
    p_atom: dict
    net: float
    nadd_intra: float


def _net_terms(alpha: float, atom_moments: dict,
               moment: float) -> RenyiNetTerms:
    """Net terms from the atomic moments and the total moment."""
    pref = 1.0 / (1.0 - alpha)
    p_atom = {a: m / moment for a, m in atom_moments.items()}
    net = pref * math.fsum(p_atom[a] * _log0(atom_moments[a]) for a in p_atom)
    nadd_intra = pref * math.fsum(p_atom[a] * _log0(p_atom[a]) for a in p_atom)
    return RenyiNetTerms(alpha=alpha, p_atom=p_atom, net=net,
                         nadd_intra=nadd_intra)


def renyi_net_nadd_intra(pairs, weights, alpha: float,
                         moment: float) -> RenyiNetTerms:
    """Atomic-density contributions to the order-alpha entropy.

    moment is the integral of rho**alpha (``RenyiTotals.moment``);
    p_atom[A] is the share of it carried by the atomic diagonal term
    (rho^AA)**alpha.
    """
    alpha = _validate_alpha(alpha)
    atom_moments = {a: _moment(pairs[(a, b)], weights, alpha,
                               f"the net density of atom {a}")
                    for a, b in sorted(pairs) if a == b}
    return _net_terms(alpha, atom_moments, moment)


@dataclasses.dataclass(frozen=True)
class RenyiDecomposition:
    """All order-alpha results for one field on one grid."""

    alpha: float
    totals: RenyiTotals
    net_terms: RenyiNetTerms
    pair_partition: Renyi2Partition | None


def renyi_from_sums(integrals: dict, pair_keys, alpha: float,
                    n_grid: float) -> RenyiDecomposition:
    """Order-alpha results from the integrals of a finished, checked walk
    (``reductions.integrals``) that took the moments at alpha, whose
    pair-term rows pair_keys orders; the pair partition, at alpha = 2
    only, comes from the Gram matrix, mirrored from its upper triangle
    (row by row, as ``np.triu_indices`` orders it) so that it is exactly
    symmetric."""
    totals = _totals(alpha, float(integrals["rho_pow", alpha][0]), n_grid)
    net = zip((a for a, b in pair_keys if a == b), integrals["net_pow", alpha])
    net_terms = _net_terms(alpha, {a: float(m) for a, m in net}, totals.moment)
    partition = None
    if alpha == 2.0:
        upper = np.triu_indices(len(pair_keys))
        gram = np.empty((len(pair_keys),) * 2)
        gram[upper] = gram.T[upper] = integrals["gram"]
        partition = _partition(pair_keys, gram)
    return RenyiDecomposition(alpha=alpha, totals=totals,
                              net_terms=net_terms, pair_partition=partition)


def asymptotic_renyi_reference(alpha, atom_entropies, atom_moments,
                               electron_counts):
    """Infinite-separation Renyi entropies from isolated-fragment data.

    atom_entropies holds each fragment's order-alpha entropy, atom_moments
    the fragment integrals of rho_A**alpha (which fix the mixing fractions),
    and electron_counts the fragment electron numbers. Returns the pair
    (density_limit, shape_limit).
    """
    alpha = _validate_alpha(alpha)
    s_frag = [float(s) for s in atom_entropies]
    moments = [float(m) for m in atom_moments]
    counts = [float(n) for n in electron_counts]
    if not (len(s_frag) == len(moments) == len(counts)):
        raise ValueError("fragment entropies, moments, and electron counts "
                         "must have matching lengths")
    if any(m <= 0 for m in moments):
        raise ValueError("fragment moments must be positive")
    if any(n <= 0 for n in counts):
        raise ValueError("fragment electron counts must be positive")
    total_moment = math.fsum(moments)
    n_total = math.fsum(counts)
    fractions = [m / total_moment for m in moments]
    pref = 1.0 / (1.0 - alpha)
    density_limit = math.fsum(p * s for p, s in zip(fractions, s_frag)) \
        - pref * math.fsum(p * math.log(p) for p in fractions)
    shape_limit = density_limit + (alpha * pref) * math.fsum(
        p * math.log(n / n_total) for p, n in zip(fractions, counts))
    return density_limit, shape_limit
