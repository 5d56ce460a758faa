"""Renyi entropies of a density and their atom-pair decomposition.

All entropies are in nats. The order-2 entropy admits a full pair-pair
partition with weights over ordered atom 4-tuples; every order admits
atomic net and intra-atomic nonadditive terms.
"""

import dataclasses
import itertools
import math

import numpy as np

from .density import NEGATIVE_CLAMP
from .quadrature import _CHUNK, integrate

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


def _alpha_power(x, alpha: float, name: str):
    """x**alpha with the sign rules used throughout the decomposition.

    Integer orders keep the sign of negative lobes. Fractional orders are
    undefined for negative values, so anything below the clamp threshold
    raises and tiny negatives are treated as zero.
    """
    x = np.asarray(x, dtype=float)
    if float(alpha).is_integer():
        return x ** int(round(alpha))
    if (x < NEGATIVE_CLAMP).any():
        raise ValueError(
            f"{name} reaches values below {NEGATIVE_CLAMP}; a fractional "
            f"order alpha={alpha} is undefined there")
    return np.maximum(x, 0.0) ** alpha


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


def renyi_total(rho, weights, alpha: float, n_grid: float) -> RenyiTotals:
    """Order-alpha Renyi entropy of a density sampled on a grid.

    The shape value follows by exact scaling: the shape function, the
    density divided by its grid integral n_grid, has the moment
    int sigma**alpha = int rho**alpha / n_grid**alpha.
    """
    alpha = _validate_alpha(alpha)
    moment = integrate(_alpha_power(rho, alpha, "the density"), weights=weights)
    if moment <= 0 or not math.isfinite(moment):
        raise ValueError(f"integral of rho**alpha is {moment!r}; "
                         "cannot take its logarithm")
    pref = 1.0 / (1.0 - alpha)
    log_moment = math.log(moment)
    return RenyiTotals(alpha=alpha, moment=moment,
                       density=pref * log_moment,
                       shape=pref * (log_moment - alpha * math.log(n_grid)))


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


def _gram(pairs, keys, weights) -> np.ndarray:
    """Matrix of int x_i x_j over the pair terms in the order of keys.

    The grid is walked in the fixed integration chunks; each chunk gives
    every entry's partial at once, and each entry is the exactly rounded
    sum of its partials, as ``integrate`` would give it.
    """
    partials = []
    for start in range(0, len(weights), _CHUNK):
        sl = slice(start, start + _CHUNK)
        block = np.stack([pairs[k][sl] for k in keys])
        partials.append((block * weights[sl]) @ block.T)
    partials = np.array(partials)
    gram = np.empty((len(keys), len(keys)))
    for i in range(len(keys)):
        for j in range(i, len(keys)):
            gram[i, j] = gram[j, i] = math.fsum(partials[:, i, j])
    return gram


def renyi2_partition(pairs, weights) -> Renyi2Partition:
    """Pair-pair partition of the order-2 entropy from pair-term arrays."""
    keys = sorted(pairs.keys())
    nat = max(b for _, b in keys) + 1
    gram = _gram(pairs, keys, weights)
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


@dataclasses.dataclass(frozen=True)
class RenyiNetTerms:
    """Atomic net and intra-atomic nonadditive terms at one order."""

    alpha: float
    p_atom: dict
    net: float
    nadd_intra: float


def renyi_net_nadd_intra(pairs, weights, alpha: float,
                         moment: float) -> RenyiNetTerms:
    """Atomic-density contributions to the order-alpha entropy.

    moment is the integral of rho**alpha (``RenyiTotals.moment``);
    p_atom[A] is the share of it carried by the atomic diagonal term
    (rho^AA)**alpha.
    """
    alpha = _validate_alpha(alpha)
    pref = 1.0 / (1.0 - alpha)
    atom_moments = {
        a: integrate(_alpha_power(x, alpha, f"the net density of atom {a}"),
                     weights=weights)
        for (a, b), x in sorted(pairs.items()) if a == b}
    p_atom = {a: m / moment for a, m in atom_moments.items()}
    net = pref * math.fsum(p_atom[a] * _log0(atom_moments[a]) for a in p_atom)
    nadd_intra = pref * math.fsum(p_atom[a] * _log0(p_atom[a]) for a in p_atom)
    return RenyiNetTerms(alpha=alpha, p_atom=p_atom, net=net,
                         nadd_intra=nadd_intra)


@dataclasses.dataclass(frozen=True)
class RenyiDecomposition:
    """All order-alpha results for one field on one grid."""

    alpha: float
    totals: RenyiTotals
    net_terms: RenyiNetTerms
    pair_partition: Renyi2Partition | None


def renyi_decompose(rho, pairs, weights, alpha: float,
                    n_grid: float) -> RenyiDecomposition:
    """Full order-alpha analysis from one field evaluation.

    The ordered pair-pair partition exists only at alpha = 2; for other
    orders pair_partition is None.
    """
    alpha = _validate_alpha(alpha)
    totals = renyi_total(rho, weights, alpha, n_grid)
    net_terms = renyi_net_nadd_intra(pairs, weights, alpha, totals.moment)
    partition = renyi2_partition(pairs, weights) if alpha == 2.0 else None
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
