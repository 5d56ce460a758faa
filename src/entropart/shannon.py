"""Shannon entropy of a density and its atom-pair decomposition.

All entropies are in nats. The decomposition splits the total into
atomic net terms, interatomic overlap terms, and a nonadditive part,
with the additive part equal to net + overlap by construction.

``shannon_from_sums`` builds it from the integrals of the streamed walk
(``reductions.integrals``). ``shannon_from_arrays`` is the direct
reference: it takes each integral with ``quadrature.integrate`` over
whole arrays and shares no integrand code with the walk.
"""

import dataclasses
import math

import numpy as np

from .density import ClampDiagnostics
from .quadrature import integrate

# the grid must reproduce the electron count this well before entropies
# are trusted at all
NORMALIZATION_TOLERANCE = 1e-4


def safe_log(x):
    """log|x| elementwise, with the value 0 assigned at x = 0."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(x.shape)
    nz = x != 0
    out[nz] = np.log(np.abs(x[nz]))
    return out


@dataclasses.dataclass(frozen=True)
class ShannonTerms:
    """One complete Shannon decomposition (density or shape variant)."""

    total: float
    add: float
    nadd: float
    net: dict
    overlap: dict

    @property
    def closure_residual(self) -> float:
        """add - nadd - total; small when the pair partition is consistent."""
        return self.add - self.nadd - self.total


def _terms(total, parts, n: float = 1.0) -> ShannonTerms:
    """Decomposition of rho / n from the integrals of rho: total is
    -int rho log rho, and parts maps every unique pair term x = rho^AB to
    the triple (-int x log|x|, -int x log|x / rho|, int x).

    Exact scaling: -(x/n) log(x/n) = (-x log x + x ln n) / n for every pair
    term x, and x / rho does not change, so nadd scales as 1/n; with n the
    grid integral of rho the total becomes total / n + ln n. n = 1 gives
    the density terms themselves.
    """
    log_n = math.log(n)
    net = {}
    overlap = {}
    nadd_parts = []
    for (a, b), (one_sided, nadd_ab, population) in parts.items():
        mult = 1.0 if a == b else 2.0
        value = mult * (one_sided + log_n * population) / n
        if a == b:
            net[a] = value
        else:
            overlap[(a, b)] = value
        nadd_parts.append(mult * nadd_ab / n)
    add = math.fsum(list(net.values()) + list(overlap.values()))
    return ShannonTerms(total=total / n + log_n, add=add,
                        nadd=math.fsum(nadd_parts), net=net, overlap=overlap)


@dataclasses.dataclass(frozen=True)
class ShannonDecomposition:
    """Density and shape-function Shannon decompositions on one grid."""

    n_grid: float
    density: ShannonTerms
    shape: ShannonTerms
    diagnostics: ClampDiagnostics  # counts of the evaluation behind this result

    @property
    def scaling_residual(self) -> float:
        """S_rho - (N S_sigma - N ln N) with N the grid electron count."""
        n = self.n_grid
        return self.density.total - (n * self.shape.total - n * math.log(n))


def check_normalization(n_grid: float, n_declared: float) -> None:
    """Reject grids that fail to reproduce the electron count."""
    if abs(n_grid - n_declared) > NORMALIZATION_TOLERANCE:
        raise ValueError(
            f"grid integrates the density to {n_grid!r}, expected "
            f"{n_declared!r}; the quadrature is inadequate for this system")


def shannon_from_sums(integrals: dict, pair_keys, n_grid: float,
                      diagnostics: ClampDiagnostics) -> ShannonDecomposition:
    """Decomposition from the integrals of a finished, checked walk
    (``reductions.integrals``), whose pair-term rows pair_keys orders.

    n_grid is the grid integral of rho. The shape-function terms follow
    from the same integrals as the density terms, by exact scaling.
    """
    total = -float(integrals["rho_log_rho"][0])
    one_sided, nadd, population = (integrals["pair", k] for k in range(3))
    parts = {key: (-float(one_sided[i]), -float(nadd[i]), float(population[i]))
             for i, key in enumerate(pair_keys)}
    return ShannonDecomposition(
        n_grid=n_grid, density=_terms(total, parts),
        shape=_terms(total, parts, n_grid), diagnostics=diagnostics)


def shannon_from_arrays(rho, pairs, weights, n_grid: float,
                        diagnostics: ClampDiagnostics) -> ShannonDecomposition:
    """Decomposition from an already evaluated (rho, pairs) field, each
    integral one ``integrate`` over the whole arrays; the quotient x / rho
    is taken as 0 where rho = 0."""
    rho = np.asarray(rho, dtype=float)
    positive = rho > 0
    denom = np.where(positive, rho, 1.0)
    total = -integrate(rho * safe_log(rho), weights=weights)
    parts = {}
    for key in sorted(pairs):
        x = np.asarray(pairs[key], dtype=float)
        quotient = np.where(positive, x / denom, 0.0)
        parts[key] = (-integrate(x * safe_log(x), weights=weights),
                      -integrate(x * safe_log(quotient), weights=weights),
                      integrate(x, weights=weights))
    return ShannonDecomposition(
        n_grid=n_grid, density=_terms(total, parts),
        shape=_terms(total, parts, n_grid), diagnostics=diagnostics)

