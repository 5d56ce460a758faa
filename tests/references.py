"""Test references: the pointwise Shannon integrands, and the streamed
walk fed from whole arrays.

The package integrates the decomposition; ``shannon_point_terms`` gives
its integrands at each point, whose closure add - nadd = total holds
pointwise wherever rho > 0. ``walk`` reduces one integration chunk at a
time with ``GridSums.chunk`` and takes it with ``GridSums.take``, in grid
order, as ``analyze_field`` does, from arrays evaluated over the whole
grid; it raises where the chunk that fails first raises.
"""
import dataclasses

import numpy as np

from entropart.backends import Workspace
from entropart.quadrature import _CHUNK
from entropart.reductions import GridSums
from entropart.shannon import safe_log


@dataclasses.dataclass(frozen=True)
class ShannonPointTerms:
    """Integrands of the decomposition, evaluated per point."""

    total: np.ndarray   # -rho log rho
    add: np.ndarray     # additive integrand, summed over ordered pairs
    nadd: np.ndarray    # nonadditive integrand, summed over ordered pairs


def shannon_point_terms(rho, pairs) -> ShannonPointTerms:
    """Pointwise integrands from a (rho, pairs) field evaluation."""
    rho = np.asarray(rho, dtype=float)
    total = -rho * safe_log(rho)
    add = np.zeros(rho.shape)
    nadd = np.zeros(rho.shape)
    denom = np.where(rho > 0, rho, 1.0)
    for (a, b), x in pairs.items():
        mult = 1.0 if a == b else 2.0
        q = np.where(rho > 0, x / denom, 0.0)
        add += mult * (-x * safe_log(x))
        nadd += mult * (-x * safe_log(q))
    return ShannonPointTerms(total=total, add=add, nadd=nadd)


def walk(weights, rho, pairs, alphas) -> GridSums:
    """The partials of ``GridSums(sorted(pairs), alphas, None)`` over
    whole arrays; pairs maps each pair key to its array."""
    keys = sorted(pairs)
    terms = np.array([pairs[k] for k in keys])
    sums, work = GridSums(keys, alphas, None), Workspace()
    for start in range(0, len(weights), _CHUNK):
        chunk = slice(start, start + _CHUNK)
        sums.take(sums.chunk(start, weights[chunk], rho[chunk],
                             np.ascontiguousarray(terms[:, chunk]), work))
    return sums
