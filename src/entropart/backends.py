"""NumPy kernels of the numerical hot loops.

Becke fuzzy-cell weights (Becke, J. Chem. Phys. 88, 2547 (1988)),
Cartesian Gaussian primitive values and the two quadratic forms that give
the density and its atom-pair terms. ``quadrature`` and ``density`` import
these functions by name and call them directly.

The grid kernels do shared work once: the Becke cell function once per
unordered atom pair, and the primitives' distances once per centre.
``Workspace`` holds the arrays that a walk over the grid reuses from one
chunk to the next (``reductions`` lists them).
"""
from __future__ import annotations

import math
import sys

import numpy as np


def becke_weights_kernel(points, centers, radii, stiffness, size_adjust):
    """Becke fuzzy-cell weights for every atom at every point.

    The cell function is evaluated once per unordered pair a < b: with
    mu_ba = -mu_ab and a_ba = -a_ab (Becke's appendix) the iterated
    polynomial is odd, so s(nu_ba) = 1 - s(nu_ab) and both factors come
    from one f. Each P[a] takes its factors in ascending order of the other
    atom, so without a boundary shift the weights are those of a loop over
    ordered pairs, bit for bit. The shift and the polynomial run in place
    in two buffers of npts floats, with the same operations in the same
    order as their plain expressions.

    Parameters
    ----------
    points : (npts, 3) array
    centers : (nat, 3) array
    radii : (nat,) array of Bragg-Slater radii (bohr)
    stiffness : int, iterations of p(mu) = 0.5*mu*(3 - mu^2)
    size_adjust : bool, apply the heteronuclear cell-boundary shift

    Returns
    -------
    (nat, npts) array of normalized cell weights (columns sum to 1).
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    nat = len(centers)
    npts = len(points)
    if nat == 1:
        return np.ones((1, npts))
    x, y, z = points.T
    d = np.empty((nat, npts))
    for a, (cx, cy, cz) in enumerate(centers):
        d[a] = np.sqrt(((x - cx) ** 2 + (y - cy) ** 2) + (z - cz) ** 2)
    P = np.ones((nat, npts))
    f = np.empty(npts)  # mu, then the iterated cell function
    t = np.empty(npts)
    for a in range(nat):
        for b in range(a + 1, nat):
            Rab = np.linalg.norm(centers[a] - centers[b])
            np.subtract(d[a], d[b], out=f)
            f /= Rab
            if size_adjust and radii[a] != radii[b]:
                chi = radii[a] / radii[b]
                u = (chi - 1.0) / (chi + 1.0)
                shift = u / (u * u - 1.0)
                # Becke's bound keeps the shifted boundary inside the cell
                shift = min(0.5, max(-0.5, shift))
                # mu + shift * (1 - mu^2)
                np.multiply(f, f, out=t)
                np.subtract(1.0, t, out=t)
                t *= shift
                f += t
            for _ in range(stiffness):  # f = 0.5 * f * (3 - f^2)
                np.multiply(f, f, out=t)
                np.subtract(3.0, t, out=t)
                f *= 0.5
                f *= t
            np.subtract(1.0, f, out=t)
            t *= 0.5
            P[a] *= t
            np.add(1.0, f, out=t)
            t *= 0.5
            P[b] *= t
    P /= P.sum(axis=0)
    return P


# np.exp(-x) is exactly 0 for every x above this (it underflows past 745.14)
EXP_UNDERFLOW = 746.0


class Workspace:
    """Scratch arrays for a walk over the grid in chunks, reused chunk
    after chunk instead of allocated afresh.

    ``take(name, shape)`` returns a C-contiguous array of that shape, a
    view of the buffer kept under ``name``. The buffer grows to the largest
    size asked for, so a walk's first full chunk sets it; a shorter last
    chunk gets the leading part. A taken array holds its values until
    ``name`` is taken again, which for the buffers of a chunk means until
    the next chunk. A fresh ``Workspace`` gives fresh arrays.
    """

    def __init__(self):
        self._buffers = {}

    def take(self, name, shape, dtype=float):
        size = math.prod(shape)
        buf = self._buffers.get(name)
        if buf is None or buf.size < size or buf.dtype != dtype:
            buf = self._buffers[name] = np.empty(size, dtype=dtype)
        return buf[:size].reshape(shape)


def eval_primitives(points, centers, center_index, prim_exps, prim_norms,
                    ang_pows, work=None):
    """Evaluate all normalized Cartesian Gaussian primitives at all points.

    dx, dy, dz and r^2 are formed once per centre; each primitive gathers
    its centre's rows. A primitive whose alpha * min r^2 over the points
    exceeds ``EXP_UNDERFLOW`` is exactly 0 at every point before its
    angular factor, so its row is set to 0 and not exponentiated; the
    angular factor still runs over it, and gives the signed zeros that
    exponentiation would.

    Parameters
    ----------
    points : (npts, 3)
    centers : (nat, 3) nuclear positions
    center_index : (nprim,) index into centers of each primitive's centre
    prim_exps : (nprim,)
    prim_norms : (nprim,) normalization constants
    ang_pows : (nprim, 3) integer monomial exponents
    work : ``Workspace`` that holds G (nprim rows of npts floats), the
        per-centre (nat, npts) arrays r^2, one scratch array, and dx, dy
        or dz for each axis on which a primitive has a power, and two
        arrays of one axis's angular factors; a fresh one by default

    Returns
    -------
    (nprim, npts) array G with G[i, p] = N_i x^a y^b z^c exp(-alpha r^2),
    a view of ``work`` that holds until the next call with the same
    ``work`` (the next chunk of a walk).
    """
    work = Workspace() if work is None else work
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    shape = (len(centers), len(points))
    r2, t = work.take("r2", shape), work.take("r2_term", shape)
    comps = []  # dx, dy, dz; an axis without angular powers only passes t
    for k in range(3):
        d = work.take(("d", k), shape) if ang_pows[:, k].any() else t
        np.subtract(points[:, k], centers[:, k, None], out=d)
        if k == 0:
            np.multiply(d, d, out=r2)  # (dx*dx + dy*dy) + dz*dz
        else:
            r2 += np.multiply(d, d, out=t)
        comps.append(d)
    G = work.take("G", (len(prim_exps), len(points)))
    np.take(r2, center_index, axis=0, out=G, mode="clip")
    G *= -prim_exps[:, None]
    # alpha * min r^2 rounds no higher than alpha * r^2 at any point
    dead = (prim_exps * r2.min(axis=1, initial=np.inf)[center_index]
            > EXP_UNDERFLOW)
    np.exp(G, out=G, where=~dead[:, None])
    G[dead] = 0.0
    G *= prim_norms[:, None]
    for comp, pw in zip(comps, ang_pows.T):
        m = np.flatnonzero(pw)
        if len(m):  # G[m] *= comp[center_index[m]] ** pw[m, None]
            factor = work.take("factor", (len(m), len(points)))
            rows = work.take("factor_rows", factor.shape)
            np.take(comp, center_index[m], axis=0, out=factor, mode="clip")
            np.power(factor, pw[m, None], out=factor)
            np.take(G, m, axis=0, out=rows, mode="clip")
            rows *= factor
            G[m] = rows
    return G


def quad_form(D, G):
    """rho[p] = sum_ij D[i,j] G[i,p] G[j,p] for symmetric D."""
    return np.einsum("ip,ij,jp->p", G, D, G, optimize=True)


def quad_form_block(M, U, V, out=None, work=None):
    """One-sided pair term: x[p] = sum_ij M[i,j] U[i,p] V[j,p] for the value
    rows U of one atom and V of another, written to ``out`` when given; the
    product M V goes to ``work`` (a ``Workspace``, a fresh one by default)."""
    work = Workspace() if work is None else work
    MV = np.matmul(M, V, out=work.take("MV", (len(M), V.shape[1])))
    return np.einsum("ip,ip->p", MV, U, out=out)


def get_backend():
    """This module. Exists only for the benchmark under ``perfbench/``,
    which wraps the kernels it finds here; the package never calls it."""
    return sys.modules[__name__]


def active_backend_name() -> str:
    """Always ``"python"``. Exists only for the benchmark under
    ``perfbench/``, which records it in its provenance."""
    return "python"
