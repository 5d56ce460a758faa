"""NumPy kernels of the numerical hot loops.

Becke fuzzy-cell weights (Becke, J. Chem. Phys. 88, 2547 (1988)),
Cartesian Gaussian primitive values and the two quadratic forms that give
the density and its atom-pair terms. ``quadrature`` and ``density`` import
these functions by name and call them directly.

The grid kernels do shared work once: the Becke cell function once per
unordered atom pair, and the primitives' distances once per centre.
"""
from __future__ import annotations

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


def eval_primitives(points, centers, center_index, prim_exps, prim_norms,
                    ang_pows):
    """Evaluate all normalized Cartesian Gaussian primitives at all points.

    dx, dy, dz and r^2 are formed once per centre; each primitive gathers
    its centre's rows.

    Parameters
    ----------
    points : (npts, 3)
    centers : (nat, 3) nuclear positions
    center_index : (nprim,) integer index of each primitive's centre
    prim_exps : (nprim,)
    prim_norms : (nprim,) normalization constants
    ang_pows : (nprim, 3) integer monomial exponents

    Returns
    -------
    (nprim, npts) array G with G[i, p] = N_i x^a y^b z^c exp(-alpha r^2).
    """
    points = np.asarray(points, dtype=float)
    centers = np.asarray(centers, dtype=float)
    dx = points[None, :, 0] - centers[:, 0, None]
    dy = points[None, :, 1] - centers[:, 1, None]
    dz = points[None, :, 2] - centers[:, 2, None]
    r2 = dx * dx + dy * dy + dz * dz
    G = np.exp(-prim_exps[:, None] * r2[center_index])
    G *= prim_norms[:, None]
    for comp, pw in zip((dx, dy, dz), ang_pows.T):
        m = pw > 0
        if m.any():
            G[m] *= comp[center_index[m]] ** pw[m, None]
    return G


def quad_form(D, G):
    """rho[p] = sum_ij D[i,j] G[i,p] G[j,p] for symmetric D."""
    return np.einsum("ip,ij,jp->p", G, D, G, optimize=True)


def quad_form_block(M, U, V):
    """One-sided pair term: x[p] = sum_ij M[i,j] U[i,p] V[j,p] for the value
    rows U of one atom and V of another."""
    return np.einsum("ip,ip->p", M @ V, U)


def get_backend():
    """This module. Exists only for the benchmark under ``perfbench/``,
    which wraps the kernels it finds here; the package never calls it."""
    return sys.modules[__name__]


def active_backend_name() -> str:
    """Always ``"python"``. Exists only for the benchmark under
    ``perfbench/``, which records it in its provenance."""
    return "python"
