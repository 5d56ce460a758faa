"""NumPy kernels of the numerical hot loops.

Becke fuzzy-cell weights (Becke, J. Chem. Phys. 88, 2547 (1988)),
Cartesian Gaussian primitive values and the two quadratic forms that give
the density and its atom-pair terms. ``quadrature`` and ``density`` import
these functions by name and call them directly.
"""
from __future__ import annotations

import sys

import numpy as np


def becke_weights_kernel(points, centers, radii, stiffness, size_adjust):
    """Becke fuzzy-cell weights for every atom at every point.

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
    d = np.empty((nat, npts))
    for a in range(nat):
        d[a] = np.sqrt(((points - centers[a]) ** 2).sum(axis=1))
    P = np.ones((nat, npts))
    for a in range(nat):
        for b in range(nat):
            if a == b:
                continue
            Rab = np.linalg.norm(centers[a] - centers[b])
            mu = (d[a] - d[b]) / Rab
            if size_adjust and radii[a] != radii[b]:
                chi = radii[a] / radii[b]
                u = (chi - 1.0) / (chi + 1.0)
                shift = u / (u * u - 1.0)
                # Becke's bound keeps the shifted boundary inside the cell
                shift = min(0.5, max(-0.5, shift))
                mu = mu + shift * (1.0 - mu * mu)
            f = mu
            for _ in range(stiffness):
                f = 0.5 * f * (3.0 - f * f)
            P[a] *= 0.5 * (1.0 - f)
    total = P.sum(axis=0)
    return P / total


def eval_primitives(points, prim_centers, prim_exps, prim_norms, ang_pows):
    """Evaluate all normalized Cartesian Gaussian primitives at all points.

    Parameters
    ----------
    points : (npts, 3)
    prim_centers : (nprim, 3) expanded per-primitive center positions
    prim_exps : (nprim,)
    prim_norms : (nprim,) normalization constants
    ang_pows : (nprim, 3) integer monomial exponents

    Returns
    -------
    (nprim, npts) array G with G[i, p] = N_i x^a y^b z^c exp(-alpha r^2).
    """
    points = np.asarray(points, dtype=float)
    dx = points[None, :, 0] - prim_centers[:, 0, None]
    dy = points[None, :, 1] - prim_centers[:, 1, None]
    dz = points[None, :, 2] - prim_centers[:, 2, None]
    r2 = dx * dx + dy * dy + dz * dz
    G = np.exp(-prim_exps[:, None] * r2)
    G *= prim_norms[:, None]
    ax, ay, az = ang_pows[:, 0], ang_pows[:, 1], ang_pows[:, 2]
    for comp, pw in ((dx, ax), (dy, ay), (dz, az)):
        m = pw > 0
        if m.any():
            G[m] *= comp[m] ** pw[m, None]
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
