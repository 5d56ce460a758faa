"""Multicenter numerical integration: Becke fuzzy cells, Gauss-Chebyshev
radial transform, Lebedev angular nodes.

A molecular grid is the union of per-atom product grids (radial x angular),
each point carrying weight 4*pi * w_rad * w_ang * omega_Becke. Points whose
combined weight falls below 1e-16 are dropped; they contribute nothing at
the tolerances this package states. The cell weights come from the NumPy
kernel ``backends.becke_weights_kernel``.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lebedev
from .backends import becke_weights_kernel
from .molecule import Molecule

WEIGHT_SCREEN = 1e-16
_CHUNK = 4096  # fixed chunk size: the deterministic reduction contract


@dataclasses.dataclass(frozen=True)
class AtomicGridSpec:
    """Per-atom quadrature specification.

    bragg_radius None means "look up from the element table". The same spec
    may be shared across atoms of different elements.
    """
    n_radial: int = 400
    lebedev_order: int = 194
    bragg_radius: float | None = None
    stiffness: int = 3
    size_adjust: bool = True

    def __post_init__(self):
        if self.n_radial < 1:
            raise ValueError("n_radial must be >= 1")
        if self.lebedev_order not in lebedev.LEBEDEV_ORDERS:
            raise ValueError(
                f"lebedev_order {self.lebedev_order} not in supported set "
                f"{list(lebedev.SUPPORTED_NODE_COUNTS)}")
        if self.bragg_radius is not None and self.bragg_radius <= 0:
            raise ValueError("bragg_radius must be positive")
        if self.stiffness < 1:
            raise ValueError("stiffness must be >= 1")


def grid_estimate(n_atoms: int, spec: AtomicGridSpec):
    """(points, bytes) of a molecular grid before it is built.

    Points are counted before weight screening; bytes are what the finished
    grid's arrays hold (three coordinates, a weight and an owner index per
    point). An analysis on the grid needs more, none of it counted here. It
    walks the grid in blocks of ``_CHUNK`` points and holds, for K orbitals
    and P = nat(nat+1)/2 atom pairs, O(_CHUNK * (nprim + nat*K + P)) floats
    of one block and a pair matrix of at most about 2 nprim**2 floats. At
    order 2 it also keeps P(P+1)/2 Gram partials per chunk until the end,
    and twice that while they are summed: these grow with the grid, to
    about 67 MB (134 MB at the end) for H20 on the default 400x194 grid.
    """
    points = n_atoms * spec.n_radial * spec.lebedev_order
    return points, points * 5 * 8


def radial_grid(n: int, bragg_radius: float):
    """Radial nodes and weights for one atom.

    Nodes r_i = R(1+q_i)/(1-q_i) with q_i = cos(i pi / (n+1)), i = 1..n,
    mapping (-1, 1) onto (0, inf). The weight combines the second-kind
    Gauss-Chebyshev weight divided by its weight function sqrt(1-q^2), the
    Jacobian dr/dq = 2R/(1-q)^2, and the spherical factor r^2; so
    integrating f over all space is 4*pi * sum_i w_i f(r_i) for spherical f.

    Returns nodes in ascending order.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if bragg_radius <= 0:
        raise ValueError("bragg_radius must be positive")
    i = np.arange(1, n + 1)
    theta = i * math.pi / (n + 1)
    q = np.cos(theta)
    r = bragg_radius * (1.0 + q) / (1.0 - q)
    # sin^2(theta)/sqrt(1-q^2) reduces to sin(theta) for theta in (0, pi)
    w = (math.pi / (n + 1)) * np.sin(theta)
    w = w * (2.0 * bragg_radius / (1.0 - q) ** 2) * r * r
    return r[::-1].copy(), w[::-1].copy()


def becke_weights(points, centers, radii=None, stiffness: int = 3,
                  size_adjust: bool = True):
    """Normalized Becke cell weights.

    Parameters
    ----------
    points : (npts, 3) array or a single 3-vector
    centers : (nat, 3) array of nuclear positions
    radii : (nat,) Bragg-Slater radii; required when size_adjust and radii
        differ. Defaults to all-equal (no size adjustment effect).
    stiffness : cell-function iteration count k
    size_adjust : apply the heteronuclear boundary shift

    Returns
    -------
    (nat, npts) array, columns summing to 1; shape (nat,) for a single point.
    """
    pts = np.asarray(points, dtype=float)
    single = pts.ndim == 1
    if single:
        pts = pts.reshape(1, 3)
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    nat = len(centers)
    if nat == 0:
        raise ValueError("need at least one center")
    if radii is None:
        radii = np.ones(nat)
    radii = np.asarray(radii, dtype=float)
    for a in range(nat):
        for b in range(a + 1, nat):
            if np.linalg.norm(centers[a] - centers[b]) < 1e-10:
                raise ValueError(
                    f"coincident centers {a} and {b}: confocal coordinate degenerate")
    w = becke_weights_kernel(pts, centers, radii, int(stiffness),
                             bool(size_adjust))
    return w[:, 0] if single else w


@dataclasses.dataclass(frozen=True)
class MolecularGrid:
    points: np.ndarray       # (npts, 3) bohr
    weights: np.ndarray      # (npts,) bohr^3, all factors folded in
    owner_atom: np.ndarray   # (npts,) int, atom whose shell produced the point
    molecule: Molecule
    spec: AtomicGridSpec

    def __len__(self):
        return len(self.weights)


def build_molecular_grid(molecule: Molecule, spec: AtomicGridSpec | None = None
                         ) -> MolecularGrid:
    """Union of Becke-weighted atomic product grids."""
    if spec is None:
        spec = AtomicGridSpec()
    centers = molecule.positions
    radii = (np.full(len(molecule), spec.bragg_radius)
             if spec.bragg_radius is not None else molecule.bragg_radii())
    ang_pts, ang_wts = lebedev.lebedev_grid(spec.lebedev_order)
    all_pts, all_wts, owners = [], [], []
    for a in range(len(molecule)):
        r, wr = radial_grid(spec.n_radial, radii[a])
        pts = centers[a][None, None, :] + r[:, None, None] * ang_pts[None, :, :]
        pts = pts.reshape(-1, 3)
        w = (4.0 * math.pi) * (wr[:, None] * ang_wts[None, :]).reshape(-1)
        if len(molecule) > 1:
            cell = becke_weights(pts, centers, radii,
                                 stiffness=spec.stiffness,
                                 size_adjust=spec.size_adjust)[a]
            w = w * cell
        keep = w >= WEIGHT_SCREEN
        all_pts.append(pts[keep])
        all_wts.append(w[keep])
        owners.append(np.full(int(keep.sum()), a, dtype=np.int64))
    return MolecularGrid(points=np.vstack(all_pts),
                         weights=np.concatenate(all_wts),
                         owner_atom=np.concatenate(owners),
                         molecule=molecule, spec=spec)


def integrate(field, grid: MolecularGrid | None = None, weights=None) -> float:
    """Deterministic quadrature sum.

    ``field`` is either an array of point values or a callable evaluated at
    grid.points, one chunk at a time and in order, so a callable can reduce
    other integrands of the same chunk as it goes. The reduction uses
    fixed-size chunks with an exactly rounded sum of the chunk partials, so
    repeated runs over the same grid agree bit for bit regardless of
    threading in the caller.
    """
    if weights is None:
        if grid is None:
            raise ValueError("need a grid or explicit weights")
        weights = grid.weights
    if callable(field):
        chunks = (field(grid.points[i:i + _CHUNK])
                  for i in range(0, len(weights), _CHUNK))
    else:
        values = np.asarray(field, dtype=float)
        if values.shape != weights.shape:
            raise ValueError(f"field has shape {values.shape}, expected {weights.shape}")
        chunks = (values[i:i + _CHUNK] for i in range(0, len(weights), _CHUNK))
    parts = []
    for start, chunk in zip(range(0, len(weights), _CHUNK), chunks):
        chunk = np.asarray(chunk, dtype=float)
        w = weights[start:start + _CHUNK]
        if chunk.shape != w.shape:
            raise ValueError(f"field chunk has shape {chunk.shape}, "
                             f"expected {w.shape}")
        bad = ~np.isfinite(chunk)
        if bad.any():
            idx = start + int(np.argmax(bad))
            where = (f" at point index {idx}"
                     + (f", position {grid.points[idx]}" if grid is not None else ""))
            raise ValueError(f"non-finite field value{where}")
        parts.append(float(np.dot(chunk, w)))
    return math.fsum(parts)
