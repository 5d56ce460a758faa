"""Multicenter numerical integration: Becke fuzzy cells, Gauss-Chebyshev
radial transform, Lebedev angular nodes.

A molecular grid is the union of per-atom product grids (radial x angular),
each point carrying weight 4*pi * w_rad * w_ang * omega_Becke. Points whose
combined weight falls below 1e-16 are dropped; they contribute nothing at
the tolerances this package states. The cell weights come from the NumPy
kernel ``backends.becke_weights_kernel``. Each atom grid is built and
weighed in blocks of whole radial shells, at most ``_BLOCK`` points each
(one shell of every supported Lebedev order fits), and each block's kept
points, weights and owners are written straight into the grid's arrays,
allocated once at the size ``grid_estimate`` gives. Beyond those arrays the
build holds about 2 nat + 9 floats per point of one block, a bound that
does not grow with the grid. Every step is elementwise per point, apart
from the sum of the cell weights over atoms, so the grid does not depend on
the block size.
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
_BLOCK = 4 * _CHUNK  # points per block of radial shells while a grid is built


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

    Points are counted before weight screening; bytes are what
    ``build_molecular_grid`` allocates for the grid's arrays (three
    coordinates, a weight and an owner index per point), for any molecule.
    Not counted, because it does not grow with the grid: the working set
    while one block of radial shells is weighted, about 2 nat + 9 floats per
    point of at most ``_BLOCK`` points (the Becke distances and cell
    products, the block's points and a few temporaries), about 1.6 MiB for
    two atoms and 3.1 MiB for eight. Nor what an analysis on the grid
    needs. The analysis walks the grid in blocks of ``_CHUNK`` points. For
    K orbitals and P = nat(nat+1)/2 atom pairs it holds one workspace of
    about 2 nat + max(nprim, P) + sum_A min(K, m_A) + P rows of ``_CHUNK``
    floats, allocated at the first block and reused by every other
    (``reductions`` lists it; 4.7 MiB for an H8 chain with 48 primitives),
    and P pair blocks of at most min(K, m_A) min(K, m_B) floats for atoms
    with m_A and m_B primitives, plus the nprim**2 coefficient matrix only
    when it is asked for. At order 2 it also keeps Gram partials that grow
    with the grid;
    ``reductions.gram_partials_bytes`` counts them.
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
    close = np.triu(np.linalg.norm(centers[:, None] - centers, axis=-1)
                    < 1e-10, 1)
    if close.any():
        a, b = divmod(int(np.argmax(close)), nat)  # first pair, row-major
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
    """Union of Becke-weighted atomic product grids, built and weighed in
    blocks of whole radial shells."""
    if spec is None:
        spec = AtomicGridSpec()
    centers = molecule.positions
    radii = (np.full(len(molecule), spec.bragg_radius)
             if spec.bragg_radius is not None else molecule.bragg_radii())
    ang_pts, ang_wts = lebedev.lebedev_grid(spec.lebedev_order)
    shells = max(1, _BLOCK // len(ang_wts))
    size, _ = grid_estimate(len(molecule), spec)
    points = np.empty((size, 3))
    weights = np.empty(size)
    owners = np.empty(size, dtype=np.int64)
    block = np.empty((min(shells, spec.n_radial), len(ang_wts), 3))
    n = 0
    for a in range(len(molecule)):
        r, wr = radial_grid(spec.n_radial, radii[a])
        for i in range(0, spec.n_radial, shells):
            rb, wb = r[i:i + shells], wr[i:i + shells]
            pts = block[:len(rb)]
            for k in range(3):
                np.multiply(rb[:, None], ang_pts[None, :, k], out=pts[:, :, k])
                pts[:, :, k] += centers[a][k]
            pts = pts.reshape(-1, 3)
            w = (4.0 * math.pi) * (wb[:, None] * ang_wts[None, :]).reshape(-1)
            if len(molecule) > 1:
                w *= becke_weights(pts, centers, radii,
                                   stiffness=spec.stiffness,
                                   size_adjust=spec.size_adjust)[a]
            keep = w >= WEIGHT_SCREEN
            kept = np.count_nonzero(keep)
            np.compress(keep, pts, axis=0, out=points[n:n + kept])
            np.compress(keep, w, out=weights[n:n + kept])
            owners[n:n + kept] = a
            n += kept
    return MolecularGrid(points=points[:n], weights=weights[:n],
                         owner_atom=owners[:n], molecule=molecule, spec=spec)


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
        if grid is None:
            raise ValueError("a callable field needs a grid to evaluate at")
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
