"""Multicenter numerical integration: Becke fuzzy cells, Gauss-Chebyshev
radial transform, Lebedev angular nodes.

A molecular grid is the union of per-atom product grids (radial x angular),
each point carrying weight 4*pi * w_rad * w_ang * omega_Becke. Points whose
combined weight falls below 1e-16 are dropped; they contribute nothing at
the tolerances this package states. The cell weights come from the NumPy
kernel ``backends.becke_weights_kernel``. A point is fixed by its atom,
radial shell and Lebedev direction, so the grid keeps for each kept point
only its weight and a 32-bit flat index into the unscreened product grid,
12 bytes, plus each atom's radial nodes and the directions. Coordinates
are formed as they are needed, one integration chunk at a time, the way
the build forms them (r * u, then plus the centre, per axis), so they are
the same bits each time. Each atom grid is built and weighed in blocks of
whole radial shells, at most ``_BLOCK`` points each (one shell of every
supported Lebedev order fits), and each block's kept weights and indices
are written straight into the grid's arrays, allocated once at the size
``grid_estimate`` gives. Beyond those arrays the build holds about
2 nat + 9 floats per point of one block, a bound that does not grow with
the grid. Every step is elementwise per point, apart from the sum of the
cell weights over atoms, so the grid does not depend on the block size.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from . import lebedev
from .backends import Workspace, becke_weights_kernel
from .molecule import Molecule

WEIGHT_SCREEN = 1e-16
_CHUNK = 4096  # fixed chunk size: the deterministic reduction contract
_BLOCK = 4 * _CHUNK  # points per block of radial shells while a grid is built
MAX_GRID_POINTS = 2**31 - 1  # the most that int32 point indices address


@dataclasses.dataclass(frozen=True)
class AtomicGridSpec:
    """Per-atom quadrature specification. Each atom's radial scale is its
    Bragg radius from the element table, so the same spec may be shared
    across atoms of different elements.
    """
    n_radial: int = 400
    lebedev_order: int = 194
    stiffness: int = 3
    size_adjust: bool = True

    def __post_init__(self):
        if self.n_radial < 1:
            raise ValueError("n_radial must be >= 1")
        if self.lebedev_order not in lebedev.LEBEDEV_ORDERS:
            raise ValueError(
                f"lebedev_order {self.lebedev_order} not in supported set "
                f"{list(lebedev.SUPPORTED_NODE_COUNTS)}")
        if self.stiffness < 1:
            raise ValueError("stiffness must be >= 1")


def grid_estimate(n_atoms: int, spec: AtomicGridSpec):
    """(points, bytes) of a molecular grid before it is built.

    Points are counted before weight screening; bytes are what
    ``build_molecular_grid`` allocates for the grid's arrays (a float64
    weight and an int32 point index per point, 12 bytes), for any molecule.
    Not counted, because they do not grow with the points: the radial nodes
    (nat * n_radial floats) and the Lebedev directions, and the working set
    while one block of radial shells is weighted, about 2 nat + 9 floats per
    point of at most ``_BLOCK`` points (the Becke distances and cell
    products, the block's points and a few temporaries), about 1.6 MiB for
    two atoms and 3.1 MiB for eight. Nor what an analysis on the grid
    needs: each worker of its walk holds one chunk workspace, which the
    ``reductions`` docstring lists. The field adds P = nat(nat+1)/2 pair
    blocks of at most min(K, m_A) min(K, m_B) floats for K orbitals and
    atoms with m_A and m_B primitives, plus the nprim**2 coefficient
    matrix only when it is asked for. At order 2 the walk also keeps Gram
    partials that grow with the grid; ``reductions.gram_partials_bytes``
    counts them.
    """
    points = n_atoms * spec.n_radial * spec.lebedev_order
    return points, points * 12


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


def _shell_points(radial, centers, directions, first, stop, out):
    """Coordinates of the radial shells first..stop-1, counted over the
    atoms in order (shell i of atom a is a * n_radial + i), as a (3, m)
    view of the flat buffer ``out``, m = (stop - first) * n_ang, the
    directions of each shell in order. Each axis is r * u, then plus the
    atom's centre: the build and every later walk form a point with the
    same two roundings, so it has the same coordinates each time."""
    n_radial = radial.shape[1]
    n_ang = directions.shape[1]
    pts = out[:3 * (stop - first) * n_ang].reshape(3, stop - first, n_ang)
    r = radial.reshape(-1)
    s = first
    while s < stop:
        a = s // n_radial
        end = min(stop, (a + 1) * n_radial)
        for k in range(3):
            shells = pts[k, s - first:end - first]
            np.multiply(r[s:end, None], directions[k], out=shells)
            shells += centers[a, k]
        s = end
    return pts.reshape(3, -1)


@dataclasses.dataclass(frozen=True)
class MolecularGrid:
    """The kept points of every atom's product grid, held as weights and
    flat indices; coordinates are formed as they are needed.

    Kept point k of atom a, radial shell i and Lebedev direction j has
    ``index[k] = a * n_radial * n_ang + i * n_ang + j``, so the indices
    increase along the grid, and sits at ``radial[a, i] * directions[:, j]``
    plus the atom's centre. ``chunk`` forms the coordinates of one
    integration chunk at a time; ``points`` and ``owner_atom`` build the
    whole arrays on each access and keep nothing.
    """
    weights: np.ndarray      # (npts,) bohr^3, all factors folded in
    index: np.ndarray        # (npts,) int32 flat index into the product grid
    radial: np.ndarray       # (nat, n_radial) radial nodes, bohr
    directions: np.ndarray   # (3, n_ang) Lebedev unit vectors
    molecule: Molecule
    spec: AtomicGridSpec

    def __len__(self):
        return len(self.weights)

    def chunk(self, i, work=None):
        """(start, points) of chunk i, the ``_CHUNK`` kept points from
        start = i * ``_CHUNK``.

        The whole shells the chunk spans are formed into the buffer
        "shells" of ``work`` (a ``backends.Workspace``, a fresh one if
        None), reused by the next chunk, and its kept columns taken (a
        slice when none between them was screened); points is their
        (n, 3) transposed view, valid until the next chunk is formed.
        """
        n_ang = self.directions.shape[1]
        start = i * _CHUNK
        idx = self.index[start:start + _CHUNK]
        first = int(idx[0]) // n_ang
        stop = int(idx[-1]) // n_ang + 1
        size = 3 * (stop - first) * n_ang
        buf = (work or Workspace()).take("shells", (size,))
        pts = _shell_points(self.radial, self.molecule.positions,
                            self.directions, first, stop, buf)
        local = idx - first * n_ang
        if local[-1] - local[0] + 1 == len(local):
            pts = pts[:, local[0]:local[-1] + 1]
        else:
            pts = np.take(pts, local, axis=1)
        return start, pts.T

    def chunks(self):
        """(start, points) of every chunk in order, as ``chunk`` gives
        them, in one buffer."""
        work = Workspace()
        for i in range(-(-len(self) // _CHUNK)):
            yield self.chunk(i, work)

    def position(self, k):
        """The coordinates of kept point k, formed as ``chunk`` forms them."""
        n_ang = self.directions.shape[1]
        shell, j = divmod(int(self.index[k]), n_ang)
        return _shell_points(self.radial, self.molecule.positions,
                             self.directions, shell, shell + 1,
                             np.empty(3 * n_ang))[:, j]

    @property
    def points(self):
        """(npts, 3) coordinates in bohr, built on each access."""
        out = np.empty((len(self), 3))
        for start, pts in self.chunks():
            out[start:start + len(pts)] = pts
        return out

    @property
    def owner_atom(self):
        """(npts,) int64 atom whose shell produced each point, built on each
        access."""
        per_atom = self.spec.n_radial * self.directions.shape[1]
        return (self.index // per_atom).astype(np.int64)


def build_molecular_grid(molecule: Molecule, spec: AtomicGridSpec | None = None
                         ) -> MolecularGrid:
    """Union of Becke-weighted atomic product grids, built and weighed in
    blocks of whole radial shells.

    Refuses, before it allocates anything, a grid whose unscreened point
    count exceeds ``MAX_GRID_POINTS``, the most that its 32-bit point
    indices address."""
    if spec is None:
        spec = AtomicGridSpec()
    size, _ = grid_estimate(len(molecule), spec)
    if size > MAX_GRID_POINTS:
        raise ValueError(f"a grid of {size} points exceeds the "
                         f"{MAX_GRID_POINTS} that 32-bit point indices address")
    nat, n_radial = len(molecule), spec.n_radial
    centers = molecule.positions
    radii = molecule.bragg_radii()
    ang_pts, ang_wts = lebedev.lebedev_grid(spec.lebedev_order)
    directions = ang_pts.T.copy()
    n_ang = len(ang_wts)
    shells = max(1, _BLOCK // n_ang)
    radial = np.empty((nat, n_radial))
    weights = np.empty(size)
    index = np.empty(size, dtype=np.int32)
    block = np.empty(3 * min(shells, n_radial) * n_ang) if nat > 1 else None
    n = 0
    for a in range(nat):
        r, wr = radial_grid(n_radial, radii[a])
        radial[a] = r
        for i in range(0, n_radial, shells):
            wb = wr[i:i + shells]
            w = (4.0 * math.pi) * (wb[:, None] * ang_wts[None, :]).reshape(-1)
            if nat > 1:
                first = a * n_radial + i
                pts = _shell_points(radial, centers, directions, first,
                                    first + len(wb), block)
                w *= becke_weights(pts.T, centers, radii,
                                   stiffness=spec.stiffness,
                                   size_adjust=spec.size_adjust)[a]
            kept = np.flatnonzero(w >= WEIGHT_SCREEN)
            weights[n:n + len(kept)] = w[kept]
            index[n:n + len(kept)] = kept + (a * n_radial + i) * n_ang
            n += len(kept)
    return MolecularGrid(weights=weights[:n], index=index[:n], radial=radial,
                         directions=directions, molecule=molecule, spec=spec)


def integrate(field, grid: MolecularGrid | None = None, weights=None) -> float:
    """Deterministic quadrature sum of an array of point values.

    The reduction uses fixed-size chunks with an exactly rounded sum of the
    chunk partials, so repeated runs over the same grid agree bit for bit
    regardless of threading in the caller.
    """
    if weights is None:
        if grid is None:
            raise ValueError("need a grid or explicit weights")
        weights = grid.weights
    weights = np.asarray(weights, dtype=float)
    if callable(field):
        raise ValueError("field must be an array of point values, "
                         "not a callable")
    values = np.asarray(field, dtype=float)
    if values.shape != weights.shape:
        raise ValueError(f"field has shape {values.shape}, expected {weights.shape}")
    return math.fsum(
        float(chunk_partials(values[start:start + _CHUNK],
                             weights[start:start + _CHUNK], start, grid)[0])
        for start in range(0, len(weights), _CHUNK))


def chunk_partials(values, weights, start=0, grid=None) -> np.ndarray:
    """The partials of ``integrate`` over one chunk, one per row of values
    ((n,) or (rows, n)): each row's dot product with the chunk's weights
    (n,). A non-finite value raises ``nonfinite_error`` at the first row
    and point that hold one, the point's kept index being start plus its
    column."""
    rows = np.atleast_2d(values)
    partials = np.array([np.dot(row, weights) for row in rows])
    if not np.isfinite(partials).all():
        for row in rows:
            bad = ~np.isfinite(row)
            if bad.any():
                raise nonfinite_error(start + int(np.argmax(bad)), grid)
    return partials


def nonfinite_error(index: int, grid: MolecularGrid | None = None):
    """The error for a non-finite field value at kept point ``index``,
    with its position when the grid is known."""
    where = f" at point index {index}"
    if grid is not None:
        where += f", position {grid.position(index)}"
    return ValueError(f"non-finite field value{where}")
