"""Multicenter numerical integration: Becke fuzzy cells, Gauss-Chebyshev
radial transform, Lebedev angular nodes.

A molecular grid is the union of per-atom product grids (radial x angular),
each point carrying weight 4*pi * w_rad * w_ang * omega_Becke. Points whose
combined weight falls below 1e-16 are dropped; they contribute nothing at
the tolerances this package states. The cell weights come from the NumPy
kernel ``backends.becke_weights_kernel``.

The grid is held in orbit form. The operations that fix every nucleus
exactly (``symmetry_operations``), among the signed swaps of x and y,
each with or without z -> -z, split the Lebedev directions into orbits
(``direction_orbits``), and the points of one radial shell whose
directions share an orbit carry the same weight, bit for bit. The
Lebedev weights are equal on an orbit, and so are the cell weights: an
operation negates or swaps the x and y offsets r * u, or negates z, and
negation is exact; the squared distance to a nucleus is
((dx)^2 + (dy)^2) + (dz)^2, whose sum commutes; and every later step of
the kernel is elementwise per point, or the column sum over atoms. So
the cell weights are taken at one direction per orbit, screening keeps
or drops an orbit of a shell whole, and the grid keeps one float64 per
(shell, orbit), 0.0 where it is dropped (``MolecularGrid.cells``), 1.1
MiB for H2 at 1000 x 434. A molecule on the z axis is fixed by the
eight operations that keep z and has 22 orbits of 110 directions, 35 of
194 and 70 of 434; the atom at the origin, fixed by all sixteen, 19 of
194; one in a coordinate plane 105 of 194; any other molecule one orbit
per direction.

An analysis walks the grid (``MolecularGrid.walk``) at one point per
orbit of the operations that fix every nucleus and map the field onto
itself (``density.PairDensityField.symmetry``): these map a kept point
onto a point of the same radial shell at which the field takes the same
value, up to rounding. Its chunks are ``_CHUNK`` representatives each, in
(shell, orbit) order. The H8 chain on 400 x 194 evaluates 106,078 of
its 600,784 kept points in 26 chunks, H2 27,734 of 154,928 in 7 and the
atom at the origin 7,598 of 77,594 in 2. Over the identity's orbits the
representatives are the kept points themselves, in order, with their
weights, bit for bit. Coordinates are formed one chunk at a time, the way the
build forms them (r * u, then plus the centre, per axis), so they are
the same bits each time.

Each atom grid is weighed in blocks of whole radial shells, at most
``_BLOCK`` weighed points each (one shell of every supported Lebedev
order fits), screened per orbit and written straight into its rows of
the grid's table, allocated once. Beyond that table the build holds the
kernel's 2 nat + 9 floats per weighed point of one block: measured as
peak RSS (VmHWM) over the grid's arrays, 1.0 MiB for H2 at 400 x 194,
1.8 MiB at 1000 x 434 and 2.2 MiB for the H8 chain at 400 x 194, a
bound that does not grow with the grid. Every
step is elementwise per point, apart from the sum of the cell weights
over atoms, so the grid does not depend on the block size.
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import lebedev
from .backends import Workspace, becke_weights_kernel
from .molecule import Molecule

WEIGHT_SCREEN = 1e-16
_CHUNK = 4096  # fixed chunk size: the deterministic reduction contract
_BLOCK = 4 * _CHUNK  # points per block of radial shells while a grid is built
MAX_GRID_POINTS = 2**31 - 1  # the most that the int32 ``index`` addresses
MAX_STIFFNESS = 100  # cell-function iterations; past about 60 weights stay put


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
        if not 1 <= self.stiffness <= MAX_STIFFNESS:
            raise ValueError(f"stiffness must be in [1, {MAX_STIFFNESS}]")


def grid_estimate(n_atoms: int, spec: AtomicGridSpec):
    """(points, bytes) of a molecular grid before it is built.

    Points are counted before weight screening. Bytes are an upper bound
    on the grid's arrays for any molecule: those of the kept-point arrays
    ``weights`` and ``index`` that the grid builds on access, a float64
    weight and an int32 point index per point, 12 bytes. The grid itself
    keeps 8 bytes per (radial shell, orbit of directions), one per point
    only where no operation but the identity fixes the nuclei.
    Not counted, because they do not grow with the points: the radial nodes
    (nat * n_radial floats) and the Lebedev directions, and the working set
    while one block of radial shells is weighed (module docstring), a peak
    RSS of about 1.0 MiB over the grid's arrays for two atoms and 2.2 MiB
    for the H8 chain on the default grid. Nor what an analysis on the grid
    needs: each worker of its walk holds one chunk workspace, which the
    ``reductions`` docstring lists, and the walk one integer per radial
    shell (``Walk``). The field adds P = nat(nat+1)/2 pair
    blocks of at most min(K, m_A) min(K, m_B) floats for K orbitals and
    atoms with m_A and m_B primitives, plus the nprim**2 coefficient
    matrix only when it is asked for. At order 2 the chunks' partials,
    held until ``reductions.integrals`` sums them, also hold Gram partials
    that grow with the points the walk evaluates, at most nat * n_radial
    times the orbits per shell of the walk's operations;
    ``reductions.gram_partials_bytes`` counts them.
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


@dataclasses.dataclass(frozen=True)
class MolecularGrid:
    """The weights of every atom's product grid, one per (radial shell,
    orbit of directions), 0.0 where screening dropped the orbit;
    coordinates are formed as they are needed.

    The orbits are ``nuclear_orbits``, ``direction_orbits``'s (reps,
    inverse) of the nuclei's ``symmetry_operations``. ``cells[a *
    n_radial + i, o]`` is the weight of each member of orbit o in shell i
    of atom a: the directions j with ``inverse[j] == o``, each at
    ``radial[a, i] * directions[:, j]`` plus the atom's centre. The kept
    points are the members of every nonzero cell, ``len`` of them, in the
    order of their flat index a * n_radial * n_ang + i * n_ang + j.
    ``walk`` gives the chunks of a walk over the orbits of some
    operations, one point per orbit; ``chunk``, ``chunks`` and
    ``position`` are the walk over the identity's orbits, the kept points
    themselves. ``weights``, ``index``, ``points`` and ``owner_atom``
    build the whole kept-point arrays on each access and keep nothing.
    """
    cells: np.ndarray          # (nat * n_radial, len(reps)) bohr^3
    radial: np.ndarray         # (nat, n_radial) radial nodes, bohr
    directions: np.ndarray     # (3, n_ang) Lebedev unit vectors
    nuclear_orbits: tuple      # (reps, inverse) of the nuclei's operations
    molecule: Molecule
    spec: AtomicGridSpec

    def __len__(self):
        members = np.bincount(self.nuclear_orbits[1])
        return int(np.count_nonzero(self.cells, axis=0) @ members)

    def walk(self, operations):
        """The ``Walk`` of this grid over the ``direction_orbits`` of those
        of ``operations`` (indices into the table of
        ``symmetry_operations``) that also map every nucleus of the grid
        exactly onto itself: a kept point and its image under one of them
        lie in the same radial shell."""
        fixed = np.intersect1d(operations,
                               symmetry_operations(self.molecule.positions))
        return Walk(self, direction_orbits(self.spec.lebedev_order, fixed))

    def _kept(self):
        """(flat index, weight) of the kept points, per block of whole
        shells of at most ``_BLOCK`` product-grid points."""
        inverse = self.nuclear_orbits[1]
        n_ang, n_shells = len(inverse), len(self.cells)
        step = max(1, _BLOCK // n_ang)
        for s in range(0, n_shells, step):
            w = self.cells[s:s + step, inverse].reshape(-1)
            kept = np.flatnonzero(w)
            yield kept + s * n_ang, w[kept]

    @property
    def weights(self):
        """(npts,) float64 weight of each kept point, in bohr^3, built on
        each access."""
        return np.concatenate([w for _, w in self._kept()])

    @property
    def index(self):
        """(npts,) int32 flat index of each kept point into the product
        grid, built on each access."""
        return np.concatenate([k for k, _ in self._kept()]).astype(np.int32)

    def chunk(self, i, work=None):
        """(start, points) of chunk i, the ``_CHUNK`` kept points from
        start = i * ``_CHUNK``: the walk over the identity's orbits, so
        points (n, 3) are the kept points in order, formed as the build
        forms them, valid until the next chunk is formed in ``work``."""
        return i * _CHUNK, self.walk([0]).chunk(i, work).points

    def chunks(self):
        """(start, points) of every chunk in order, as ``chunk`` gives
        them, in one buffer."""
        walk, work = self.walk([0]), Workspace()
        for i in range(len(walk)):
            yield i * _CHUNK, walk.chunk(i, work).points

    def position(self, k):
        """The coordinates of kept point k, formed as ``chunk`` forms them."""
        return self.chunk(k // _CHUNK)[1][k % _CHUNK].copy()

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


class Walk:
    """The chunks of a walk over a grid at one point per orbit.

    ``orbits`` (``direction_orbits``'s (reps, inverse)) are those of
    operations that fix every nucleus, so each lies within one orbit of
    the nuclei, one column of the grid's ``cells`` (``_column``). The
    members of a nonzero cell whose directions share an orbit o are one
    orbit of the grid: its representative sits at direction reps[o] of
    the cell's shell, and weighs the cell's weight times the orbit's
    member count. The representatives come in (shell, orbit) order,
    ``evaluated`` of them, and chunk i is representatives i * ``_CHUNK``
    up to i * ``_CHUNK`` + ``_CHUNK`` - 1. Over the nuclei's own orbits
    the representatives are the grid's nonzero cells; over the
    identity's, one per direction, they are the kept points in order,
    with their weights.

    Beside its tables over the orbits, a walk holds the representatives
    before each radial shell, where a chunk finds the shells it spans.
    ``evaluated`` is exact, known before any chunk.
    """

    def __init__(self, grid: MolecularGrid, orbits):
        self.grid = grid
        self.reps, inverse = orbits
        self.counts = np.bincount(inverse)  # members of each orbit
        self._column = grid.nuclear_orbits[1][self.reps]
        # a nonzero cell in column c holds split[c] orbits of the walk
        split = np.bincount(self._column, minlength=grid.cells.shape[1])
        self.before = np.concatenate(
            ([0], np.cumsum((grid.cells != 0) @ split)))
        self.evaluated = int(self.before[-1])
        # each orbit's direction, and each shell's radius and centre
        self._u = grid.directions[:, self.reps]
        self._r = grid.radial.reshape(-1)
        self._c = np.repeat(grid.molecule.positions.T, grid.spec.n_radial,
                            axis=1)

    def __len__(self):
        return -(-self.evaluated // _CHUNK)

    def chunk(self, i, work=None) -> Chunk:
        """Chunk i: the cells of the shells that hold its representatives,
        in (shell, orbit) order, of which the chunk's are the nonzero ones
        from its first representative on. Each representative is formed
        as the build forms a point (r * u, then plus the centre) into the
        buffer "points" of ``work`` (a ``backends.Workspace``, a fresh one
        if None), valid until the next chunk is formed in it."""
        lo = i * _CHUNK
        hi = min(lo + _CHUNK, self.evaluated)
        s = int(np.searchsorted(self.before, lo, side="right")) - 1
        e = int(np.searchsorted(self.before, hi))
        cells = self.grid.cells[s:e, self._column].reshape(-1)
        first = lo - int(self.before[s])
        slots = np.flatnonzero(cells)[first:first + hi - lo]
        shell, orbit = np.divmod(slots, len(self.reps))
        shell += s
        counts = self.counts[orbit]
        work = Workspace() if work is None else work
        pts = work.take("points", (3, hi - lo))
        np.multiply(np.take(self._r, shell), np.take(self._u, orbit, axis=1),
                    out=pts)
        pts += np.take(self._c, shell, axis=1)
        return Chunk(lo, cells[slots] * counts, points=pts.T, counts=counts,
                     walk=self)

    def first_kept(self, k) -> int:
        """The global index of the lowest kept member of representative k:
        the members of the nonzero cells of the shells before its own, and
        the kept directions of its shell below reps[o], its orbit's
        lowest."""
        s = int(np.searchsorted(self.before, k, side="right")) - 1
        cells, inverse = self.grid.cells, self.grid.nuclear_orbits[1]
        orbit = np.flatnonzero(cells[s, self._column])[k - int(self.before[s])]
        return int(np.count_nonzero(cells[:s], axis=0) @ np.bincount(inverse)
                   + np.count_nonzero(cells[s, inverse[:self.reps[orbit]]]))


@dataclasses.dataclass(frozen=True, eq=False)
class Chunk:
    """One integration chunk: the weights (m,) of its points, and for a
    chunk of a ``Walk`` the representatives (m, 3) it evaluates, the
    member count of each and the walk.

    start is the chunk's first kept point, or for a walk's chunk its first
    representative. Without a walk, the chunk's points are the kept points
    from start, in order.
    """
    start: int
    weights: np.ndarray
    points: np.ndarray | None = None
    counts: np.ndarray | None = None
    walk: Walk | None = None

    def first_kept(self, bad) -> int:
        """The global index of the lowest kept point whose point, or
        representative, bad (m,) flags; it flags one. For a walk's chunk,
        the lowest member of the first flagged representative, found by
        ``Walk.first_kept`` only here, so a chunk that raises no error pays
        nothing for it."""
        first = self.start + int(np.argmax(bad))
        return first if self.walk is None else self.walk.first_kept(first)


# The signed swaps of x and y, each with or without z -> -z: the image of
# v under operation g is _SIGNS[g] * v[_PERMS[g]]. None moves a term between
# the two parts of a squared distance, ((dx)^2 + (dy)^2) + (dz)^2, so a
# point and its image lie at the same distances, bit for bit, from every
# nucleus that the operation fixes. Operation 0 is the identity.
_PERMS = np.repeat([[0, 1, 2], [1, 0, 2]], 8, axis=0)
_SIGNS = np.tile(np.array(list(itertools.product((1.0, -1.0), repeat=3))),
                 (2, 1))


def symmetry_operations(centers) -> np.ndarray:
    """The indices g of the operations (``_PERMS[g]``, ``_SIGNS[g]``) that
    map every nucleus exactly onto itself: the identity always, and no
    operation that a nucleus is off by any amount."""
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    images = centers[:, _PERMS] * _SIGNS  # (nat, operation, axis)
    return np.flatnonzero((images == centers[:, None]).all(axis=(0, 2)))


def nuclear_permutations(molecule: Molecule) -> dict:
    """g -> perm for each operation g of the table of
    ``symmetry_operations`` that, followed by one translation t, maps
    every nucleus exactly onto a nucleus of the same element: g(c_a) + t
    == c_perm[a], coordinate for coordinate, for every nucleus a. The
    identity is always one, with t = 0; t is the one that takes nucleus 0
    to the nucleus nearest where the centroid's translation takes it."""
    centers = molecule.positions
    z = np.array([atom.z for atom in molecule.atoms])
    mean = centers.mean(axis=0)
    images = (centers[:, _PERMS] * _SIGNS).swapaxes(0, 1)  # (g, nucleus, axis)
    guess = images[:, 0] + (mean - mean[_PERMS] * _SIGNS)
    nearest = np.argmin(((centers - guess[:, None]) ** 2).sum(axis=2), axis=1)
    moved = images + (centers[nearest] - images[:, 0])[:, None]
    match = (moved[:, :, None] == centers).all(axis=3)  # (g, nucleus, b)
    # the last nucleus b at the image, if several coincide
    atoms = len(centers) - 1 - np.argmax(match[:, :, ::-1], axis=2)
    ok = match.any(axis=2).all(axis=1) & (z[atoms] == z).all(axis=1)
    return {int(g): atoms[g] for g in np.flatnonzero(ok)}


@functools.cache
def direction_images(order: int) -> np.ndarray:
    """(16, n_ang) read-only: entry [g, j] is the index of the image of
    Lebedev direction j under operation g. Every Lebedev set is mapped
    onto itself by each operation; each image set is matched to the
    directions by sorting both."""
    directions = lebedev.lebedev_grid(order)[0].T
    order_of = np.lexsort(directions)
    images = np.empty((len(_PERMS), directions.shape[1]), dtype=np.intp)
    for g, (perm, signs) in enumerate(zip(_PERMS, _SIGNS)):
        images[g, np.lexsort(directions[perm] * signs[:, None])] = order_of
    images.flags.writeable = False
    return images


def direction_orbits(order: int, operations):
    """(reps, inverse): one Lebedev direction per orbit of the operations,
    its lowest index, and for each direction j the position in reps of
    its orbit's, so that ``reps[inverse[j]]`` is the image of j under one
    of the operations. ``reps`` ascends."""
    rep = direction_images(order)[operations].min(axis=0)
    return np.unique(rep, return_inverse=True)


def build_molecular_grid(molecule: Molecule, spec: AtomicGridSpec | None = None
                         ) -> MolecularGrid:
    """Union of Becke-weighted atomic product grids, built and weighed in
    blocks of whole radial shells, one weight per (shell, orbit of the
    molecule's ``symmetry_operations``), 0.0 where it is screened.

    The cell weights are taken at one Lebedev direction per orbit, the
    same bits as at every direction of it (module docstring).

    Refuses, before it allocates anything, a grid whose unscreened point
    count exceeds ``MAX_GRID_POINTS``, the most that the 32-bit point
    indices of its expanded ``index`` address."""
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
    orbits = direction_orbits(spec.lebedev_order, symmetry_operations(centers))
    reps = orbits[0]
    n_orbits = len(reps)
    weighed, ang = directions[:, reps], ang_wts[reps]
    shells = max(1, _BLOCK // n_orbits)  # per call of the kernel
    radial = np.empty((nat, n_radial))
    cells = np.empty((nat * n_radial, n_orbits))
    block = np.empty(3 * min(shells, n_radial) * n_orbits)
    for a in range(nat):
        r, wr = radial_grid(n_radial, radii[a])
        radial[a] = r
        for i in range(0, n_radial, shells):
            count = min(shells, n_radial - i)
            w = (4.0 * math.pi) * (wr[i:i + count, None] * ang[None, :])
            if nat > 1:  # one atom has no cell weights to take
                # r * u, then plus the centre, as a walk forms a point
                pts = block[:3 * count * n_orbits].reshape(3, count, -1)
                np.multiply(r[i:i + count, None], weighed[:, None], out=pts)
                pts += centers[a][:, None, None]
                w *= becke_weights(pts.reshape(3, -1).T, centers, radii,
                                   stiffness=spec.stiffness,
                                   size_adjust=spec.size_adjust
                                   )[a].reshape(count, -1)
            row = a * n_radial + i
            # a NaN weight fails the comparison and is screened too
            cells[row:row + count] = np.where(w >= WEIGHT_SCREEN, w, 0.0)
    return MolecularGrid(cells=cells, radial=radial, directions=directions,
                         nuclear_orbits=orbits, molecule=molecule, spec=spec)


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
                             Chunk(start, weights[start:start + _CHUNK]),
                             grid)[0])
        for start in range(0, len(weights), _CHUNK))


def chunk_partials(values, chunk: Chunk, grid=None) -> np.ndarray:
    """The partials of ``integrate`` over one chunk, one per row of values
    ((m,) or (rows, m)): each row's dot product with the chunk's weights
    (m,). A non-finite value raises ``nonfinite_error`` at the first row
    that holds one, naming the chunk's ``first_kept`` of its non-finite
    values: the lowest kept point whose orbit's value is not finite."""
    rows = np.atleast_2d(values)
    partials = np.array([np.dot(row, chunk.weights) for row in rows])
    if not np.isfinite(partials).all():
        for row in rows:
            bad = ~np.isfinite(row)
            if bad.any():
                raise nonfinite_error(chunk.first_kept(bad), grid)
    return partials


def nonfinite_error(index: int, grid: MolecularGrid | None = None):
    """The error for a non-finite field value at kept point ``index``,
    with its position when the grid is known."""
    where = f" at point index {index}"
    if grid is not None:
        where += f", position {grid.position(index)}"
    return ValueError(f"non-finite field value{where}")
