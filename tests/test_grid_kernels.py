"""The grid kernels against the bodies they replaced.

``becke_weights_kernel`` takes the cell function once per unordered atom
pair, in place, ``eval_primitives`` forms distances once per centre, and
``build_molecular_grid`` weighs each atom grid in blocks of whole radial
shells and writes the weight and index of each kept (shell, orbit)
straight into the grid's arrays, and ``MolecularGrid.chunks`` forms the
coordinates of each integration chunk as the walk reaches it. The
references below are the ordered-pair kernel, the per-primitive kernel
and the whole-atom list-and-``vstack`` build (``references.listed_grid``):
the new code must give the same bits wherever its arithmetic is
unchanged.
"""
import dataclasses
import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import entropart
from entropart.backends import (EXP_UNDERFLOW, becke_weights_kernel,
                                eval_primitives)
from entropart.density import TYPE_POWS, PrimitiveBasis
from entropart.molecule import Molecule
from entropart.quadrature import (_BLOCK, _CHUNK, WEIGHT_SCREEN,
                                  AtomicGridSpec, build_molecular_grid)
from references import listed_grid

FIXED = settings(derandomize=True, deadline=None, database=None,
                 max_examples=60)
OHLI = Molecule([("O", (0.0, 0.0, 0.0)), ("H", (0.0, 1.4, 1.1)),
                 ("Li", (0.3, -1.9, 0.8))])


def ordered_pair_becke(points, centers, radii, stiffness, size_adjust):
    """Becke weights with the cell function taken for every ordered pair."""
    nat, npts = len(centers), len(points)
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
                shift = min(0.5, max(-0.5, u / (u * u - 1.0)))
                mu = mu + shift * (1.0 - mu * mu)
            f = mu
            for _ in range(stiffness):
                f = 0.5 * f * (3.0 - f * f)
            P[a] *= 0.5 * (1.0 - f)
    return P / P.sum(axis=0)


def per_primitive_values(points, prim_centers, prim_exps, prim_norms,
                         ang_pows):
    """Primitive values with dx, dy, dz and r^2 formed per primitive."""
    dx = points[None, :, 0] - prim_centers[:, 0, None]
    dy = points[None, :, 1] - prim_centers[:, 1, None]
    dz = points[None, :, 2] - prim_centers[:, 2, None]
    r2 = dx * dx + dy * dy + dz * dz
    G = np.exp(-prim_exps[:, None] * r2)
    G *= prim_norms[:, None]
    for comp, pw in ((dx, ang_pows[:, 0]), (dy, ang_pows[:, 1]),
                     (dz, ang_pows[:, 2])):
        m = pw > 0
        if m.any():
            G[m] *= comp[m] ** pw[m, None]
    return G


def _spread_centres(rng, nat):
    """nat centres at least 0.5 bohr apart, with points around them."""
    while True:
        centers = rng.uniform(-2.0, 2.0, size=(nat, 3))
        if all(np.linalg.norm(centers[a] - centers[b]) >= 0.5
               for a in range(nat) for b in range(a)):
            points = (centers[rng.integers(nat, size=3000)]
                      + rng.normal(scale=1.5, size=(3000, 3)))
            return centers, points


@pytest.mark.parametrize("stiffness", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("nat", [2, 3, 4, 5, 6])
def test_becke_weights_equal_ordered_pairs_bitwise(nat, stiffness, rng):
    # no boundary shift: equal radii, or mixed radii with size_adjust off
    centers, points = _spread_centres(rng, nat)
    mixed = rng.uniform(0.3, 2.0, size=nat)
    for radii, size_adjust in ((np.full(nat, 0.7), True), (mixed, False)):
        got = becke_weights_kernel(points, centers, radii, stiffness,
                                   size_adjust)
        want = ordered_pair_becke(points, centers, radii, stiffness,
                                  size_adjust)
        assert np.array_equal(got, want)


@pytest.mark.parametrize("stiffness", [1, 3, 5])
def test_becke_weights_with_mixed_radii(stiffness, rng):
    # the shift of (b, a) is the negated shift of (a, b), which moves the
    # weights by rounding only
    centers = np.array([[0.0, 0.0, 0.0], [0.3, 1.1, 1.7], [-1.2, 0.4, 0.9]])
    radii = np.array([0.35, 1.5, 0.7])
    points = rng.normal(scale=2.0, size=(20000, 3))
    got = becke_weights_kernel(points, centers, radii, stiffness, True)
    want = ordered_pair_becke(points, centers, radii, stiffness, True)
    assert np.abs(got - want).max() <= 1e-15
    # two centres: the column total is s_ab + s_ba, exactly 1
    for a, b in ((0, 1), (0, 2), (1, 2)):
        pair = becke_weights_kernel(points, centers[[a, b]], radii[[a, b]],
                                    stiffness, True)
        assert (pair[0] + pair[1] == 1.0).all()


@FIXED
@given(data=st.data())
def test_eval_primitives_equals_per_primitive_values(data):
    # every type code once, on one to four centres listed interleaved
    nat = data.draw(st.integers(1, 4))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    centers = rng.uniform(-2.0, 2.0, size=(nat, 3))
    codes = sorted(TYPE_POWS)
    order = data.draw(st.permutations(codes))
    index = np.array([i % nat for i in range(len(order))])
    exps = rng.uniform(0.1, 4.0, size=len(order))
    pows = np.array([TYPE_POWS[c] for c in order], dtype=np.int64)
    norms = rng.uniform(0.5, 2.0, size=len(order))
    points = rng.uniform(-6.0, 6.0, size=(257, 3))
    got = eval_primitives(points, centers, index, exps, norms, pows)
    want = per_primitive_values(points, centers[index], exps, norms, pows)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _underflow_case(points, centers, index, exps, codes, rng):
    """eval_primitives against the per-primitive values, bit for bit and
    sign for sign; returns each primitive's alpha * min and max r^2."""
    pows = np.array([TYPE_POWS[c] for c in codes], dtype=np.int64)
    norms = rng.uniform(0.5, 2.0, size=len(exps))
    got = eval_primitives(points, centers, index, exps, norms, pows)
    want = per_primitive_values(points, centers[index], exps, norms, pows)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    r2 = ((points[None] - centers[index][:, None]) ** 2).sum(axis=2)
    ar2 = exps[:, None] * r2
    skipped = ar2.min(axis=1) > EXP_UNDERFLOW
    # the skipped rows are zeros, some of them negative, as exp would give
    assert (want[skipped] == 0.0).all() and np.signbit(want[skipped]).any()
    return ar2.min(axis=1), ar2.max(axis=1)


def test_underflow_skip_of_every_primitive_on_a_centre(rng):
    # centre 1 is 60 bohr from every point, so each of its primitives,
    # s to f with negative dz, underflows at every point of the chunk
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 60.0]])
    codes = [1, 4, 7, 13, 16, 19, 20, 1, 2, 11]
    index = np.array([1] * 7 + [0] * 3)
    exps = rng.uniform(0.3, 4.0, size=len(codes))
    points = rng.normal(scale=1.0, size=(700, 3))
    low, _ = _underflow_case(points, centers, index, exps, codes, rng)
    assert (low[index == 1] > EXP_UNDERFLOW).all()
    assert (low[index == 0] <= EXP_UNDERFLOW).all()


def test_underflow_skip_at_the_threshold(rng):
    # alpha r^2 between 740 and 750 at every point: primitives whose
    # minimum lies just above the threshold are skipped, and those whose
    # range straddles it are exponentiated and underflow at some points;
    # at 745.1 exp(-alpha r^2) is still the least subnormal
    centers = np.zeros((1, 3))
    direction = rng.normal(size=(4096, 3))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    points = direction * np.sqrt(rng.uniform(740.0, 750.0, size=4096))[:, None]
    points[0] = (math.sqrt(740.0), 0.0, 0.0)
    codes = [1, 2, 3, 4, 5, 8, 10, 11, 17, 20] * 3
    # min alpha r^2 about 740, 745.1 and 746.7
    exps = np.repeat([1.0, 745.1 / 740.0, 1.009], 10)
    index = np.zeros(len(codes), dtype=np.int64)
    low, high = _underflow_case(points, centers, index, exps, codes, rng)
    assert (low[20:] > EXP_UNDERFLOW).all()
    assert ((low[:20] <= EXP_UNDERFLOW) & (high[:20] > EXP_UNDERFLOW)).all()
    assert np.exp(-low[10]) > 0.0


def test_basis_evaluate_gathers_its_centres(rng):
    # a basis whose centres are listed out of order and skip an atom
    mol = Molecule([("O", (0.0, 0.0, 0.0)), ("H", (0.0, 1.4, 1.1)),
                    ("H", (0.0, -1.4, 1.1))])
    basis = PrimitiveBasis(mol, [2, 0, 2, 0, 0], [1, 4, 2, 11, 20],
                           rng.uniform(0.3, 2.0, size=5))
    points = rng.normal(scale=2.0, size=(100, 3))
    want = per_primitive_values(points, mol.positions[basis.center_index],
                                basis.exponents, basis.norms, basis.ang_pows)
    assert np.array_equal(basis.evaluate(points), want)


def test_grid_is_the_listed_build(h3_wfn_field):
    # homonuclear: the whole old build, Becke kernel included
    mol = h3_wfn_field.molecule
    spec = AtomicGridSpec()
    grid = build_molecular_grid(mol, spec)
    for got, want in zip((grid.points, grid.weights, grid.owner_atom),
                         listed_grid(mol, spec, ordered_pair_becke)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


def test_mixed_radii_grid_is_the_listed_build():
    # the write-once assembly against the lists, both on the new kernel
    mol = OHLI
    spec = AtomicGridSpec(n_radial=150, lebedev_order=110)
    grid = build_molecular_grid(mol, spec)
    for got, want in zip((grid.points, grid.weights, grid.owner_atom),
                         listed_grid(mol, spec, becke_weights_kernel)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(grid) < 3 * 150 * 110  # some points were screened


def _h_chain(nat, spacing):
    return Molecule([("H", (0.0, 0.0, spacing * i)) for i in range(nat)])


@pytest.mark.parametrize("mol, spec, kernel, weighed, blocks", [
    # (whole blocks, shells in the last partial one) at _BLOCK // weighed
    # shells per block, for the directions weighed per shell: one per
    # symmetry orbit (35 of 194 and 70 of 434 on the z axis), or every
    # one where the cell weights are not taken
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=1000), ordered_pair_becke,
     35, (2, 64)),
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=50), ordered_pair_becke,
     35, (0, 50)),
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=710, lebedev_order=434),
     ordered_pair_becke, 70, (3, 8)),
    (_h_chain(1, 0.0), AtomicGridSpec(n_radial=300), ordered_pair_becke,
     194, (3, 48)),
    (OHLI, AtomicGridSpec(n_radial=100, lebedev_order=434),
     becke_weights_kernel, 434, (2, 26)),
    # each H8 atom at 400x194 is one call of 14,000 points, where every
    # direction weighed took five
    (_h_chain(8, 1.8), AtomicGridSpec(), becke_weights_kernel, 35, (0, 400)),
], ids=["partial-last-block", "under-one-block", "lebedev-434",
        "single-atom", "mixed-radii", "h8-one-call-per-atom"])
def test_blocked_grid_is_the_listed_build(mol, spec, kernel, weighed, blocks,
                                          becke_calls):
    shells = _BLOCK // weighed
    assert divmod(spec.n_radial, shells) == blocks
    grid = build_molecular_grid(mol, spec)
    whole, last = blocks
    per_atom = [shells * weighed] * whole + [last * weighed] * (last > 0)
    assert becke_calls == (per_atom * len(mol) if len(mol) > 1 else [])
    for got, want in zip((grid.points, grid.weights, grid.owner_atom),
                         listed_grid(mol, spec, kernel)):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("mol, spec", [
    (_h_chain(1, 0.0), AtomicGridSpec(n_radial=1000, lebedev_order=434)),
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=400, lebedev_order=194)),
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=1000, lebedev_order=434)),
    (_h_chain(8, 1.8), AtomicGridSpec(n_radial=400, lebedev_order=194)),
], ids=["h-1000x434", "h2-400x194", "h2-1000x434", "h8-400x194"])
def test_grid_build_working_set_does_not_grow_with_the_grid(mol, spec):
    # beyond the grid's own table the build holds the kernel's 2 nat + 9
    # floats per weighed point of at most _BLOCK, and one block of at most
    # _BLOCK screened weights (2.5 MiB traced at nat = 8), whatever the
    # size of the grid
    tracemalloc.start()
    try:
        grid = build_molecular_grid(mol, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    excess = peak - grid.cells.nbytes
    assert excess < 4 * 2 ** 20, excess / 2 ** 20


@pytest.mark.parametrize("mol, spec, kernel, across", [
    # across: whether some chunk crosses an atom boundary, and whether some
    # chunk spans screened points
    (OHLI, AtomicGridSpec(n_radial=150, lebedev_order=110),
     becke_weights_kernel, (True, True)),
    (_h_chain(8, 1.8), AtomicGridSpec(n_radial=1, lebedev_order=6),
     ordered_pair_becke, (True, False)),
    (_h_chain(1, 0.0), AtomicGridSpec(n_radial=300), ordered_pair_becke,
     (False, False)),
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=1000, lebedev_order=434),
     ordered_pair_becke, (True, True)),
], ids=["mixed-radii", "h8-1x6", "single-atom", "h2-1000x434"])
def test_chunk_coordinates_are_the_listed_build(mol, spec, kernel, across):
    grid = build_molecular_grid(mol, spec)
    points, weights, owners = listed_grid(mol, spec, kernel)
    assert np.array_equal(grid.points, points)
    assert np.array_equal(grid.weights, weights)
    owner, flat = grid.owner_atom, grid.index
    assert owner.dtype == np.int64 and np.array_equal(owner, owners)
    starts, crossing, screened = [], 0, 0
    n_ang = spec.lebedev_order
    walk = grid.walk([0])  # the kept points themselves
    for c in map(walk.chunk, range(len(walk))):
        start, chunk = c.start, c.points
        stop = start + len(chunk)
        starts.append(start)
        assert chunk.shape == (min(_CHUNK, len(grid) - start), 3)
        assert np.array_equal(chunk, points[start:stop])
        crossing += owner[start] != owner[stop - 1]
        index = flat[start:stop]
        screened += index[-1] - index[0] + 1 > len(index)
        k = start + len(chunk) // 2
        assert np.array_equal(walk.chunk(k // _CHUNK).points[k % _CHUNK],
                              points[k])
        assert divmod(int(flat[k]), n_ang)[0] // spec.n_radial == owner[k]
    assert starts == list(range(0, len(grid), _CHUNK))
    assert (crossing > 0, screened > 0) == across


def test_grid_holds_weights_and_indices_per_point():
    # the grid stores one float64 weight per (radial shell, orbit of
    # directions), 0.0 where the orbit was screened, in one table of its
    # own, 8 bytes a cell; the kept-point arrays, their weights and 32-bit
    # indices, are built from it on each access, not kept
    for mol, spec, cells, kept in [
            # on the z axis, 70 of 434 and 35 of 194 orbits of directions
            # per shell
            (_h_chain(2, 1.4), AtomicGridSpec(n_radial=1000, lebedev_order=434),
             138_278, 862_258),
            (_h_chain(8, 1.8), AtomicGridSpec(), 106_078, 600_784),
            # only the identity fixes these nuclei: one cell per direction
            (OHLI, AtomicGridSpec(n_radial=150, lebedev_order=110),
             48_815, 48_815)]:
        grid = build_molecular_grid(mol, spec)
        n_orbits = len(grid.nuclear_orbits[0])
        shape = (len(mol) * spec.n_radial, n_orbits)
        tables = {f.name for f in dataclasses.fields(grid)
                  if isinstance(getattr(grid, f.name), np.ndarray)
                  and getattr(grid, f.name).shape == shape}
        assert tables == {"cells"}
        assert grid.cells.dtype == np.float64
        assert grid.cells.flags.c_contiguous and grid.cells.base is None
        assert grid.cells.nbytes == 8 * len(mol) * spec.n_radial * n_orbits
        assert np.count_nonzero(grid.cells) == cells
        assert (grid.cells[grid.cells != 0] >= WEIGHT_SCREEN).all()
        assert len(grid) == kept
        assert grid.radial.shape == (len(mol), spec.n_radial)
        assert grid.directions.shape == (3, spec.lebedev_order)
        # the indices increase along the kept points
        index, weights = grid.index, grid.weights
        assert index.dtype == np.int32 and weights.dtype == np.float64
        assert len(index) == len(weights) == kept
        assert (np.diff(index) > 0).all()
    assert not np.shares_memory(grid.points, grid.points)
    assert not np.shares_memory(grid.owner_atom, grid.owner_atom)
    assert not np.shares_memory(grid.weights, grid.weights)
    assert not np.shares_memory(grid.index, grid.index)


_PEAK = textwrap.dedent("""
    def peak_kib():
        # the process's own peak RSS; ru_maxrss also carries the peak of the
        # process that started it, which can hide this one
        with open("/proc/self/status") as f:
            return next(int(line.split()[1]) for line in f
                        if line.startswith("VmHWM:"))
""")

_RSS = _PEAK + textwrap.dedent("""
    from entropart import (AtomicGridSpec, analyze_field, build_model,
                           build_molecular_grid)

    before = peak_kib()
    model = build_model("fci", 1.4)
    grid = build_molecular_grid(model.molecule(), AtomicGridSpec(1000, 434))
    analyze_field(model.field(), grid, alphas=(0.5, 2.0, 3.0))
    print(len(grid), peak_kib() - before)
""")

_DUMP_RSS = _PEAK + textwrap.dedent("""
    import sys

    import entropart.cli

    before = peak_kib()
    entropart.cli.main(["grid-dump", "--distances", "1.4", "--n-radial",
                        sys.argv[1], "--lebedev", "434", "--out", "/dev/null"])
    print(peak_kib() - before)
""")


def _run(code, *args):
    """The standard output of ``python -c code args`` on this package."""
    src = os.path.dirname(os.path.dirname(entropart.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_dense_analysis_peak_rss_above_import():
    # H2 fci on 1000x434 (862,258 points): with three coordinates, a weight
    # and an owner per point the grid alone held 33 MiB, and the peak RSS
    # grew 36.1 MiB over the import; a weight and a 32-bit index per point
    # (9.9 MiB) grew it 13.5 MiB (15.0-15.4 MiB, remeasured), and per
    # (radial shell, orbit of directions) (1.6 MiB) 6.7-6.8 MiB (2-core
    # x86-64 Linux, NumPy 2.4)
    points, grown_kib = map(int, _run(_RSS).split())
    assert points == 862_258
    assert grown_kib < 24 * 1024, grown_kib / 1024


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="reads the peak RSS from /proc/self/status")
def test_grid_dump_peak_rss_grows_with_its_cells_alone():
    # grid-dump writes H2's kept points block by block from the grid's
    # cells, 8 bytes per radial shell and orbit (70 of 434 directions):
    # 0.3 MiB at 300x434 (260,000 points) and 1.1 MiB at 1000x434
    # (862,258). Beyond the cells the peak RSS grew 3.4-3.9 MiB over the
    # import at both sizes, and at 3000x434 (2-core x86-64 Linux, NumPy
    # 2.4); a weight per kept point held at once would add 4.6 MiB more at
    # the larger one
    beyond = [int(_run(_DUMP_RSS, str(n))) * 1024 - 8 * 2 * n * 70
              for n in (300, 1000)]
    assert beyond[1] - beyond[0] < 2**20, beyond
