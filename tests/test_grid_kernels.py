"""The grid kernels against the bodies they replaced.

``becke_weights_kernel`` takes the cell function once per unordered atom
pair, in place, ``eval_primitives`` forms distances once per centre, and
``build_molecular_grid`` weighs each atom grid in blocks of whole radial
shells and writes the kept points straight into the grid's arrays. The
references below are the ordered-pair kernel, the per-primitive kernel and
the whole-atom list-and-``vstack`` build: the new code must give the same
bits wherever its arithmetic is unchanged.
"""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropart import lebedev
from entropart.backends import (EXP_UNDERFLOW, becke_weights_kernel,
                                eval_primitives)
from entropart.density import TYPE_POWS, PrimitiveBasis
from entropart.molecule import Molecule
from entropart.quadrature import (_BLOCK, WEIGHT_SCREEN, AtomicGridSpec,
                                  build_molecular_grid, grid_estimate,
                                  radial_grid)

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


def listed_grid(molecule, spec, kernel):
    """The grid built atom by atom into lists, then stacked."""
    centers = molecule.positions
    radii = molecule.bragg_radii()
    ang_pts, ang_wts = lebedev.lebedev_grid(spec.lebedev_order)
    all_pts, all_wts, owners = [], [], []
    for a in range(len(molecule)):
        r, wr = radial_grid(spec.n_radial, radii[a])
        pts = centers[a][None, None, :] + r[:, None, None] * ang_pts[None, :, :]
        pts = pts.reshape(-1, 3)
        w = (4.0 * math.pi) * (wr[:, None] * ang_wts[None, :]).reshape(-1)
        if len(molecule) > 1:
            w = w * kernel(pts, centers, radii, spec.stiffness,
                           spec.size_adjust)[a]
        keep = w >= WEIGHT_SCREEN
        all_pts.append(pts[keep])
        all_wts.append(w[keep])
        owners.append(np.full(int(keep.sum()), a, dtype=np.int64))
    return np.vstack(all_pts), np.concatenate(all_wts), np.concatenate(owners)


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


@pytest.mark.parametrize("mol, spec, kernel, blocks", [
    # (whole blocks, shells in the last partial one) at _BLOCK // n_ang
    # shells per block
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=200), ordered_pair_becke,
     (2, 32)),
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=50), ordered_pair_becke,
     (0, 50)),
    (_h_chain(2, 1.4), AtomicGridSpec(n_radial=120, lebedev_order=434),
     ordered_pair_becke, (3, 9)),
    (_h_chain(1, 0.0), AtomicGridSpec(n_radial=300), ordered_pair_becke,
     (3, 48)),
    (OHLI, AtomicGridSpec(n_radial=100, lebedev_order=434),
     becke_weights_kernel, (2, 26)),
], ids=["partial-last-block", "under-one-block", "lebedev-434",
        "single-atom", "mixed-radii"])
def test_blocked_grid_is_the_listed_build(mol, spec, kernel, blocks):
    assert divmod(spec.n_radial, _BLOCK // spec.lebedev_order) == blocks
    grid = build_molecular_grid(mol, spec)
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
    # beyond the grid's own arrays the build holds one block of shells,
    # about 2 nat + 9 floats per point of at most _BLOCK points (3.1 MiB
    # at nat = 8), whatever the size of the grid
    tracemalloc.start()
    try:
        build_molecular_grid(mol, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    excess = peak - grid_estimate(len(mol), spec)[1]
    assert excess < 4 * 2 ** 20, excess / 2 ** 20
