"""Primitive evaluation, density matrices, and the atom-pair partition."""
import math
import warnings

import numpy as np
import pytest

from entropart.analysis import analyze_field
from entropart.backends import quad_form, quad_form_block
from entropart.density import (TYPE_POWS, ContractedS, DensityMatrix,
                               PairDensityField, PrimitiveBasis,
                               contracted_overlap, primitive_norm)
from entropart.models import sto6g_hydrogen
from entropart.molecule import Atom, Molecule
from entropart.quadrature import (_CHUNK, AtomicGridSpec, build_molecular_grid,
                                  integrate)

from references import Primitive, eval_primitive


def _one_center(type_code, exponent=0.9):
    mol = Molecule([Atom("C", 6, (0.0, 0.0, 0.0))])
    return PrimitiveBasis(mol, [0], [type_code], [exponent])


def test_type_table_layout():
    assert len(TYPE_POWS) == 20
    assert TYPE_POWS[1] == (0, 0, 0)
    shells = {0: [], 1: [], 2: [], 3: []}
    for code, pows in TYPE_POWS.items():
        shells[sum(pows)].append(code)
    assert sorted(shells[0]) == [1]
    assert sorted(shells[1]) == [2, 3, 4]
    assert sorted(shells[2]) == [5, 6, 7, 8, 9, 10]
    assert sorted(shells[3]) == list(range(11, 21))


def test_primitive_norm_analytic():
    # s norm: (2a/pi)^(3/4)
    a = 1.7
    assert primitive_norm(a, (0, 0, 0)) == pytest.approx(
        (2.0 * a / math.pi) ** 0.75, rel=1e-14)


@pytest.mark.parametrize("code", [1, 2, 5, 8, 11, 17, 20])
def test_primitive_normalization_on_grid(code):
    # one representative from each shell: phi^2 integrates to 1
    basis = _one_center(code)
    grid = build_molecular_grid(basis.molecule,
                                AtomicGridSpec(n_radial=120, lebedev_order=86))
    phi = basis.evaluate(grid.points)[0]
    assert integrate(phi * phi, grid) == pytest.approx(1.0, abs=1e-10)


def test_eval_primitives_matches_pointwise_for_every_type(rng):
    # all 20 angular types, spread over the centers of a three-atom molecule
    mol = Molecule([Atom("C", 6, (0.0, 0.0, 0.0)),
                    Atom("O", 8, (0.3, -0.2, 1.4)),
                    Atom("H", 1, (-1.1, 0.9, 0.5))])
    codes = sorted(TYPE_POWS)
    centers = [i % 3 for i in range(len(codes))]
    exps = rng.uniform(0.2, 3.0, size=len(codes))
    basis = PrimitiveBasis(mol, centers, codes, exps)
    pts = rng.normal(scale=1.5, size=(50, 3))
    G = basis.evaluate(pts)
    assert G.shape == (len(codes), len(pts))
    for i, (code, ci, alpha) in enumerate(zip(codes, centers, exps)):
        p = Primitive(ci, TYPE_POWS[code], float(alpha))
        want = [eval_primitive(p, mol.positions[ci], r) for r in pts]
        np.testing.assert_allclose(G[i], want, rtol=1e-13, atol=1e-300)


def test_quad_form_is_sum_of_pair_blocks(rng):
    n, npts = 12, 500
    c = rng.normal(size=(n, n))
    c = 0.5 * (c + c.T)
    g = rng.normal(size=(n, npts))
    rows = [np.arange(0, 4), np.arange(4, 9), np.arange(9, 12)]
    total = np.zeros(npts)
    for a in range(3):
        for b in range(a, 3):
            ra, rb = rows[a], rows[b]
            term = quad_form_block(c[np.ix_(ra, rb)], g[ra], g[rb])
            total += term if a == b else 2.0 * term
    np.testing.assert_allclose(quad_form(c, g), total, rtol=1e-12, atol=1e-12)


def test_basis_validation():
    mol = Molecule([Atom("H", 1, (0.0, 0.0, 0.0))])
    with pytest.raises(ValueError, match="equal lengths"):
        PrimitiveBasis(mol, [0, 0], [1], [1.0])
    with pytest.raises(ValueError, match="center index"):
        PrimitiveBasis(mol, [1], [1], [1.0])
    with pytest.raises(ValueError, match="type code"):
        PrimitiveBasis(mol, [0], [21], [1.0])
    with pytest.raises(ValueError, match="positive"):
        PrimitiveBasis(mol, [0], [1], [-0.5])


def test_density_matrix_symmetry_enforced():
    with pytest.raises(ValueError, match="symmetric"):
        DensityMatrix(np.array([[1.0, 0.2], [0.4, 1.0]]), n_electrons=2.0)
    dm = DensityMatrix(np.array([[1.0, 0.2 + 4e-13], [0.2, 1.0]]),
                       n_electrons=2.0)
    assert dm.coefficients[0, 1] == dm.coefficients[1, 0]


@pytest.mark.parametrize("c", [
    np.diag([1.0, 1e308]),
    np.array([[1.0, 1e308], [1e308, 1.0]]),
    np.array([[1.0, -1e308], [-1e308, 2.0]]),
])
def test_symmetrizing_huge_entries_does_not_overflow(c):
    # c + c.T overflows although every entry, and the mean, is finite
    np.testing.assert_array_equal(DensityMatrix(c, 1.0).coefficients, c)
    # the same for the matrix derived from an orbital factor
    n, v = np.linalg.eigh(c)
    derived = DensityMatrix(None, 1.0, orbitals=(n, v)).coefficients
    assert np.isfinite(derived).all()
    np.testing.assert_allclose(derived, c, rtol=1e-15, atol=1e-15 * 1e308)


def test_density_matrix_symmetry_tolerance_scales(rng):
    # MO coefficients near 100 with fractional occupations: the contraction
    # leaves an asymmetry far above 1e-12 absolute, tiny relative to max|c|
    C = rng.normal(scale=100.0, size=(8, 30))
    occ = rng.uniform(0.0, 2.0, size=8)
    c = np.einsum("k,ki,kj->ij", occ, C, C)
    assert np.abs(c - c.T).max() > 1e-12
    dm = DensityMatrix(c, n_electrons=occ.sum())
    np.testing.assert_array_equal(dm.coefficients, dm.coefficients.T)
    # a real asymmetry is still rejected at that scale
    c[0, 1] += 1e-9 * np.abs(c).max()
    with pytest.raises(ValueError, match="symmetric"):
        DensityMatrix(c, n_electrons=occ.sum())


def _h2_field(R=1.4):
    from entropart.models import hf_model
    return hf_model(R).field()


def test_single_atom_partition_is_trivial(rng):
    from entropart.models import atom_field
    field = atom_field()
    pts = rng.normal(scale=2.0, size=(500, 3))
    rho, pairs = field.pair_fields(pts)
    assert set(pairs) == {(0, 0)}
    np.testing.assert_allclose(pairs[(0, 0)], rho, rtol=0, atol=1e-15)


def test_pair_fields_close_pointwise(rng):
    field = _h2_field()
    pts = rng.normal(scale=2.5, size=(2000, 3))
    pts[:, 2] += 0.7  # straddle both centers
    rho, pairs = field.pair_fields(pts)
    # unique keys only; cross terms enter the total twice
    assert set(pairs) == {(0, 0), (0, 1), (1, 1)}
    total = pairs[(0, 0)] + 2.0 * pairs[(0, 1)] + pairs[(1, 1)]
    np.testing.assert_allclose(total, rho, rtol=1e-12, atol=1e-300)


def _pieces(evaluate, pts, cuts):
    """evaluate over each slice pts[cuts[i]:cuts[i + 1]]."""
    cuts = [0, *cuts, len(pts)]
    return [evaluate(pts[i:j]) for i, j in zip(cuts, cuts[1:])]


def _close(actual, desired):
    # BLAS may round the last columns of a block differently
    np.testing.assert_allclose(actual, desired, rtol=1e-14, atol=0)


# slices on chunk boundaries must give the same bits; slices that cross
# them at other offsets (a short one, one across the first boundary, one
# longer than a chunk) the same values
SLICINGS = [([_CHUNK], np.testing.assert_array_equal),
            ([1000, _CHUNK + 7, 2 * _CHUNK + 500], _close)]


def test_pair_fields_blocked_evaluation_matches(rng):
    field = _h2_field()
    pts = rng.normal(scale=2.0, size=(2 * _CHUNK + 1000, 3))
    rho, pairs = field.pair_fields(pts)
    for cuts, check in SLICINGS:
        parts = _pieces(field.pair_fields, pts, cuts)
        check(np.concatenate([r for r, _ in parts]), rho)
        for key, x in pairs.items():
            check(np.concatenate([p[key] for _, p in parts]), x)


def test_density_blocked_evaluation_matches(rng):
    field = _h2_field()
    pts = rng.normal(scale=2.0, size=(2 * _CHUNK + 1000, 3))
    rho = field.density(pts)
    for cuts, check in SLICINGS:
        check(np.concatenate(_pieces(field.density, pts, cuts)), rho)


def test_negative_density_clamp_and_warning():
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    # an indefinite coefficient matrix drives the density negative between
    # the centers; far from both it only dips a hair below zero
    c = np.array([[1.0, -1.2], [-1.2, 1.0]])
    field = PairDensityField(basis, DensityMatrix(c, n_electrons=1.0))
    pts = np.array([[0.0, 0.0, 0.7], [0.0, 0.0, 9.0], [4.0, 0.0, 0.7]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rho = field.density(pts)
    assert (rho >= 0).all()
    assert field.diagnostics.negated > 0
    assert any("absolute values" in str(w.message) for w in caught)


def test_clamp_counts_of_a_result_stay_fixed():
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    c = np.array([[1.0, -1.2], [-1.2, 1.0]])
    grid = build_molecular_grid(mol, AtomicGridSpec(n_radial=60,
                                                    lebedev_order=50))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # declare the electron count the clamped density integrates to
        probe = PairDensityField(basis, DensityMatrix(c, n_electrons=1.0))
        n = integrate(probe.pair_fields(grid.points)[0], grid)
        field = PairDensityField(basis, DensityMatrix(c, n_electrons=n))
        diag = analyze_field(field, grid).shannon.diagnostics
        counts = (diag.clamped, diag.negated)
        assert diag.negated > 0
        field.density(grid.points)
    assert (diag.clamped, diag.negated) == counts
    # the field keeps the running total over both calls
    assert field.diagnostics.negated > diag.negated


def test_contracted_overlap_reproduces_reference_value():
    phi = sto6g_hydrogen()
    # closed-form two-center overlap of the normalized contraction
    assert contracted_overlap(phi, phi, 1.4) == pytest.approx(
        0.65917616847521, abs=1e-11)
    assert contracted_overlap(phi, phi, 0.0) == pytest.approx(1.0, rel=1e-13)
    with pytest.raises(ValueError, match="nonnegative"):
        contracted_overlap(phi, phi, -1.0)
    with pytest.raises(TypeError):
        contracted_overlap(phi, object(), 1.0)


def test_contraction_self_normalizes():
    phi = ContractedS((0.5, 2.0, 7.0), (0.2, 0.5, 0.4))
    assert contracted_overlap(phi, phi, 0.0) == pytest.approx(1.0, rel=1e-14)
    with pytest.raises(ValueError, match="positive"):
        ContractedS((0.5, -2.0), (1.0, 1.0))
    with pytest.raises(ValueError, match="length"):
        ContractedS((0.5, 2.0), (1.0,))


def test_sto6g_contraction_integrates_to_one():
    from entropart.models import atom_field
    field = atom_field()
    grid = build_molecular_grid(field.molecule,
                                AtomicGridSpec(n_radial=200, lebedev_order=110))
    assert integrate(field.density(grid.points), grid) == pytest.approx(
        1.0, abs=1e-9)
