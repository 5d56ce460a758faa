"""The density in orbital form against the coefficient matrix it factors.

Pair terms come from the factor D = sum_k n_k c_k c_k^T through the
atom-projected orbital values, or from D over the primitive values when
that needs fewer operations. The reference is the quadratic form of D
itself over the raw primitive values, block by block.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entropart import density
from entropart.backends import quad_form_block
from entropart.density import (TYPE_POWS, DensityMatrix, PairDensityField,
                               PrimitiveBasis, primitive_norm)
from entropart.molecule import Molecule
from entropart.wfnio import build_document, density_matrix_from_mos

FIXED = settings(derandomize=True, deadline=None, database=None,
                 max_examples=60)
SPD_CODES = [code for code, pows in TYPE_POWS.items() if sum(pows) <= 2]
_unit = st.floats(-1.0, 1.0, allow_nan=False)


@st.composite
def bases(draw):
    """s, p and d primitives on two to four well separated centres."""
    n_atoms = draw(st.integers(2, 4))
    positions = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(3)]
                          for _ in range(n_atoms)])
    assume(min(np.linalg.norm(positions[a] - positions[b])
               for a in range(n_atoms) for b in range(a)) >= 0.5)
    molecule = Molecule([("H", tuple(p)) for p in positions])
    n_prim = draw(st.integers(n_atoms, 3 * n_atoms))
    centres = list(range(n_atoms)) + [draw(st.integers(0, n_atoms - 1))
                                      for _ in range(n_prim - n_atoms)]
    return PrimitiveBasis(
        molecule, centres,
        [draw(st.sampled_from(SPD_CODES)) for _ in range(n_prim)],
        [draw(st.floats(0.3, 3.0)) for _ in range(n_prim)])


@st.composite
def symmetric_matrices(draw, n):
    """M diag(e) M^T: indefinite when e has both signs, rank-deficient when
    M has fewer columns than rows or e has zeros."""
    rank = draw(st.integers(1, n))
    m = np.array([[draw(_unit) for _ in range(rank)] for _ in range(n)])
    e = np.array([draw(st.sampled_from([-1.0, 0.0, 1.0])) * draw(_unit)
                  for _ in range(rank)])
    return (m * e) @ m.T


@pytest.mark.parametrize("orbital_form", [True, False])
@pytest.mark.filterwarnings("ignore:density below")
@FIXED
@given(data=st.data())
def test_factored_pair_terms_match_the_matrix(orbital_form, data):
    basis = data.draw(bases())
    dm = DensityMatrix(data.draw(symmetric_matrices(len(basis))), 1.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(density, "_orbital_form_is_cheaper",
                   lambda *args: orbital_form)
        field = PairDensityField(basis, dm)
    assert (field._projectors is not None) == orbital_form
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = (basis.molecule.positions[rng.integers(len(basis.molecule), size=300)]
              + rng.normal(scale=1.2, size=(300, 3)))
    rho, pairs = field.pair_fields(points, block_size=128)
    G = basis.evaluate(points)
    rows = [basis.atom_rows(a) for a in range(len(basis.molecule))]
    want = {(a, b): quad_form_block(dm.coefficients, G, rows[a], rows[b])
            for a, b in pairs}
    scale = max(np.abs(x).max() for x in want.values())
    assume(scale > 0)
    for key, x in want.items():
        assert np.abs(pairs[key] - x).max() <= 1e-12 * scale, key


@FIXED
@given(st.data())
def test_mo_factor_keeps_the_coefficient_matrix(data):
    basis = data.draw(bases())
    n = len(basis)
    occupations = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
    mos = [(data.draw(occupations), 0.0, [data.draw(_unit) for _ in range(n)])
           for _ in range(data.draw(st.integers(1, 4)))]
    assume(sum(o for o, _, _ in mos) > 0)
    doc = build_document(basis.molecule, basis, mos)
    for normalized in (True, False):
        dm = density_matrix_from_mos(doc, normalized_primitives=normalized)
        # the contraction as it was written before the factor was kept
        C = np.array([mo.coefficients for mo in doc.mos])
        occ = np.array([mo.occupation for mo in doc.mos])
        if not normalized:
            C = C / np.array([primitive_norm(a, TYPE_POWS[int(t)]) for a, t
                              in zip(doc.prim_exponent, doc.prim_type)])[None, :]
        c = np.einsum("k,ki,kj->ij", occ, C, C)
        c = 0.5 * (c + c.T)
        np.testing.assert_array_equal(dm.coefficients, 0.5 * (c + c.T))
        # zero occupations are dropped from the factor
        occupied = occ != 0
        np.testing.assert_array_equal(dm.occupations, occ[occupied])
        np.testing.assert_array_equal(dm.orbitals, C[occupied].T)


def _h2_basis(per_atom):
    exponents = np.geomspace(0.2, 5.0, per_atom)
    return PrimitiveBasis(Molecule.h2(1.4), np.repeat([0, 1], per_atom),
                          np.ones(2 * per_atom, dtype=int),
                          np.tile(exponents, 2))


@pytest.mark.parametrize("per_atom, rank, orbital_form", [
    (6, 2, True),    # two natural orbitals over STO-6G-sized atoms
    (6, 12, False),  # as many orbitals as primitives
    (2, 3, False),   # more orbitals than primitives on an atom
])
def test_pair_terms_take_the_cheaper_form(per_atom, rank, orbital_form):
    basis = _h2_basis(per_atom)
    m = np.random.default_rng(7).normal(size=(len(basis), rank))
    dm = DensityMatrix(m @ m.T, 2.0, orbitals=(np.ones(rank), m))
    field = PairDensityField(basis, dm)
    assert (field._projectors is not None) == orbital_form


def test_a_factor_that_does_not_reproduce_the_matrix_is_refused():
    basis = _h2_basis(2)
    v = np.random.default_rng(3).normal(size=(4, 4))
    n = np.array([2.0, 1.0, 0.5, 0.25])
    c = (v * n) @ v.T
    DensityMatrix(c, 2.0, orbitals=(n, v))
    with pytest.raises(ValueError, match="does not reproduce"):
        DensityMatrix(c, 2.0, orbitals=(n, v.T))  # K = nprim: same shape
    with pytest.raises(ValueError, match="does not reproduce"):
        DensityMatrix(c, 2.0, orbitals=(n[::-1], v))
    with pytest.raises(ValueError, match=r"coefficients \(4, K\)"):
        DensityMatrix(c, 2.0, orbitals=(n[:3], v))
    with pytest.raises(ValueError, match=r"coefficients \(4, K\)"):
        DensityMatrix(c, 2.0, orbitals=(n, v.reshape(2, 8)))
    assert len(basis) == 4
