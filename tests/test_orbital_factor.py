"""The density in orbital form against the coefficient matrix it factors.

Each atom's pair terms take its K atom-projected orbital values when K is
below its primitive count, and its primitive values otherwise. The
reference is the quadratic form of D itself over the raw primitive values,
block by block.
"""
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
def bases(draw, per_atom=None):
    """s, p and d primitives on two to four well separated centres; a
    strategy ``per_atom`` draws the primitive count of each centre."""
    n_atoms = draw(st.integers(2, 4))
    positions = np.array([[draw(st.floats(-2.0, 2.0)) for _ in range(3)]
                          for _ in range(n_atoms)])
    assume(min(np.linalg.norm(positions[a] - positions[b])
               for a in range(n_atoms) for b in range(a)) >= 0.5)
    molecule = Molecule([("H", tuple(p)) for p in positions])
    if per_atom is None:
        n_prim = draw(st.integers(n_atoms, 3 * n_atoms))
        centres = list(range(n_atoms)) + [draw(st.integers(0, n_atoms - 1))
                                          for _ in range(n_prim - n_atoms)]
    else:
        centres = [a for a in range(n_atoms) for _ in range(draw(per_atom))]
        n_prim = len(centres)
    return PrimitiveBasis(
        molecule, centres,
        [draw(st.sampled_from(SPD_CODES)) for _ in range(n_prim)],
        [draw(st.floats(0.3, 3.0)) for _ in range(n_prim)])


# K against the primitive counts m_A: below all of them (every atom takes
# projected rows), between them (mixed), or at or above all (primitive)
KINDS = {"projected": st.integers(2, 4), "mixed": st.integers(1, 4),
         "primitive": st.integers(1, 4)}


@pytest.mark.parametrize("kind", sorted(KINDS))
@pytest.mark.filterwarnings("ignore:density below")
@FIXED
@given(data=st.data())
def test_factored_pair_terms_match_the_matrix(kind, data):
    # the factor is drawn, not the matrix: eigh keeps near-zero
    # eigenvalues, so a drawn matrix has K = nprim and only primitive rows
    basis = data.draw(bases(KINDS[kind]))
    nat = len(basis.molecule)
    rows = [basis.atom_rows(a) for a in range(nat)]
    low, high = min(map(len, rows)), max(map(len, rows))
    if kind == "mixed":
        assume(low < high)
    k = data.draw({"projected": st.integers(1, low - 1),
                   "mixed": st.integers(low, high - 1),
                   "primitive": st.integers(high, len(basis) + 2)}[kind])
    sign = st.sampled_from([-1.0, 1.0])
    occupations = [data.draw(sign) * data.draw(st.floats(0.05, 2.0))
                   for _ in range(k)]
    vectors = np.array([[data.draw(_unit) for _ in range(k)]
                        for _ in range(len(basis))])
    dm = DensityMatrix(None, 1.0, orbitals=(occupations, vectors))
    field = PairDensityField(basis, dm)
    projected = [c is not None for c in field._projectors]
    assert projected == [k < len(r) for r in rows]
    assert {"projected": all(projected), "mixed": any(projected)
            and not all(projected), "primitive": not any(projected)}[kind]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = (basis.molecule.positions[rng.integers(nat, size=300)]
              + rng.normal(scale=1.2, size=(300, 3)))
    rho, pairs = field.pair_fields(points)
    G = basis.evaluate(points)
    D = dm.coefficients
    want = {(a, b): quad_form_block(D[np.ix_(rows[a], rows[b])],
                                    G[rows[a]], G[rows[b]])
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


def _h2_basis(sizes):
    """H2 with sizes[A] s primitives on atom A."""
    exponents = [np.geomspace(0.2, 5.0, m) for m in sizes]
    return PrimitiveBasis(Molecule.h2(1.4), np.repeat([0, 1], sizes),
                          np.ones(sum(sizes), dtype=int),
                          np.concatenate(exponents))


@pytest.mark.parametrize("sizes, rank, projected", [
    ((6, 6), 2, (True, True)),     # two natural orbitals, STO-6G-sized atoms
    ((6, 6), 12, (False, False)),  # as many orbitals as primitives
    ((2, 2), 3, (False, False)),   # more orbitals than primitives on an atom
    ((6, 6), 6, (False, False)),   # K = m_A: the primitive rows
    ((6, 2), 4, (True, False)),    # K between the two atoms' counts
], ids=["6-2-True", "6-12-False", "2-3-False", "6-6-False", "6+2-4-mixed"])
def test_pair_terms_take_the_cheaper_form(sizes, rank, projected):
    # each atom takes min(K, m_A) value rows: projected when K < m_A
    basis = _h2_basis(sizes)
    m = np.random.default_rng(7).normal(size=(len(basis), rank))
    field = PairDensityField(
        basis, DensityMatrix(None, 2.0, orbitals=(np.ones(rank), m)))
    assert tuple(c is not None for c in field._projectors) == projected
    widths = [min(rank, size) for size in sizes]
    for (a, b), block in zip(field.pair_keys, field._blocks):
        assert block.shape == (widths[a], widths[b])


def _factor():
    v = np.random.default_rng(3).normal(size=(4, 4))
    return np.array([2.0, 1.0, 0.5, 0.25]), v


def test_a_matrix_and_its_factor_together_are_refused():
    n, v = _factor()
    c = (v * n) @ v.T
    DensityMatrix(c, 2.0)
    DensityMatrix(None, 2.0, orbitals=(n, v))
    with pytest.raises(ValueError, match="not both"):
        DensityMatrix(c, 2.0, orbitals=(n, v))
    with pytest.raises(ValueError, match="not both"):
        DensityMatrix(None, 2.0)


def test_a_wrongly_shaped_factor_is_refused():
    n, v = _factor()
    for occupations, vectors in [(n[:3], v), (n, v.reshape(2, 8)),
                                 (n[:, None], v), (n, v[0])]:
        with pytest.raises(ValueError, match=r"coefficients \(nprim, K\)"):
            DensityMatrix(None, 2.0, orbitals=(occupations, vectors))
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix(None, 2.0, orbitals=(n, np.where(v > 1, np.inf, v)))
    # a factor over another number of primitives than the basis holds
    dm = DensityMatrix(None, 2.0, orbitals=(n, np.vstack([v, v])))
    with pytest.raises(ValueError, match="basis size"):
        PairDensityField(_h2_basis((2, 2)), dm)
