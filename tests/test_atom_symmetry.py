"""Atoms that a symmetry of the field exchanges get the same bits.

``analyze_field`` averages the integrals of the pair terms, atomic net
densities and Gram entries over the atom permutations of the operations
that map the field onto itself (``PairDensityField.symmetry``,
``reductions.symmetrized``). In exact arithmetic the exchanged integrals
are equal; on a grid they differ by rounding, by how the walk's chunks
fall, unless they are averaged. A field that no operation maps onto
itself, however nearly, keeps the walk's own integrals.
"""
import warnings

import numpy as np
import pytest

from entropart import analysis
from entropart.analysis import analyze_field
from entropart.density import DensityMatrix, PairDensityField, PrimitiveBasis
from entropart.models import build_model
from entropart.molecule import Molecule
from entropart.quadrature import (AtomicGridSpec, build_molecular_grid,
                                  integrate, nuclear_permutations)
from entropart.reductions import _group, integrals, symmetrized
from references import listed_nuclear_permutations

ALPHAS = (0.5, 2.0, 3.0)
SPEC = AtomicGridSpec(n_radial=60, lebedev_order=110)


def _walked(monkeypatch, field, grid):
    """(the walk's integrals, as ``analyze_field`` uses them, and as the
    chunks gave them), one worker."""
    taken = []

    def recorded(chunks):
        taken.append(integrals(chunks))
        return taken[-1]

    monkeypatch.setattr(analysis, "integrals", recorded)
    used = []
    keep = analysis.symmetrized

    def kept(values, *args):
        used.append(keep(values, *args))
        return used[-1]

    monkeypatch.setattr(analysis, "symmetrized", kept)
    analyze_field(field, grid, alphas=ALPHAS, jobs=1)
    return used[0], taken[0]


def _s_pz_h2(orbital):
    """H2 on the z axis with an s and a pz primitive on each atom, one
    doubly occupied orbital over (s0, pz0, s1, pz1), normalized on
    ``SPEC``'s grid."""
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 0, 1, 1], [1, 4, 1, 4],
                           [1.0, 0.8, 1.0, 0.8])
    c = np.array(orbital, dtype=float)[:, None]
    grid = build_molecular_grid(mol, SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        probe = PairDensityField(basis, DensityMatrix(
            None, 1.0, orbitals=(np.array([2.0]), c)))
        n = integrate(probe.pair_fields(grid.points)[0], grid)
    return PairDensityField(basis, DensityMatrix(
        None, n, orbitals=(np.array([2.0]), c))), grid


def test_nuclear_permutations_match_elements():
    h2 = nuclear_permutations(Molecule.h2(1.4))
    assert sorted(h2) == list(range(16))
    # the operations that negate z exchange the two nuclei
    for g, atoms in h2.items():
        assert atoms.tolist() == ([1, 0] if g % 2 else [0, 1])
    heh = nuclear_permutations(Molecule([("He", (0.0, 0.0, 0.0)),
                                         ("H", (0.0, 0.0, 1.4))]))
    assert sorted(heh) == list(range(0, 16, 2))
    assert all(atoms.tolist() == [0, 1] for atoms in heh.values())
    off = Molecule([("H", (0.1, 0.2, 0.3)), ("H", (0.5, -0.4, 1.5))])
    assert list(nuclear_permutations(off)) == [0]


def _square(half, centre=None):
    corners = [("H", (x * half, y * half, 0.0))
               for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1))]
    return Molecule(([(centre, (0.0, 0.0, 0.0))] if centre else []) + corners)


@pytest.mark.parametrize("mol", [
    Molecule.h2(1.4),
    Molecule([("He", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 1.4))]),
    Molecule([("H", (0.1, 0.2, 0.3)), ("H", (0.5, -0.4, 1.5))]),
    _square(1.1),
    # two H8 chains: one mirrored about its centre exactly, and one whose
    # mirror image misses its nuclei by rounding
    Molecule([("H", (0.0, 0.0, 1.8 * (i - 3.5))) for i in range(8)]),
    Molecule([("H", (0.0, 0.0, 1.6514 * i)) for i in range(8)]),
    Molecule([("H", (0.0, 0.0, 0.0))]),
    _square(1.5, centre="Li"),
], ids=["h2", "heh", "off-axis", "h4-square", "h8-centred", "h8-from-0",
        "atom", "li-h4"])
def test_nuclear_permutations_are_the_listed_ones(mol):
    got, want = nuclear_permutations(mol), listed_nuclear_permutations(mol)
    assert list(got) == list(want) and all(type(g) is int for g in got)
    for g, atoms in want.items():
        assert got[g].dtype == atoms.dtype
        assert got[g].tolist() == atoms.tolist()


@pytest.mark.parametrize("method", ["hf", "hl", "fci"])
@pytest.mark.parametrize("separation", [1.4, 2.0, 3.0])
def test_exchanged_atoms_get_the_same_bits(method, separation, monkeypatch):
    field = build_model(method, separation).field()
    assert [p.tolist() for p in field.symmetry()[1]] == [[1, 0]]
    grid = build_molecular_grid(field.molecule, SPEC)
    values, walked = _walked(monkeypatch, field, grid)
    # pair keys (0, 0), (0, 1), (1, 1); Gram entries in upper-triangle order
    for k in range(3):
        assert values[("pair", k)][0] == values[("pair", k)][2]
    for alpha in ALPHAS:
        net = values[("net_pow", alpha)]
        assert net[0] == net[1]
    gram = values["gram"]
    assert gram[0] == gram[5] and gram[1] == gram[4]
    for family in values:
        assert np.allclose(values[family], walked[family], rtol=1e-14,
                           atol=0.0), family
    assert values["rho"] is walked["rho"]


def test_the_sign_of_an_exchanged_p_primitive_counts(monkeypatch):
    """z -> -z takes pz on one atom to -pz on the other: the orbital
    s0 + s1 + pz0 - pz1 goes to itself and s0 + s1 + pz0 + pz1 to
    s0 + s1 - pz0 - pz1, so only the first field exchanges its atoms."""
    symmetric, grid = _s_pz_h2([1.0, 0.3, 1.0, -0.3])
    assert [p.tolist() for p in symmetric.symmetry()[1]] == [[1, 0]]
    values, _ = _walked(monkeypatch, symmetric, grid)
    assert values[("pair", 0)][0] == values[("pair", 0)][2]

    lopsided, grid = _s_pz_h2([1.0, 0.3, 1.0, 0.3])
    assert lopsided.symmetry()[1] == []
    values, walked = _walked(monkeypatch, lopsided, grid)
    assert values is walked


def test_a_square_exchanges_its_atoms_by_a_group_of_order_eight(
        monkeypatch):
    # H4 on the corners of a square in the xy plane, in cyclic order, with
    # an s primitive on each and a density matrix that depends only on how
    # far apart two corners are: the eight symmetries of the square
    mol = Molecule([("H", (x, y, 0.0)) for x, y in
                    [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]])
    basis = PrimitiveBasis(mol, range(4), [1] * 4, [1.0] * 4)
    d = np.array([[0.5, 0.2, 0.05, 0.2], [0.2, 0.5, 0.2, 0.05],
                  [0.05, 0.2, 0.5, 0.2], [0.2, 0.05, 0.2, 0.5]])
    grid = build_molecular_grid(mol, SPEC)
    probe = PairDensityField(basis, DensityMatrix(d, 1.0))
    n = integrate(probe.pair_fields(grid.points)[0], grid)
    field = PairDensityField(basis, DensityMatrix(d, n))
    operations, permutations = field.symmetry()
    # only the identity and z -> -z fix every corner
    assert operations.tolist() == [0, 1]
    assert len(permutations) == 7
    assert len(_group(permutations, 4)) == 8
    values, walked = _walked(monkeypatch, field, grid)
    # pair keys (0, 0), (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), ...
    neighbours = [field.pair_keys.index(key)
                  for key in [(0, 1), (1, 2), (2, 3), (0, 3)]]
    for k in range(3):
        assert len({values[("pair", k)][m] for m in neighbours}) == 1
    for alpha in ALPHAS:
        assert len(set(values[("net_pow", alpha)])) == 1
    for family in values:
        assert np.allclose(values[family], walked[family], rtol=1e-14,
                           atol=0.0), family


def test_a_nearly_symmetric_density_matrix_is_not_averaged(monkeypatch):
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    d = np.array([[0.6, 0.4], [0.4, 0.6]])
    assert len(PairDensityField(basis, DensityMatrix(d, 2.0))
               .symmetry()[1]) == 1
    d[1, 1] = np.nextafter(0.6, 1.0)
    assert PairDensityField(basis, DensityMatrix(d, 2.0)
                            ).symmetry()[1] == []


def test_symmetrized_is_the_mean_of_the_images():
    keys = [(0, 0), (0, 1), (1, 1)]
    values = {"rho": np.array([2.0]), ("pair", 0): np.array([1.0, 5.0, 2.0]),
              ("net_pow", 2.0): np.array([3.0, 4.0]),
              ("rho_pow", 2.0): np.array([7.0]),
              "gram": np.arange(6.0)}
    assert symmetrized(values, keys, []) is values
    got = symmetrized(values, keys, [np.array([1, 0])])
    assert got["rho"] is values["rho"]
    assert got[("rho_pow", 2.0)] is values[("rho_pow", 2.0)]
    assert got[("pair", 0)].tolist() == [1.5, 5.0, 1.5]
    assert got[("net_pow", 2.0)].tolist() == [3.5, 3.5]
    # (00,00) <-> (11,11), (00,01) <-> (01,11); (00,11) and (01,01) stay
    assert got["gram"].tolist() == [2.5, 2.5, 2.0, 3.0, 2.5, 2.5]
