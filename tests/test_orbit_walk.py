"""The walk at one point per symmetry orbit.

``analyze_field`` walks the grid at one point per orbit of the operations
that fix every nucleus and map the field onto itself
(``PairDensityField.symmetry``, ``MolecularGrid.walk``), evaluates the
field there and weights it by its grid row's weight times its member
count, 4096 representatives a chunk (``MolecularGrid.walk``). Where only
the identity is left, the representatives are the kept points and every
integral must be the bits of ``references.walk`` over the arrays of
``pair_fields``; elsewhere it moves by rounding only. The walk must also evaluate only the
representatives, each once, so that a reduction that silently stops
applying fails here.
"""
import warnings

import numpy as np
import pytest

from entropart import analysis
from entropart.analysis import analyze_field
from entropart.density import (NEGATIVE_CLAMP, ClampDiagnostics, DensityMatrix,
                               PairDensityField, PrimitiveBasis)
from entropart.models import atom_field, build_model
from entropart.molecule import Molecule
from entropart.quadrature import (_CHUNK, _PERMS, _SIGNS, AtomicGridSpec,
                                  build_molecular_grid, direction_orbits,
                                  integrate, symmetry_operations)
from entropart.reductions import integrals
from entropart.wfnio import field_from_document, parse_wfn

from references import walk

ALPHAS = (0.5, 2.0, 3.0)
SPEC = AtomicGridSpec(n_radial=60, lebedev_order=110)


def _field(mol, centers, types, exponents, c=None):
    """A field over the given primitives, its density matrix c (by default
    a fixed positive semidefinite one), with the electron count that the
    molecule's grid on ``SPEC`` gives."""
    basis = PrimitiveBasis(mol, centers, types, exponents)
    if c is None:
        a = np.random.default_rng(len(basis)).normal(size=(len(basis),) * 2)
        c = a @ a.T / len(basis)
    grid = build_molecular_grid(mol, SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        probe = PairDensityField(basis, DensityMatrix(c, n_electrons=1.0))
        n = integrate(probe.pair_fields(grid.points)[0], grid)
    return PairDensityField(basis, DensityMatrix(c, n))


def _px_py_h2():
    """H2 on the z axis with a px primitive on one atom and a py on the
    other: the nuclei are fixed by eight operations, the field by the
    identity alone."""
    mol = Molecule.h2(1.4)
    return _field(mol, [0, 0, 1, 1], [1, 2, 1, 3], [1.0, 0.7, 1.0, 0.7])


def _generic_h3():
    mol = Molecule([("H", (0.1, 0.2, 0.3)), ("H", (0.5, -0.4, 1.5)),
                    ("H", (-0.9, 0.6, 0.8))])
    return _field(mol, [0, 0, 1, 1, 2], [1, 1, 1, 4, 1],
                  [1.0, 0.3, 1.0, 0.6, 0.8])


def _h8_field(path):
    return field_from_document(parse_wfn(path.read_text()))


def _walked(monkeypatch, field, grid, calls):
    """The integrals of ``analyze_field``'s walk, one worker, with the
    list of ``pair_block_calls`` emptied before it."""
    del calls[:]
    taken = []

    def recorded(chunks):
        taken.append(integrals(chunks))
        return taken[-1]

    monkeypatch.setattr(analysis, "integrals", recorded)
    analyze_field(field, grid, alphas=ALPHAS, jobs=1)
    (values,) = taken
    return values


def _orbits(grid, operations):
    """``direction_orbits``'s (reps, inverse) of the operations on the
    grid's Lebedev directions."""
    return direction_orbits(grid.spec.lebedev_order, operations)


def _pairs(grid, orbits):
    """The (shell, orbit) of every kept point, from its flat index."""
    shell, j = np.divmod(grid.index.astype(np.int64), grid.directions.shape[1])
    return shell, orbits[1][j]


def _evaluated(grid, orbits):
    """The number of distinct (shell, orbit) pairs of the kept points."""
    shell, orbit = _pairs(grid, orbits)
    return len(np.unique(shell * len(orbits[0]) + orbit))


def _reference(field, grid):
    rho, pairs = field.pair_fields(grid.points)
    return walk(grid.weights, rho, pairs, ALPHAS)


@pytest.mark.parametrize("make", [_generic_h3, _px_py_h2])
def test_without_symmetry_the_walk_keeps_its_bits(make, monkeypatch,
                                                  pair_block_calls):
    field = make()
    grid = build_molecular_grid(field.molecule, SPEC)
    assert field.symmetry()[0].tolist() == [0]
    assert grid.walk(field.symmetry()[0]).reps.tolist() == list(range(110))
    got = _walked(monkeypatch, field, grid, pair_block_calls)
    assert sum(pair_block_calls) == len(grid)
    want = _reference(field, grid)
    assert got.keys() == want.keys()
    for family in want:
        assert np.array_equal(got[family], want[family]), family


@pytest.mark.parametrize("case, spec", [
    *[((method, separation), None) for method in ("hf", "hl", "fci")
      for separation in (1.4, 5.0, 50.0)],
    ("atom", None),
    ("h3", SPEC),
    # the default grid's reference arrays would take 170 MiB
    ("h8", AtomicGridSpec(n_radial=100, lebedev_order=194))])
def test_with_symmetry_every_integral_moves_by_rounding(case, spec,
                                                        monkeypatch,
                                                        pair_block_calls,
                                                        h3_wfn_field,
                                                        h8_wfn_path):
    if case == "atom":
        field = atom_field()
    elif case == "h3":
        field = h3_wfn_field
    elif case == "h8":
        field = _h8_field(h8_wfn_path)
    else:
        field = build_model(*case).field()
    grid = build_molecular_grid(field.molecule, spec)
    got = _walked(monkeypatch, field, grid, pair_block_calls)
    assert sum(pair_block_calls) < len(grid) * 0.6
    want = _reference(field, grid)
    assert got.keys() == want.keys()
    for family in want:
        assert np.allclose(got[family], want[family], rtol=1e-14, atol=0.0), (
            family, np.max(np.abs(got[family] - want[family])
                           / np.abs(want[family])))


@pytest.mark.parametrize("case, kept, evaluated", [
    ("h2", 154_928, 27_734), ("atom", 77_594, 7_598),
    ("h8", 600_784, 106_078)])
def test_the_walk_evaluates_one_point_per_orbit(case, kept, evaluated,
                                                pair_block_calls,
                                                h8_wfn_path):
    # on the default grid, 194 directions per shell: H2 and the H8 chain
    # on the z axis have 35 orbits per shell, the atom at the origin 19;
    # each orbit of each shell is evaluated once, 4096 to a chunk
    if case == "h8":
        field = _h8_field(h8_wfn_path)
    else:
        field = atom_field() if case == "atom" else build_model("fci", 1.4).field()
    grid = build_molecular_grid(field.molecule)
    orbits = _orbits(grid, field.symmetry()[0])
    assert len(orbits[0]) == (19 if case == "atom" else 35)
    analyze_field(field, grid, jobs=1)
    assert len(grid) == kept
    assert _evaluated(grid, orbits) == evaluated
    assert sum(pair_block_calls) == evaluated
    assert pair_block_calls == [_CHUNK] * (evaluated // _CHUNK) + [
        evaluated % _CHUNK]


def test_orbit_chunks_are_their_members_summed(h8_wfn_path):
    # against a loop over the kept points: each representative stands for
    # the kept points of one shell whose directions share an orbit, in
    # (shell, orbit) order, 4096 to a chunk; it is the image of every
    # member under an operation, exactly; every member carries the weight
    # of its cell of the grid, bit for bit, and the representative weighs
    # that weight times its member count, exactly, their sum to rounding
    field = _h8_field(h8_wfn_path)
    grid = build_molecular_grid(field.molecule, SPEC)
    ops = field.symmetry()[0]
    # every operation that keeps z
    assert ops.tolist() == [g for g in range(16) if _SIGNS[g, 2] == 1.0]
    orbits = _orbits(grid, ops)
    reps, inverse = orbits
    n_ang, positions = grid.directions.shape[1], grid.points
    weights, row_orbit = grid.weights, grid.nuclear_orbits[1]
    rows = {(int(shell), int(o)): grid.cells[shell, o]
            for shell, o in zip(*np.nonzero(grid.cells))}
    members = {}
    for k, flat in enumerate(grid.index.tolist()):
        shell, j = divmod(flat, n_ang)
        members.setdefault((shell, int(inverse[j])), []).append(k)
    keys = sorted(members)
    walk = grid.walk(ops)
    assert walk.evaluated == len(keys) == _evaluated(grid, orbits)
    assert len(walk) == -(-len(keys) // _CHUNK) == 3
    for i in range(3):
        chunk = walk.chunk(i)
        mine = keys[i * _CHUNK:(i + 1) * _CHUNK]
        row = [rows[shell, row_orbit[reps[orbit]]] for shell, orbit in mine]
        assert chunk.counts.tolist() == [len(members[key]) for key in mine]
        assert chunk.weights.tolist() == [
            w * len(members[key]) for w, key in zip(row, mine)]
        assert np.allclose(chunk.weights,
                           [weights[members[key]].sum() for key in mine],
                           rtol=1e-15, atol=0.0)
        for m, (shell, orbit) in enumerate(mine):
            atom = shell // grid.spec.n_radial
            r = grid.radial.reshape(-1)[shell]
            u = grid.directions[:, reps[orbit]]
            assert np.array_equal(chunk.points[m],
                                  r * u + grid.molecule.positions[atom])
            assert (weights[members[shell, orbit]] == row[m]).all()
            for k in members[shell, orbit]:
                assert any(np.array_equal(_SIGNS[g] * positions[k][_PERMS[g]],
                                          chunk.points[m]) for g in ops)
            # an error at this representative names its first member
            bad = np.zeros(len(mine), dtype=bool)
            bad[m] = True
            assert chunk.first_kept(bad) == members[shell, orbit][0]


@pytest.mark.parametrize("mol, spec", [
    (Molecule.h2(1.4), SPEC),
    # screened points in the innermost shells
    (Molecule([("H", (0.0, 0.0, 0.0))]),
     AtomicGridSpec(n_radial=300, lebedev_order=146))], ids=["h2", "atom"])
def test_rows_split_into_the_walks_orbits(mol, spec):
    # a walk over fewer operations than fix the nuclei (the identity and
    # y -> -y) splits each row of the grid into several of its orbits; each
    # representative weighs its row's weight times its member count, and
    # an error at it names its lowest kept member
    grid = build_molecular_grid(mol, spec)
    orbits = _orbits(grid, [0, 2])
    reps, inverse = orbits
    assert len(reps) > len(grid.nuclear_orbits[0])
    shell, orbit = _pairs(grid, orbits)
    slot = shell * len(reps) + orbit
    keys, first, counts = np.unique(slot, return_index=True,
                                    return_counts=True)
    weights = grid.weights
    walk = grid.walk([0, 2])
    assert walk.evaluated == len(keys)
    for i in range(len(walk)):
        chunk = walk.chunk(i)
        mine = slice(i * _CHUNK, i * _CHUNK + len(chunk.weights))
        assert chunk.counts.tolist() == counts[mine].tolist()
        assert np.array_equal(chunk.weights, weights[first[mine]] * counts[mine])
        for m in range(0, len(chunk.weights), 11):
            bad = np.zeros(len(chunk.weights), dtype=bool)
            bad[m] = True
            assert chunk.first_kept(bad) == first[mine][m]


def test_an_s_px_hybrid_keeps_only_the_operations_that_fix_it(
        monkeypatch, pair_block_calls):
    # an sp hybrid along x on each atom of H2 on the z axis: negating x and
    # swapping x and y change it; negating y does not
    mol = Molecule.h2(1.4)
    field = _field(mol, [0, 0, 1, 1], [1, 2, 1, 2], [1.0, 0.7, 1.0, 0.7],
                   c=np.outer([1.0, 0.8, 1.0, 0.8], [1.0, 0.8, 1.0, 0.8]))
    nuclear = symmetry_operations(mol.positions)
    assert len(nuclear) == 8
    fixes_x = [g for g in nuclear
               if np.array_equal(_SIGNS[g] * np.eye(3)[0][_PERMS[g]],
                                 np.eye(3)[0])]
    assert field.symmetry()[0].tolist() == fixes_x
    assert [(_PERMS[g].tolist(), _SIGNS[g].tolist()) for g in fixes_x] == [
        ([0, 1, 2], [1.0, 1.0, 1.0]), ([0, 1, 2], [1.0, -1.0, 1.0])]
    grid = build_molecular_grid(mol, SPEC)
    got = _walked(monkeypatch, field, grid, pair_block_calls)
    # y -> -y leaves 61 of 110 directions per shell
    evaluated = _evaluated(grid, _orbits(grid, fixes_x))
    assert len(grid) / 2 < sum(pair_block_calls) == evaluated < len(grid) * 0.6
    assert len(pair_block_calls) == -(-evaluated // _CHUNK)
    want = _reference(field, grid)
    for family in want:
        assert np.allclose(got[family], want[family], rtol=1e-14, atol=0.0), family


def test_a_field_invariant_under_more_than_its_primitives_walks_them_all(
        monkeypatch, pair_block_calls):
    # an s and a px primitive on each atom of H2 on the z axis, with no s-px
    # coupling in the density matrix: negating x negates each px, which
    # changes the primitives but not the density matrix, so the walk takes
    # every operation that fixes the nuclei and keeps x and y apart
    mol = Molecule.h2(1.4)
    c = np.array([[0.6, 0.0, 0.4, 0.0], [0.0, 0.3, 0.0, 0.0],
                  [0.4, 0.0, 0.6, 0.0], [0.0, 0.0, 0.0, 0.3]])
    field = _field(mol, [0, 0, 1, 1], [1, 2, 1, 2], [1.0, 0.7, 1.0, 0.7], c=c)
    ops = field.symmetry()[0]
    assert ops.tolist() == [0, 2, 4, 6]
    grid = build_molecular_grid(mol, SPEC)
    got = _walked(monkeypatch, field, grid, pair_block_calls)
    evaluated = _evaluated(grid, _orbits(grid, ops))
    assert (evaluated, len(grid)) == (4_042, 13_162)
    assert pair_block_calls == [_CHUNK] * (evaluated // _CHUNK) + [
        evaluated % _CHUNK]
    want = _reference(field, grid)
    for family in want:
        assert np.allclose(got[family], want[family], rtol=1e-14, atol=0.0), family
    # each operation maps every pair term onto itself
    points = np.random.default_rng(7).normal(scale=1.5, size=(50, 3))
    pairs = field.pair_fields(points)[1]
    for g in ops:
        images = field.pair_fields(_SIGNS[g] * points[:, _PERMS[g]])[1]
        for key, values in pairs.items():
            assert np.allclose(images[key], values, rtol=1e-14, atol=0.0), (
                g, key)


def test_a_symmetric_walk_counts_clamps_at_every_grid_point(pair_block_calls):
    # the density matrix makes rho negative over several chunks; the walk
    # evaluates one point per orbit and counts each orbit's kept members
    c = np.array([[1.0, -1.2], [-1.2, 1.0]])
    mol = Molecule.h2(1.4)
    field = _field(mol, [0, 1], [1, 1], [1.0, 1.0], c=c)
    grid = build_molecular_grid(mol, SPEC)
    full = ClampDiagnostics()
    for i in range(-(-len(grid) // _CHUNK)):
        full += field.pair_block(grid.chunk(i)[1])[2]
    assert full.clamped > 0 and full.negated > 0
    del pair_block_calls[:]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fa = analyze_field(field, grid, jobs=1)
    assert sum(pair_block_calls) < len(grid) / 2
    assert fa.shannon.diagnostics == full == field.diagnostics
    assert [str(w.message) for w in caught
            if issubclass(w.category, RuntimeWarning)] == [
        f"density below {NEGATIVE_CLAMP} at {full.negated} points; "
        "using absolute values"]
