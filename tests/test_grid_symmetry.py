"""Becke cell weights once per symmetry orbit of the Lebedev directions.

``build_molecular_grid`` takes the cell weights at one direction per
orbit of the operations that fix every nucleus exactly (the signed swaps
of x and y, each with or without z -> -z) and gathers them back to every
direction. Each grid below must be the bits of ``references.listed_grid``,
which weighs every direction, and the build must weigh only the orbits'
representatives, so that a reduction that silently stops applying fails
here too.
"""
import itertools

import numpy as np
import pytest

from entropart import lebedev
from entropart.molecule import Molecule
from entropart.quadrature import (AtomicGridSpec, build_molecular_grid,
                                  direction_images, direction_orbits,
                                  symmetry_operations)
from references import listed_grid

# (molecule, operations that fix it, directions weighed per shell at
# Lebedev 110, 194 and 434)
CASES = {
    "h2-on-z": (Molecule([("H", (0.0, 0.0, -0.7)), ("H", (0.0, 0.0, 0.7))]),
                8, (22, 35, 70)),
    # unequal radii: the size-adjust shift runs
    "lih-on-z": (Molecule([("Li", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, 3.015))]),
                 8, (22, 35, 70)),
    "negative-zeros": (Molecule([("H", (-0.0, 0.0, -1.2)),
                                 ("Li", (0.0, -0.0, 0.4)),
                                 ("H", (-0.0, -0.0, 2.1))]), 8, (22, 35, 70)),
    # y -> -y only
    "bent-in-xz": (Molecule([("O", (0.0, 0.0, 0.0)), ("H", (1.43, 0.0, 1.1)),
                             ("H", (-1.43, 0.0, 1.1))]), 2, (61, 105, 229)),
    # a nucleus off the z axis by 1e-17 keeps only y -> -y
    "off-axis": (Molecule([("H", (1e-17, 0.0, -0.7)), ("H", (0.0, 0.0, 0.7))]),
                 2, (61, 105, 229)),
    # x <-> y only
    "x-equals-y": (Molecule([("O", (0.5, 0.5, 0.0)), ("H", (1.4, 1.4, 1.1)),
                             ("H", (-1.0, -1.0, 0.3))]), 2, (64, 109, 235)),
    # z -> -z only
    "in-xy": (Molecule([("O", (0.0, 0.0, 0.0)), ("H", (1.4, 0.3, 0.0)),
                        ("Li", (-1.2, 0.9, 0.0))]), 2, (61, 105, 229)),
    "generic": (Molecule([("O", (0.1, 0.0, 0.0)), ("H", (0.0, 1.4, 1.1)),
                          ("Li", (0.3, -1.9, 0.8))]), 1, (110, 194, 434)),
}


@pytest.mark.parametrize("stiffness", [3, 5])
@pytest.mark.parametrize("order", [110, 194, 434])
@pytest.mark.parametrize("case", list(CASES))
def test_grid_is_the_all_directions_reference(case, order, stiffness,
                                              becke_calls):
    mol, n_ops, per_shell = CASES[case]
    spec = AtomicGridSpec(n_radial=80, lebedev_order=order,
                          stiffness=stiffness)
    grid = build_molecular_grid(mol, spec)
    for got, want in zip((grid.points, grid.weights, grid.owner_atom),
                         listed_grid(mol, spec)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert len(symmetry_operations(mol.positions)) == n_ops
    reps = per_shell[(110, 194, 434).index(order)]
    assert sum(becke_calls) == len(mol) * spec.n_radial * reps


@pytest.mark.parametrize("order", lebedev.SUPPORTED_NODE_COUNTS)
def test_direction_images_are_the_brute_force_match(order):
    directions = lebedev.lebedev_grid(order)[0]
    # + 0.0 makes -0.0 and 0.0 one key
    at = {tuple(u + 0.0): j for j, u in enumerate(directions)}
    images = direction_images(order)
    assert images.shape == (16, order) and not images.flags.writeable
    perms = itertools.product(((0, 1, 2), (1, 0, 2)),
                              itertools.product((1.0, -1.0), repeat=3))
    for g, (perm, signs) in enumerate(perms):
        want = [at[tuple(np.array(signs) * u[list(perm)] + 0.0)]
                for u in directions]
        assert images[g].tolist() == want
    assert images[0].tolist() == list(range(order))  # the identity


@pytest.mark.parametrize("order", lebedev.SUPPORTED_NODE_COUNTS)
def test_orbits_partition_the_directions(order):
    # every direction's representative is its image under an operation,
    # and equal weights make the Lebedev weights of an orbit one value
    images = direction_images(order)
    weights = lebedev.lebedev_grid(order)[1]
    for ops in ([0], [0, 2], [0, 8], list(range(8)), list(range(16))):
        reps, inverse = direction_orbits(order, ops)
        assert (np.diff(reps) > 0).all()
        assert (images[ops][:, reps] >= reps).all()  # the orbit's lowest
        rep = reps[inverse]
        assert all(rep[j] in images[ops, j] for j in range(order))
        assert np.array_equal(weights[rep], weights)
    assert len(direction_orbits(order, [0])[0]) == order

