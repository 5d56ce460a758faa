"""The array functions, the direct reference, against the streamed walk.

``shannon_from_arrays``, ``renyi_total``, ``renyi_net_nadd_intra`` and
``renyi2_partition`` take each integral with one ``integrate`` over the
whole arrays of ``pair_fields``. ``analyze_field`` walks the grid once and
reduces every chunk through ``GridSums``. The two paths share no integrand,
only the chunk partial of ``integrate``, so each checks the other: every
number to 1e-12 relative, and the refusal of a fractional order word for
word.
"""
import re
import warnings

import numpy as np
import pytest

from entropart.analysis import analyze_field
from entropart.backends import quad_form
from entropart.density import DensityMatrix, PairDensityField, PrimitiveBasis
from entropart.models import build_model
from entropart.molecule import Molecule
from entropart.quadrature import AtomicGridSpec, build_molecular_grid, integrate
from entropart.renyi import (renyi2_partition, renyi_net_nadd_intra,
                             renyi_total)
from entropart.shannon import shannon_from_arrays

from references import walk

ALPHAS = (0.5, 2.0, 3.0)
SPEC = AtomicGridSpec(n_radial=150, lebedev_order=110)


def _close(got, want):
    assert abs(got - want) <= 1e-12 * abs(want), (got, want)


def _field(case, request):
    if case == "h3":
        return request.getfixturevalue("h3_wfn_field")
    method, separation = case
    return build_model(method, separation).field()


@pytest.mark.parametrize("case", [("hf", 1.4), ("hf", 4.0), ("fci", 1.4),
                                  ("fci", 4.0), "h3"])
def test_array_functions_match_the_walk(case, request):
    field = _field(case, request)
    grid = build_molecular_grid(field.molecule, SPEC)
    fa = analyze_field(field, grid, alphas=ALPHAS)
    rho, pairs = field.pair_fields(grid.points)
    n, w = fa.n_grid, grid.weights

    direct = shannon_from_arrays(rho, pairs, w, n, fa.shannon.diagnostics)
    for name in ("density", "shape"):
        got, want = getattr(fa.shannon, name), getattr(direct, name)
        for term in ("total", "add", "nadd"):
            _close(getattr(got, term), getattr(want, term))
        assert got.net.keys() == want.net.keys()
        assert got.overlap.keys() == want.overlap.keys()
        for a in want.net:
            _close(got.net[a], want.net[a])
        for key in want.overlap:
            _close(got.overlap[key], want.overlap[key])

    for alpha, dec in fa.renyi.items():
        totals = renyi_total(rho, w, alpha, n)
        for term in ("moment", "density", "shape"):
            _close(getattr(dec.totals, term), getattr(totals, term))
        net = renyi_net_nadd_intra(pairs, w, alpha, totals.moment)
        _close(dec.net_terms.net, net.net)
        _close(dec.net_terms.nadd_intra, net.nadd_intra)
        assert dec.net_terms.p_atom.keys() == net.p_atom.keys()
        for a in net.p_atom:
            _close(dec.net_terms.p_atom[a], net.p_atom[a])

    streamed = fa.renyi[2.0].pair_partition
    part = renyi2_partition(pairs, w)
    nat = len(field.molecule)
    assert streamed.p4.keys() == part.p4.keys()
    assert len(part.p4) == nat ** 4
    for t in part.p4:
        _close(streamed.p4[t], part.p4[t])
    for term in ("add", "nadd", "total"):
        _close(getattr(streamed, term), getattr(part, term))


def _walk_message(weights, rho, pairs, alpha):
    """What a walk of the given arrays raises."""
    with pytest.raises(ValueError) as caught:
        walk(weights, rho, pairs, (alpha,))
    return str(caught.value)


@pytest.mark.filterwarnings("ignore:density below")
def test_fractional_orders_are_refused_with_the_walks_message():
    # a negative diagonal element on the second centre: its net density,
    # and the unclamped density near it, fall below the clamp threshold
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    c = np.array([[1.0, 0.1], [0.1, -0.2]])
    grid = build_molecular_grid(mol, SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        probe = PairDensityField(basis, DensityMatrix(c, n_electrons=1.0))
        n_grid = integrate(probe.pair_fields(grid.points)[0], grid)
    field = PairDensityField(basis, DensityMatrix(c, n_grid))
    rho, pairs = field.pair_fields(grid.points)
    with pytest.raises(ValueError) as caught:
        analyze_field(field, grid, alphas=(0.5,))
    message = str(caught.value)
    assert message == ("the net density of atom 1 reaches values below "
                       "-1e-12; a fractional order alpha=0.5 is undefined there")
    assert _walk_message(grid.weights, rho, pairs, 0.5) == message
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        renyi_net_nadd_intra(pairs, grid.weights, 0.5, 1.0)

    # the walk is given the clamped density only; the array reference
    # refuses the unclamped one
    raw = quad_form(c, basis.evaluate(grid.points))
    with pytest.raises(ValueError, match=(
            r"^the density reaches values below -1e-12; a fractional order "
            r"alpha=0\.5 is undefined there$")):
        renyi_total(raw, grid.weights, 0.5, 1.0)
