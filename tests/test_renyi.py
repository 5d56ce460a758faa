"""Order-alpha entropies: totals, pair partition, net terms, limits."""
import math

import numpy as np
import pytest

from entropart.density import DensityMatrix, PairDensityField, PrimitiveBasis
from entropart.models import atom_field
from entropart.molecule import Atom, Molecule
from entropart.quadrature import AtomicGridSpec, build_molecular_grid
from entropart.renyi import (asymptotic_renyi_reference, renyi2_partition,
                             renyi_decompose, renyi_net_nadd_intra,
                             renyi_total)

LN2 = math.log(2.0)


def _atom_arrays(n_radial=200, lebedev=110):
    field = atom_field()
    grid = build_molecular_grid(field.molecule,
                                AtomicGridSpec(n_radial=n_radial,
                                               lebedev_order=lebedev))
    rho, pairs = field.pair_fields(grid.points)
    return rho, pairs, grid


def test_alpha_validation():
    rho, pairs, grid = _atom_arrays(40, 26)
    for alpha in (0.0, -1.0, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            renyi_total(rho, grid.weights, alpha, 1.0)
    with pytest.raises(ValueError, match="Shannon"):
        renyi_total(rho, grid.weights, 1.0, 1.0)
    with pytest.raises(ValueError, match="Shannon"):
        renyi_total(rho, grid.weights, 1.0 + 1e-10, 1.0)


def test_gaussian_closed_form():
    """A single normalized Gaussian density has S_alpha in closed form.

    For p(r) = (2a/pi)^(3/2) exp(-2a r^2):
    S_alpha = (3/2) [log(pi/(2a)) + log(alpha)/(alpha - 1)].
    """
    a = 0.8
    mol = Molecule([Atom("H", 1.0, (0.0, 0.0, 0.0))])
    basis = PrimitiveBasis(mol, [0], [1], [a])
    field = PairDensityField(basis, DensityMatrix([[1.0]], n_electrons=1.0))
    grid = build_molecular_grid(mol, AtomicGridSpec(n_radial=150,
                                                    lebedev_order=50))
    rho = field.density(grid.points)
    n_grid = float(np.dot(rho, grid.weights))
    for alpha in (0.5, 2.0, 3.0):
        expect = 1.5 * (math.log(math.pi / (2 * a))
                        + math.log(alpha) / (alpha - 1.0))
        got = renyi_total(rho, grid.weights, alpha, n_grid)
        assert got.density == pytest.approx(expect, abs=1e-10)


def test_atom_reference_values(atom_ref):
    assert atom_ref.renyi[0.5].moment == pytest.approx(10.24752259463314,
                                                       abs=1e-9)
    assert atom_ref.renyi[2.0].moment == pytest.approx(0.07585920616321754,
                                                       abs=1e-12)
    assert atom_ref.renyi[2.0].density == pytest.approx(2.578876207273665,
                                                        abs=1e-10)
    assert atom_ref.renyi[3.0].density == pytest.approx(2.1474599796312166,
                                                        abs=1e-10)
    assert atom_ref.renyi[0.5].density == pytest.approx(4.654071956572312,
                                                        abs=1e-9)


def test_single_atom_partition_is_trivial():
    rho, pairs, grid = _atom_arrays()
    part = renyi2_partition(pairs, grid.weights)
    assert set(part.p4) == {(0, 0, 0, 0)}
    assert part.p4[(0, 0, 0, 0)] == 1.0
    assert part.nadd == 0.0
    assert abs(part.closure_residual) < 1e-12
    moment = renyi_total(rho, grid.weights, 2.0, 1.0).moment
    net = renyi_net_nadd_intra(pairs, grid.weights, 2.0, moment)
    assert net.p_atom[0] == pytest.approx(1.0, rel=1e-14)
    assert net.nadd_intra == pytest.approx(0.0, abs=1e-14)


def test_h2_pair_partition_reference_values(model_analysis):
    dec = model_analysis("fci", 1.4).analysis.renyi[2.0]
    assert dec.totals.density == pytest.approx(1.6911958487311087, abs=1e-10)
    assert dec.totals.shape == pytest.approx(3.077490198021644, abs=1e-10)
    part = dec.pair_partition
    assert part.p4[(0, 0, 0, 0)] == pytest.approx(0.16459324691806249,
                                                  abs=1e-10)
    assert part.p4[(0, 0, 0, 1)] == pytest.approx(0.05612301838017438,
                                                  abs=1e-10)
    assert part.p4[(0, 0, 1, 1)] == pytest.approx(0.04339749739518401,
                                                  abs=1e-10)
    assert part.p4[(0, 1, 0, 1)] == pytest.approx(0.033758591083027985,
                                                  abs=1e-10)
    assert part.add == pytest.approx(4.3081813645038505, abs=1e-10)
    assert part.nadd == pytest.approx(2.616985515772742, abs=1e-10)
    net = dec.net_terms
    assert net.p_atom[0] == pytest.approx(0.1645932469180625, abs=1e-10)
    assert net.net == pytest.approx(1.150662786751682, abs=1e-10)
    assert net.nadd_intra == pytest.approx(0.5939439549176786, abs=1e-10)


def test_pair_partition_structure(model_analysis):
    part = model_analysis("fci", 1.4).analysis.renyi[2.0].pair_partition
    assert len(part.p4) == 16
    assert math.fsum(part.p4.values()) == pytest.approx(1.0, abs=1e-14)
    assert all(v >= 0 for v in part.p4.values())
    # symmetries of the two-sided split
    assert part.p4[(0, 1, 0, 0)] == part.p4[(1, 0, 0, 0)]
    assert part.p4[(0, 1, 0, 0)] == pytest.approx(part.p4[(0, 0, 0, 1)],
                                                  rel=1e-12)
    assert part.p4[(1, 1, 0, 0)] == pytest.approx(part.p4[(0, 0, 1, 1)],
                                                  rel=1e-12)
    # closure is an algebraic identity of the same normalization constant
    assert abs(part.add - part.nadd - part.total) < 1e-12


def test_net_minus_intra_recovers_weighted_total(model_analysis):
    # net - nadd_intra = pref * sum_A p_A * log(m_A / p_A) and m_A / p_A is
    # the full rho**alpha integral for every atom, so the gap equals the
    # total entropy scaled by the summed atomic shares.
    for alpha in (0.5, 2.0, 3.0):
        for method, separation in (("fci", 1.4), ("hf", 1.4), ("fci", 50.0)):
            dec = model_analysis(method, separation).analysis.renyi[alpha]
            gap = dec.net_terms.net - dec.net_terms.nadd_intra
            share = math.fsum(dec.net_terms.p_atom.values())
            assert gap == pytest.approx(share * dec.totals.density, abs=1e-12)


def test_p_atom_bounds_and_far_limit(model_analysis):
    for separation in (1.4, 4.0, 50.0):
        for alpha in (0.5, 2.0, 3.0):
            net = model_analysis("fci", separation).analysis.renyi[alpha].net_terms
            for value in net.p_atom.values():
                assert -1e-12 <= value <= 1 + 1e-10
    net = model_analysis("fci", 50.0).analysis.renyi[2.0].net_terms
    assert net.p_atom[0] == pytest.approx(0.5, abs=1e-6)
    assert net.p_atom[1] == pytest.approx(0.5, abs=1e-6)
    assert math.fsum(net.p_atom.values()) == pytest.approx(1.0, abs=1e-9)


def test_separated_atoms_match_composition_rules(model_analysis, atom_ref):
    analysis = model_analysis("fci", 50.0).analysis
    for alpha in (0.5, 2.0, 3.0):
        dec = analysis.renyi[alpha]
        density_limit, shape_limit = atom_ref.renyi_limits(alpha)
        assert dec.totals.density == pytest.approx(density_limit, abs=1e-4)
        assert dec.totals.shape == pytest.approx(shape_limit, abs=1e-4)
    dec = analysis.renyi[2.0]
    # intra-atomic mixing term saturates at log 2; net matches one atom
    assert dec.net_terms.nadd_intra == pytest.approx(LN2, abs=1e-6)
    assert dec.net_terms.net == pytest.approx(atom_ref.renyi[2.0].density,
                                              abs=1e-4)


def test_composition_rule_formulas(atom_ref):
    for alpha in (0.5, 2.0, 3.0):
        s_atom = atom_ref.renyi[alpha].density
        density_limit, shape_limit = atom_ref.renyi_limits(alpha)
        assert density_limit == pytest.approx(
            s_atom + math.log(2.0) / (1.0 - alpha), rel=1e-13)
        # shape limit adds the alpha-weighted size correction
        assert shape_limit == pytest.approx(
            density_limit + (alpha / (alpha - 1.0)) * math.log(2.0), rel=1e-12)
    with pytest.raises(ValueError):
        asymptotic_renyi_reference(2.0, [1.0], [1.0, 1.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        asymptotic_renyi_reference(2.0, [1.0, 1.0], [1.0, -1.0], [1.0, 1.0])
    one_density, one_shape = asymptotic_renyi_reference(
        2.0, [atom_ref.renyi[2.0].density], [atom_ref.renyi[2.0].moment], [1.0])
    assert one_density == pytest.approx(atom_ref.renyi[2.0].density, rel=1e-14)
    assert one_shape == pytest.approx(atom_ref.renyi[2.0].density, rel=1e-14)


def test_shape_relation_all_orders(model_analysis):
    for method, separation in (("hf", 1.4), ("fci", 1.4), ("fci", 4.0)):
        analysis = model_analysis(method, separation).analysis
        n = analysis.n_grid
        for alpha in (0.5, 2.0, 3.0):
            totals = analysis.renyi[alpha].totals
            gap = (alpha / (alpha - 1.0)) * math.log(n)
            assert totals.shape - totals.density == pytest.approx(gap,
                                                                  abs=1e-10)


def test_shape_order_limit_is_shannon(model_analysis):
    """S_alpha of the shape function approaches the Shannon value as
    alpha -> 1, with the gap shrinking linearly in |alpha - 1|."""
    analysis = model_analysis("hf", 1.4).analysis
    shannon_shape = analysis.shannon.shape.total
    diffs = {}
    for eps in (1e-3, 1e-4):
        dec = model_analysis("hf", 1.4, alphas=(1.0 + eps,)).analysis
        diffs[eps] = abs(dec.renyi[1.0 + eps].totals.shape - shannon_shape)
    assert diffs[1e-4] <= 1e-3
    slope = {eps: d / eps for eps, d in diffs.items()}
    print(f"shape-order continuity: slope {slope[1e-3]:.3f} at 1e-3, "
          f"{slope[1e-4]:.3f} at 1e-4")
    assert 0.5 * slope[1e-3] <= slope[1e-4] <= 2.0 * slope[1e-3]


@pytest.mark.filterwarnings("ignore:density below")
def test_fractional_alpha_rejects_negative_blocks():
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    c = np.array([[1.0, 0.1], [0.1, -0.2]])
    field = PairDensityField(basis, DensityMatrix(c, n_electrons=1.0))
    grid = build_molecular_grid(mol, AtomicGridSpec(n_radial=40,
                                                    lebedev_order=26))
    rho, pairs = field.pair_fields(grid.points)
    with pytest.raises(ValueError, match="fractional"):
        renyi_net_nadd_intra(pairs, grid.weights, 0.5, 1.0)
    # integer orders keep the sign instead
    moment = renyi_total(rho, grid.weights, 3.0, 1.0).moment
    net = renyi_net_nadd_intra(pairs, grid.weights, 3.0, moment)
    assert math.isfinite(net.net)


def test_renyi_decompose_attaches_partition_only_at_two(model_analysis):
    analysis = model_analysis("fci", 1.4).analysis
    assert analysis.renyi[2.0].pair_partition is not None
    assert analysis.renyi[3.0].pair_partition is None
    assert analysis.renyi[0.5].pair_partition is None


def test_saturation_faster_than_shannon(model_analysis, atom_ref):
    """At intermediate separation the order-2 entropy sits much closer to
    its limit than the Shannon entropy does to its own."""
    analysis = model_analysis("fci", 6.0).analysis
    shannon_gap = abs(analysis.shannon.density.total - 2 * atom_ref.shannon)
    density_limit, _ = atom_ref.renyi_limits(2.0)
    renyi_gap = abs(analysis.renyi[2.0].totals.density - density_limit)
    print(f"R=6 gaps: shannon {shannon_gap:.3e}, order-2 {renyi_gap:.3e}")
    assert renyi_gap < shannon_gap
