"""Shannon entropy decomposition and its exact internal relations."""
import math

import numpy as np
import pytest

from entropart.analysis import analyze_field
from entropart.models import atom_field
from entropart.quadrature import AtomicGridSpec, build_molecular_grid
from entropart.shannon import (asymptotic_shannon_reference,
                               check_normalization, safe_log,
                               shannon_point_terms)

LN2 = math.log(2.0)


def test_safe_log():
    x = np.array([0.0, 1.0, math.e, -math.e, 1e-300])
    out = safe_log(x)
    assert out[0] == 0.0
    assert out[1] == 0.0
    assert out[2] == pytest.approx(1.0, rel=1e-15)
    assert out[3] == pytest.approx(1.0, rel=1e-15)   # log of |x|
    assert out[4] == pytest.approx(math.log(1e-300), rel=1e-15)
    assert safe_log(0.0) == 0.0


def test_single_atom_decomposition_is_all_net():
    field = atom_field()
    grid = build_molecular_grid(field.molecule,
                                AtomicGridSpec(n_radial=200, lebedev_order=110))
    dec = analyze_field(field, grid).shannon
    terms = dec.density
    assert terms.overlap == {}
    assert terms.net[0] == terms.add
    assert terms.total == pytest.approx(3.499396827064924, abs=1e-9)
    assert abs(terms.nadd) < 1e-12
    assert abs(terms.closure_residual) < 1e-12
    # one electron: shape function and density coincide
    assert dec.shape.total == pytest.approx(terms.total, abs=1e-10)


def test_point_terms_close_pointwise(rng):
    from entropart.models import fci_model
    field = fci_model(1.4).field()
    pts = rng.normal(scale=2.0, size=(5000, 3))
    pts[:, 2] += 0.7
    rho, pairs = field.pair_fields(pts)
    terms = shannon_point_terms(rho, pairs)
    scale = np.maximum(np.abs(terms.total), 1.0)
    assert np.max(np.abs(terms.add - terms.nadd - terms.total) / scale) < 1e-10


def test_decomposition_reference_values(model_analysis):
    sh = model_analysis("hf", 1.4).analysis.shannon
    assert sh.density.total == pytest.approx(6.259964685588014, abs=1e-10)
    assert sh.density.nadd == pytest.approx(2.335308614774668, abs=1e-10)
    assert sh.density.net[0] == pytest.approx(2.414281274586636, abs=1e-10)
    assert sh.density.net[0] == sh.density.net[1]
    assert sh.density.overlap[(0, 1)] == pytest.approx(3.76671075118941,
                                                       abs=1e-10)
    assert sh.shape.total == pytest.approx(3.8231295363251143, abs=1e-10)

    sh = model_analysis("fci", 1.4).analysis.shannon
    assert sh.density.total == pytest.approx(6.258477571872122, abs=1e-10)
    assert sh.density.add == pytest.approx(8.547996595064259, abs=1e-10)
    assert sh.density.nadd == pytest.approx(2.2895190231921365, abs=1e-10)
    assert sh.shape.total == pytest.approx(3.822385979089767, abs=1e-10)
    assert sh.shape.nadd == pytest.approx(1.1447595183669517, abs=1e-10)

    assert model_analysis("hl", 1.4).analysis.shannon.density.total == \
        pytest.approx(6.2545815265541345, abs=1e-10)


def test_additive_part_sums_exactly(model_analysis):
    terms = model_analysis("fci", 1.4).analysis.shannon.density
    parts = list(terms.net.values()) + list(terms.overlap.values())
    assert terms.add == math.fsum(parts)


def test_closure_and_scaling_residuals(model_analysis):
    for method in ("hf", "hl", "fci"):
        for separation in (1.4, 4.0):
            fa = model_analysis(method, separation).analysis
            sh = fa.shannon
            assert abs(sh.density.closure_residual) < 1e-10
            assert abs(sh.shape.closure_residual) < 1e-10
            assert abs(sh.scaling_residual) < 1e-10
            assert fa.identity_violations() == {} and fa.identities_ok()
            nonzero = {k: v for k, v in fa.identity_residuals().items() if v}
            assert fa.identity_violations(0.0, 0.0) == nonzero
            assert fa.identities_ok(0.0, 0.0) == (not nonzero)


def test_entropy_rises_toward_separated_atoms(model_analysis, atom_ref):
    ladder = (1.4, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0)
    values = [model_analysis("fci", r).analysis.shannon.density.total
              for r in ladder]
    assert all(b > a for a, b in zip(values, values[1:]))
    limit = 2 * atom_ref.shannon
    assert values[-1] == pytest.approx(limit, abs=1e-4)
    # strictly below the limit while the physical gap dominates grid error;
    # at R=50 the gap (~1e-7) is smaller than the quadrature error itself
    for r, v in zip(ladder, values):
        if r <= 20.0:
            assert v < limit
        else:
            assert v < limit + 1e-6


def test_mean_field_overshoots_the_limit(model_analysis, atom_ref):
    # the hallmark mean-field artifact at intermediate separation
    limit = 2 * atom_ref.shannon
    assert model_analysis("hf", 4.0).analysis.shannon.density.total > limit
    assert model_analysis("fci", 4.0).analysis.shannon.density.total < limit


def test_separated_atoms_decomposition(model_analysis, atom_ref):
    for method in ("hf", "hl", "fci"):
        sh = model_analysis(method, 50.0).analysis.shannon
        assert sh.density.total == pytest.approx(2 * atom_ref.shannon,
                                                 abs=1e-4)
        assert abs(sh.density.overlap[(0, 1)]) < 1e-6
        assert abs(sh.density.nadd) < 1e-6
        # shape entropy gains exactly log 2 over one atom
        assert sh.shape.total == pytest.approx(atom_ref.shannon + LN2,
                                               abs=1e-4)


def test_asymptotic_reference_formulas(atom_ref):
    s = atom_ref.shannon
    density_limit, shape_limit = asymptotic_shannon_reference([s, s],
                                                              [1.0, 1.0])
    assert density_limit == pytest.approx(2 * s, rel=1e-14)
    assert shape_limit == pytest.approx(s + LN2, rel=1e-14)
    # one fragment: no mixing penalty
    density_limit, shape_limit = asymptotic_shannon_reference([s], [1.0])
    assert density_limit == pytest.approx(s, rel=1e-15)
    assert shape_limit == pytest.approx(s, rel=1e-15)
    # a 2-electron fragment entering with N_A log N_A bookkeeping
    density_limit, shape_limit = asymptotic_shannon_reference([s, 2.5],
                                                              [1.0, 2.0])
    frag0 = s
    frag1 = (2.5 + 2.0 * math.log(2.0)) / 2.0
    expect = ((1 / 3) * frag0 + (2 / 3) * frag1
              - (1 / 3) * math.log(1 / 3) - (2 / 3) * math.log(2 / 3))
    assert shape_limit == pytest.approx(expect, rel=1e-13)
    assert density_limit == pytest.approx(s + 2.5, rel=1e-14)


def test_asymptotic_reference_validation():
    with pytest.raises(ValueError):
        asymptotic_shannon_reference([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        asymptotic_shannon_reference([1.0], [0.0])


def test_normalization_guard():
    check_normalization(2.00009, 2.0)
    with pytest.raises(ValueError, match="quadrature"):
        check_normalization(2.2, 2.0)


def test_decompose_rejects_unnormalized_field():
    field = atom_field()
    grid = build_molecular_grid(field.molecule,
                                AtomicGridSpec(n_radial=4, lebedev_order=6))
    with pytest.raises(ValueError, match="quadrature"):
        analyze_field(field, grid)
