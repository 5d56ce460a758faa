"""Minimal-basis H2 models: integrals, CI, energies, natural orbitals."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropart import models
from entropart.density import ContractedS, contracted_overlap
from entropart.models import (IntegralSet, boys_f0, build_model, fci_model,
                              hf_model, hl_model, hydrogen_atom_energy,
                              integral_engine, natural_orbitals,
                              sto6g_hydrogen)
from entropart.quadrature import build_molecular_grid, integrate, radial_grid

E_ATOM = -0.4710390541780927


# The loop engine that models.py replaced with broadcasts, kept as the
# reference: scalar F0 and one Python loop per primitive index.

def _scalar_boys_f0(t):
    if t < 0:
        raise ValueError("Boys argument must be nonnegative")
    if t < 1e-13:
        return 1.0 - t / 3.0
    return 0.5 * math.sqrt(math.pi / t) * math.erf(math.sqrt(t))


def _loop_integral_engine(basis, R):
    exps = basis.exponents
    ncf = basis.ncoef
    A = np.zeros(3)
    B = np.array([0.0, 0.0, R])
    L = len(exps)

    def one_electron(Ri, Rj):
        s = t = va = vb = 0.0
        R2 = float(((Ri - Rj) ** 2).sum())
        for i in range(L):
            for j in range(L):
                a, b = exps[i], exps[j]
                p = a + b
                K = math.exp(-a * b / p * R2)
                base = ncf[i] * ncf[j] * (math.pi / p) ** 1.5 * K
                s += base
                t += base * a * b / p * (3.0 - 2.0 * a * b / p * R2)
                P = (a * Ri + b * Rj) / p
                pref = ncf[i] * ncf[j] * 2.0 * math.pi / p * K
                va -= pref * _scalar_boys_f0(p * float(((P - A) ** 2).sum()))
                vb -= pref * _scalar_boys_f0(p * float(((P - B) ** 2).sum()))
        return s, t, va, vb

    def eri(Ri, Rj, Rk, Rl):
        out = 0.0
        for i in range(L):
            for j in range(L):
                p = exps[i] + exps[j]
                P = (exps[i] * Ri + exps[j] * Rj) / p
                Kij = math.exp(-exps[i] * exps[j] / p
                               * float(((Ri - Rj) ** 2).sum()))
                cij = ncf[i] * ncf[j] * Kij
                for k in range(L):
                    for l in range(L):
                        q = exps[k] + exps[l]
                        Q = (exps[k] * Rk + exps[l] * Rl) / q
                        Kkl = math.exp(-exps[k] * exps[l] / q
                                       * float(((Rk - Rl) ** 2).sum()))
                        pref = 2.0 * math.pi ** 2.5 / (p * q * math.sqrt(p + q))
                        out += (cij * ncf[k] * ncf[l] * Kkl * pref
                                * _scalar_boys_f0(p * q / (p + q)
                                                  * float(((P - Q) ** 2).sum())))
        return out

    _, T_AA, VA_AA, VB_AA = one_electron(A, A)
    S_AB, T_AB, VA_AB, VB_AB = one_electron(A, B)
    return IntegralSet(
        R=R, S=S_AB, T_AA=T_AA, T_AB=T_AB,
        VA_AA=VA_AA, VB_AA=VB_AA, VA_AB=VA_AB, VB_AB=VB_AB,
        eri_aaaa=eri(A, A, A, A), eri_aabb=eri(A, A, B, B),
        eri_abab=eri(A, B, A, B), eri_aaab=eri(A, A, A, B),
    )


def _loop_hydrogen_atom_energy(basis):
    exps = basis.exponents
    ncf = basis.ncoef
    E = 0.0
    for i in range(len(exps)):
        for j in range(len(exps)):
            a, b = exps[i], exps[j]
            p = a + b
            T = ncf[i] * ncf[j] * a * b / p * 3.0 * (math.pi / p) ** 1.5
            V = -ncf[i] * ncf[j] * 2.0 * math.pi / p  # F0(0) = 1
            E += T + V
    return E


def _assert_integrals_match(ints, ref, floor=0.0):
    """Every field within 1e-13 relative of the reference, plus ``floor``.

    T_AB sums terms of both signs, each no larger than the matching T_AA
    term, so its rounding is bounded relative to T_AA instead.
    """
    for f in dataclasses.fields(IntegralSet):
        got, want = getattr(ints, f.name), getattr(ref, f.name)
        scale = max(abs(want), abs(ref.T_AA)) if f.name == "T_AB" else abs(want)
        assert abs(got - want) <= 1e-13 * scale + floor, (f.name, got, want)


def test_boys_f0_limits():
    assert boys_f0(0.0) == 1.0
    # small-t series vs the erf form on both sides of the switch
    assert boys_f0(1e-14) == pytest.approx(1.0 - 1e-14 / 3.0, rel=1e-13)
    assert boys_f0(1e-12) == pytest.approx(1.0 - 1e-12 / 3.0, rel=1e-13)
    # large-t asymptote 0.5*sqrt(pi/t)
    assert boys_f0(400.0) == pytest.approx(0.5 * math.sqrt(math.pi / 400.0),
                                           rel=1e-12)
    # an array straddling the switch gives the scalar values elementwise
    t = np.array([[0.0, 5e-14, np.nextafter(1e-13, 0.0)],
                  [1e-13, 2e-13, 1e-12], [0.3, 30.0, 400.0]])
    f = boys_f0(t)
    assert f.shape == t.shape
    for x, y in zip(t.ravel(), f.ravel()):
        assert y == boys_f0(x) == _scalar_boys_f0(x)
    with pytest.raises(ValueError, match="nonnegative"):
        boys_f0(np.array([1.0, -1e-300]))


@pytest.mark.parametrize("separation", [0.05, 0.5, 1.4, 10.0, 50.0, 1e3])
def test_integral_engine_matches_loop_reference(separation):
    phi = sto6g_hydrogen()
    _assert_integrals_match(integral_engine(phi, separation),
                            _loop_integral_engine(phi, separation))


def test_models_match_loop_reference(monkeypatch):
    # At R = 0.05 the fci vector is ill-conditioned: J_uu divides by
    # (1 - S)^2 ~ 5e-7, so rounding noise of the integrals moves c2 by ~1e-9.
    separations = (0.5, 1.4, 4.0, 10.0, 20.0, 50.0)
    built = {(m, R): build_model(m, R) for m in models.METHODS
             for R in separations}
    e_atom = hydrogen_atom_energy()
    monkeypatch.setattr(models, "integral_engine", _loop_integral_engine)
    assert e_atom == pytest.approx(
        _loop_hydrogen_atom_energy(sto6g_hydrogen()), rel=1e-13, abs=0)
    for (method, R), model in built.items():
        ref = build_model(method, R)
        assert model.energy == pytest.approx(ref.energy, rel=1e-13, abs=0)
        for c, c_ref in zip(model.ci, ref.ci):
            assert c == pytest.approx(c_ref, rel=1e-13, abs=0), (method, R)


_EXPONENT = st.floats(0.05, 50.0)
_COEFFICIENT = st.floats(0.05, 1.0)


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(st.lists(st.tuples(_EXPONENT, _COEFFICIENT), min_size=1, max_size=6),
       st.floats(0.1, 100.0))
def test_integral_engine_matches_loop_reference_for_any_contraction(prims,
                                                                   separation):
    """Random s contractions of one to six primitives.

    Positive coefficients keep every term but T_AB's of one sign, so a
    relative bound means something. Values that pass through the
    subnormal range (exp(-mu R^2) < 2.2e-308) keep no relative precision,
    hence the absolute floor.
    """
    exponents, coefficients = zip(*prims)
    phi = ContractedS(exponents, coefficients)
    ref = _loop_integral_engine(phi, separation)
    _assert_integrals_match(integral_engine(phi, separation), ref, floor=1e-290)
    assert abs(contracted_overlap(phi, phi, separation) - ref.S) \
        <= 1e-13 * ref.S + 1e-290
    # E = T + V can cancel to ~0, so its bound is relative to T and |V|
    assert abs(hydrogen_atom_energy(phi) - _loop_hydrogen_atom_energy(phi)) \
        <= 1e-13 * (ref.T_AA - ref.VA_AA)


def test_integrals_at_reference_separation():
    ints = integral_engine(sto6g_hydrogen(), 1.4)
    assert ints.S == pytest.approx(0.65917616847521, abs=1e-11)
    assert ints.h_AA == pytest.approx(-1.12462776332783, abs=1e-10)
    assert ints.h_AB == pytest.approx(-0.96107864286746, abs=1e-10)
    assert ints.eri_aaaa == pytest.approx(0.77499852133346, abs=1e-10)
    assert ints.eri_aabb == pytest.approx(0.56967545598241, abs=1e-10)
    assert ints.eri_abab == pytest.approx(0.29672024037779, abs=1e-10)
    assert ints.eri_aaab == pytest.approx(0.44392613234157, abs=1e-10)


def test_one_center_repulsion_against_radial_quadrature():
    """(AA|AA) equals the electrostatic self-energy of the AA distribution.

    Independent route: for an s-type charge density p(r) the repulsion is
    int p(r1) p(r2) / max(r1, r2), evaluated with nested radial rules.
    """
    phi = sto6g_hydrogen()
    r, w = radial_grid(400, 0.661404)
    p = phi.value(r) ** 2 * (4.0 * math.pi)   # radial shell density
    inv = 1.0 / np.maximum.outer(r, r)
    oracle = float(w @ (inv * p[None, :] * p[:, None]) @ w)
    ints = integral_engine(phi, 1.4)
    assert ints.eri_aaaa == pytest.approx(oracle, abs=1e-4)


def test_hydrogen_atom_energy():
    assert hydrogen_atom_energy() == pytest.approx(E_ATOM, abs=1e-12)


def test_model_energies_at_equilibrium_region():
    assert hf_model(1.4).energy == pytest.approx(-1.1253243671759416, abs=1e-10)
    assert hl_model(1.4).energy == pytest.approx(-1.1329611888190625, abs=1e-8)
    assert fci_model(1.4).energy == pytest.approx(-1.145929244971406, abs=1e-10)


def test_fci_below_other_models():
    for separation in (1.0, 1.4, 2.0, 4.0, 8.0, 50.0):
        e_hf = hf_model(separation).energy
        e_hl = hl_model(separation).energy
        e_fci = fci_model(separation).energy
        assert e_fci <= e_hf + 1e-12
        assert e_fci <= e_hl + 1e-12


def test_dissociation_energies():
    # the correlated models reach two free atoms; the mean-field one does not
    assert fci_model(50.0).energy == pytest.approx(2 * E_ATOM, abs=1e-6)
    assert hl_model(50.0).energy == pytest.approx(2 * E_ATOM, abs=1e-6)
    assert hf_model(50.0).energy - 2 * E_ATOM > 0.05


def test_ci_coefficients():
    model = fci_model(1.4)
    c1, c2 = model.ci
    assert c1 == pytest.approx(0.993620769681, abs=1e-9)
    assert c2 == pytest.approx(-0.112773073287, abs=1e-9)
    assert c1 * c1 + c2 * c2 == pytest.approx(1.0, rel=1e-14)
    # far out the two configurations contribute equally
    c1, c2 = fci_model(50.0).ci
    assert abs(c1) == pytest.approx(1 / math.sqrt(2), abs=1e-6)
    assert abs(c2) == pytest.approx(1 / math.sqrt(2), abs=1e-6)


def test_pair_coefficient_forms():
    separation = 1.4
    phi = sto6g_hydrogen()
    S = contracted_overlap(phi, phi, separation)
    hf = hf_model(separation).pair_coefficients
    np.testing.assert_allclose(hf, np.ones((2, 2)) / (1.0 + S), rtol=1e-14)
    hl = hl_model(separation).pair_coefficients
    np.testing.assert_allclose(
        hl, np.array([[1.0, S], [S, 1.0]]) / (1.0 + S * S), rtol=1e-14)
    c1, c2 = fci_model(separation).ci
    fci = fci_model(separation).pair_coefficients
    caa = c1 * c1 / (1.0 + S) + c2 * c2 / (1.0 - S)
    cab = c1 * c1 / (1.0 + S) - c2 * c2 / (1.0 - S)
    np.testing.assert_allclose(
        fci, np.array([[caa, cab], [cab, caa]]), rtol=1e-12)


def test_ci_override_reproduces_mean_field_density():
    forced = fci_model(1.4, ci_override=(1.0, 0.0))
    np.testing.assert_allclose(forced.pair_coefficients,
                               hf_model(1.4).pair_coefficients, rtol=1e-14)


def test_degenerate_ci_solution():
    # forcing an exactly degenerate 2x2 problem must still give a unit vector
    model = fci_model(200.0)
    c1, c2 = model.ci
    assert c1 * c1 + c2 * c2 == pytest.approx(1.0, rel=1e-14)
    assert c1 > 0


def test_model_field_normalization():
    for method in ("hf", "hl", "fci"):
        model = build_model(method, 1.4)
        grid = build_molecular_grid(model.molecule())
        n = integrate(model.field().density(grid.points), grid)
        assert n == pytest.approx(2.0, abs=1e-6)


def test_build_model_validation():
    with pytest.raises(ValueError, match="unknown method"):
        build_model("mp2", 1.4)
    with pytest.raises(ValueError, match="distance must be positive"):
        build_model("hf", 0.0)


def test_natural_orbital_occupations():
    phi = sto6g_hydrogen()
    S = contracted_overlap(phi, phi, 1.4)
    (n_g, _, g), (n_u, _, u) = natural_orbitals(hf_model(1.4))
    assert n_g == pytest.approx(2.0, rel=1e-13)
    assert n_u == pytest.approx(0.0, abs=1e-13)
    (n_g, _, _), (n_u, _, _) = natural_orbitals(hl_model(1.4))
    assert n_g == pytest.approx((1 + S) ** 2 / (1 + S * S), rel=1e-12)
    assert n_u == pytest.approx((1 - S) ** 2 / (1 + S * S), rel=1e-12)
    model = fci_model(1.4)
    c1, c2 = model.ci
    (n_g, _, _), (n_u, _, _) = natural_orbitals(model)
    assert n_g == pytest.approx(2 * c1 * c1, rel=1e-12)
    assert n_u == pytest.approx(2 * c2 * c2, rel=1e-12)
    assert n_g + n_u == pytest.approx(2.0, rel=1e-13)


def test_natural_orbitals_rebuild_density(rng):
    model = fci_model(1.4)
    field = model.field()
    (n_g, _, g), (n_u, _, u) = natural_orbitals(model)
    c = n_g * np.outer(g, g) + n_u * np.outer(u, u)
    np.testing.assert_allclose(c, field.dm.coefficients, rtol=0, atol=1e-13)
    pts = rng.normal(scale=2.0, size=(200, 3))
    phi = field.basis.evaluate(pts)
    rho_no = n_g * (g @ phi) ** 2 + n_u * (u @ phi) ** 2
    np.testing.assert_allclose(rho_no, field.density(pts), rtol=1e-10,
                               atol=1e-16)
