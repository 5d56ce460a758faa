"""Minimal-basis H2 models: integrals, CI, energies, natural orbitals."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from entropart import models
from entropart.density import ContractedS, contracted_overlap
from entropart.models import (boys_f0, build_model, fci_model, hf_model,
                              hl_model, hydrogen_atom_energy, integral_engine,
                              natural_orbitals, sto6g_hydrogen)
from entropart.molecule import Molecule
from entropart.quadrature import build_molecular_grid, integrate, radial_grid

E_ATOM = -0.4710390541780927


# The loop engine that models.py replaced with broadcasts, kept as the
# reference: scalar F0, one Python loop per primitive index, and the
# (ij|kl) terms summed exactly rounded.

def _scalar_boys_f0(t):
    if t < 0:
        raise ValueError("Boys argument must be nonnegative")
    if t < 1e-13:
        return 1.0 - t / 3.0
    return 0.5 * math.sqrt(math.pi / t) * math.erf(math.sqrt(t))


def _loop_integral_terms(basis, centers):
    """S, T, the attraction V[C] of each nucleus C, and (ij|kl)."""
    exps = basis.exponents
    ncf = basis.ncoef
    centers = np.asarray(centers, dtype=float)
    n, L = len(centers), len(exps)

    def one_electron(Ri, Rj):
        s = t = 0.0
        v = [0.0] * n
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
                for c, C in enumerate(centers):
                    v[c] -= pref * _scalar_boys_f0(p * float(((P - C) ** 2).sum()))
        return s, t, v

    def eri(Ri, Rj, Rk, Rl):
        terms = []
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
                        terms.append(cij * ncf[k] * ncf[l] * Kkl * pref
                                     * _scalar_boys_f0(p * q / (p + q)
                                                       * float(((P - Q) ** 2).sum())))
        return math.fsum(terms)

    S, T, V = np.zeros((n, n)), np.zeros((n, n)), np.zeros((n, n, n))
    for a, b in itertools.product(range(n), repeat=2):
        S[a, b], T[a, b], V[:, a, b] = one_electron(centers[a], centers[b])
    # one loop per class (ab|cd), a <= b, c <= d, (a, b) <= (c, d); the
    # engine's own tensor is checked for exact symmetry separately
    G = np.zeros((n,) * 4)
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    for (a, b), (c, d) in itertools.combinations_with_replacement(pairs, 2):
        value = eri(*centers[[a, b, c, d]])
        for i, j, k, l in ((a, b, c, d), (b, a, c, d), (a, b, d, c),
                           (b, a, d, c)):
            G[i, j, k, l] = G[k, l, i, j] = value
    return S, T, V, G


def _loop_integral_engine(basis, centers):
    S, T, V, G = _loop_integral_terms(basis, centers)
    return S, T + V.sum(0), G


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


def _assert_integrals_match(ints, terms, floor=0.0):
    """S, h and (ij|kl) within 1e-13 relative of the loop terms, plus
    ``floor``.

    h = T + sum_C V_C is held to 1e-13 of the sum of its terms' scales,
    the bound the terms' own bounds give. An off-diagonal T sums terms of
    both signs, each no larger than the matching diagonal term, so its
    rounding is bounded relative to the diagonal instead.
    """
    S, h, G = ints
    S_ref, T, V, G_ref = terms
    T_scale = np.maximum(abs(T), T.diagonal().max())
    for name, got, want, scale in (
            ("S", S, S_ref, abs(S_ref)),
            ("h", h, T + V.sum(0), T_scale + abs(V).sum(0)),
            ("(ij|kl)", G, G_ref, abs(G_ref))):
        bad = abs(got - want) > 1e-13 * scale + floor
        assert not bad.any(), (name, got[bad], want[bad])


def _assert_exactly_symmetric(ints):
    S, h, G = ints
    assert (S == S.T).all() and (h == h.T).all()
    # (ij|kl) = (ji|kl) = (ij|lk) = (kl|ij) generate all eight permutations
    for axes in ((1, 0, 2, 3), (0, 1, 3, 2), (2, 3, 0, 1)):
        assert (G == G.transpose(axes)).all(), axes


# The closed forms that the matrix path replaced, kept as its reference:
# Slater-Condon elements over {sigma_g^2, sigma_u^2}, the Heitler-London
# energy and pair coefficients, and the lowest eigenvector of the 2x2 CI.

def _ci_matrix(S, h, G):
    """(H_gg, H_uu, H_gu) from the integrals over {phi_A, phi_B}."""
    S = S[0, 1]
    aaaa, aabb, abab, aaab = G[0, 0, 0, 0], G[0, 0, 1, 1], G[0, 1, 0, 1], G[0, 0, 0, 1]
    h_gg = (h[0, 0] + h[0, 1]) / (1.0 + S)
    h_uu = (h[0, 0] - h[0, 1]) / (1.0 - S)
    J_gg = (aaaa + aabb + 4.0 * aaab + 2.0 * abab) / (2.0 * (1.0 + S) ** 2)
    J_uu = (aaaa + aabb - 4.0 * aaab + 2.0 * abab) / (2.0 * (1.0 - S) ** 2)
    K_gu = (aaaa - aabb) / (2.0 * (1.0 - S * S))
    return 2.0 * h_gg + J_gg, 2.0 * h_uu + J_uu, K_gu


def _closed_form_model(method, R):
    """(energy, (c1, c2), (occ_g, occ_u)) of ``method`` at R."""
    S, h, G = integral_engine(sto6g_hydrogen(), Molecule.h2(R).positions)
    s = S[0, 1]
    a, b, k = _ci_matrix(S, h, G)
    if method == "hl":
        C = np.array([[1.0, s], [s, 1.0]]) / (1.0 + s * s)
        E = (2.0 * h[0, 0] + G[0, 0, 1, 1] + 2.0 * s * h[0, 1]
             + G[0, 1, 0, 1]) / (1.0 + s * s)
    else:
        if method == "hf":
            c1, c2 = 1.0, 0.0
            E = a
        else:
            E = 0.5 * (a + b) - math.sqrt(0.25 * (a - b) ** 2 + k * k)
            c1, c2 = np.array([k, E - a]) / math.hypot(k, E - a)
            c1, c2 = (c1, c2) if c1 > 0 else (-c1, -c2)
        C_AA = c1 * c1 / (1.0 + s) + c2 * c2 / (1.0 - s)
        C_AB = c1 * c1 / (1.0 + s) - c2 * c2 / (1.0 - s)
        C = np.array([[C_AA, C_AB], [C_AB, C_AA]])
    occ = ((C[0, 0] + C[0, 1]) * (1.0 + s), (C[0, 0] - C[0, 1]) * (1.0 - s))
    ci = (c1, c2) if method != "hl" else (math.sqrt(occ[0] / 2.0),
                                          -math.sqrt(occ[1] / 2.0))
    return E + 1.0 / R, ci, occ


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
    centers = Molecule.h2(separation).positions
    ints = integral_engine(phi, centers)
    _assert_exactly_symmetric(ints)
    _assert_integrals_match(ints, _loop_integral_terms(phi, centers))


def test_integral_engine_over_three_centres():
    phi = ContractedS([3.0, 0.4], [0.3, 0.8])
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.3, 1.4], [1.1, -0.5, 2.0]])
    ints = integral_engine(phi, centers)
    assert ints[2].shape == (3, 3, 3, 3)
    _assert_exactly_symmetric(ints)
    _assert_integrals_match(ints, _loop_integral_terms(phi, centers))


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


@pytest.mark.parametrize("method", models.METHODS)
def test_matrix_path_matches_closed_forms(method):
    for R in (0.5, 1.4, 4.0, 10.0, 20.0, 50.0):
        model = build_model(method, R)
        energy, ci, occupations = _closed_form_model(method, R)
        assert model.energy == pytest.approx(energy, rel=1e-13, abs=0), R
        assert model.ci == pytest.approx(ci, rel=1e-13, abs=0), R
        occ = [n for n, _, _ in natural_orbitals(model)]
        assert occ == pytest.approx(occupations, rel=1e-13, abs=0), R


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
    centers = Molecule.h2(separation).positions
    S, T, V, G = ref = _loop_integral_terms(phi, centers)
    ints = integral_engine(phi, centers)
    _assert_exactly_symmetric(ints)
    _assert_integrals_match(ints, ref, floor=1e-290)
    assert abs(contracted_overlap(phi, phi, separation) - S[0, 1]) \
        <= 1e-13 * S[0, 1] + 1e-290
    # E = T + V can cancel to ~0, so its bound is relative to T and |V|
    assert abs(hydrogen_atom_energy(phi) - _loop_hydrogen_atom_energy(phi)) \
        <= 1e-13 * (T[0, 0] - V[0, 0, 0])


def test_integrals_at_reference_separation():
    S, h, G = integral_engine(sto6g_hydrogen(), Molecule.h2(1.4).positions)
    assert S[0, 1] == pytest.approx(0.65917616847521, abs=1e-11)
    assert h[0, 0] == pytest.approx(-1.12462776332783, abs=1e-10)
    assert h[0, 1] == pytest.approx(-0.96107864286746, abs=1e-10)
    assert G[0, 0, 0, 0] == pytest.approx(0.77499852133346, abs=1e-10)
    assert G[0, 0, 1, 1] == pytest.approx(0.56967545598241, abs=1e-10)
    assert G[0, 1, 0, 1] == pytest.approx(0.29672024037779, abs=1e-10)
    assert G[0, 0, 0, 1] == pytest.approx(0.44392613234157, abs=1e-10)
    # the entries on B mirror those on A
    assert np.diag(S) == pytest.approx([1.0, 1.0], rel=1e-14)
    assert h[1, 1] == pytest.approx(h[0, 0], rel=1e-14)
    assert G[1, 1, 1, 1] == pytest.approx(G[0, 0, 0, 0], rel=1e-14)
    assert G[1, 1, 1, 0] == pytest.approx(G[0, 0, 0, 1], rel=1e-14)


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
    _, _, G = integral_engine(phi, Molecule.h2(1.4).positions)
    assert G[0, 0, 0, 0] == pytest.approx(oracle, abs=1e-4)


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
    # Heitler-London: phi_A phi_B + phi_B phi_A = (1 + S) g^2 - (1 - S) u^2
    for separation in (0.5, 1.4, 4.0, 50.0):
        model = hl_model(separation)
        S = model.S
        assert model.ci == pytest.approx(
            np.array([1.0 + S, S - 1.0]) / math.sqrt(2.0 * (1.0 + S * S)),
            rel=1e-15, abs=0)


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


@pytest.mark.parametrize("method", models.METHODS)
def test_models_refuse_nearly_coincident_functions(method):
    # below 1 - S = 1e-6 rounding, amplified by about 1 / (1 - S)^2, would
    # decide the fci vector: at R = 1e-4 (1 - S = 2.6e-9) it gave
    # E_fci - E_hf = -3.34 hartree against -0.0044 from R = 1e-3 to 0.03
    for R in (1e-4, 1.9e-3):
        with pytest.raises(ValueError, match="overlap too closely") as caught:
            build_model(method, R)
        assert "R=" not in str(caught.value)  # sweep names the distance
    model = build_model(method, 0.005)
    assert 1.0 - model.S == pytest.approx(6.4e-6, rel=1e-2)
    assert math.isfinite(model.energy)
    if method == "fci":
        gap = model.energy - hf_model(0.005).energy
        assert gap == pytest.approx(-0.00438, abs=1e-5)


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
