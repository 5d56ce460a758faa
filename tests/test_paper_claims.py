"""The paper's claims that this code measures, one test per claim.

C1: "for minimal-basis and different theoretical levels, the Shannon and
Renyi entropies fail to encode the amount of static correlation". The
built-in H2 models in the STO-6G minimal basis, hf (restricted Hartree-Fock,
no static correlation), hl (Heitler-London) and fci (full CI), are analysed
on the default grid at R = 1.4, 3, 5, 10 and 50 bohr. The correlation
energy E_HF - E_FCI grows with R, monotonically, while the density entropy
gap S_rho(HF) - S_rho(FCI) rises and then falls to zero: at R = 50 all
three densities give the same entropies, to rounding, whatever their
energies.

C2: "shape-function Shannon entropies and Renyi entropies (for
alpha != 1) violate extensivity" is ``tests/test_extensivity.py``:
``test_shannon_density_is_extensive_and_shape_mixes`` and
``test_renyi_totals_carry_the_mixing_terms`` on H4 and H8 chains of
one-electron atoms 50 bohr apart, and
``test_unequal_fragments_meet_their_separation_limits`` on (H2)2 and
H2 ... H.

C3-C5 are not yet measured here.

The expected values below were measured on the default grid and are
rounded to four decimals; each is held to 1e-4, the rounding plus as
much again. ``entropart sweep --method {hf,hl,fci} --distances
1.4,3,5,10,50 --alphas 0.5,2`` prints them (README, "Paper claims").
"""
import functools
import itertools

import numpy as np
import pytest

from entropart.analysis import analyze_model

DISTANCES = (1.4, 3.0, 5.0, 10.0, 50.0)
METHODS = ("hf", "hl", "fci")
TABLE = 1e-4  # the tolerance of a four-decimal table value
# measured: E_HF - E_FCI, S_rho(HF) - S_rho(FCI), S_rho(HL) - S_rho(FCI),
# in hartree and nats
ENERGY_GAP = (0.0206, 0.1001, 0.2481, 0.3372, 0.3775)
HF_ENTROPY_GAP = (0.0015, 0.0764, 0.1249, 0.0026, 0.0)
HL_ENTROPY_GAP = (-0.0039, -0.0733, -0.0104, 0.0, 0.0)
# at R = 50 the three methods were measured to agree within 8.9e-16, one
# unit in the last place of S_rho ~ 7; held to sixteen such units
AGREE = 16 * np.spacing(7.0)


@functools.cache
def _model(method, separation):
    return analyze_model(method, separation, alphas=(0.5, 2.0), jobs=1)


def _entropies(method, separation):
    """S_rho, S_sigma, R_0.5 and R_2 of one model."""
    fa = _model(method, separation).analysis
    return (fa.shannon.density.total, fa.shannon.shape.total,
            fa.renyi[0.5].totals.density, fa.renyi[2.0].totals.density)


def _gap(method, quantity):
    """quantity(method) - quantity(fci) at each distance."""
    return np.array([quantity(method, r) - quantity("fci", r)
                     for r in DISTANCES])


def _energy(method, separation):
    return _model(method, separation).energy


def _s_rho(method, separation):
    return _entropies(method, separation)[0]


def test_c1_correlation_energy_grows_monotonically():
    gap = _gap("hf", _energy)
    assert np.allclose(gap, ENERGY_GAP, rtol=0.0, atol=TABLE)
    assert (np.diff(gap) > 0).all()
    # hl dissociates correctly: it meets fci far apart
    assert abs(_energy("hl", 50.0) - _energy("fci", 50.0)) < TABLE


def test_c1_entropy_gap_rises_then_falls_to_zero():
    hf, hl = _gap("hf", _s_rho), _gap("hl", _s_rho)
    assert np.allclose(hf, HF_ENTROPY_GAP, rtol=0.0, atol=TABLE)
    assert np.allclose(hl, HL_ENTROPY_GAP, rtol=0.0, atol=TABLE)
    assert (hf[:4] > 0).all()
    # up to R = 5, then down, while the energy gap keeps growing
    assert (np.diff(hf[:3]) > 0).all() and (np.diff(hf[2:]) < 0).all()
    assert abs(hf[-1]) <= AGREE and abs(hl[-1]) <= AGREE


def test_c1_entropies_forget_the_method_far_apart():
    # S_rho, S_sigma, R_0.5 and R_2 of hf, hl and fci at R = 50 bohr
    values = [_entropies(m, 50.0) for m in METHODS]
    for a, b in itertools.combinations(values, 2):
        assert np.abs(np.subtract(a, b)).max() <= AGREE
    # where the correlation energy is largest
    assert _energy("hf", 50.0) - _energy("fci", 50.0) > 0.37
