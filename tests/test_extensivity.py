"""Extensivity of separated fragments: hydrogen chains and unequal pairs.

The paper's central test. Far apart, the fragments' electron counts,
integrals of rho ln rho and moments of rho**alpha add, so the density
Shannon entropy is extensive (the sum of the fragment entropies), while
the shape-function entropy and the Renyi entropies of order alpha != 1 are
not: they carry mixing terms in the fragments' shares. ``separation_limits``
gives these limits from the fragments' own analyses. Four and eight
one-electron atoms share equally; (H2)2 joins two fragments of two
electrons, and H2 ... H fragments of two and of one.
"""
import functools
import math

import numpy as np
import pytest

from entropart.analysis import (LIMIT_TOLERANCE, analyze_field,
                                separation_limits)
from entropart.density import PrimitiveBasis
from entropart.models import hf_model, natural_orbitals, sto6g_hydrogen
from entropart.molecule import Molecule
from entropart.quadrature import build_molecular_grid
from entropart.wfnio import build_document, field_from_document

SPACING = 50.0

# a fragment: the z positions of its hydrogen atoms, and its orbitals as
# (occupation, energy, coefficients over its atoms' STO-6G primitives)
FRAGMENTS = {
    "H": ((0.0,), ((1.0, -0.5, sto6g_hydrogen().coefficients),)),
    "H2": ((0.0, 1.4), natural_orbitals(hf_model(1.4))),
}


@functools.cache
def _analysis(names):
    """The analysis, on the default grid at alpha = 0.5, 2, of the named
    fragments in a row along z, each SPACING bohr past the last atom of
    the one before: one field whose density matrix is block-diagonal over
    the fragments."""
    phi = sto6g_hydrogen()
    nprim = len(phi.exponents)
    zs, blocks = [], []
    for name in names:
        positions, orbitals = FRAGMENTS[name]
        start = zs[-1] + SPACING if zs else 0.0
        blocks.append((len(zs) * nprim, orbitals))
        zs += [start + z for z in positions]
    mos = []
    for offset, orbitals in blocks:
        for occupation, energy, coefficients in orbitals:
            padded = np.zeros(len(zs) * nprim)
            padded[offset:offset + len(coefficients)] = coefficients
            mos.append((occupation, energy, padded))
    n = len(zs)
    mol = Molecule([("H", (0.0, 0.0, z)) for z in zs])
    basis = PrimitiveBasis(mol, center_index=np.repeat(np.arange(n), nprim),
                           type_codes=np.ones(n * nprim, dtype=int),
                           exponents=np.tile(phi.exponents, n))
    field = field_from_document(build_document(mol, basis, mos,
                                               title=" ".join(names)))
    return analyze_field(field, build_molecular_grid(mol), alphas=(0.5, 2.0))


@pytest.fixture(scope="module", params=[4, 8])
def chain(request):
    """(n, analysis) of a linear H_n chain at 50 bohr with one
    unit-occupied STO-6G 1s MO on each atom: the density matrix is
    block-diagonal."""
    return request.param, _analysis(("H",) * request.param)


def test_shannon_density_is_extensive_and_shape_mixes(chain, atom_ref):
    n, analysis = chain
    (density, shape), _ = separation_limits([atom_ref] * n)
    sh = analysis.shannon
    assert sh.density.total == pytest.approx(density, abs=LIMIT_TOLERANCE)
    assert sh.shape.total == pytest.approx(shape, abs=LIMIT_TOLERANCE)
    # density: the plain sum; shape: the atomic value plus ln n
    s_atom = atom_ref.shannon.density.total
    assert sh.density.total == pytest.approx(n * s_atom, abs=LIMIT_TOLERANCE)
    assert sh.shape.total - s_atom == pytest.approx(math.log(n),
                                                    abs=LIMIT_TOLERANCE)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_renyi_totals_carry_the_mixing_terms(chain, atom_ref, alpha):
    n, analysis = chain
    limit = separation_limits([atom_ref] * n)[1][alpha]
    totals = analysis.renyi[alpha].totals
    assert totals.density == pytest.approx(limit.density, abs=LIMIT_TOLERANCE)
    assert totals.shape == pytest.approx(limit.shape, abs=LIMIT_TOLERANCE)
    # not the plain sum of the atomic values: n equal fractions add
    # ln n / (1 - alpha) to one atom's entropy, and the shape function ln n
    single = atom_ref.renyi[alpha].totals.density
    mixing = math.log(n) / (1.0 - alpha)
    assert totals.density - single == pytest.approx(mixing, abs=LIMIT_TOLERANCE)
    assert totals.shape - single == pytest.approx(math.log(n),
                                                  abs=LIMIT_TOLERANCE)
    assert abs(totals.density - n * single) > 1.0


def test_order2_partition_sums_to_one_over_every_tuple(chain):
    n, analysis = chain
    part = analysis.renyi[2.0].pair_partition
    assert len(part.p4) == n ** 4  # 256 for H4
    assert math.fsum(part.p4.values()) == pytest.approx(1.0, abs=1e-14)
    # separated atoms: the products rho^AA rho^AA carry all of rho**2
    assert all(p4 == pytest.approx(1.0 / n, rel=1e-6)
               for (a, b, c, d), p4 in part.p4.items() if a == b == c == d)


@pytest.mark.parametrize("names", [("H2", "H2"), ("H2", "H")],
                         ids=["H2_H2", "H2_H"])
def test_unequal_fragments_meet_their_separation_limits(names):
    """Fragments of two and two, and of two and one electrons, each also
    analysed alone: every Shannon and Renyi total of the whole, density and
    shape, meets the limit of the fragments' summed integrals."""
    analysis = _analysis(names)
    (density, shape), renyi = separation_limits(
        [_analysis((name,)) for name in names])
    sh = analysis.shannon
    assert sh.density.total == pytest.approx(density, abs=LIMIT_TOLERANCE)
    assert sh.shape.total == pytest.approx(shape, abs=LIMIT_TOLERANCE)
    assert sorted(renyi) == [0.5, 2.0]
    for alpha, limit in renyi.items():
        totals = analysis.renyi[alpha].totals
        assert totals.density == pytest.approx(limit.density,
                                               abs=LIMIT_TOLERANCE)
        assert totals.shape == pytest.approx(limit.shape, abs=LIMIT_TOLERANCE)
