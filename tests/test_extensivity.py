"""Extensivity at n > 2: four and eight hydrogen atoms far apart.

The paper's central test. For n separated one-electron atoms the density
Shannon entropy is extensive (the sum of the atomic entropies), while the
shape-function entropy and the Renyi entropies of order alpha != 1 are not:
they carry the mixing terms of n equal fractions. ``AtomReference`` gives
these limits from the isolated-atom constants alone.
"""
import math

import numpy as np
import pytest

from entropart.analysis import LIMIT_TOLERANCE, analyze_field
from entropart.density import PrimitiveBasis
from entropart.models import sto6g_hydrogen
from entropart.molecule import Molecule
from entropart.quadrature import build_molecular_grid
from entropart.wfnio import build_document, field_from_document

SPACING = 50.0


@pytest.fixture(scope="module", params=[4, 8])
def chain(request):
    """(n, analysis) of a linear H_n chain at 50 bohr with one
    unit-occupied STO-6G 1s MO on each atom: the density matrix is
    block-diagonal."""
    n = request.param
    phi = sto6g_hydrogen()
    nprim = len(phi.exponents)
    mol = Molecule([("H", (0.0, 0.0, i * SPACING)) for i in range(n)])
    basis = PrimitiveBasis(mol, center_index=np.repeat(np.arange(n), nprim),
                           type_codes=np.ones(n * nprim, dtype=int),
                           exponents=np.tile(phi.exponents, n))
    mos = [(1.0, -0.5, np.kron(np.eye(n)[i], phi.coefficients))
           for i in range(n)]
    field = field_from_document(build_document(mol, basis, mos, title=f"H{n}"))
    return n, analyze_field(field, build_molecular_grid(mol), alphas=(0.5, 2.0))


def test_shannon_density_is_extensive_and_shape_mixes(chain, atom_ref):
    n, analysis = chain
    density, shape = atom_ref.shannon_limits(n)
    sh = analysis.shannon
    assert sh.density.total == pytest.approx(density, abs=LIMIT_TOLERANCE)
    assert sh.shape.total == pytest.approx(shape, abs=LIMIT_TOLERANCE)
    # density: the plain sum; shape: the atomic value plus ln n
    assert sh.density.total == pytest.approx(n * atom_ref.shannon,
                                             abs=LIMIT_TOLERANCE)
    assert sh.shape.total - atom_ref.shannon == pytest.approx(
        math.log(n), abs=LIMIT_TOLERANCE)


@pytest.mark.parametrize("alpha", [0.5, 2.0])
def test_renyi_totals_carry_the_mixing_terms(chain, atom_ref, alpha):
    n, analysis = chain
    density, shape = atom_ref.renyi_limits(alpha, n)
    totals = analysis.renyi[alpha].totals
    assert totals.density == pytest.approx(density, abs=LIMIT_TOLERANCE)
    assert totals.shape == pytest.approx(shape, abs=LIMIT_TOLERANCE)
    # not the plain sum of the atomic values: n equal fractions add
    # ln n / (1 - alpha) to one atom's entropy, and the shape function ln n
    single = atom_ref.renyi[alpha].density
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
