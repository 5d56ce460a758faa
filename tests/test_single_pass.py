"""The streamed analysis: one walk over the grid in integration chunks.

``analyze_field`` evaluates the density and its pair terms one chunk at a
time and keeps only the chunk partials of its integrals. These tests hold
its checks to the order of a serial walk and to the messages of an
analysis that evaluates the whole grid first, and its memory to a working
set that does not grow with the grid.
"""
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from entropart import analysis
from entropart.analysis import analyze_field
from entropart.backends import quad_form
from entropart.density import (NEGATIVE_CLAMP, DensityMatrix, PairDensityField,
                               PrimitiveBasis)
from entropart.models import hf_model
from entropart.molecule import Molecule
from entropart.quadrature import (_CHUNK, AtomicGridSpec,
                                  build_molecular_grid, direction_orbits,
                                  integrate)
from entropart.reductions import GridSums, integrals

SPEC = AtomicGridSpec(n_radial=100, lebedev_order=86)


def _h2_field(c, separation=1.4, n_electrons=None):
    """Two unit-exponent s primitives, one per centre, with the matrix c;
    by default the declared electron count is the one the grid gives."""
    mol = Molecule.h2(separation)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    grid = build_molecular_grid(mol, SPEC)
    if n_electrons is None:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            probe = PairDensityField(basis, DensityMatrix(c, n_electrons=1.0))
            n_electrons = integrate(probe.pair_fields(grid.points)[0], grid)
    return PairDensityField(basis, DensityMatrix(c, n_electrons)), grid


def _chunks(mask):
    return set(np.nonzero(mask)[0] // _CHUNK)


def test_one_clamp_warning_with_the_total_count():
    c = np.array([[1.0, -1.2], [-1.2, 1.0]])
    field, grid = _h2_field(c)
    raw = quad_form(c, field.basis.evaluate(grid.points))
    assert len(_chunks(raw < NEGATIVE_CLAMP)) > 1
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fa = analyze_field(field, grid)
    negated = fa.shannon.diagnostics.negated
    assert negated == int((raw < NEGATIVE_CLAMP).sum())
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert messages == [f"density below {NEGATIVE_CLAMP} at {negated} points; "
                        "using absolute values"]


@pytest.mark.filterwarnings("ignore:density below")
def test_fractional_order_rejects_a_negative_net_density():
    field, grid = _h2_field(np.array([[1.0, 0.1], [0.1, -0.2]]))
    with pytest.raises(ValueError, match=(
            r"^the net density of atom 1 reaches values below -1e-12; a "
            r"fractional order alpha=0\.5 is undefined there$")):
        analyze_field(field, grid, alphas=(2.0, 0.5))
    # integer orders keep the sign instead
    net = analyze_field(field, grid, alphas=(2.0, 3.0)).renyi[3.0].net_terms
    assert all(math.isfinite(v) for v in (net.net, net.nadd_intra))


@pytest.mark.filterwarnings("ignore:density below")
def test_the_sign_check_is_reported_before_normalization():
    # a pointwise defect of the field is raised where the walk meets it,
    # before the electron count is known; without one, a wrong electron
    # count is reported
    field, grid = _h2_field(np.array([[1.0, 0.1], [0.1, -0.2]]),
                            n_electrons=1.0)
    with pytest.raises(ValueError, match=(
            r"^the net density of atom 1 reaches values below -1e-12; a "
            r"fractional order alpha=0\.5 is undefined there$")):
        analyze_field(field, grid, alphas=(0.5,))
    with pytest.raises(ValueError, match="quadrature is inadequate"):
        analyze_field(field, grid, alphas=(2.0,))


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_non_finite_integrand_keeps_its_global_point_index():
    # rho**3 overflows only near the second centre, whose points come after
    # the first chunk; rho itself and every Shannon integrand stay finite
    field, grid = _h2_field(np.diag([1.0, 1.2e103]), separation=4.0)
    rho = field.pair_fields(grid.points)[0]
    assert np.isfinite(rho).all()
    index = int(np.argmax(~np.isfinite(rho ** 3)))
    assert index >= _CHUNK
    message = (f"^non-finite field value at point index {index}, position "
               f"{re.escape(str(grid.points[index]))}$")
    with pytest.raises(ValueError, match=message):
        analyze_field(field, grid, alphas=(3.0,))
    # it is raised before a wrong electron count, which is reported
    # without it
    field, grid = _h2_field(np.diag([1.0, 1.2e103]), separation=4.0,
                            n_electrons=1.0)
    with pytest.raises(ValueError, match=message):
        analyze_field(field, grid, alphas=(3.0,))
    with pytest.raises(ValueError, match="quadrature is inadequate"):
        analyze_field(field, grid, alphas=(2.0,))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_non_finite_density_is_raised_during_the_walk():
    # a tight primitive on the second centre with a huge coefficient: rho
    # overflows near that centre, past the first chunk, and integrate
    # reports it as it does for any field
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 10.0])
    field = PairDensityField(basis, DensityMatrix(np.diag([1.0, 5e307]), 1.0))
    grid = build_molecular_grid(mol, SPEC)
    with np.errstate(over="ignore"):
        index = int(np.argmax(~np.isfinite(
            5e307 * basis.evaluate(grid.points)[1] ** 2)))
    assert index >= _CHUNK
    with pytest.raises(ValueError,
                       match=f"^non-finite field value at point index {index}, "):
        analyze_field(field, grid, alphas=(0.5,))


@pytest.mark.parametrize("which", ["h2", "h3"])
def test_each_integral_is_taken_once_per_chunk(monkeypatch, which,
                                               h3_wfn_field):
    # every integral, int rho included, has exactly one partial per chunk
    # of 4096 evaluated points, one per distinct (shell, orbit) of the
    # kept points, one row per integrand, on the default grid; the
    # workers' chunks are summed in one call of integrals made in this
    # process
    field = hf_model(1.4).field() if which == "h2" else h3_wfn_field
    nat = len(field.molecule)
    n_pairs = nat * (nat + 1) // 2
    taken = []

    def recorded(chunks):
        taken.append(chunks)
        return integrals(chunks)

    monkeypatch.setattr(analysis, "integrals", recorded)
    grid = build_molecular_grid(field.molecule)
    analyze_field(field, grid, alphas=(0.5, 2.0))
    (chunks,) = taken
    widths = {"rho": 1, "rho_log_rho": 1,
              "gram": n_pairs * (n_pairs + 1) // 2}
    for k in range(3):
        widths["pair", k] = n_pairs
    for alpha in (0.5, 2.0):
        widths["rho_pow", alpha] = 1
        widths["net_pow", alpha] = nat
    reps, inverse = direction_orbits(grid.spec.lebedev_order,
                                     field.symmetry()[0])
    shell, j = np.divmod(grid.index.astype(np.int64), grid.directions.shape[1])
    evaluated = len(np.unique(shell * len(reps) + inverse[j]))
    n_chunks = -(-evaluated // _CHUNK)
    assert n_chunks >= 7
    assert {family: np.shape([chunk[family] for chunk in chunks])
            for family in set().union(*chunks)} == {
        family: (n_chunks, width) for family, width in widths.items()}


@pytest.mark.parametrize("jobs", [1, 2])
def test_the_walk_leaves_its_sums_as_built(monkeypatch, jobs):
    # the walk's GridSums holds after the walk only what its constructor
    # made: the chunk partials are returned, not kept (with one worker per
    # unit of work, the walk gives two workers a share at jobs=2)
    monkeypatch.setattr(analysis, "WORK_PER_WORKER", 1)
    made = []

    class Recorded(GridSums):
        def __init__(self, *args):
            super().__init__(*args)
            made.append((self, args))

    monkeypatch.setattr(analysis, "GridSums", Recorded)
    field = hf_model(1.4).field()
    analyze_field(field, build_molecular_grid(field.molecule),
                  alphas=(0.5, 2.0), jobs=jobs)
    ((sums, args),) = made
    np.testing.assert_equal(vars(sums), vars(GridSums(*args)))


def test_analysis_does_not_build_pair_arrays(monkeypatch, h3_wfn_field):
    def refuse(*args, **kwargs):
        raise AssertionError("pair_fields called")

    monkeypatch.setattr(PairDensityField, "pair_fields", refuse)
    grid = build_molecular_grid(h3_wfn_field.molecule, SPEC)
    assert analyze_field(h3_wfn_field, grid, alphas=(0.5, 2.0)).identities_ok()


def _traced_peak(field, spec):
    grid = build_molecular_grid(field.molecule, spec)
    tracemalloc.start()
    try:
        analyze_field(field, grid, alphas=(0.5, 2.0))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_analysis_memory_does_not_grow_with_the_grid(h3_wfn_field):
    # 58,128 -> 232,498 points: one float per added point alone is 1.3 MiB
    small = _traced_peak(h3_wfn_field, AtomicGridSpec(n_radial=100))
    large = _traced_peak(h3_wfn_field, AtomicGridSpec(n_radial=400))
    assert large - small < 2 ** 20, (small, large)
