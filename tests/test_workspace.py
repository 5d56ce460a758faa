"""The chunk workspace of a grid walk.

``analyze_field`` takes every per-chunk array (primitive values, distances,
atom value rows, the pair-term stack, the density and the reduction
integrands) from one ``backends.Workspace`` that lives for the call, so the
walk allocates its large arrays once instead of once per chunk. Reusing
them must change no number and leak into no result.
"""
import copy
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import entropart
from entropart import AtomicGridSpec, analyze_field, build_molecular_grid
from entropart.backends import Workspace
from entropart.quadrature import _CHUNK


def test_workspace_takes_contiguous_views_of_one_buffer():
    work = Workspace()
    full = work.take("x", (3, 10))
    full[:] = 1.0
    short = work.take("x", (3, 4))  # a short last chunk: the leading part
    assert short.flags.c_contiguous and short.shape == (3, 4)
    assert np.shares_memory(full, short)
    assert work.take("mask", (3, 4), bool).dtype == bool
    grown = work.take("x", (3, 11))
    assert not np.shares_memory(full, grown)
    # a fresh workspace gives fresh arrays
    assert not np.shares_memory(Workspace().take("x", (3, 4)), short)


@pytest.fixture()
def h3_grids(h3_wfn_field):
    grids = [build_molecular_grid(h3_wfn_field.molecule,
                                  AtomicGridSpec(n_radial=n, lebedev_order=k))
             for n, k in ((80, 110), (50, 86))]
    lengths = [len(g) for g in grids]
    # several chunks each, both ending in a short chunk of different length
    assert lengths[0] > lengths[1] > 2 * _CHUNK
    assert len({n % _CHUNK for n in lengths} | {0}) == 3
    return grids


def test_analyses_in_sequence_equal_single_runs(h3_wfn_field, h3_grids):
    alphas = (0.5, 2.0, 3.0)
    single = [repr(analyze_field(copy.deepcopy(h3_wfn_field), g, alphas=alphas))
              for g in h3_grids]
    field = copy.deepcopy(h3_wfn_field)
    for g in (0, 1, 0, 1):
        assert repr(analyze_field(field, h3_grids[g], alphas=alphas)) == single[g]


def test_pair_fields_results_outlive_later_evaluations(h3_wfn_field, h3_grids):
    field = copy.deepcopy(h3_wfn_field)
    first, second = (g.points for g in h3_grids)
    rho, pairs = field.pair_fields(first)
    kept = rho.copy(), {k: v.copy() for k, v in pairs.items()}
    density = field.density(first)
    kept_density = density.copy()
    field.pair_fields(second)
    field.density(second)
    analyze_field(field, h3_grids[1], alphas=(2.0,))
    assert np.array_equal(rho, kept[0])
    for key, values in pairs.items():
        assert np.array_equal(values, kept[1][key])
    assert np.array_equal(density, kept_density)
    # the pair terms close to the density they were returned with
    total = sum(v if a == b else 2.0 * v for (a, b), v in pairs.items())
    assert np.abs(total - rho).max() <= 1e-14 * rho.max()


_FAULTS = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from entropart import (AtomicGridSpec, PrimitiveBasis, analyze_field,
                           build_document, build_molecular_grid,
                           contracted_overlap, sto6g_hydrogen)
    from entropart.density import DensityMatrix, PairDensityField
    from entropart.molecule import Molecule
    from entropart.wfnio import field_from_document

    n, spacing = 8, 1.8
    mol = Molecule([("H", (0.0, 0.0, i * spacing)) for i in range(n)])
    if sys.argv[3] == "s":
        # a bonded H8 chain: the 4 lowest Hueckel-type MOs doubly occupied
        phi = sto6g_hydrogen()
        S = np.array([[contracted_overlap(phi, phi, abs(i - j) * spacing)
                       for j in range(n)] for i in range(n)])
        H = -0.875 * S
        np.fill_diagonal(H, -0.5)
        w, V = np.linalg.eigh(S)
        X = V @ np.diag(w ** -0.5) @ V.T
        energies, C = np.linalg.eigh(X @ H @ X)
        C = X @ C
        m = len(phi.exponents)
        basis = PrimitiveBasis(mol, np.repeat(np.arange(n), m), np.ones(n * m),
                               np.tile(phi.exponents, n))
        mos = [(2.0, energies[k], np.kron(C[:, k], phi.coefficients))
               for k in range(n // 2)]
        field = field_from_document(build_document(mol, basis, mos))
    else:
        # s, p, d and f primitives on every atom, 4 orbitals; the count of
        # electrons is not the density's, so the walk ends in the
        # normalization check
        codes = [1, 1, 2, 3, 4, 5, 7, 8, 10, 11, 20]
        basis = PrimitiveBasis(mol, np.repeat(np.arange(n), len(codes)),
                               codes * n, ([1.2, 0.3] + [0.7] * 9) * n)
        C = np.random.default_rng(1).normal(size=(len(basis), 4))
        field = PairDensityField(basis, DensityMatrix(
            None, 1.0, orbitals=(np.full(4, 2.0), C)))
    spec = AtomicGridSpec(int(sys.argv[1]), int(sys.argv[2]))
    grid = build_molecular_grid(mol, spec)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    try:
        analyze_field(field, grid, alphas=(0.5, 2.0))
    except ValueError as e:
        assert "grid integrates the density" in str(e) and sys.argv[3] != "s"
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print(-(-len(grid) // 4096), after - before)
""")


@pytest.mark.skipif(not sys.platform.startswith("linux"),
                    reason="counts Linux minor page faults")
@pytest.mark.parametrize("basis", ["s", "spdf"])
def test_first_analysis_page_faults_do_not_grow_with_chunks(basis):
    # Per-chunk temporaries of about 1.2-1.5 MB were returned to the OS and
    # faulted back in on every chunk of a fresh process's first analysis,
    # about 1,300 minor faults per chunk; the workspace touches its pages once
    src = os.path.dirname(os.path.dirname(entropart.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    counts = {}
    for spec in ((60, 110), (100, 194)):
        out = subprocess.run(
            [sys.executable, "-c", _FAULTS, *map(str, spec), basis],
            env=env, capture_output=True, text=True, check=True).stdout.split()
        chunks, faults = map(int, out)
        counts[chunks] = faults
    (few, f_few), (many, f_many) = sorted(counts.items())
    assert (few, many) == (13, 37)
    assert f_many - f_few < 50 * (many - few), counts
