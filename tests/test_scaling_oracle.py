"""The shape-function terms and the Gram matrix against direct integration.

``analyze_field`` derives every shape-function number from the density
terms and the grid electron count N by exact scaling, and the order-2 Gram
matrix from one blocked pass. The references here take the long way: the
direct array reduction run on rho / N and every pair term / N, the
integral of (rho / N)**alpha, and one ``integrate`` per pair of pair terms
against the Gram matrix of ``GridSums.chunk`` fed chunk by chunk and
summed in grid order by ``reductions.integrals`` (``references.walk``).
"""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from entropart.analysis import analyze_field
from entropart.density import (TYPE_POWS, ClampDiagnostics, DensityMatrix,
                               PairDensityField, PrimitiveBasis)
from entropart.models import build_model
from entropart.molecule import Molecule
from entropart.quadrature import (_CHUNK, AtomicGridSpec, build_molecular_grid,
                                  integrate)
from entropart.renyi import renyi_total
from entropart.shannon import NORMALIZATION_TOLERANCE, shannon_from_arrays

from references import walk

ALPHAS = (0.5, 2.0, 3.0)
SPEC = AtomicGridSpec(n_radial=150, lebedev_order=110)


def check_against_sigma_pass(field, grid, fa, floor=0.0):
    """Every shape-function number of ``fa`` against the direct pass, to
    1e-12 relative of the larger of the number and ``floor``."""
    def _close(got, want):
        assert abs(got - want) <= 1e-12 * max(abs(want), floor), (got, want)

    rho, pairs = field.pair_fields(grid.points)
    n = fa.n_grid
    sigma = shannon_from_arrays(rho / n, {k: v / n for k, v in pairs.items()},
                                grid.weights, 1.0, ClampDiagnostics()).density
    shape = fa.shannon.shape
    for name in ("total", "add", "nadd"):
        _close(getattr(shape, name), getattr(sigma, name))
    assert shape.net.keys() == sigma.net.keys()
    assert shape.overlap.keys() == sigma.overlap.keys()
    for a in sigma.net:
        _close(shape.net[a], sigma.net[a])
    for key in sigma.overlap:
        _close(shape.overlap[key], sigma.overlap[key])
    for alpha, dec in fa.renyi.items():
        _close(dec.totals.shape,
               renyi_total(rho / n, grid.weights, alpha, 1.0).density)


def check_gram(pairs, weights):
    # the streamed Gram matrix, with rho the sum of the pair terms
    keys = sorted(pairs)
    direct = np.array([[integrate(pairs[i] * pairs[j], weights=weights)
                        for j in keys] for i in keys])
    rho = sum((1.0 if a == b else 2.0) * pairs[a, b] for a, b in keys)
    upper = np.triu_indices(len(keys))
    blocked = np.empty((len(keys), len(keys)))
    blocked[upper] = walk(weights, rho, pairs, (2.0,))["gram"]
    blocked.T[upper] = blocked[upper]
    assert np.array_equal(blocked, blocked.T)
    assert np.max(np.abs(blocked - direct)) <= 1e-13 * np.max(np.abs(direct))


@pytest.mark.parametrize("method", ["hf", "fci"])
@pytest.mark.parametrize("separation", [1.4, 4.0])
def test_h2_shape_terms_match_the_sigma_pass(method, separation):
    model = build_model(method, separation)
    field = model.field()
    grid = build_molecular_grid(model.molecule(), SPEC)
    check_against_sigma_pass(field, grid,
                             analyze_field(field, grid, alphas=ALPHAS))


def test_three_centre_shape_terms_and_gram(h3_wfn_field):
    field = h3_wfn_field
    grid = build_molecular_grid(field.molecule, SPEC)
    fa = analyze_field(field, grid, alphas=ALPHAS)
    assert len(fa.shannon.shape.overlap) == 3
    check_against_sigma_pass(field, grid, fa)
    check_gram(field.pair_fields(grid.points)[1], grid.weights)


def test_h2_gram_matches_per_pair_integrals():
    model = build_model("fci", 1.4)
    grid = build_molecular_grid(model.molecule(), SPEC)
    check_gram(model.field().pair_fields(grid.points)[1], grid.weights)


def test_gram_counts_every_chunk(rng):
    # on a molecular grid the last chunk holds the outermost shell, where
    # products of pair terms vanish; random values weigh every chunk alike
    npts = 2 * _CHUNK + 5
    pairs = {k: rng.normal(size=npts) for k in ((0, 0), (0, 1), (1, 1))}
    check_gram(pairs, rng.uniform(0.0, 1.0, npts))


def _overlap_1d(la, lb, pa, pb, p):
    # one Cartesian factor of a Gaussian product centred at P, expanded in
    # powers of (x - P); pa = P - A and pb = P - B
    total = 0.0
    for i in range(la + 1):
        for j in range(lb + 1):
            k = i + j
            if k % 2 == 0:
                total += (math.comb(la, i) * math.comb(lb, j)
                          * pa ** (la - i) * pb ** (lb - j)
                          * math.prod(range(k - 1, 0, -2)) / (2.0 * p) ** (k // 2))
    return total * math.sqrt(math.pi / p)


def overlap_matrix(basis):
    """Analytic overlaps of the basis's normalized Cartesian primitives."""
    n = len(basis)
    centers = basis.molecule.positions[basis.center_index]
    S = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            a, b = basis.exponents[i], basis.exponents[j]
            A, B = centers[i], centers[j]
            p = a + b
            P = (a * A + b * B) / p
            s = math.exp(-a * b / p * float((A - B) @ (A - B)))
            for d in range(3):
                s *= _overlap_1d(basis.ang_pows[i][d], basis.ang_pows[j][d],
                                 P[d] - A[d], P[d] - B[d], p)
            S[i, j] = s * basis.norms[i] * basis.norms[j]
    return S


@st.composite
def random_fields(draw):
    """A positive semidefinite density matrix over s, p, d and f primitives
    on a random geometry of two or three hydrogen centres."""
    n_atoms = draw(st.integers(2, 3))
    coord = st.floats(-1.5, 1.5)
    positions = np.array([[draw(coord) for _ in range(3)]
                          for _ in range(n_atoms)])
    assume(min(np.linalg.norm(positions[a] - positions[b])
               for a in range(n_atoms) for b in range(a)) >= 1.4)
    molecule = Molecule([("H", tuple(p)) for p in positions])
    n_prim = draw(st.integers(n_atoms, 3 * n_atoms))
    centres = list(range(n_atoms)) + [draw(st.integers(0, n_atoms - 1))
                                      for _ in range(n_prim - n_atoms)]
    basis = PrimitiveBasis(
        molecule, centres,
        [draw(st.sampled_from(sorted(TYPE_POWS))) for _ in range(n_prim)],
        [draw(st.floats(0.5, 2.0)) for _ in range(n_prim)])
    rank = draw(st.integers(1, 3))
    m = np.array([[draw(st.floats(-1.0, 1.0)) for _ in range(rank)]
                  for _ in range(n_prim)])
    c = m @ m.T
    n_electrons = float(np.sum(c * overlap_matrix(basis)))
    assume(n_electrons > 1e-3)
    # rescale to a drawn electron count so the grid error stays comparable
    target = draw(st.floats(1.0, 4.0))
    return PairDensityField(
        basis, DensityMatrix(c * (target / n_electrons), target))


@settings(derandomize=True, deadline=None, database=None, max_examples=40)
@given(random_fields())
def test_random_fields_keep_every_identity(field):
    grid = build_molecular_grid(field.molecule, AtomicGridSpec(
        n_radial=100, lebedev_order=146))
    n_grid = integrate(field.density(grid.points), grid)
    assume(abs(n_grid - field.n_electrons) <= NORMALIZATION_TOLERANCE)
    fa = analyze_field(field, grid, alphas=ALPHAS)
    assert fa.identity_violations() == {}
    for terms in (fa.shannon.density, fa.shannon.shape):
        assert abs(terms.closure_residual) <= 1e-10 * max(1.0, abs(terms.total))
    part = fa.renyi[2.0].pair_partition
    assert abs(part.closure_residual) <= 1e-12 * max(1.0, abs(part.total))
    assert math.fsum(part.p4.values()) == pytest.approx(1.0, abs=1e-14)
    # a random pair term can cancel to ~1e-18, below the rounding of its
    # parts, so terms are held to 1e-12 of the entropies' own size
    check_against_sigma_pass(field, grid, fa, floor=1.0)
