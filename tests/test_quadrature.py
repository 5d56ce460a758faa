"""Radial transform, Becke cells, molecular grid assembly, integration."""
import math

import numpy as np
import pytest

from entropart.molecule import Atom, Molecule
from entropart.quadrature import (AtomicGridSpec, becke_weights,
                                  build_molecular_grid, grid_estimate,
                                  integrate, radial_grid)

HYDROGENIC_S = 3.0 + math.log(math.pi)


def hydrogenic_density(r):
    return np.exp(-2.0 * r) / math.pi


def entropy_integrand(rho):
    # x log x extended by 0 at x = 0: far tails underflow to exactly zero
    out = np.zeros_like(rho)
    nz = rho > 0
    out[nz] = rho[nz] * np.log(rho[nz])
    return out


def test_radial_nodes_ascending_positive():
    r, w = radial_grid(50, 0.7)
    assert (np.diff(r) > 0).all()
    assert (r > 0).all()
    assert (w > 0).all()


def test_radial_hydrogenic_norm_and_entropy():
    # spherical integrals: 4*pi * sum w f(r)
    r, w = radial_grid(200, 0.661404);  rho = hydrogenic_density(r)
    norm = 4.0 * math.pi * float(np.dot(w, rho))
    assert norm == pytest.approx(1.0, abs=1e-13)
    s = -4.0 * math.pi * float(np.dot(w, entropy_integrand(rho)))
    assert s == pytest.approx(HYDROGENIC_S, abs=1e-12)


def test_radial_validation():
    with pytest.raises(ValueError):
        radial_grid(0, 0.7)
    with pytest.raises(ValueError):
        radial_grid(10, -1.0)


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="lebedev"):
        AtomicGridSpec(lebedev_order=100)
    with pytest.raises(ValueError, match="n_radial"):
        AtomicGridSpec(n_radial=0)
    with pytest.raises(ValueError, match="stiffness"):
        AtomicGridSpec(stiffness=0)
    # every atom's radial scale comes from the element table
    with pytest.raises(TypeError, match="bragg_radius"):
        AtomicGridSpec(bragg_radius=0.7)


def test_single_atom_grid_point_count():
    mol = Molecule([Atom("H", 1, (0.0, 0.0, 0.0))])
    spec = AtomicGridSpec(n_radial=200, lebedev_order=110)
    grid = build_molecular_grid(mol, spec)
    assert len(grid) == 200 * 110
    assert (grid.owner_atom == 0).all()
    # one atom screens no point, so the estimate is exact
    assert grid_estimate(1, spec) == (len(grid), grid.points.nbytes
                                      + grid.weights.nbytes
                                      + grid.owner_atom.nbytes)
    # estimated only: this grid would need 289 GiB
    assert grid_estimate(2, AtomicGridSpec(n_radial=20_000_000)) == (
        7_760_000_000, 310_400_000_000)


def test_single_atom_hydrogenic_entropy():
    mol = Molecule([Atom("H", 1, (0.0, 0.0, 0.0))])
    grid = build_molecular_grid(mol, AtomicGridSpec(n_radial=200,
                                                    lebedev_order=110))
    r = np.linalg.norm(grid.points, axis=1)
    rho = hydrogenic_density(r)
    assert integrate(rho, grid) == pytest.approx(1.0, abs=1e-12)
    s = -integrate(entropy_integrand(rho), grid)
    assert s == pytest.approx(HYDROGENIC_S, abs=1e-10)


def test_integrate_callable_and_checks():
    mol = Molecule([Atom("H", 1, (0.0, 0.0, 0.0))])
    grid = build_molecular_grid(mol, AtomicGridSpec(n_radial=40,
                                                    lebedev_order=26))
    by_callable = integrate(
        lambda p: hydrogenic_density(np.linalg.norm(p, axis=1)), grid)
    r = np.linalg.norm(grid.points, axis=1)
    assert by_callable == integrate(hydrogenic_density(r), grid)
    with pytest.raises(ValueError, match="shape"):
        integrate(np.ones(7), grid)
    with pytest.raises(ValueError, match="grid or explicit weights"):
        integrate(np.ones(7))
    with pytest.raises(ValueError, match="callable field needs a grid"):
        integrate(lambda p: np.ones(len(p)), weights=grid.weights)


def test_integrate_rejects_nonfinite_with_location():
    mol = Molecule([Atom("H", 1, (0.0, 0.0, 0.0))])
    grid = build_molecular_grid(mol, AtomicGridSpec(n_radial=10,
                                                    lebedev_order=6))
    values = np.ones(len(grid))
    values[13] = np.nan
    with pytest.raises(ValueError, match="point index 13"):
        integrate(values, grid)


def test_integrate_deterministic():
    mol = Molecule.h2(1.4)
    grid = build_molecular_grid(mol, AtomicGridSpec(n_radial=60,
                                                    lebedev_order=50))
    r = np.linalg.norm(grid.points, axis=1)
    values = np.exp(-r)
    results = {integrate(values, grid) for _ in range(5)}
    assert len(results) == 1


def test_becke_partition_of_unity(rng):
    # random 2..5 atom configurations, random probe points
    for nat in (2, 3, 4, 5):
        centers = rng.normal(scale=2.0, size=(nat, 3))
        radii = rng.uniform(0.3, 1.5, size=nat)
        pts = rng.normal(scale=3.0, size=(10_000, 3))
        w = becke_weights(pts, centers, radii)
        assert w.shape == (nat, 10_000)
        assert (w >= 0).all() and (w <= 1).all()
        assert np.max(np.abs(w.sum(axis=0) - 1.0)) < 1e-12


@pytest.mark.parametrize("size_adjust", [False, True])
@pytest.mark.parametrize("stiffness", [1, 3, 5])
def test_becke_partition_of_unity_mixed_radii(rng, stiffness, size_adjust):
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4], [1.0, 0.8, 0.3]])
    radii = np.array([0.66, 0.66, 1.32])   # mixed: equal and 2:1 pairs
    pts = rng.normal(scale=2.0, size=(400, 3))
    w = becke_weights(pts, centers, radii, stiffness=stiffness,
                      size_adjust=size_adjust)
    assert (w >= 0).all() and (w <= 1).all()
    assert np.max(np.abs(w.sum(axis=0) - 1.0)) < 1e-12


def test_becke_single_point_shape():
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
    w = becke_weights(np.array([0.0, 0.0, 0.7]), centers)
    assert w.shape == (2,)
    # midpoint of equal atoms splits evenly
    assert w[0] == pytest.approx(0.5, abs=1e-14)
    assert w[1] == pytest.approx(0.5, abs=1e-14)


def test_becke_stiffness_sharpens_boundary():
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
    probe = np.array([[0.0, 0.0, 0.5]])
    soft = becke_weights(probe, centers, stiffness=1)[0, 0]
    hard = becke_weights(probe, centers, stiffness=5)[0, 0]
    assert hard > soft  # closer atom gains weight as k grows


def test_becke_size_adjust_moves_boundary():
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 2.0]])
    radii = np.array([1.2, 0.4])
    mid = np.array([[0.0, 0.0, 1.0]])
    plain = becke_weights(mid, centers, radii, size_adjust=False)[0, 0]
    shifted = becke_weights(mid, centers, radii, size_adjust=True)[0, 0]
    assert plain == pytest.approx(0.5, abs=1e-14)
    assert shifted > 0.5  # bigger atom claims the midpoint


def test_becke_coincident_centers_rejected():
    centers = np.zeros((2, 3))
    with pytest.raises(ValueError, match="coincident"):
        becke_weights(np.array([[1.0, 0.0, 0.0]]), centers)
    # the first coincident pair in (a, b) order is named
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4], [0.0, 0.0, 1.4]])
    with pytest.raises(ValueError, match="coincident centers 1 and 2: "):
        becke_weights(np.array([[1.0, 0.0, 0.0]]), centers)
    centers = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4], [0.0, 0.0, 1.4],
                        [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="coincident centers 0 and 3: "):
        becke_weights(np.array([[1.0, 0.0, 0.0]]), centers)


@pytest.mark.parametrize("position", [
    (0.0, 0.0, 1.0000001e6), (-2e6, 0.0, 0.0), (0.0, math.nan, 0.0),
    (0.0, 0.0, math.inf), (0.0, 0.0, -math.inf)])
def test_nucleus_beyond_the_coordinate_bound_rejected(position):
    with pytest.raises(ValueError, match="at most 1e\\+06"):
        Molecule([("H", (0.0, 0.0, 0.0)), ("H", position)])
    # the bound itself is allowed
    assert Molecule.h2(1e6).positions[1, 2] == 1e6


def test_molecular_grid_weights_positive_and_screened():
    grid = build_molecular_grid(Molecule.h2(1.4),
                                AtomicGridSpec(n_radial=60, lebedev_order=50))
    assert (grid.weights >= 1e-16).all()
    assert set(np.unique(grid.owner_atom)) == {0, 1}


def test_h2_normalization_default_grid(model_analysis):
    # default grid, both ends of the separation ladder
    for separation in (1.4, 50.0):
        ma = model_analysis("fci", separation)
        assert ma.analysis.n_grid == pytest.approx(2.0, abs=1e-6)


def test_h2_normalization_ladder_default_grid():
    # honest default-grid accuracy across the whole ladder (worst near R=4)
    from entropart.models import build_model
    for separation in (2.0, 3.0, 4.0, 6.0, 10.0, 20.0):
        model = build_model("fci", separation)
        grid = build_molecular_grid(model.molecule())
        n = integrate(model.field().density(grid.points), grid)
        assert n == pytest.approx(2.0, abs=2e-6)


def test_default_grid_entropy_converged(model_analysis, reference_spec):
    coarse = model_analysis("hf", 1.4).analysis.shannon.density.total
    fine = model_analysis("hf", 1.4, spec=reference_spec)
    assert coarse == pytest.approx(fine.analysis.shannon.density.total,
                                   abs=1e-7)
