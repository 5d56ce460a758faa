"""One-stop analysis: walk the grid once, decompose everything.

Couples the pair partition to the Shannon and Renyi modules, and builds
the isolated-atom reference data used by infinite-separation checks.
"""

import dataclasses
import math

from .backends import Workspace
from .density import PairDensityField
from .models import atom_field, build_model, hydrogen_atom_energy
from .quadrature import AtomicGridSpec, MolecularGrid, build_molecular_grid, integrate
from .reductions import GridSums
from .renyi import _validate_alpha, asymptotic_renyi_reference, renyi_from_sums
from .shannon import (ShannonDecomposition, asymptotic_shannon_reference,
                      check_normalization, shannon_from_sums)

# row-level identity tolerances used by reporting tools
CLOSURE_TOLERANCE = 1e-8    # add - nadd = total, both entropy families
SCALING_TOLERANCE = 1e-10   # density/shape total relations
LIMIT_TOLERANCE = 1e-4      # infinite-separation references


@dataclasses.dataclass(frozen=True)
class FieldAnalysis:
    """Shannon and Renyi decompositions of one field on one grid."""

    n_declared: float
    n_grid: float
    shannon: ShannonDecomposition
    renyi: dict

    def identity_residuals(self) -> dict:
        """Internal consistency residuals; all should be near zero."""
        res = {
            "shannon_closure": self.shannon.density.closure_residual,
            "shannon_closure_shape": self.shannon.shape.closure_residual,
            "shannon_scaling": self.shannon.scaling_residual,
        }
        n = self.n_grid
        for alpha, dec in self.renyi.items():
            label = f"{alpha:g}"
            expected_gap = (alpha / (alpha - 1.0)) * math.log(n)
            res[f"renyi{label}_scaling"] = (
                dec.totals.shape - dec.totals.density - expected_gap)
            if dec.pair_partition is not None:
                res[f"renyi{label}_closure"] = dec.pair_partition.closure_residual
                res[f"renyi{label}_p4_sum"] = (
                    math.fsum(dec.pair_partition.p4.values()) - 1.0)
        return res

    def identity_violations(self, closure_tol: float = CLOSURE_TOLERANCE,
                            scaling_tol: float = SCALING_TOLERANCE) -> dict:
        """The residuals outside tolerance: closure_tol for the closure
        residuals, scaling_tol for the others."""
        return {name: value for name, value in self.identity_residuals().items()
                if not abs(value) <= (closure_tol if "closure" in name
                                      else scaling_tol)}

    def identities_ok(self, closure_tol: float = CLOSURE_TOLERANCE,
                      scaling_tol: float = SCALING_TOLERANCE) -> bool:
        return not self.identity_violations(closure_tol, scaling_tol)


def analyze_field(field: PairDensityField, grid: MolecularGrid,
                  alphas=()) -> FieldAnalysis:
    """Walk the grid once and run every requested decomposition.

    ``integrate`` takes int rho over the grid, evaluating one integration
    chunk at a time; each chunk's density and pair terms are reduced at
    once to the chunk partials of every other integral the decompositions
    need (``GridSums``), so no full-length pair array is held. A non-finite
    density is raised by ``integrate`` during the walk, as for any field it
    integrates. The normalization check runs after the walk; the checks on
    the other integrands, recorded during it, follow before any result is
    built.
    """
    alphas = list(dict.fromkeys(_validate_alpha(a) for a in alphas))
    sums = GridSums(field.pair_keys, alphas)
    before = dataclasses.replace(field.diagnostics)
    work = Workspace()  # this call's chunk arrays, freed when it returns
    start = 0

    def density(points):
        # integrate walks grid.points in order, one _CHUNK at a time
        nonlocal start
        rho, terms = field.pair_block(points, work)
        sums.add(grid.weights[start:start + len(rho)], rho, terms, work)
        start += len(rho)
        return rho

    try:
        n_grid = integrate(density, grid)
    finally:
        field.warn_negated(before)
    check_normalization(n_grid, field.n_electrons)
    sums.check()
    shannon = shannon_from_sums(sums, n_grid, field.diagnostics.since(before))
    renyi = {a: renyi_from_sums(sums, a, n_grid) for a in alphas}
    return FieldAnalysis(n_declared=field.n_electrons, n_grid=n_grid,
                         shannon=shannon, renyi=renyi)


@dataclasses.dataclass(frozen=True)
class ModelAnalysis:
    """A built-in dissociation model analyzed at one separation."""

    method: str
    separation: float
    energy: float
    ci: tuple
    analysis: FieldAnalysis


def analyze_model(method: str, separation: float, spec: AtomicGridSpec = None,
                  alphas=()) -> ModelAnalysis:
    model = build_model(method, separation)
    grid = build_molecular_grid(model.molecule(), spec)
    analysis = analyze_field(model.field(), grid, alphas=alphas)
    return ModelAnalysis(method=method, separation=separation,
                         energy=model.energy, ci=model.ci, analysis=analysis)


@dataclasses.dataclass(frozen=True)
class AtomReference:
    """Isolated-atom constants entering the infinite-separation limits.

    For a one-electron atom the density and shape entropies coincide and
    every molecular limit below is a function of these numbers alone.
    """

    energy: float
    n_grid: float
    shannon: float
    renyi: dict  # alpha -> RenyiTotals

    def shannon_limits(self, n_atoms: int = 2):
        """(density, shape) Shannon limits for n_atoms well-separated copies."""
        return asymptotic_shannon_reference([self.shannon] * n_atoms,
                                            [1.0] * n_atoms)

    def renyi_limits(self, alpha: float, n_atoms: int = 2):
        """(density, shape) order-alpha limits for n_atoms separated copies."""
        totals = self.renyi[float(alpha)]
        return asymptotic_renyi_reference(
            alpha, [totals.density] * n_atoms, [totals.moment] * n_atoms,
            [1.0] * n_atoms)


def hydrogen_reference(spec: AtomicGridSpec = None, alphas=(),
                       basis=None) -> AtomReference:
    """Entropies and energy of one ground-state hydrogen atom.

    Uses the built-in six-Gaussian s contraction unless another basis
    is supplied.
    """
    field = atom_field(basis)
    analysis = analyze_field(field, build_molecular_grid(field.molecule, spec),
                             alphas=alphas)
    return AtomReference(energy=hydrogen_atom_energy(basis),
                         n_grid=analysis.n_grid,
                         shannon=analysis.shannon.density.total,
                         renyi={a: dec.totals for a, dec in analysis.renyi.items()})
