"""One-stop analysis: walk the grid once, decompose everything.

Couples the pair partition to the Shannon and Renyi modules, and builds
the isolated-atom reference data used by infinite-separation checks.
"""

import dataclasses
import functools
import math

from . import parallel
from .backends import Workspace
from .density import PairDensityField
from .models import atom_field, build_model, hydrogen_atom_energy
from .quadrature import (_CHUNK, AtomicGridSpec, MolecularGrid,
                         build_molecular_grid, nonfinite_error)
from .reductions import GridSums
from .renyi import _validate_alpha, asymptotic_renyi_reference, renyi_from_sums
from .shannon import (ShannonDecomposition, asymptotic_shannon_reference,
                      check_normalization, shannon_from_sums)

# row-level identity tolerances used by reporting tools
CLOSURE_TOLERANCE = 1e-8    # add - nadd = total, both entropy families
SCALING_TOLERANCE = 1e-10   # density/shape total relations
LIMIT_TOLERANCE = 1e-4      # infinite-separation references

# chunks x pair terms of a walk for each worker it is shared among: with
# less, a forked worker costs about what its share saves (on two cores,
# two workers break even on an H2 fci walk, 3 pair terms, at 10-15
# chunks, and save about 20% at 20)
WORK_PER_WORKER = 30


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
                  alphas=(), jobs=None) -> FieldAnalysis:
    """Walk the grid once and run every requested decomposition.

    The walk evaluates one integration chunk at a time; each chunk's
    density and pair terms are reduced at once to the chunk partials of
    every integral the decompositions need, int rho among them
    (``GridSums``), so no full-length pair array is held. The chunks are
    shared among ``parallel.workers(jobs, cap)`` processes, chunk i to
    worker i mod W, with cap one worker per ``WORK_PER_WORKER`` chunks x
    pair terms; jobs None asks for every usable CPU. The exact sums give
    the same bits for any W. A non-finite density is raised as
    ``integrate`` raises it, after the walk; then the normalization
    check, and then the checks on the other integrands, recorded during
    the walk, before any result is built. The clamp counts of every
    worker, up to the chunk of a non-finite density, are added to
    ``field.diagnostics``, with one warning for the points negated.
    """
    alphas = list(dict.fromkeys(_validate_alpha(a) for a in alphas))
    cap = -(-len(grid) // _CHUNK) * len(field.pair_keys) // WORK_PER_WORKER
    before = dataclasses.replace(field.diagnostics)
    shares = parallel.run(functools.partial(_walk, field, grid, alphas),
                          jobs, cap)
    sums = shares[0][0]
    for other, _ in shares[1:]:
        sums.merge(other)
    # the chunks the serial walk would have evaluated
    last = math.inf if sums.nonfinite_rho is None else sums.nonfinite_rho
    counts = [c for _, clamps in shares for start, c in clamps if start <= last]
    field.diagnostics.clamped = before.clamped + sum(c.clamped for c in counts)
    field.diagnostics.negated = before.negated + sum(c.negated for c in counts)
    field.warn_negated(before)
    if sums.nonfinite_rho is not None:
        raise nonfinite_error(sums.nonfinite_rho, grid)
    n_grid = float(sums.integral("rho")[0])
    check_normalization(n_grid, field.n_electrons)
    sums.check()
    shannon = shannon_from_sums(sums, n_grid, field.diagnostics.since(before))
    renyi = {a: renyi_from_sums(sums, a, n_grid) for a in alphas}
    return FieldAnalysis(n_declared=field.n_electrons, n_grid=n_grid,
                         shannon=shannon, renyi=renyi)


def _walk(field, grid, alphas, share, shares):
    """One worker's share of the walk: chunks share, share + shares, ...
    in order, ending at a non-finite density. Returns its ``GridSums``
    and the (start, ClampDiagnostics) of its chunks that clamped."""
    sums = GridSums(field.pair_keys, alphas)
    work = Workspace()  # this share's chunk arrays, freed when it returns
    clamps = []
    for start, points in grid.chunks(share, shares):
        before = dataclasses.replace(field.diagnostics)
        rho, terms = field.pair_block(points, work)
        counts = field.diagnostics.since(before)
        if counts.clamped or counts.negated:
            clamps.append((start, counts))
        if not sums.add(start, grid.weights[start:start + len(rho)], rho,
                        terms, work):
            break
    return sums, clamps


@dataclasses.dataclass(frozen=True)
class ModelAnalysis:
    """A built-in dissociation model analyzed at one separation."""

    method: str
    separation: float
    energy: float
    ci: tuple
    analysis: FieldAnalysis


def analyze_model(method: str, separation: float, spec: AtomicGridSpec = None,
                  alphas=(), jobs=None) -> ModelAnalysis:
    model = build_model(method, separation)
    grid = build_molecular_grid(model.molecule(), spec)
    analysis = analyze_field(model.field(), grid, alphas=alphas, jobs=jobs)
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
                       basis=None, jobs=None) -> AtomReference:
    """Entropies and energy of one ground-state hydrogen atom.

    Uses the built-in six-Gaussian s contraction unless another basis
    is supplied.
    """
    field = atom_field(basis)
    analysis = analyze_field(field, build_molecular_grid(field.molecule, spec),
                             alphas=alphas, jobs=jobs)
    return AtomReference(energy=hydrogen_atom_energy(basis),
                         n_grid=analysis.n_grid,
                         shannon=analysis.shannon.density.total,
                         renyi={a: dec.totals for a, dec in analysis.renyi.items()})
