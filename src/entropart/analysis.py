"""One-stop analysis: walk the grid once, decompose everything.

Couples the pair partition to the Shannon and Renyi modules. The
infinite-separation limits of a set of fragments follow from the
fragments' own analyses (``separation_limits``): their electron counts,
integrals of rho ln rho and moments of rho**alpha add.
"""

import dataclasses
import functools
import math

import numpy as np

from . import parallel
from .backends import Workspace
from .density import ClampDiagnostics, PairDensityField
from .models import atom_field, build_model
from .quadrature import AtomicGridSpec, MolecularGrid, build_molecular_grid
from .reductions import GridSums, integrals, symmetrized
from .renyi import _totals, _validate_alpha, renyi_from_sums
from .shannon import (ShannonDecomposition, check_normalization,
                      shannon_from_sums)

# row-level identity tolerances used by reporting tools
CLOSURE_TOLERANCE = 1e-8    # add - nadd = total, both entropy families
SCALING_TOLERANCE = 1e-10   # density/shape total relations
LIMIT_TOLERANCE = 1e-4      # infinite-separation references

# evaluated points x pair terms of a walk for each worker it is shared
# among: with less, a forked worker costs about what its share saves. On
# two cores, two workers broke even on an H2 fci walk, 3 pair terms, at
# 125,000-150,000 before the grid was held in orbit form; since then they
# save about 4% of the walk at 1000 x 434, at 414,834 (29.4 against
# 28.1 ms, faster in 8 of 12 rounds), and 25% on the H8 chain, at 3.8
# million (138 against 104 ms), README's Parallelism table
WORK_PER_WORKER = 70_000


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

    The field's symmetry (``PairDensityField.symmetry``) gives both the
    walk's operations, which map the field onto itself and fix each of
    its nuclei, and the atoms that it exchanges. The walk
    (``MolecularGrid.walk``) evaluates the field at one point per orbit
    of those operations that also fix every nucleus of the grid, each
    weighted by its grid cell's
    weight times its orbit's member count, one chunk of ``_CHUNK`` = 4096
    such representatives at a time (``Walk.chunk``); with no operation but
    the identity these are the kept points and their weights. Each chunk's
    density and pair terms are reduced at once to the chunk partials of
    every integral the decompositions need, int rho among them
    (``GridSums.chunk``), so no full-length pair array is held. Clamp
    counts and the non-finite point named in an error are of grid points:
    a representative counts its orbit's members, and an error names the
    lowest kept point whose orbit holds the bad value. The chunks are
    mapped over ``parallel.map``'s workers, with cap one worker per
    ``WORK_PER_WORKER`` evaluated points x pair terms (the walk's exact
    ``evaluated``); jobs None asks for every usable CPU. A chunk raises at
    the first check it fails, a non-finite density or integrand or, at a
    fractional order, a negative atomic net density (``GridSums.chunk``);
    the error of the lowest raising chunk is raised, as in a serial walk,
    and the call records no clamp counts. Otherwise the partials come
    back in grid order and are summed once (``reductions.integrals``), so
    the result is the serial walk's for any W, and the chunks' clamp
    counts are summed and added to ``field.diagnostics`` once
    (``field.record``, one warning for the points negated). The
    integrals of atoms and pairs that a symmetry of the field exchanges
    are replaced by their mean (``reductions.symmetrized`` over the
    symmetry's permutations), so they are the same bits; only on a grid
    on the field's nuclei, each at the same position with the same
    element, since elsewhere the grid need not be exchanged with them.
    Then the normalization check, before any result is built.
    """
    alphas = list(dict.fromkeys(_validate_alpha(a) for a in alphas))
    sums = GridSums(field.pair_keys, alphas)
    operations, permutations = field.symmetry()
    walk = grid.walk(operations)
    cap = walk.evaluated * len(field.pair_keys) // WORK_PER_WORKER
    task = functools.partial(_chunk, field, walk, sums, Workspace())
    partials, counts = zip(*parallel.map(task, len(walk), jobs, cap))
    counts = sum(counts, ClampDiagnostics())
    field.record(counts)
    on_nuclei = (np.array_equal(grid.molecule.positions,
                                field.molecule.positions)
                 and [a.z for a in grid.molecule.atoms]
                 == [a.z for a in field.molecule.atoms])
    values = symmetrized(integrals(partials), field.pair_keys,
                         permutations if on_nuclei else [])
    n_grid = float(values["rho"][0])
    check_normalization(n_grid, field.n_electrons)
    shannon = shannon_from_sums(values, field.pair_keys, n_grid, counts)
    renyi = {a: renyi_from_sums(values, field.pair_keys, a, n_grid)
             for a in alphas}
    return FieldAnalysis(n_declared=field.n_electrons, n_grid=n_grid,
                         shannon=shannon, renyi=renyi)


def _chunk(field, walk, sums, work, i):
    """Chunk i of the walk, one point per orbit, its arrays in ``work``:
    (its partials, as ``sums.chunk`` gives them or raises, and its
    ClampDiagnostics)."""
    chunk = walk.chunk(i, work)
    rho, terms, counts = field.pair_block(chunk.points, work, chunk.counts)
    return sums.chunk(chunk, rho, terms, work), counts


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


def separation_limits(fragments):
    """Infinite-separation limits of the union of fragments, each the
    ``FieldAnalysis`` of one isolated fragment.

    Far apart, the fragments' electron counts N, integrals
    S = -int rho ln rho and moments M_alpha = int rho**alpha add, and each
    limit is what an analysis computes from those sums. Returns
    ((S, S / N + ln N), {alpha: RenyiTotals}): the Shannon density and
    shape limits, and the limits at every order of the first fragment,
    each shape value by the exact scaling sigma = rho / N.
    """
    n = math.fsum(f.n_declared for f in fragments)
    s = math.fsum(f.shannon.density.total for f in fragments)
    moments = {a: math.fsum(f.renyi[a].totals.moment for f in fragments)
               for a in fragments[0].renyi}
    return ((s, s / n + math.log(n)),
            {a: _totals(a, m, n) for a, m in moments.items()})


def hydrogen_reference(spec: AtomicGridSpec = None, alphas=(),
                       basis=None, jobs=None) -> FieldAnalysis:
    """The analysis of one ground-state hydrogen atom, on its own grid.

    Uses the built-in six-Gaussian s contraction unless another basis
    is supplied.
    """
    field = atom_field(basis)
    return analyze_field(field, build_molecular_grid(field.molecule, spec),
                         alphas=alphas, jobs=jobs)
