"""Test references: one primitive evaluated at one point, the pointwise
Shannon integrands, the streamed walk fed from whole arrays, and the grid
weighed at every direction.

``eval_primitive`` is the scalar reference of the vectorized primitive
kernel: one normalized Cartesian Gaussian at one position.

``listed_grid`` builds a molecular grid atom by atom into lists, with the
Becke cell weights taken at every Lebedev direction, and stacks them.

``listed_nuclear_permutations`` finds the atom permutations of the
symmetry operations one operation and one nucleus at a time, looking
each image up among the nuclei by its coordinates.

The package integrates the decomposition; ``shannon_point_terms`` gives
its integrands at each point, whose closure add - nadd = total holds
pointwise wherever rho > 0. ``walk`` reduces one integration chunk at a
time with ``GridSums.chunk`` and sums the partials with ``integrals``, in
grid order, as ``analyze_field`` does, from arrays evaluated over the
whole grid; it raises where the chunk that fails first raises.
"""
import dataclasses
import math

import numpy as np

from entropart import lebedev
from entropart.backends import Workspace, becke_weights_kernel
from entropart.density import primitive_norm
from entropart.quadrature import (_CHUNK, _PERMS, _SIGNS, WEIGHT_SCREEN,
                                  Chunk, radial_grid)
from entropart.reductions import GridSums, integrals
from entropart.shannon import safe_log


@dataclasses.dataclass(frozen=True)
class Primitive:
    center_index: int
    pows: tuple  # (a, b, c), a+b+c <= 3
    exponent: float

    @property
    def norm(self) -> float:
        return primitive_norm(self.exponent, self.pows)


def eval_primitive(p: Primitive, center: np.ndarray, r) -> float:
    """Value of one normalized Cartesian Gaussian at position r."""
    d = np.asarray(r, dtype=float) - np.asarray(center, dtype=float)
    a, b, c = p.pows
    mono = d[0] ** a * d[1] ** b * d[2] ** c
    return p.norm * mono * math.exp(-p.exponent * float(d @ d))


@dataclasses.dataclass(frozen=True)
class ShannonPointTerms:
    """Integrands of the decomposition, evaluated per point."""

    total: np.ndarray   # -rho log rho
    add: np.ndarray     # additive integrand, summed over ordered pairs
    nadd: np.ndarray    # nonadditive integrand, summed over ordered pairs


def shannon_point_terms(rho, pairs) -> ShannonPointTerms:
    """Pointwise integrands from a (rho, pairs) field evaluation."""
    rho = np.asarray(rho, dtype=float)
    total = -rho * safe_log(rho)
    add = np.zeros(rho.shape)
    nadd = np.zeros(rho.shape)
    denom = np.where(rho > 0, rho, 1.0)
    for (a, b), x in pairs.items():
        mult = 1.0 if a == b else 2.0
        q = np.where(rho > 0, x / denom, 0.0)
        add += mult * (-x * safe_log(x))
        nadd += mult * (-x * safe_log(q))
    return ShannonPointTerms(total=total, add=add, nadd=nadd)


def walk(weights, rho, pairs, alphas) -> dict:
    """The ``integrals`` of ``GridSums(sorted(pairs), alphas)`` over
    whole arrays; pairs maps each pair key to its array."""
    keys = sorted(pairs)
    terms = np.array([pairs[k] for k in keys])
    sums, work = GridSums(keys, alphas), Workspace()
    return integrals([
        sums.chunk(Chunk(start, weights[start:start + _CHUNK]),
                   rho[start:start + _CHUNK],
                   np.ascontiguousarray(terms[:, start:start + _CHUNK]), work)
        for start in range(0, len(weights), _CHUNK)])



def listed_grid(molecule, spec, kernel=becke_weights_kernel):
    """(points, weights, owner_atom) of the grid built atom by atom into
    lists, every direction weighed by ``kernel``, then stacked."""
    centers = molecule.positions
    radii = molecule.bragg_radii()
    ang_pts, ang_wts = lebedev.lebedev_grid(spec.lebedev_order)
    all_pts, all_wts, owners = [], [], []
    for a in range(len(molecule)):
        r, wr = radial_grid(spec.n_radial, radii[a])
        pts = centers[a][None, None, :] + r[:, None, None] * ang_pts[None, :, :]
        pts = pts.reshape(-1, 3)
        w = (4.0 * math.pi) * (wr[:, None] * ang_wts[None, :]).reshape(-1)
        if len(molecule) > 1:
            w = w * kernel(pts, centers, radii, spec.stiffness,
                           spec.size_adjust)[a]
        keep = w >= WEIGHT_SCREEN
        all_pts.append(pts[keep])
        all_wts.append(w[keep])
        owners.append(np.full(int(keep.sum()), a, dtype=np.int64))
    return np.vstack(all_pts), np.concatenate(all_wts), np.concatenate(owners)


def listed_nuclear_permutations(molecule) -> dict:
    """``quadrature.nuclear_permutations``, one operation at a time: each
    image of the nuclei, translated so that nucleus 0 lands on the nucleus
    nearest where the centroid's translation takes it, looked up by its
    exact coordinates."""
    centers = molecule.positions
    z = [atom.z for atom in molecule.atoms]
    where = {tuple(c): b for b, c in enumerate(centers.tolist())}
    mean = centers.mean(axis=0)
    out = {}
    for g, (perm, signs) in enumerate(zip(_PERMS, _SIGNS)):
        images = centers[:, perm] * signs
        guess = images[0] + (mean - mean[perm] * signs)
        t = centers[np.argmin(((centers - guess) ** 2).sum(axis=1))] - images[0]
        atoms = [where.get(tuple(c)) for c in (images + t).tolist()]
        if None not in atoms and all(z[a] == z[b] for a, b in enumerate(atoms)):
            out[g] = np.array(atoms)
    return out
