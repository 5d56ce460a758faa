"""Gaussian primitives, molecular densities, and the atom-pair partition.

The density is rho(r) = sum_ij D_ij phi_i(r) phi_j(r) over atom-centered
primitives, with D = sum_k n_k c_k c_k^T (occupations n_k, orbital
coefficient vectors c_k); ``DensityMatrix`` holds one of the two forms.
Assigning every primitive to its nucleus partitions rho into pair
contributions rho^AB(r) = sum_{i in A, j in B} D_ij phi_i phi_j. At each
block of points an atom A with m_A primitives carries one set of value
rows V_A: its K projected orbital values Y_A[k] = sum_{i in A} c_ki phi_i
when K < m_A, else its primitive values G_A. Each unique pair carries one
coefficient block M_AB, built once per field, with rho^AB = V_A^T M_AB V_B:
diag(n) between two projected atoms, C_A N or N C_B^T (C_A the orbital
coefficients on A's primitives, N = diag(n)) between a primitive and a
projected atom, and the (A, B) block of D between two primitive atoms. A
pair term costs min(K, m_A) min(K, m_B) multiply-adds per point, and only
the atoms whose rows shrink pay for the projection. The sum over all blocks
is the density, so the pointwise closure sum_{A,B} rho^AB = rho holds by
construction; rho^AB for A != B is reported one-sided (totals count it
twice). ``PairDensityField.pair_block`` evaluates one block of points, so
an analysis that reduces each block at once needs no full-length pair
array. The primitive values and the quadratic forms come from the NumPy
kernels in ``backends``.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .backends import Workspace, eval_primitives, quad_form, quad_form_block
from .molecule import Molecule
from .quadrature import _CHUNK

# Cartesian monomial exponents for the standard type codes 1..20
# (s; px py pz; dxx dyy dzz dxy dxz dyz; fxxx ... fxyz).
TYPE_POWS = {
    1: (0, 0, 0),
    2: (1, 0, 0), 3: (0, 1, 0), 4: (0, 0, 1),
    5: (2, 0, 0), 6: (0, 2, 0), 7: (0, 0, 2),
    8: (1, 1, 0), 9: (1, 0, 1), 10: (0, 1, 1),
    11: (3, 0, 0), 12: (0, 3, 0), 13: (0, 0, 3),
    14: (2, 1, 0), 15: (2, 0, 1), 16: (0, 2, 1),
    17: (1, 2, 0), 18: (1, 0, 2), 19: (0, 1, 2),
    20: (1, 1, 1),
}

NEGATIVE_CLAMP = -1e-12


def _dfact(n: int) -> int:
    # (2k-1)!! with the empty product (-1)!! = 1
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def primitive_norm(alpha: float, pows) -> float:
    """Normalization constant making int phi^2 = 1 for x^a y^b z^c e^{-a r^2}."""
    a, b, c = pows
    L = a + b + c
    num = (2.0 * alpha / math.pi) ** 0.75
    return num * math.sqrt((4.0 * alpha) ** L /
                           (_dfact(2 * a - 1) * _dfact(2 * b - 1) * _dfact(2 * c - 1)))


class PrimitiveBasis:
    """Flat list of atom-centered primitives over a molecule."""

    def __init__(self, molecule: Molecule, center_index, type_codes, exponents):
        self.molecule = molecule
        self.center_index = np.asarray(center_index, dtype=np.int64)
        self.type_codes = np.asarray(type_codes, dtype=np.int64)
        self.exponents = np.asarray(exponents, dtype=float)
        n = len(self.exponents)
        if not (len(self.center_index) == len(self.type_codes) == n):
            raise ValueError("primitive arrays must have equal lengths")
        if (self.center_index < 0).any() or (self.center_index >= len(molecule)).any():
            raise ValueError("primitive center index out of range")
        if (self.exponents <= 0).any():
            raise ValueError("primitive exponents must be positive")
        pows = []
        for tc in self.type_codes:
            try:
                pows.append(TYPE_POWS[int(tc)])
            except KeyError:
                raise ValueError(f"unknown primitive type code {tc}") from None
        self.ang_pows = np.array(pows, dtype=np.int64)
        self.norms = np.array([primitive_norm(a, p)
                               for a, p in zip(self.exponents, pows)])

    def __len__(self):
        return len(self.exponents)

    def evaluate(self, points, work=None) -> np.ndarray:
        """(nprim, npts) matrix of primitive values, a view of ``work`` (a
        ``backends.Workspace``) when one is given."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return eval_primitives(pts, self.molecule.positions, self.center_index,
                               self.exponents, self.norms, self.ang_pows,
                               work=work)

    def atom_rows(self, a: int) -> np.ndarray:
        return np.nonzero(self.center_index == a)[0]


class DensityMatrix:
    """The one-particle density over a primitive list, held in one form:
    the symmetric coefficient matrix D or its orbital factor
    D = sum_k n_k c_k c_k^T.

    A given ``coefficients`` matrix is kept, exactly symmetrized, and
    factored by ``numpy.linalg.eigh`` with no truncation threshold:
    negative eigenvalues stay. A given ``orbitals`` factor, as
    (occupations (K,), coefficients (nprim, K)) with column k holding c_k,
    is kept, and D is derived from it only when ``coefficients`` is read.
    Pass one of the two. Orbitals whose occupation is exactly zero are
    dropped from the factor.
    """

    def __init__(self, coefficients, n_electrons: float, orbitals=None):
        if (coefficients is None) == (orbitals is None):
            raise ValueError("give either a coefficient matrix or its "
                             "orbital factor, not both")
        if orbitals is None:
            c = np.asarray(coefficients, dtype=float)
            if c.ndim != 2 or c.shape[0] != c.shape[1]:
                raise ValueError("coefficient matrix must be square")
            if not np.isfinite(c).all():
                raise ValueError("coefficient matrix must be finite")
            # relative to the largest entry, never tighter than 1e-12 absolute
            tol = 1e-12 * max(1.0, float(np.abs(c).max(initial=0.0)))
            if not np.allclose(c, c.T, atol=tol, rtol=0.0):
                raise ValueError("coefficient matrix must be symmetric to "
                                 "1e-12 relative to its largest entry")
            # store the exactly symmetrized form: quad_form assumes a symmetric D
            self._coefficients = _symmetrized(c)
            occupations, vectors = np.linalg.eigh(self._coefficients)
        else:
            self._coefficients = None
            occupations, vectors = (np.asarray(x, dtype=float) for x in orbitals)
            if (occupations.ndim != 1 or vectors.ndim != 2
                    or vectors.shape[1] != len(occupations)):
                raise ValueError(
                    f"orbital factor must be occupations (K,) and coefficients "
                    f"(nprim, K); got {occupations.shape} and {vectors.shape}")
            if not (np.isfinite(occupations).all() and np.isfinite(vectors).all()):
                raise ValueError("orbital factor must be finite")
        self.n_electrons = float(n_electrons)
        if self.n_electrons <= 0:
            raise ValueError("electron count must be positive")
        # an orbital with occupation exactly 0 contributes nothing
        occupied = occupations != 0
        self.occupations = occupations[occupied]
        self.orbitals = vectors[:, occupied]

    @property
    def coefficients(self) -> np.ndarray:
        """D, derived from the factor on first use when none was given."""
        if self._coefficients is None:
            n, v = self.occupations, self.orbitals
            self._coefficients = _symmetrized(np.einsum("k,ik,jk->ij", n, v, v))
        return self._coefficients


def _symmetrized(c):
    """(c + c^T) / 2 for finite c; the halves are added only where the sum
    overflows, since elsewhere they would round subnormal entries apart."""
    with np.errstate(over="ignore"):
        total = c + c.T
    out = 0.5 * total
    over = ~np.isfinite(total)
    out[over] = 0.5 * c[over] + 0.5 * c.T[over]
    return out


@dataclasses.dataclass
class ClampDiagnostics:
    clamped: int = 0    # values in (NEGATIVE_CLAMP, 0) set to 0
    negated: int = 0    # values below NEGATIVE_CLAMP replaced by |value|

    def __add__(self, other: ClampDiagnostics) -> ClampDiagnostics:
        return ClampDiagnostics(clamped=self.clamped + other.clamped,
                                negated=self.negated + other.negated)


def _clamp(rho: np.ndarray) -> ClampDiagnostics:
    """Clamp rho in place (see ClampDiagnostics), returning its counts."""
    neg = rho < 0
    if not neg.any():
        return ClampDiagnostics()
    small = neg & (rho > NEGATIVE_CLAMP)
    rho[small] = 0.0
    bad = neg & ~small
    rho[bad] = np.abs(rho[bad])
    return ClampDiagnostics(clamped=int(small.sum()), negated=int(bad.sum()))


class PairDensityField:
    """Density plus its atom-pair partition, evaluated on point arrays."""

    def __init__(self, basis: PrimitiveBasis, dm: DensityMatrix):
        if len(dm.orbitals) != len(basis):
            raise ValueError("density matrix size does not match basis size")
        self.basis = basis
        self.dm = dm
        self.molecule = basis.molecule
        self.diagnostics = ClampDiagnostics()
        nat = len(basis.molecule)
        self.pair_keys = [(a, b) for a in range(nat) for b in range(a, nat)]
        self._rows = [basis.atom_rows(a) for a in range(nat)]
        # C_A^T, the orbital coefficients on atom A's primitives, for an
        # atom whose value rows are its K projected orbital values
        k = len(dm.occupations)
        self._projectors = [dm.orbitals[rows].T if k < len(rows) else None
                            for rows in self._rows]
        self._blocks = [self._coupling(a, b) for a, b in self.pair_keys]

    @property
    def n_electrons(self) -> float:
        return self.dm.n_electrons

    def _coupling(self, a: int, b: int) -> np.ndarray:
        """M_AB, with rho^AB = V_A^T M_AB V_B over the value rows of atoms
        A and B (see the module docstring)."""
        ra, rb = self._rows[a], self._rows[b]
        primitive_a, primitive_b = (self._projectors[x] is None for x in (a, b))
        if primitive_a and primitive_b:
            return self.dm.coefficients[np.ix_(ra, rb)]
        n, c = self.dm.occupations, self.dm.orbitals
        if primitive_b:  # N C_B^T
            return n[:, None] * c[rb].T
        return c[ra] * n if primitive_a else np.diag(n)  # C_A N, or N

    def pair_block(self, points, work=None):
        """(rho, terms, counts) at one block of points: the clamped
        density, the (npairs, npts) stack of the pair terms in the order
        of ``pair_keys``, and the block's ClampDiagnostics. The field is
        not changed; ``record`` adds counts to ``diagnostics``.

        Every array of the block is taken from ``work`` (a
        ``backends.Workspace``, a fresh one by default; ``reductions``
        lists its sizes): the primitive values and distances of
        ``eval_primitives``, each atom's value rows, the product inside
        ``quad_form_block``, and the pair-term stack and density returned.
        These hold until the next block is evaluated in the same workspace.
        """
        work = Workspace() if work is None else work
        G = self.basis.evaluate(points, work)
        n = G.shape[1]
        values = []
        for a, (c, rows) in enumerate(zip(self._projectors, self._rows)):
            v = work.take(("values", a), (len(rows) if c is None else len(c), n))
            if c is None:
                np.take(G, rows, axis=0, out=v, mode="clip")
            else:
                gathered = work.take("atom_rows", (len(rows), n))
                np.matmul(c, np.take(G, rows, axis=0, out=gathered,
                                     mode="clip"), out=v)
            values.append(v)
        terms = work.take("terms", (len(self.pair_keys), n))
        rho = work.take("rho", (n,))
        rho[:] = 0.0
        twice = work.take("twice", (n,))
        for x, (a, b), m in zip(terms, self.pair_keys, self._blocks):
            quad_form_block(m, values[a], values[b], out=x, work=work)
            rho += x if a == b else np.multiply(2.0, x, out=twice)
        return rho, terms, _clamp(rho)

    def record(self, counts: ClampDiagnostics) -> None:
        """Add one evaluation's counts to ``diagnostics``, with one
        RuntimeWarning for its negated points, however many blocks it
        took."""
        self.diagnostics.clamped += counts.clamped
        self.diagnostics.negated += counts.negated
        if counts.negated:
            warnings.warn(
                f"density below {NEGATIVE_CLAMP} at {counts.negated} points; "
                "using absolute values", RuntimeWarning)

    def density(self, points) -> np.ndarray:
        """Total density, clamped to be nonnegative (see ClampDiagnostics):
        the quadratic form of D over the primitive values, one ``_CHUNK``
        block at a time; the reference the pair terms sum to."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        rho = np.empty(len(pts))
        work = Workspace()
        for start in range(0, len(pts), _CHUNK):
            sl = slice(start, start + _CHUNK)
            rho[sl] = quad_form(self.dm.coefficients,
                                self.basis.evaluate(pts[sl], work))
        self.record(_clamp(rho))
        return rho

    def pair_fields(self, points):
        """All unique pair terms and the clamped total.

        Returns (rho, pairs) with pairs[(a, b)] for a <= b holding the
        one-sided values; the total density equals the diagonal terms plus
        twice the off-diagonal ones. Points are processed in ``_CHUNK``
        blocks (``pair_block``, in one workspace) so the primitive-value
        matrix stays small for large bases; the arrays returned are fresh,
        and later evaluations do not change them.

        The matrix products of ``pair_block`` may round a point's values
        differently by its column in the block. So an evaluation of a
        slice pts[i:j] whose start i is not a multiple of ``_CHUNK`` can
        differ from rho[i:j] and the pair terms here by rounding (seen at
        3 of 9,192 points, by up to 5e-16 relative).
        ``analyze_field`` always walks a grid in the same blocks from index
        0, so its results do not depend on this.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        rho = np.empty(len(pts))
        terms = np.empty((len(self.pair_keys), len(pts)))
        counts = ClampDiagnostics()
        work = Workspace()
        for start in range(0, len(pts), _CHUNK):
            sl = slice(start, start + _CHUNK)
            rho[sl], terms[:, sl], block = self.pair_block(pts[sl], work)
            counts += block
        self.record(counts)
        return rho, dict(zip(self.pair_keys, terms))


def _gaussian_product(ea, ca, A, eb, cb, B):
    """s-Gaussian product theorem: c_i e^(-a_i |r-A|^2) c_j e^(-b_j |r-B|^2) =
    c_i c_j K_ij e^(-p |r-P|^2), p = a_i + b_j, P = (a_i A + b_j B) / p,
    K = e^(-a_i b_j |A-B|^2 / p). Returns p, P and c_i c_j K over (La, Lb)."""
    ea, eb = ea[:, None], eb[None, :]
    p = ea + eb
    K = np.exp(-ea * eb / p * float((A - B) @ (A - B)))
    P = (ea[..., None] * A + eb[..., None] * B) / p[..., None]
    return p, P, ca[:, None] * cb[None, :] * K


class ContractedS:
    """Normalized contraction of s primitives on one center.

    Coefficients multiply unit-normalized primitives; the contraction is
    rescaled at construction so the self-overlap is exactly 1.
    """

    def __init__(self, exponents, coefficients):
        self.exponents = np.asarray(exponents, dtype=float)
        c = np.asarray(coefficients, dtype=float)
        if (self.exponents <= 0).any():
            raise ValueError("exponents must be positive")
        if len(c) != len(self.exponents):
            raise ValueError("coefficient/exponent length mismatch")
        # contraction coefficient times primitive normalization constant
        self.ncoef = c * (2.0 * self.exponents / math.pi) ** 0.75
        norm = math.sqrt(contracted_overlap(self, self, 0.0))
        self.coefficients = c / norm
        self.ncoef = self.ncoef / norm

    def value(self, r):
        """Radial value at distance(s) r from the center."""
        r = np.asarray(r, dtype=float)
        return self.ncoef @ np.exp(-np.outer(self.exponents, np.ravel(r * r)))


def contracted_overlap(fa: ContractedS, fb: ContractedS, R: float) -> float:
    """Overlap of two s-type contracted functions a distance R apart."""
    if not isinstance(fa, ContractedS) or not isinstance(fb, ContractedS):
        raise TypeError("contracted_overlap supports s-type contractions only")
    if R < 0:
        raise ValueError("distance must be nonnegative")
    p, _, cK = _gaussian_product(fa.exponents, fa.ncoef, np.zeros(3),
                                 fb.exponents, fb.ncoef, np.array([0.0, 0.0, R]))
    return float(((math.pi / p) ** 1.5 * cK).sum())
