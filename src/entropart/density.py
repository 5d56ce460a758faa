"""Gaussian primitives, molecular densities, and the atom-pair partition.

The density is rho(r) = sum_ij D_ij phi_i(r) phi_j(r) over atom-centered
primitives, with D kept factored as D = sum_k n_k c_k c_k^T (occupations
n_k, orbital coefficient vectors c_k). Assigning every primitive to its
nucleus partitions rho into pair contributions
rho^AB(r) = sum_{i in A, j in B} D_ij phi_i phi_j. In orbital form each
atom carries the projected orbital values Y_A[k] = sum_{i in A} c_ki phi_i,
so rho^AB = sum_k n_k Y_A[k] Y_B[k]: the quadratic form of the matrix
D'[(A,k),(B,l)] = n_k delta_kl over the stacked Y, restricted to the
(A, B) block. That costs K^2 per point and pair for K orbitals, against
m_A m_B for the (A, B) block of D over the primitive values themselves, so
a field takes its pair terms in whichever form needs fewer operations:
the orbital form when K is below the primitives per atom (minimal-basis
and Hartree-Fock densities), the primitive form otherwise (for example
correlated natural orbitals in a larger basis). The sum over all blocks is
the density, so the pointwise closure sum_{A,B} rho^AB = rho holds by
construction; rho^AB for A != B is reported one-sided (totals count it
twice). ``PairDensityField.pair_block`` evaluates one block of points, so
an analysis that reduces each block at once needs no full-length pair
array. Primitive values and the quadratic
forms come from the NumPy kernels in ``backends``.
"""
from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

from .backends import eval_primitives, quad_form, quad_form_block
from .molecule import Molecule

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


@dataclasses.dataclass(frozen=True)
class Primitive:
    center_index: int
    pows: tuple  # (a, b, c), a+b+c <= 3
    exponent: float

    def __post_init__(self):
        if self.exponent <= 0:
            raise ValueError("primitive exponent must be positive")
        if sum(self.pows) > 3 or min(self.pows) < 0:
            raise ValueError(f"unsupported angular momentum {self.pows}")

    @property
    def norm(self) -> float:
        return primitive_norm(self.exponent, self.pows)


def eval_primitive(p: Primitive, center: np.ndarray, r) -> float:
    """Value of one normalized Cartesian Gaussian at position r."""
    d = np.asarray(r, dtype=float) - np.asarray(center, dtype=float)
    a, b, c = p.pows
    mono = d[0] ** a * d[1] ** b * d[2] ** c
    return p.norm * mono * math.exp(-p.exponent * float(d @ d))


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
        self.prim_centers = molecule.positions[self.center_index]

    def __len__(self):
        return len(self.exponents)

    def evaluate(self, points) -> np.ndarray:
        """(nprim, npts) matrix of primitive values."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        return eval_primitives(
            pts, self.prim_centers, self.exponents, self.norms, self.ang_pows)

    def atom_rows(self, a: int) -> np.ndarray:
        return np.nonzero(self.center_index == a)[0]


class DensityMatrix:
    """Symmetric coefficient matrix D over a primitive list, with its
    orbital factor D = sum_k n_k c_k c_k^T.

    ``orbitals`` is the factor as (occupations (K,), coefficients
    (nprim, K)) with column k holding c_k; it must reproduce the matrix to
    1e-12 relative to its largest product term, or ValueError is raised.
    Without it the matrix is factored by ``numpy.linalg.eigh``, with no
    truncation threshold: negative eigenvalues stay. Only orbitals whose
    occupation is exactly zero are dropped.
    """

    def __init__(self, coefficients, n_electrons: float, orbitals=None):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient matrix must be square")
        if not np.isfinite(c).all():
            raise ValueError("coefficient matrix must be finite")
        # relative to the largest entry, never tighter than 1e-12 absolute
        tol = 1e-12 * max(1.0, float(np.abs(c).max(initial=0.0)))
        if not np.allclose(c, c.T, atol=tol, rtol=0.0):
            raise ValueError("coefficient matrix must be symmetric to 1e-12 "
                             "relative to its largest entry")
        # store the exactly symmetrized form: quad_form assumes a symmetric D
        self.coefficients = 0.5 * (c + c.T)
        self.n_electrons = float(n_electrons)
        if self.n_electrons <= 0:
            raise ValueError("electron count must be positive")
        if orbitals is None:
            occupations, vectors = np.linalg.eigh(self.coefficients)
        else:
            occupations, vectors = _checked_factor(self.coefficients, *orbitals)
        # an orbital with occupation exactly 0 contributes nothing
        occupied = occupations != 0
        self.occupations = occupations[occupied]
        self.orbitals = vectors[:, occupied]


def _checked_factor(c, occupations, vectors):
    """The factor (occupations (K,), vectors (nprim, K)) as float arrays,
    after checking that sum_k n_k v_k v_k^T reproduces c to 1e-12 relative
    to the largest product term."""
    occupations = np.asarray(occupations, dtype=float)
    vectors = np.asarray(vectors, dtype=float)
    if occupations.ndim != 1 or vectors.shape != (len(c), len(occupations)):
        raise ValueError(
            f"orbital factor must be occupations (K,) and coefficients "
            f"({len(c)}, K); got {occupations.shape} and {vectors.shape}")
    if not (np.isfinite(occupations).all() and np.isfinite(vectors).all()):
        raise ValueError("orbital factor must be finite")
    scale = (np.abs(vectors) * np.abs(occupations)) @ np.abs(vectors).T
    tol = 1e-12 * max(1.0, float(scale.max(initial=0.0)))
    if np.abs((vectors * occupations) @ vectors.T - c).max(initial=0.0) > tol:
        raise ValueError("orbital factor does not reproduce the coefficient "
                         "matrix to 1e-12 relative")
    return occupations, vectors


@dataclasses.dataclass
class ClampDiagnostics:
    clamped: int = 0    # values in (NEGATIVE_CLAMP, 0) set to 0
    negated: int = 0    # values below NEGATIVE_CLAMP replaced by |value|

    def since(self, earlier: ClampDiagnostics) -> ClampDiagnostics:
        """The counts added after the snapshot ``earlier`` was taken."""
        return ClampDiagnostics(clamped=self.clamped - earlier.clamped,
                                negated=self.negated - earlier.negated)


class PairDensityField:
    """Density plus its atom-pair partition, evaluated on point arrays."""

    def __init__(self, basis: PrimitiveBasis, dm: DensityMatrix):
        if dm.coefficients.shape[0] != len(basis):
            raise ValueError("density matrix size does not match basis size")
        self.basis = basis
        self.dm = dm
        self.molecule = basis.molecule
        self.diagnostics = ClampDiagnostics()
        nat = len(basis.molecule)
        self.pair_keys = [(a, b) for a in range(nat) for b in range(a, nat)]
        self._rows = [basis.atom_rows(a) for a in range(nat)]
        k = len(dm.occupations)
        if _orbital_form_is_cheaper(k, [len(rows) for rows in self._rows]):
            # C_A^T, the orbital coefficients on each atom's primitives, and
            # D' over the stacked Y: D'[(A,k),(B,l)] = n_k delta_kl
            self._projectors = [dm.orbitals[rows].T for rows in self._rows]
            self._pair_matrix = np.kron(np.ones((nat, nat)),
                                        np.diag(dm.occupations))
            self._value_rows = [np.arange(a * k, (a + 1) * k)
                                for a in range(nat)]
        else:  # D itself over the primitive values
            self._projectors = None
            self._pair_matrix = dm.coefficients
            self._value_rows = self._rows

    @property
    def n_electrons(self) -> float:
        return self.dm.n_electrons

    def _values(self, points) -> np.ndarray:
        """The values the pair matrix acts on: in orbital form Y,
        (nat*K, npts), with row (A, k) holding Y_A[k] = C_A^T G_A; in
        primitive form the primitive values G."""
        G = self.basis.evaluate(points)
        if self._projectors is None:
            return G
        return np.concatenate([c @ G[rows] for c, rows
                               in zip(self._projectors, self._rows)])

    def pair_block(self, points):
        """The clamped density (see ClampDiagnostics) and the
        (npairs, npts) stack of the pair terms, in the order of
        ``pair_keys``, at one block of points. Negated points are counted
        but not warned about; see ``warn_negated``."""
        values = self._values(points)
        terms = np.empty((len(self.pair_keys), values.shape[1]))
        rho = np.zeros(values.shape[1])
        for x, (a, b) in zip(terms, self.pair_keys):
            x[:] = quad_form_block(self._pair_matrix, values,
                                   self._value_rows[a], self._value_rows[b])
            rho += x if a == b else 2.0 * x
        self._clamp(rho)
        return rho, terms

    def _clamp(self, rho: np.ndarray) -> None:
        """Clamp rho in place, counting into ``diagnostics``."""
        neg = rho < 0
        if not neg.any():
            return
        small = neg & (rho > NEGATIVE_CLAMP)
        self.diagnostics.clamped += int(small.sum())
        rho[small] = 0.0
        bad = neg & ~small
        self.diagnostics.negated += int(bad.sum())
        rho[bad] = np.abs(rho[bad])

    def warn_negated(self, before: ClampDiagnostics) -> None:
        """One RuntimeWarning for the points negated since the snapshot
        ``before``: one per evaluation, however many blocks it took."""
        nbad = self.diagnostics.since(before).negated
        if nbad:
            warnings.warn(
                f"density below {NEGATIVE_CLAMP} at {nbad} points; "
                "using absolute values", RuntimeWarning)

    def density(self, points, block_size: int = 32768) -> np.ndarray:
        """Total density, clamped to be nonnegative (see ClampDiagnostics):
        the full quadratic form of the pair matrix, block by block."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        rho = np.empty(len(pts))
        for start in range(0, len(pts), block_size):
            sl = slice(start, min(start + block_size, len(pts)))
            rho[sl] = quad_form(self._pair_matrix, self._values(pts[sl]))
        before = dataclasses.replace(self.diagnostics)
        self._clamp(rho)
        self.warn_negated(before)
        return rho

    def pair_fields(self, points, block_size: int = 32768):
        """All unique pair terms and the clamped total.

        Returns (rho, pairs) with pairs[(a, b)] for a <= b holding the
        one-sided values; the total density equals the diagonal terms plus
        twice the off-diagonal ones. Points are processed in fixed blocks
        (``pair_block``) so the primitive-value matrix stays small for large
        bases.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        rho = np.empty(len(pts))
        terms = np.empty((len(self.pair_keys), len(pts)))
        before = dataclasses.replace(self.diagnostics)
        for start in range(0, len(pts), block_size):
            sl = slice(start, min(start + block_size, len(pts)))
            rho[sl], terms[:, sl] = self.pair_block(pts[sl])
        self.warn_negated(before)
        return rho, dict(zip(self.pair_keys, terms))


def _orbital_form_is_cheaper(n_orbitals: int, atom_sizes) -> bool:
    """Whether the pair terms take fewer multiply-adds per point from K
    atom-projected orbital values (K m_A per atom to project, K^2 + K per
    pair) than from the m_A primitive values of each atom (m_A m_B + m_A
    per pair). Ties go to the primitive form."""
    k, m = n_orbitals, list(atom_sizes)
    pairs = [(a, b) for a in range(len(m)) for b in range(a, len(m))]
    orbital = k * sum(m) + len(pairs) * (k * k + k)
    primitive = sum(m[a] * m[b] + m[a] for a, b in pairs)
    return orbital < primitive


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
