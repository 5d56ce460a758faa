"""Gaussian primitives, molecular densities, and the atom-pair partition.

The density is rho(r) = sum_ij c_ij phi_i(r) phi_j(r) over atom-centered
primitives. Assigning every primitive to its nucleus partitions rho into
pair contributions rho^AB(r) = sum_{i in A, j in B} c_ij phi_i phi_j; the
coefficient matrix is kept symmetric and two-sided, so the pointwise
closure sum_{A,B} rho^AB = rho holds by construction, and rho^AB for
A != B is reported one-sided (totals count it twice). Primitive values and
the quadratic forms come from the NumPy kernels in ``backends``.
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
    """Symmetric coefficient matrix c_ij over a primitive list."""

    def __init__(self, coefficients, n_electrons: float):
        c = np.asarray(coefficients, dtype=float)
        if c.ndim != 2 or c.shape[0] != c.shape[1]:
            raise ValueError("coefficient matrix must be square")
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
        self._rows = [basis.atom_rows(a) for a in range(len(basis.molecule))]

    @property
    def n_electrons(self) -> float:
        return self.dm.n_electrons

    def _clamp(self, rho: np.ndarray) -> np.ndarray:
        neg = rho < 0
        if neg.any():
            small = neg & (rho > NEGATIVE_CLAMP)
            self.diagnostics.clamped += int(small.sum())
            rho[small] = 0.0
            bad = neg & ~small
            nbad = int(bad.sum())
            if nbad:
                self.diagnostics.negated += nbad
                warnings.warn(
                    f"density below {NEGATIVE_CLAMP} at {nbad} points; "
                    "using absolute values", RuntimeWarning)
                rho[bad] = np.abs(rho[bad])
        return rho

    def density(self, points, block_size: int = 32768) -> np.ndarray:
        """Total density, clamped to be nonnegative (see ClampDiagnostics)."""
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        rho = np.empty(len(pts))
        for start in range(0, len(pts), block_size):
            sl = slice(start, min(start + block_size, len(pts)))
            rho[sl] = quad_form(self.dm.coefficients, self.basis.evaluate(pts[sl]))
        return self._clamp(rho)

    def pair_fields(self, points, block_size: int = 32768):
        """All unique pair terms and the clamped total.

        Returns (rho, pairs) with pairs[(a, b)] for a <= b holding the
        one-sided values; the total density equals the diagonal terms plus
        twice the off-diagonal ones. Points are processed in fixed blocks
        so the primitive-value matrix stays small for large bases.
        """
        pts = np.asarray(points, dtype=float).reshape(-1, 3)
        npts = len(pts)
        nat = len(self.molecule)
        pairs = {(a, b): np.empty(npts)
                 for a in range(nat) for b in range(a, nat)}
        for start in range(0, npts, block_size):
            sl = slice(start, min(start + block_size, npts))
            G = self.basis.evaluate(pts[sl])
            for (a, b), out in pairs.items():
                out[sl] = quad_form_block(
                    self.dm.coefficients, G, self._rows[a], self._rows[b])
        rho = np.zeros(npts)
        for (a, b), v in pairs.items():
            rho += v if a == b else 2.0 * v
        return self._clamp(rho), pairs


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
