"""Minimal-basis two-electron models of H2: restricted HF, Heitler-London,
and the 2x2 full CI, all over one contracted s function per center.

Every model reduces to a symmetric pair-coefficient matrix C over the two
atomic functions, so the density is
    rho(r) = C_AA phi_A^2 + 2 C_AB phi_A phi_B + C_BB phi_B^2 ,
normalized to 2 electrons at every distance. The CI matrix elements are
assembled with Slater-Condon rules for the two closed-shell determinants
sigma_g^2 and sigma_u^2.
"""
from __future__ import annotations

import dataclasses
import math

import numpy as np

from .density import (ContractedS, DensityMatrix, PairDensityField,
                      PrimitiveBasis, _gaussian_product)
from .molecule import Molecule

# STO-6G for hydrogen, zeta = 1.24 scaling (Basis Set Exchange).
# Coefficients multiply unit-normalized s primitives.
STO6G_H_EXPONENTS = (
    35.52322122, 6.513143725, 1.822142904,
    0.6259552659, 0.2430767471, 0.1001124280,
)
STO6G_H_COEFFICIENTS = (
    0.9163596281e-2, 0.4936149294e-1, 0.1685383049,
    0.3705627997, 0.4164915298, 0.1303340841,
)


def sto6g_hydrogen() -> ContractedS:
    return ContractedS(STO6G_H_EXPONENTS, STO6G_H_COEFFICIENTS)


_erf = np.frompyfunc(math.erf, 1, 1)


def boys_f0(t):
    """Zeroth Boys function F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t)), elementwise."""
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("Boys argument must be nonnegative")
    small = t < 1e-13
    u = np.where(small, 1.0, t)  # keeps the erf form away from t = 0
    erf = np.asarray(_erf(np.sqrt(u)), dtype=float)
    return np.where(small, 1.0 - t / 3.0, 0.5 * np.sqrt(math.pi / u) * erf)[()]


@dataclasses.dataclass(frozen=True)
class IntegralSet:
    """One- and two-electron integrals over {phi_A, phi_B} at distance R.

    Two-electron values use chemists' notation (ij|kl); only the four
    classes that survive permutational symmetry for two s functions are
    stored.
    """
    R: float
    S: float
    T_AA: float
    T_AB: float
    VA_AA: float
    VB_AA: float
    VA_AB: float
    VB_AB: float
    eri_aaaa: float  # (AA|AA)
    eri_aabb: float  # (AA|BB)
    eri_abab: float  # (AB|AB)
    eri_aaab: float  # (AA|AB)

    @property
    def h_AA(self) -> float:
        return self.T_AA + self.VA_AA + self.VB_AA

    @property
    def h_AB(self) -> float:
        return self.T_AB + self.VA_AB + self.VB_AB


def _one_electron(exponents, product, R2, nuclei):
    """Overlap, kinetic energy and -<phi|1/|r - C||phi'> per nucleus C from
    the Gaussian product of phi and phi', a squared distance R2 apart."""
    p, P, cK = product
    mu = np.outer(exponents, exponents) / p
    s = cK * (math.pi / p) ** 1.5
    attraction = [-float((cK * 2.0 * math.pi / p
                          * boys_f0(p * ((P - C) ** 2).sum(-1))).sum())
                  for C in nuclei]
    return (float(s.sum()), float((s * mu * (3.0 - 2.0 * mu * R2)).sum()),
            attraction)


def _eri(bra, ket):
    """(ij|kl) over the contraction from the Gaussian products (p, P, cK)
    of ij and of kl, broadcast over (L, L, L, L)."""
    p, P, cp = (x[:, :, None, None] for x in bra)
    q, Q, cq = ket
    t = p * q / (p + q) * ((P - Q) ** 2).sum(-1)
    pref = 2.0 * math.pi ** 2.5 / (p * q * np.sqrt(p + q))
    return float((cp * cq * pref * boys_f0(t)).sum())


def integral_engine(basis: ContractedS, R: float) -> IntegralSet:
    """All integrals needed by the models, for two copies of ``basis``
    placed R bohr apart. Closed forms for s Gaussians via F0."""
    if not isinstance(basis, ContractedS):
        raise TypeError("integral engine supports s-type contractions only")
    if R <= 0:
        raise ValueError("internuclear distance must be positive")
    e, c = basis.exponents, basis.ncoef
    A = np.zeros(3)
    B = np.array([0.0, 0.0, R])
    aa = _gaussian_product(e, c, A, e, c, A)
    ab = _gaussian_product(e, c, A, e, c, B)
    bb = _gaussian_product(e, c, B, e, c, B)
    # the AA overlap is 1 by normalization
    _, T_AA, (VA_AA, VB_AA) = _one_electron(e, aa, 0.0, (A, B))
    S_AB, T_AB, (VA_AB, VB_AB) = _one_electron(e, ab, R * R, (A, B))
    return IntegralSet(
        R=R, S=S_AB, T_AA=T_AA, T_AB=T_AB,
        VA_AA=VA_AA, VB_AA=VB_AA, VA_AB=VA_AB, VB_AB=VB_AB,
        eri_aaaa=_eri(aa, aa), eri_aabb=_eri(aa, bb),
        eri_abab=_eri(ab, ab), eri_aaab=_eri(aa, ab),
    )


METHODS = ("hf", "hl", "fci")


@dataclasses.dataclass(frozen=True)
class H2Model:
    method: str
    R: float
    basis: ContractedS
    S: float                      # overlap <phi_A|phi_B>
    ci: tuple                     # (c1, c2); (1, 0) for HF, None-like (1, 0) for HL
    pair_coefficients: np.ndarray  # 2x2 symmetric C over {phi_A, phi_B}
    energy: float                 # total electronic + nuclear repulsion, hartree
    integrals: IntegralSet

    def molecule(self) -> Molecule:
        return Molecule.h2(self.R)

    def field(self) -> PairDensityField:
        """The density over the primitives of both centres, held as its
        natural orbitals."""
        occupations, _, orbitals = zip(*natural_orbitals(self))
        return _expanded_field(self.basis, self.molecule(), 2.0,
                               (occupations, np.column_stack(orbitals)))


def _expanded_field(basis, molecule, n_electrons, orbitals):
    """The density of the orbital factor ``orbitals`` (see DensityMatrix)
    over the primitives of ``basis`` placed on every nucleus of
    ``molecule``."""
    nat, nprim = len(molecule), len(basis.exponents)
    pb = PrimitiveBasis(molecule, center_index=np.repeat(np.arange(nat), nprim),
                        type_codes=np.ones(nat * nprim, dtype=int),
                        exponents=np.tile(basis.exponents, nat))
    return PairDensityField(pb, DensityMatrix(None, n_electrons=n_electrons,
                                              orbitals=orbitals))


def _ci_matrix(ints: IntegralSet):
    """2x2 CI matrix in the {sigma_g^2, sigma_u^2} basis (Slater-Condon)."""
    S = ints.S
    h_gg = (ints.h_AA + ints.h_AB) / (1.0 + S)
    h_uu = (ints.h_AA - ints.h_AB) / (1.0 - S)
    J_gg = (ints.eri_aaaa + ints.eri_aabb + 4.0 * ints.eri_aaab
            + 2.0 * ints.eri_abab) / (2.0 * (1.0 + S) ** 2)
    J_uu = (ints.eri_aaaa + ints.eri_aabb - 4.0 * ints.eri_aaab
            + 2.0 * ints.eri_abab) / (2.0 * (1.0 - S) ** 2)
    K_gu = (ints.eri_aaaa - ints.eri_aabb) / (2.0 * (1.0 - S * S))
    return 2.0 * h_gg + J_gg, 2.0 * h_uu + J_uu, K_gu


def hf_model(R: float, basis: ContractedS | None = None) -> H2Model:
    """Restricted HF: both electrons in sigma_g, the CI vector (1, 0)."""
    model = fci_model(R, basis, ci_override=(1.0, 0.0))
    return dataclasses.replace(model, method="hf")


def hl_model(R: float, basis: ContractedS | None = None) -> H2Model:
    """Heitler-London covalent wavefunction."""
    basis = basis or sto6g_hydrogen()
    ints = integral_engine(basis, R)
    S = ints.S
    C = np.array([[1.0, S], [S, 1.0]]) / (1.0 + S * S)
    E = (2.0 * ints.h_AA + ints.eri_aabb + 2.0 * S * ints.h_AB
         + ints.eri_abab) / (1.0 + S * S) + 1.0 / R
    return H2Model("hl", R, basis, S, (1.0, 0.0), C, E, ints)


def fci_model(R: float, basis: ContractedS | None = None,
              ci_override: tuple | None = None) -> H2Model:
    """Full CI in the minimal basis: c1 sigma_g^2 + c2 sigma_u^2.

    ``ci_override`` forces the CI vector; (1, 0) reproduces the HF density.
    """
    basis = basis or sto6g_hydrogen()
    ints = integral_engine(basis, R)
    S = ints.S
    a, b, c = _ci_matrix(ints)
    if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
        raise ValueError(f"CI matrix non-finite at R={R}")
    if ci_override is not None:
        c1, c2 = ci_override
        lam = (a * c1 * c1 + b * c2 * c2 + 2.0 * c * c1 * c2)
    else:
        disc = math.sqrt(0.25 * (a - b) ** 2 + c * c)
        lam = 0.5 * (a + b) - disc
        if disc == 0.0:
            # exact degeneracy: equal-weight mixture
            c1, c2 = 1.0 / math.sqrt(2.0), -1.0 / math.sqrt(2.0)
        else:
            v = np.array([c, lam - a])
            n = np.linalg.norm(v)
            if n == 0.0:  # c == 0 and lam == a: ground state is pure sigma_g^2
                v = np.array([1.0, 0.0])
                n = 1.0
            v /= n
            if v[0] < 0:
                v = -v
            c1, c2 = float(v[0]), float(v[1])
    C_AA = c1 * c1 / (1.0 + S) + c2 * c2 / (1.0 - S)
    C_AB = c1 * c1 / (1.0 + S) - c2 * c2 / (1.0 - S)
    C = np.array([[C_AA, C_AB], [C_AB, C_AA]])
    return H2Model("fci", R, basis, S, (c1, c2), C, lam + 1.0 / R, ints)


def natural_orbitals(model: H2Model):
    """Natural orbitals of the model density over the primitive basis.

    Returns ((occ_g, e_g, coeffs_g), (occ_u, e_u, coeffs_u)) with
    coefficients over the 2*nprim normalized primitives of model.field().
    Both gerade and ungerade orbitals are returned even when one carries
    zero occupation. The energy entries are the one-electron expectation
    values; no density quantity depends on them.
    """
    S = model.S
    C = model.pair_coefficients
    occ_g = (C[0, 0] + C[0, 1]) * (1.0 + S)
    occ_u = (C[0, 0] - C[0, 1]) * (1.0 - S)
    c = model.basis.coefficients
    g = np.concatenate([c, c]) / math.sqrt(2.0 * (1.0 + S))
    u = np.concatenate([c, -c]) / math.sqrt(2.0 * (1.0 - S))
    ints = model.integrals
    e_g = (ints.h_AA + ints.h_AB) / (1.0 + S)
    e_u = (ints.h_AA - ints.h_AB) / (1.0 - S)
    return ((occ_g, e_g, g), (occ_u, e_u, u))


def build_model(method: str, R: float, basis: ContractedS | None = None) -> H2Model:
    try:
        builder = {"hf": hf_model, "hl": hl_model, "fci": fci_model}[method]
    except KeyError:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}") from None
    return builder(R, basis)


def hydrogen_atom_energy(basis: ContractedS | None = None) -> float:
    """Energy of one electron in the contracted function on a unit charge."""
    basis = basis or sto6g_hydrogen()
    e, c = basis.exponents, basis.ncoef
    A = np.zeros(3)
    aa = _gaussian_product(e, c, A, e, c, A)
    _, T, (V,) = _one_electron(e, aa, 0.0, (A,))
    return T + V


def atom_field(basis: ContractedS | None = None) -> PairDensityField:
    """Isolated one-electron atom: N = 1, rho = phi^2."""
    basis = basis or sto6g_hydrogen()
    mol = Molecule([("H", (0.0, 0.0, 0.0))])
    return _expanded_field(basis, mol, 1.0,
                           ([1.0], basis.coefficients[:, None]))
