"""Minimal-basis two-electron models of H2: restricted HF, Heitler-London
and the 2x2 full CI, all over one contracted s function per centre.

``integral_engine`` gives the overlap S, the core Hamiltonian h and the
two-electron tensor (ij|kl) as arrays over one copy of the contraction on
each centre. ``build_model`` forms the symmetry orbitals sigma_g and
sigma_u as the columns of X, transforms h and (ij|kl) into them, and builds
the CI matrix H over the closed-shell determinants sigma_g^2 and sigma_u^2
(Slater-Condon: H_ii = 2 h_ii + (ii|ii), H_gu = (gu|gu)). Each method is
one CI vector c over those two determinants. The energy is c^T H c + 1/R,
and the natural orbitals are the columns of X with occupations 2 c^2, so
the density is normalized to 2 electrons at every distance.
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
    """Zeroth Boys function F0(t) = (1/2) sqrt(pi/t) erf(sqrt(t)), elementwise.

    Below t = 1e-13 the series 1 - t/3 is exact to rounding, and erf is
    called only at the other elements.
    """
    t = np.asarray(t, dtype=float)
    if (t < 0).any():
        raise ValueError("Boys argument must be nonnegative")
    flat = t.reshape(-1)
    f = 1.0 - flat / 3.0
    big = flat >= 1e-13
    u = flat[big]
    f[big] = 0.5 * np.sqrt(math.pi / u) * _erf(np.sqrt(u)).astype(float)
    return f.reshape(t.shape)[()]


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


def integral_engine(basis: ContractedS, centers):
    """S, h and (ij|kl) over one copy of ``basis`` on each of ``centers``
    ((n, 3), bohr), each centre a unit nuclear charge.

    Closed forms for s Gaussians via F0: one Gaussian product per unique
    centre pair feeds S and h, and each two-electron class is taken once
    per unique pair of products and mirrored into the (n, n, n, n) tensor
    by its 8-fold permutational symmetry, so S, h and (ij|kl) are exactly
    symmetric.
    """
    if not isinstance(basis, ContractedS):
        raise TypeError("integral engine supports s-type contractions only")
    centers = np.asarray(centers, dtype=float).reshape(-1, 3)
    n = len(centers)
    e, c = basis.exponents, basis.ncoef
    pairs = [(a, b) for a in range(n) for b in range(a, n)]
    products = [_gaussian_product(e, c, centers[a], e, c, centers[b])
                for a, b in pairs]
    S, h = np.empty((n, n)), np.empty((n, n))
    for (a, b), product in zip(pairs, products):
        d = centers[a] - centers[b]
        s, t, v = _one_electron(e, product, float(d @ d), centers)
        S[a, b] = S[b, a] = s
        h[a, b] = h[b, a] = sum(v, t)
    eri = np.empty((n,) * 4)
    for i, bra in enumerate(products):
        for j in range(i, len(pairs)):
            value = _eri(bra, products[j])
            for a, b in (pairs[i], pairs[i][::-1]):
                for k, l in (pairs[j], pairs[j][::-1]):
                    eri[a, b, k, l] = eri[k, l, a, b] = value
    return S, h, eri


METHODS = ("hf", "hl", "fci")
# sigma_u scales as 1 / sqrt(1 - S) and J_uu as 1 / (1 - S)^2, so below
# this the rounding of the integrals decides the fci vector
MIN_ONE_MINUS_S = 1e-6


@dataclasses.dataclass(frozen=True)
class H2Model:
    method: str
    R: float
    basis: ContractedS
    S: float                        # overlap <phi_A|phi_B>
    ci: tuple                       # (c1, c2) over {sigma_g^2, sigma_u^2}
    energy: float                   # total electronic + nuclear repulsion, hartree
    orbitals: np.ndarray            # X: sigma_g, sigma_u columns over {phi_A, phi_B}
    orbital_energies: np.ndarray    # diagonal of X^T h X

    @property
    def pair_coefficients(self) -> np.ndarray:
        """X diag(2 c^2) X^T, the 2x2 density matrix over {phi_A, phi_B}."""
        X = self.orbitals
        return (X * (2.0 * np.square(self.ci))) @ X.T

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


def build_model(method: str, R: float, basis: ContractedS | None = None) -> H2Model:
    """The model ``method`` of H2 at R bohr: its CI vector c over
    {sigma_g^2, sigma_u^2} is (1, 0) for hf, the Heitler-London function
    (phi_A phi_B + phi_B phi_A) / sqrt(2 (1 + S^2)) for hl, and the lowest
    eigenvector of H, with c1 > 0, for fci."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; choose from {METHODS}")
    basis = basis or sto6g_hydrogen()
    S, h, eri = integral_engine(basis, Molecule.h2(R).positions)
    s = float(S[0, 1])
    if 1.0 - s < MIN_ONE_MINUS_S:
        raise ValueError(
            f"the basis functions overlap too closely (1 - S = {1.0 - s:.2g}, "
            f"below {MIN_ONE_MINUS_S:g}) for the minimal-basis models")
    X = (np.array([[1.0, 1.0], [1.0, -1.0]])
         / np.sqrt([2.0 * (1.0 + s), 2.0 * (1.0 - s)]))
    e = np.diag(X.T @ h @ X)
    mo_eri = np.einsum("pi,qj,rk,sl,pqrs->ijkl", X, X, X, X, eri)
    H = 2.0 * np.diag(e) + np.einsum("ijij->ij", mo_eri)
    if not np.isfinite(H).all():
        raise ValueError(f"CI matrix non-finite at R={R}")
    if method == "hf":
        c = np.array([1.0, 0.0])
    elif method == "hl":
        c = np.array([1.0 + s, s - 1.0]) / math.sqrt(2.0 * (1.0 + s * s))
    else:
        c = np.linalg.eigh(H)[1][:, 0]
        c = -c if c[0] < 0 else c
    return H2Model(method, R, basis, s, tuple(c.tolist()),
                   float(c @ H @ c) + 1.0 / R, X, e)


def hf_model(R: float, basis: ContractedS | None = None) -> H2Model:
    """Restricted HF: both electrons in sigma_g."""
    return build_model("hf", R, basis)


def hl_model(R: float, basis: ContractedS | None = None) -> H2Model:
    """Heitler-London covalent wavefunction."""
    return build_model("hl", R, basis)


def fci_model(R: float, basis: ContractedS | None = None) -> H2Model:
    """Full CI in the minimal basis: c1 sigma_g^2 + c2 sigma_u^2."""
    return build_model("fci", R, basis)


def natural_orbitals(model: H2Model):
    """Natural orbitals of the model density over the primitive basis.

    Returns ((occ_g, e_g, coeffs_g), (occ_u, e_u, coeffs_u)) with
    coefficients over the 2*nprim normalized primitives of model.field().
    Both gerade and ungerade orbitals are returned even when one carries
    zero occupation. The energy entries are the one-electron expectation
    values; no density quantity depends on them.
    """
    c = model.basis.coefficients
    return tuple((2.0 * ck * ck, float(e), np.kron(x, c))
                 for ck, e, x in zip(model.ci, model.orbital_energies,
                                     model.orbitals.T))


def hydrogen_atom_energy(basis: ContractedS | None = None) -> float:
    """Energy of one electron in the contracted function on a unit charge:
    the core Hamiltonian of ``integral_engine`` on one centre."""
    basis = basis or sto6g_hydrogen()
    return float(integral_engine(basis, np.zeros(3))[1][0, 0])


def atom_field(basis: ContractedS | None = None) -> PairDensityField:
    """Isolated one-electron atom: N = 1, rho = phi^2."""
    basis = basis or sto6g_hydrogen()
    mol = Molecule([("H", (0.0, 0.0, 0.0))])
    return _expanded_field(basis, mol, 1.0,
                           ([1.0], basis.coefficients[:, None]))
