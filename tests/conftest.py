"""Shared fixtures.

Grid construction and field evaluation dominate test runtime, so analyses
are cached per (method, separation, grid, alphas) for the whole session.
"""
import math

import numpy as np
import pytest

from entropart import (AtomicGridSpec, analyze_model, hydrogen_reference,
                       hl_model, hf_model, fci_model, natural_orbitals,
                       sto6g_hydrogen)
from entropart.wfnio import (build_document, field_from_document, parse_wfn,
                             write_wfn)

STANDARD_ALPHAS = (0.5, 2.0, 3.0)


@pytest.fixture(scope="session")
def model_analysis():
    """Memoized analyze_model; default grid, standard alpha set."""
    cache = {}

    def get(method, separation, alphas=STANDARD_ALPHAS, spec=None):
        key = (method, separation, tuple(alphas), spec)
        if key not in cache:
            cache[key] = analyze_model(method, separation, spec=spec,
                                       alphas=alphas)
        return cache[key]

    return get


@pytest.fixture(scope="session")
def atom_ref():
    return hydrogen_reference(alphas=STANDARD_ALPHAS)


@pytest.fixture(scope="session")
def reference_spec():
    # densest supported grid; used where stated tolerances demand it
    return AtomicGridSpec(n_radial=1000, lebedev_order=434)


def _single_gaussian_document():
    """One He-like center, one s primitive, one doubly occupied orbital.

    With a single normalized primitive g and MO coefficient 1 the density
    is 2 g(r)^2, which has a closed-form Shannon entropy.
    """
    from entropart.density import PrimitiveBasis
    from entropart.molecule import Molecule

    mol = Molecule([("He", (0.0, 0.0, 0.0))])
    basis = PrimitiveBasis(mol, center_index=[0], type_codes=[1],
                           exponents=[0.8])
    return build_document(mol, basis, [(2.0, -0.5, [1.0])],
                          title="single gaussian")


def _h2_document(method, separation=1.4):
    model = {"hf": hf_model, "hl": hl_model, "fci": fci_model}[method](separation)
    mol = model.molecule()
    basis = model.field().basis
    mos = natural_orbitals(model)
    doc = build_document(mol, basis, mos, title=f"H2 {method} R={separation}",
                         total_energy=model.energy, virial=2.0)
    return doc


@pytest.fixture(scope="session")
def wfn_fixtures(tmp_path_factory):
    """Three wavefunction files written by the package's own serializer."""
    root = tmp_path_factory.mktemp("wfn")
    docs = {
        "gaussian": _single_gaussian_document(),
        "h2_hf": _h2_document("hf"),
        "h2_fci": _h2_document("fci"),
    }
    paths = {}
    for name, doc in docs.items():
        p = root / f"{name}.wfn"
        p.write_text(write_wfn(doc))
        paths[name] = p
    return {"paths": paths, "docs": docs}


def _h3_document(side=1.65):
    """Equilateral H3 over STO-6G contractions expanded to primitives: the
    bonding orbital doubly occupied and one antibonding orbital singly, so
    three centres with every atom pair carrying a non-zero block of the
    density matrix."""
    from entropart.density import PrimitiveBasis, contracted_overlap
    from entropart.molecule import Molecule

    phi = sto6g_hydrogen()
    mol = Molecule([("H", (0.0, 0.0, 0.0)), ("H", (side, 0.0, 0.0)),
                    ("H", (side / 2.0, side * math.sqrt(3.0) / 2.0, 0.0))])
    nprim = len(phi.exponents)
    basis = PrimitiveBasis(mol, center_index=np.repeat(np.arange(3), nprim),
                           type_codes=np.ones(3 * nprim, dtype=int),
                           exponents=np.tile(phi.exponents, 3))
    s = contracted_overlap(phi, phi, side)
    bonding = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0 + 6.0 * s)
    antibonding = np.array([1.0, -1.0, 0.0]) / math.sqrt(2.0 - 2.0 * s)
    mos = [(2.0, -0.6, np.kron(bonding, phi.coefficients)),
           (1.0, 0.1, np.kron(antibonding, phi.coefficients))]
    return build_document(mol, basis, mos, title=f"H3 side={side!r}")


def _h8_chain_document(spacing=1.8):
    """Linear H8 over STO-6G contractions expanded to primitives, the 4
    lowest S-orthonormal Hueckel-type (Wolfsberg-Helmholz) orbitals doubly
    occupied: a bonded density whose 36 x 36 Gram product per chunk is
    large enough for a threaded BLAS to split."""
    from entropart.density import PrimitiveBasis, contracted_overlap
    from entropart.molecule import Molecule

    n, phi = 8, sto6g_hydrogen()
    mol = Molecule([("H", (0.0, 0.0, i * spacing)) for i in range(n)])
    S = np.array([[contracted_overlap(phi, phi, abs(i - j) * spacing)
                   for j in range(n)] for i in range(n)])
    H = 1.75 * -0.5 * S
    np.fill_diagonal(H, -0.5)
    w, V = np.linalg.eigh(S)
    X = V @ np.diag(w ** -0.5) @ V.T
    energies, C = np.linalg.eigh(X @ H @ X)
    C = X @ C
    nprim = len(phi.exponents)
    basis = PrimitiveBasis(mol, center_index=np.repeat(np.arange(n), nprim),
                           type_codes=np.ones(n * nprim, dtype=int),
                           exponents=np.tile(phi.exponents, n))
    mos = [(2.0, energies[k], np.kron(C[:, k], phi.coefficients))
           for k in range(n // 2)]
    return build_document(mol, basis, mos, title=f"H8 chain spacing={spacing!r}")


@pytest.fixture(scope="session")
def h8_wfn_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("h8") / "h8.wfn"
    path.write_text(write_wfn(_h8_chain_document()))
    return path


@pytest.fixture(scope="session")
def h3_wfn_field():
    """The H3 field as read back from its .wfn text."""
    return field_from_document(parse_wfn(write_wfn(_h3_document())))


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)
