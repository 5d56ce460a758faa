"""Molecular geometry: element data, Bragg-Slater radii, nuclear frames.

All positions and radii are in bohr.
"""
from __future__ import annotations

import dataclasses

import numpy as np

BOHR_PER_ANGSTROM = 1.0 / 0.52917721092

# Largest |coordinate| of a nucleus in bohr. Grid points are absolute, and
# an ulp of 1e6 (1.2e-10) stays far below the innermost radial node (1e-5).
MAX_COORDINATE = 1e6

# Bragg-Slater covalent radii in Angstrom, indexed by atomic number.
# Hydrogen uses 0.35 A following Becke's integration paper rather than
# Slater's 0.25 A.
_BRAGG_ANGSTROM = {
    1: 0.35, 2: 1.40,
    3: 1.45, 4: 1.05, 5: 0.85, 6: 0.70, 7: 0.65, 8: 0.60, 9: 0.50, 10: 1.50,
    11: 1.80, 12: 1.50, 13: 1.25, 14: 1.10, 15: 1.00, 16: 1.00, 17: 1.00,
    18: 1.88,
    19: 2.20, 20: 1.80, 21: 1.60, 22: 1.40, 23: 1.35, 24: 1.40, 25: 1.40,
    26: 1.40, 27: 1.35, 28: 1.35, 29: 1.35, 30: 1.35, 31: 1.30, 32: 1.25,
    33: 1.15, 34: 1.15, 35: 1.15, 36: 2.02,
}

_SYMBOLS = [
    "X", "H", "He",
    "Li", "Be", "B", "C", "N", "O", "F", "Ne",
    "Na", "Mg", "Al", "Si", "P", "S", "Cl", "Ar",
    "K", "Ca", "Sc", "Ti", "V", "Cr", "Mn", "Fe", "Co", "Ni", "Cu", "Zn",
    "Ga", "Ge", "As", "Se", "Br", "Kr",
]
_Z_BY_SYMBOL = {s.upper(): z for z, s in enumerate(_SYMBOLS) if z}


def atomic_number(symbol: str) -> int:
    z = _Z_BY_SYMBOL.get(symbol.strip().upper())
    if z is None:
        raise ValueError(f"unknown element symbol {symbol!r}")
    return z


def bragg_radius(z: int) -> float:
    """Bragg-Slater radius in bohr for atomic number ``z``."""
    try:
        return _BRAGG_ANGSTROM[z] * BOHR_PER_ANGSTROM
    except KeyError:
        raise ValueError(f"no Bragg-Slater radius tabulated for Z={z}") from None


@dataclasses.dataclass(frozen=True)
class Atom:
    symbol: str
    z: int
    position: np.ndarray  # shape (3,), bohr

    def __post_init__(self):
        object.__setattr__(self, "position",
                           np.asarray(self.position, dtype=float).reshape(3))
        if self.z < 1:
            raise ValueError("atomic number must be >= 1")
        if not (np.abs(self.position) <= MAX_COORDINATE).all():  # NaN too
            raise ValueError(f"nucleus {self.symbol} at {self.position.tolist()}: "
                             f"|coordinates| must be at most {MAX_COORDINATE:g} bohr")


class Molecule:
    """Immutable collection of nuclei.

    Parameters
    ----------
    atoms : sequence of (symbol, position) or Atom
        Positions in bohr.
    """

    def __init__(self, atoms):
        built = []
        for a in atoms:
            if isinstance(a, Atom):
                built.append(a)
            else:
                sym, pos = a
                built.append(Atom(sym, atomic_number(sym), np.asarray(pos, float)))
        if not built:
            raise ValueError("molecule needs at least one atom")
        self.atoms = tuple(built)
        self.positions = np.array([a.position for a in built])
        # pairwise distinctness: required by the confocal Becke construction
        for i in range(len(built)):
            for j in range(i + 1, len(built)):
                if np.linalg.norm(self.positions[i] - self.positions[j]) < 1e-10:
                    raise ValueError(
                        f"atoms {i} and {j} are coincident; positions must be distinct")

    def __len__(self):
        return len(self.atoms)

    def bragg_radii(self):
        return np.array([bragg_radius(a.z) for a in self.atoms])

    @classmethod
    def h2(cls, R: float) -> "Molecule":
        """Homonuclear H2 along z with internuclear distance R bohr."""
        if R <= 0:
            raise ValueError("internuclear distance must be positive")
        return cls([("H", (0.0, 0.0, 0.0)), ("H", (0.0, 0.0, R))])
