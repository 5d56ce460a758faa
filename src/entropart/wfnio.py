"""Reader and writer for AIM-style .wfn wavefunction files.

The fixed-format records (title, counts, nuclei, centre and type
assignments, exponents, molecular orbitals, trailer) are parsed
count-driven and tolerant of line breaks within a record, accepting both
Fortran exponent markers D and E. Occupation numbers of correlated
wavefunctions exported as natural orbitals reproduce the density only,
not the wavefunction; every quantity computed here is a density
functional, so that is sufficient.
"""

import dataclasses
import re
import warnings

import numpy as np

from .density import (DensityMatrix, PairDensityField, PrimitiveBasis,
                      TYPE_POWS, primitive_norm)
from .molecule import Molecule, atomic_number

_FLOAT = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eEdD][-+]?\d+)?")
_INT = re.compile(r"[-+]?\d+")
_HEADER = re.compile(
    r"(\d+)\s+MOL\s+ORBITALS\s+(\d+)\s+PRIMITIVES\s+(\d+)\s+NUCLEI",
    re.IGNORECASE)
_NUCLEUS = re.compile(
    r"^\s*([A-Za-z]{1,2})[\w()]*\s", re.ASCII)


class WfnParseError(ValueError):
    """Malformed .wfn content; carries the line number and record name."""

    def __init__(self, line_number, record, message):
        self.line_number = line_number
        self.record = record
        super().__init__(f"line {line_number}, {record} record: {message}")


@dataclasses.dataclass(frozen=True)
class MolecularOrbital:
    occupation: float
    energy: float
    coefficients: np.ndarray


@dataclasses.dataclass(frozen=True)
class WfnDocument:
    """Complete contents of one .wfn file.

    Center indices are 0-based in memory and 1-based on disk. Positions
    are in bohr.
    """

    title: str
    n_mo: int
    n_prim: int
    n_nuclei: int
    nuclei: tuple        # (symbol, charge, position array) per nucleus
    prim_center: np.ndarray
    prim_type: np.ndarray
    prim_exponent: np.ndarray
    mos: tuple
    total_energy: float = None
    virial: float = None


def _floats(text):
    return [float(tok.replace("D", "E").replace("d", "e"))
            for tok in _FLOAT.findall(text)]


def _strict_floats(text):
    """Floats only; None if the line carries stray letters."""
    residue = _FLOAT.sub(" ", text)
    if re.search(r"[A-Za-z]", residue):
        return None
    return _floats(text)


def _strict_ints(text):
    if re.search(r"[A-Za-z.]", text):
        return None
    return [int(t) for t in _INT.findall(text)]


# a data line can never begin with these; hitting one mid-record means the
# record ran short of its declared count
_RECORD_STARTS = ("CENTRE", "TYPE", "EXPONENTS", "MO", "END", "TOTAL")


class _Cursor:
    def __init__(self, text):
        self.lines = text.splitlines()
        self.pos = 0

    @property
    def line_number(self):
        return min(self.pos, len(self.lines) - 1) + 1

    def take(self, record):
        if self.pos >= len(self.lines):
            raise WfnParseError(len(self.lines), record, "unexpected end of file")
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def collect(self, record, label, count, parser):
        """Gather `count` values from consecutive lines of one record."""
        values = []
        first = True
        while len(values) < count:
            start = self.line_number
            line = self.take(record)
            body = line
            if label in line.upper():
                body = line[line.upper().index(label) + len(label):]
            elif first:
                raise WfnParseError(start, record, f"expected a {record} line")
            elif line.upper().lstrip().startswith(_RECORD_STARTS):
                raise WfnParseError(
                    start, record,
                    f"count mismatch: found {len(values)} of {count} values")
            first = False
            got = parser(body)
            if not got:
                raise WfnParseError(
                    start, record,
                    f"expected numeric data, found {line.strip()!r}")
            values.extend(got)
        if len(values) > count:
            raise WfnParseError(
                self.line_number - 1, record,
                f"found {len(values)} values, expected {count}")
        return values


def parse_wfn(text: str) -> WfnDocument:
    """Parse .wfn file content into a document.

    Raises WfnParseError with the offending line number and record name
    on count mismatches, unknown type codes, malformed numbers, or
    truncated molecular-orbital blocks.
    """
    if not text or not text.strip():
        raise WfnParseError(1, "title", "empty file")
    cur = _Cursor(text)
    title = cur.take("title").strip()

    header_line = cur.line_number
    m = _HEADER.search(cur.take("header"))
    if not m:
        raise WfnParseError(header_line, "header",
                            "expected 'N MOL ORBITALS M PRIMITIVES K NUCLEI'")
    n_mo, n_prim, n_nuclei = (int(g) for g in m.groups())
    if n_mo == 0 or n_prim == 0:
        raise WfnParseError(header_line, "header",
                            "a density needs at least one orbital and one primitive")

    nuclei = []
    for _ in range(n_nuclei):
        at_line = cur.line_number
        line = cur.take("nucleus")
        sym = _NUCLEUS.match(line)
        if not sym:
            raise WfnParseError(at_line, "nucleus",
                                f"cannot read element symbol from {line.strip()!r}")
        tail = line[line.index(")") + 1:] if ")" in line else line
        vals = _floats(tail)
        if len(vals) < 4:
            raise WfnParseError(at_line, "nucleus",
                                "expected x, y, z and CHARGE values")
        nuclei.append((sym.group(1).capitalize(), vals[-1],
                       np.array(vals[:3], dtype=float)))

    centers = cur.collect("CENTRE ASSIGNMENTS", "CENTRE ASSIGNMENTS",
                          n_prim, _strict_ints)
    bad = [c for c in centers if not 1 <= c <= n_nuclei]
    if bad:
        raise WfnParseError(cur.line_number - 1, "CENTRE ASSIGNMENTS",
                            f"centre index {bad[0]} outside 1..{n_nuclei}")

    types = cur.collect("TYPE ASSIGNMENTS", "TYPE ASSIGNMENTS",
                        n_prim, _strict_ints)
    bad = [t for t in types if t not in TYPE_POWS]
    if bad:
        raise WfnParseError(cur.line_number - 1, "TYPE ASSIGNMENTS",
                            f"unknown type code {bad[0]}")

    exponents = cur.collect("EXPONENTS", "EXPONENTS", n_prim, _strict_floats)
    if min(exponents) <= 0:
        raise WfnParseError(cur.line_number - 1, "EXPONENTS",
                            f"exponent {min(exponents)} is not positive")

    mos = []
    for k in range(n_mo):
        at_line = cur.line_number
        line = cur.take("MO")
        upper = line.upper()
        if not upper.lstrip().startswith("MO") or "OCC" not in upper:
            raise WfnParseError(at_line, "MO",
                                f"expected an MO header, found {line.strip()!r}")
        occ_m = re.search(r"OCC\s*NO\s*=\s*(" + _FLOAT.pattern + ")", upper)
        eng_m = re.search(r"ENERGY\s*=\s*(" + _FLOAT.pattern + ")", upper)
        if not occ_m or not eng_m:
            raise WfnParseError(at_line, "MO",
                                "cannot read OCC NO / ORB. ENERGY")
        occ = _floats(occ_m.group(1))[0]
        energy = _floats(eng_m.group(1))[0]
        if occ < 0:
            raise WfnParseError(at_line, "MO", f"negative occupation {occ}")
        coefs = []
        while len(coefs) < n_prim:
            c_line = cur.line_number
            body = cur.take("MO coefficients")
            if "END DATA" in body.upper() or body.upper().lstrip().startswith("MO"):
                raise WfnParseError(c_line, "MO coefficients",
                                    f"truncated MO block {k + 1}: "
                                    f"{len(coefs)} of {n_prim} coefficients")
            got = _strict_floats(body)
            if not got:
                raise WfnParseError(c_line, "MO coefficients",
                                    f"expected numbers, found {body.strip()!r}")
            coefs.extend(got)
        if len(coefs) > n_prim:
            raise WfnParseError(cur.line_number - 1, "MO coefficients",
                                f"found {len(coefs)} coefficients, expected {n_prim}")
        mos.append(MolecularOrbital(occ, energy, np.array(coefs, dtype=float)))

    end_line = cur.line_number
    if "END DATA" not in cur.take("END DATA").upper():
        raise WfnParseError(end_line, "END DATA", "missing END DATA line")

    total_energy = virial = None
    rest = " ".join(cur.lines[cur.pos:])
    m = re.search(r"TOTAL\s+ENERGY\s*=\s*(" + _FLOAT.pattern + ")", rest)
    if m:
        total_energy = _floats(m.group(1))[0]
    m = re.search(r"VIRIAL\(-V/T\)\s*=\s*(" + _FLOAT.pattern + ")", rest)
    if m:
        virial = _floats(m.group(1))[0]

    doc = WfnDocument(
        title=title, n_mo=n_mo, n_prim=n_prim, n_nuclei=n_nuclei,
        nuclei=tuple(nuclei),
        prim_center=np.array(centers, dtype=np.int64) - 1,
        prim_type=np.array(types, dtype=np.int64),
        prim_exponent=np.array(exponents, dtype=float),
        mos=tuple(mos), total_energy=total_energy, virial=virial)
    n_electrons = sum(mo.occupation for mo in doc.mos)
    n_charge = sum(q for _, q, _ in doc.nuclei)
    if abs(n_electrons - n_charge) > 1e-6:
        warnings.warn(
            f"occupations sum to {n_electrons:g} but nuclear charges to "
            f"{n_charge:g}; assuming an ion or effective-core data",
            RuntimeWarning)
    return doc


def molecule_from_document(doc: WfnDocument) -> Molecule:
    return Molecule([(sym, pos) for sym, _, pos in doc.nuclei])


def basis_from_document(doc: WfnDocument, molecule: Molecule = None) -> PrimitiveBasis:
    if molecule is None:
        molecule = molecule_from_document(doc)
    return PrimitiveBasis(molecule, doc.prim_center, doc.prim_type,
                          doc.prim_exponent)


def density_matrix_from_mos(doc: WfnDocument,
                            normalized_primitives: bool = True) -> DensityMatrix:
    """The primitive-level density matrix c_ij = sum_k occ_k C_ki C_kj,
    held as its orbital factor: the MOs and their occupations.

    By default coefficients are taken to multiply unit-normalized
    primitives; pass normalized_primitives=False for files whose
    coefficients multiply raw Gaussians.
    """
    C = np.array([mo.coefficients for mo in doc.mos], dtype=float)
    occ = np.array([mo.occupation for mo in doc.mos], dtype=float)
    if not normalized_primitives:
        norms = np.array([primitive_norm(a, TYPE_POWS[int(t)])
                          for a, t in zip(doc.prim_exponent, doc.prim_type)])
        C = C / norms[None, :]
    return DensityMatrix(None, float(occ.sum()), orbitals=(occ, C.T))


def field_from_document(doc: WfnDocument,
                        normalized_primitives: bool = True) -> PairDensityField:
    """Molecule + basis + density matrix in one step."""
    molecule = molecule_from_document(doc)
    basis = basis_from_document(doc, molecule)
    dm = density_matrix_from_mos(doc, normalized_primitives)
    return PairDensityField(basis, dm)


def _dfloat(x: float, width: int = 23) -> str:
    # Fortran D-notation with enough digits for 1e-12 round trips
    return ("%.15E" % float(x)).replace("E", "D").rjust(width)


def build_document(molecule: Molecule, basis: PrimitiveBasis, mos,
                   title: str = "entropart wavefunction",
                   total_energy: float = None,
                   virial: float = None) -> WfnDocument:
    """Assemble a document from in-memory components.

    mos is a sequence of (occupation, energy, coefficients) triples with
    coefficients over normalized primitives.
    """
    built = tuple(MolecularOrbital(float(o), float(e),
                                   np.asarray(c, dtype=float).reshape(len(basis)))
                  for o, e, c in mos)
    nuclei = tuple((a.symbol, float(a.z), np.asarray(a.position, dtype=float))
                   for a in molecule.atoms)
    return WfnDocument(
        title=title, n_mo=len(built), n_prim=len(basis),
        n_nuclei=len(molecule), nuclei=nuclei,
        prim_center=basis.center_index.copy(),
        prim_type=basis.type_codes.copy(),
        prim_exponent=basis.exponents.copy(),
        mos=built, total_energy=total_energy, virial=virial)


def write_wfn(doc: WfnDocument) -> str:
    """Serialize a document to .wfn text that parse_wfn round-trips."""
    bad = [int(t) for t in doc.prim_type if int(t) not in TYPE_POWS]
    if bad:
        raise ValueError(f"type code {bad[0]} exceeds supported angular momentum")
    out = [doc.title]
    out.append(f"GAUSSIAN {doc.n_mo:14d} MOL ORBITALS {doc.n_prim:6d} "
               f"PRIMITIVES {doc.n_nuclei:8d} NUCLEI")
    for i, (sym, charge, pos) in enumerate(doc.nuclei):
        # a separator before every coordinate, however wide
        xyz = "".join(f" {x:18.12f}" for x in pos)
        out.append(f"  {sym:<3s}{i + 1:4d}    (CENTRE{i + 1:3d}) {xyz}"
                   f"  CHARGE = {charge:5.1f}")

    def chunked(label, tokens, per_line):
        for start in range(0, len(tokens), per_line):
            head = label if start == 0 else " " * len(label)
            out.append(head + "".join(tokens[start:start + per_line]))

    chunked("CENTRE ASSIGNMENTS  ",
            [f"{int(c) + 1:5d}" for c in doc.prim_center], 16)
    chunked("TYPE ASSIGNMENTS    ",
            [f"{int(t):5d}" for t in doc.prim_type], 16)
    chunked("EXPONENTS ", [_dfloat(e) for e in doc.prim_exponent], 5)
    for k, mo in enumerate(doc.mos):
        out.append(f"MO {k + 1:4d}     MO 0.0        OCC NO = "
                   f"{_dfloat(mo.occupation, 0)}  ORB. ENERGY = "
                   f"{_dfloat(mo.energy, 0)}")
        chunked("", [_dfloat(c) for c in mo.coefficients], 5)
    out.append("END DATA")
    if doc.total_energy is not None or doc.virial is not None:
        energy = 0.0 if doc.total_energy is None else doc.total_energy
        virial = 0.0 if doc.virial is None else doc.virial
        out.append(f" TOTAL ENERGY = {energy:24.15f} "
                   f"THE VIRIAL(-V/T)= {virial:14.8f}")
    return "\n".join(out) + "\n"
