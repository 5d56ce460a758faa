"""Wavefunction file reading and writing."""
import math
import re

import numpy as np
import pytest

from entropart.density import PrimitiveBasis
from entropart.molecule import Molecule
from entropart.quadrature import build_molecular_grid, integrate
from entropart.wfnio import (WfnParseError, basis_from_document,
                             build_document, density_matrix_from_mos,
                             field_from_document, molecule_from_document,
                             parse_wfn, write_wfn)


def _roundtrip(doc):
    return parse_wfn(write_wfn(doc))


@pytest.mark.parametrize("name", ["gaussian", "h2_hf", "h2_fci"])
def test_roundtrip_preserves_document(name, wfn_fixtures):
    doc = wfn_fixtures["docs"][name]
    back = _roundtrip(doc)
    assert back.title == doc.title
    assert back.n_mo == doc.n_mo
    assert back.n_prim == doc.n_prim
    assert back.n_nuclei == doc.n_nuclei
    np.testing.assert_array_equal(back.prim_center, doc.prim_center)
    np.testing.assert_array_equal(back.prim_type, doc.prim_type)
    np.testing.assert_allclose(back.prim_exponent, doc.prim_exponent,
                               rtol=1e-12)
    for mo_in, mo_out in zip(doc.mos, back.mos):
        assert mo_out.occupation == pytest.approx(mo_in.occupation,
                                                  rel=1e-12, abs=1e-15)
        np.testing.assert_allclose(mo_out.coefficients, mo_in.coefficients,
                                   rtol=1e-12, atol=1e-300)
    for (s1, q1, p1), (s2, q2, p2) in zip(doc.nuclei, back.nuclei):
        assert s1 == s2 and q1 == q2
        np.testing.assert_allclose(p1, p2, atol=1e-11)


@pytest.mark.parametrize("name", ["gaussian", "h2_hf", "h2_fci"])
def test_roundtrip_preserves_density(name, wfn_fixtures, rng):
    doc = wfn_fixtures["docs"][name]
    f0 = field_from_document(doc)
    f1 = field_from_document(_roundtrip(doc))
    pts = rng.normal(scale=2.0, size=(500, 3))
    np.testing.assert_allclose(f1.density(pts), f0.density(pts),
                               rtol=1e-12, atol=1e-300)
    np.testing.assert_allclose(f1.dm.coefficients, f0.dm.coefficients,
                               rtol=1e-12, atol=1e-18)


def test_roundtrip_trailer_and_absence(wfn_fixtures):
    doc = wfn_fixtures["docs"]["h2_fci"]
    back = _roundtrip(doc)
    assert back.total_energy == pytest.approx(doc.total_energy, rel=1e-14)
    assert back.virial == pytest.approx(2.0, rel=1e-14)
    bare = wfn_fixtures["docs"]["gaussian"]
    assert bare.total_energy is None
    assert _roundtrip(bare).total_energy is None
    assert _roundtrip(bare).virial is None


def test_fortran_exponent_markers_are_equivalent(wfn_fixtures):
    text = write_wfn(wfn_fixtures["docs"]["h2_hf"])
    assert "D" in text  # writer emits Fortran-style markers
    as_e = re.sub(r"(\d)D([+-]\d)", r"\1E\2", text)
    a = parse_wfn(text)
    b = parse_wfn(as_e)
    np.testing.assert_array_equal(a.prim_exponent, b.prim_exponent)
    for mo_a, mo_b in zip(a.mos, b.mos):
        np.testing.assert_array_equal(mo_a.coefficients, mo_b.coefficients)


def test_parsed_density_integrates_to_occupation_sum(wfn_fixtures):
    doc = parse_wfn(wfn_fixtures["paths"]["h2_hf"].read_text())
    field = field_from_document(doc)
    grid = build_molecular_grid(field.molecule)
    n = integrate(field.density(grid.points), grid)
    n_declared = sum(mo.occupation for mo in doc.mos)
    assert n == pytest.approx(n_declared, abs=1e-5)


def test_single_gaussian_entropy_closed_form(wfn_fixtures):
    """occ 2 in one s primitive: S of rho = 2 g^2 is known exactly."""
    a = 0.8
    doc = parse_wfn(wfn_fixtures["paths"]["gaussian"].read_text())
    field = field_from_document(doc)
    grid = build_molecular_grid(field.molecule)
    rho = field.density(grid.points)
    s_gauss = 1.5 * math.log(math.pi * math.e / (2 * a))
    expect = 2 * s_gauss - 2 * math.log(2.0)
    integrand = np.zeros_like(rho)
    nz = rho > 0  # far tail underflows to exactly zero
    integrand[nz] = rho[nz] * np.log(rho[nz])
    got = -integrate(integrand, grid)
    assert got == pytest.approx(expect, abs=1e-8)


def test_zero_occupation_orbital_changes_nothing(wfn_fixtures):
    doc = wfn_fixtures["docs"]["h2_hf"]
    occupied_only = [mo for mo in doc.mos if mo.occupation > 0]
    c_all = density_matrix_from_mos(doc).coefficients
    import dataclasses
    trimmed = dataclasses.replace(doc, mos=tuple(occupied_only),
                                  n_mo=len(occupied_only))
    c_occ = density_matrix_from_mos(trimmed).coefficients
    np.testing.assert_array_equal(c_all, c_occ)


def test_raw_primitive_convention(wfn_fixtures):
    import dataclasses
    doc = wfn_fixtures["docs"]["gaussian"]
    basis = basis_from_document(doc)
    # coefficients over raw (unnormalized) primitives absorb the norms
    raw_mos = tuple(
        dataclasses.replace(mo, coefficients=mo.coefficients * basis.norms)
        for mo in doc.mos)
    raw_doc = dataclasses.replace(doc, mos=raw_mos)
    dm_a = density_matrix_from_mos(doc, normalized_primitives=True)
    dm_b = density_matrix_from_mos(raw_doc, normalized_primitives=False)
    np.testing.assert_allclose(dm_b.coefficients, dm_a.coefficients,
                               rtol=1e-13)


def test_occupation_charge_mismatch_warns(wfn_fixtures):
    import dataclasses
    doc = wfn_fixtures["docs"]["gaussian"]
    ion = dataclasses.replace(
        doc, mos=(dataclasses.replace(doc.mos[0], occupation=1.5),))
    with pytest.warns(RuntimeWarning, match="occupations sum to 1.5"):
        parse_wfn(write_wfn(ion))


def test_writer_rejects_unknown_type_codes(wfn_fixtures):
    import dataclasses
    doc = wfn_fixtures["docs"]["gaussian"]
    bad = dataclasses.replace(doc, prim_type=np.array([25]))
    with pytest.raises(ValueError, match="type"):
        write_wfn(bad)


def _lines(text):
    return text.splitlines()


def _corrupt(text, match, replacement):
    out = text.replace(match, replacement)
    assert out != text, f"fixture does not contain {match!r}"
    return out


def test_parse_error_reports_line_and_record(wfn_fixtures):
    text = wfn_fixtures["paths"]["h2_hf"].read_text()

    with pytest.raises(WfnParseError, match=r"line 1, title record"):
        parse_wfn("")

    with pytest.raises(WfnParseError, match=r"header record"):
        parse_wfn("title\nGAUSSIAN 1 MOL ORBITALS NONSENSE\n")

    # truncated MO coefficient block
    broken = _lines(text)
    for i, line in enumerate(broken):
        if line.upper().startswith("END DATA"):
            del broken[i - 1]
            break
    with pytest.raises(WfnParseError, match=r"truncated MO block"):
        parse_wfn("\n".join(broken))

    err = None
    try:
        parse_wfn("\n".join(broken))
    except WfnParseError as e:
        err = e
    assert err.record == "MO coefficients"
    assert err.line_number > 1

    with pytest.raises(WfnParseError, match="unknown type code 99"):
        parse_wfn(_corrupt(text, "TYPE ASSIGNMENTS        1",
                           "TYPE ASSIGNMENTS       99"))

    with pytest.raises(WfnParseError, match="centre index 3 outside"):
        parse_wfn(_corrupt(text, "CENTRE ASSIGNMENTS      1",
                           "CENTRE ASSIGNMENTS      3"))

    # one value missing: the next record header stops the collection
    shortened = [line if not line.startswith("CENTRE")
                 else line.rsplit("    2", 1)[0]
                 for line in _lines(text)]
    with pytest.raises(WfnParseError, match="count mismatch: found 11 of 12"):
        parse_wfn("\n".join(shortened))

    with pytest.raises(WfnParseError, match="expected numeric data"):
        parse_wfn(_corrupt(text, "EXPONENTS   3.552",
                           "EXPONENTS   bogus 3.552"))

    with pytest.raises(WfnParseError, match="missing END DATA"):
        parse_wfn(text.replace("END DATA", "END FILE"))

    with pytest.raises(WfnParseError, match="negative occupation"):
        parse_wfn(_corrupt(text, "OCC NO = 2.0", "OCC NO = -2.0"))

    # a stray extra coefficient is flagged too
    lines = _lines(text)
    idx = next(i for i, l in enumerate(lines) if l.startswith("END DATA"))
    extra = lines[:idx - 1] + [lines[idx - 1] + "  1.0D-01"] + lines[idx:]
    with pytest.raises(WfnParseError, match="found 13 coefficients"):
        parse_wfn("\n".join(extra))

    with pytest.raises(WfnParseError, match="cannot read OCC NO"):
        parse_wfn(_corrupt(text, "OCC NO = 2.0", "OCC NO = junk"))


def test_zero_counts_rejected(wfn_fixtures):
    import dataclasses
    doc = wfn_fixtures["docs"]["h2_hf"]
    no_mos = write_wfn(dataclasses.replace(doc, mos=(), n_mo=0))
    text = write_wfn(doc)
    header = _lines(text)[1]
    no_prims = text.replace(
        header, re.sub(r"\d+(\s+PRIMITIVES)", r"0\1", header))
    for bad in (no_mos, no_prims):
        with pytest.raises(WfnParseError,
                           match="line 2, header record: a density"):
            parse_wfn(bad)


def test_density_matrix_from_mos_large_coefficients(rng):
    # MO coefficients near 100 with fractional occupations: the contraction
    # is not symmetric to 1e-12 absolute unless built symmetric
    mol = Molecule.h2(1.4)
    n_prim = 24
    basis = PrimitiveBasis(mol, np.arange(n_prim) % 2, np.ones(n_prim),
                           rng.uniform(0.2, 5.0, size=n_prim))
    mos = [(occ, 0.0, rng.normal(scale=100.0, size=n_prim))
           for occ in rng.uniform(0.05, 1.95, size=10)]
    dm = density_matrix_from_mos(build_document(mol, basis, mos))
    np.testing.assert_array_equal(dm.coefficients, dm.coefficients.T)


def test_parse_error_str_carries_location():
    try:
        parse_wfn("")
    except WfnParseError as e:
        assert str(e) == "line 1, title record: empty file"


def test_document_accessors(wfn_fixtures):
    doc = wfn_fixtures["docs"]["h2_hf"]
    mol = molecule_from_document(doc)
    assert len(mol) == 2
    assert mol.labels == ["H1", "H2"]
    basis = basis_from_document(doc)
    assert len(basis) == doc.n_prim
    field = field_from_document(doc)
    assert field.n_electrons == pytest.approx(2.0, rel=1e-14)
