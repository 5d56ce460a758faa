"""Property tests of the .wfn reader and writer.

Both tests are derandomized with a fixed example budget, so every run
checks the same cases.
"""
import re
import warnings

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from entropart.density import TYPE_POWS
from entropart.molecule import MAX_COORDINATE
from entropart.wfnio import (MolecularOrbital, WfnDocument, WfnParseError,
                             parse_wfn, write_wfn)

FIXED = settings(derandomize=True, deadline=None, database=None)

_SYMBOLS = ("H", "He", "C", "N", "O", "F", "Na", "Cl")
_MICRO = int(MAX_COORDINATE * 10**6)  # the largest coordinate in 1e-6 bohr


def _decimal(lo, hi, digits=12):
    # a double nearest to a decimal of at most `digits` significant digits,
    # which the writer's 16-digit D format reproduces exactly
    return st.floats(lo, hi, allow_nan=False).map(
        lambda x: float(f"{x:.{digits}g}"))


@st.composite
def documents(draw):
    n_nuclei = draw(st.integers(1, 3))
    nuclei = tuple(
        (draw(st.sampled_from(_SYMBOLS)), float(draw(st.integers(1, 20))),
         # the writer prints positions with 12 decimals; any position a
         # Molecule accepts, up to MAX_COORDINATE
         np.array([draw(st.integers(-_MICRO, _MICRO)) / 1e6
                   for _ in range(3)]))
        for _ in range(n_nuclei))
    n_prim = draw(st.integers(1, 12))
    coefficient = st.one_of(st.just(0.0), _decimal(-1e3, 1e3))
    mos = tuple(
        MolecularOrbital(draw(_decimal(0.0, 2.0)), draw(_decimal(-50.0, 50.0)),
                         np.array([draw(coefficient) for _ in range(n_prim)]))
        for _ in range(draw(st.integers(1, 3))))
    trailer = draw(st.booleans())
    return WfnDocument(
        title=draw(st.text(st.sampled_from("abcXYZ019 -_=.()"), max_size=20)
                   .map(str.strip)),
        n_mo=len(mos), n_prim=n_prim, n_nuclei=n_nuclei, nuclei=nuclei,
        prim_center=np.array([draw(st.integers(0, n_nuclei - 1))
                              for _ in range(n_prim)], dtype=np.int64),
        prim_type=np.array([draw(st.sampled_from(sorted(TYPE_POWS)))
                            for _ in range(n_prim)], dtype=np.int64),
        prim_exponent=np.array([draw(_decimal(1e-3, 1e4))
                                for _ in range(n_prim)]),
        mos=mos,
        # the trailer carries both values or neither; energy has 15 decimals
        total_energy=round(draw(st.floats(-1e4, 1e4)), 9) if trailer else None,
        virial=round(draw(st.floats(0.0, 10.0)), 6) if trailer else None)


@settings(FIXED, max_examples=150)
@given(documents())
def test_write_parse_roundtrip_is_exact(doc):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # charge/occupation
        back = parse_wfn(write_wfn(doc))
    assert (back.title, back.n_mo, back.n_prim, back.n_nuclei) == \
        (doc.title, doc.n_mo, doc.n_prim, doc.n_nuclei)
    for (s1, q1, p1), (s2, q2, p2) in zip(doc.nuclei, back.nuclei):
        assert (s1, q1) == (s2, q2)
        np.testing.assert_array_equal(p1, p2)
    np.testing.assert_array_equal(back.prim_center, doc.prim_center)
    np.testing.assert_array_equal(back.prim_type, doc.prim_type)
    np.testing.assert_array_equal(back.prim_exponent, doc.prim_exponent)
    for a, b in zip(doc.mos, back.mos):
        assert (a.occupation, a.energy) == (b.occupation, b.energy)
        np.testing.assert_array_equal(a.coefficients, b.coefficients)
    assert (back.total_energy, back.virial) == (doc.total_energy, doc.virial)


def _base_text():
    """A valid file with s, p, d and f primitives on two centres."""
    types = np.array([1, 2, 4, 5, 8, 11, 20, 1], dtype=np.int64)
    coefs = np.linspace(-0.9, 1.3, len(types))
    doc = WfnDocument(
        title="mutation base", n_mo=2, n_prim=len(types), n_nuclei=2,
        nuclei=(("C", 6.0, np.zeros(3)), ("O", 8.0, np.array([0.0, 0.0, 2.1]))),
        prim_center=np.array([0, 0, 0, 0, 1, 1, 1, 1], dtype=np.int64),
        prim_type=types, prim_exponent=np.linspace(0.3, 9.0, len(types)),
        mos=(MolecularOrbital(2.0, -0.7, coefs),
             MolecularOrbital(1.5, -0.2, coefs[::-1].copy())),
        total_energy=-112.5, virial=2.0)
    return write_wfn(doc)


_BASE_LINES = _base_text().splitlines()
_NUMBER = re.compile(r"[-+]?\d+(?:\.\d*)?(?:[DdEe][-+]?\d+)?")
_GARBAGE = st.one_of(
    st.sampled_from(["", "0", "-1", "-0", "99999", "1.0D+999", "1e", "D+01",
                     "--3", ".", "1.2.3", "x"]),
    st.text(st.sampled_from("0123456789.-+DEx "), max_size=6))


@st.composite
def mutated_files(draw):
    lines = list(_BASE_LINES)
    for _ in range(draw(st.integers(1, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["delete", "duplicate", "truncate",
                                     "number"]))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "truncate":
            lines[i] = lines[i][:draw(st.integers(0, len(lines[i])))]
        else:
            spans = [m.span() for m in _NUMBER.finditer(lines[i])]
            if spans:
                a, b = draw(st.sampled_from(spans))
                lines[i] = lines[i][:a] + draw(_GARBAGE) + lines[i][b:]
    return "\n".join(lines) + "\n"


@settings(FIXED, max_examples=400)
@given(mutated_files())
def test_parse_raises_only_wfn_parse_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            doc = parse_wfn(text)
        except WfnParseError:
            return
    assert isinstance(doc, WfnDocument)
