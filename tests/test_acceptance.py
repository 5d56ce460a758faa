"""End-to-end acceptance checks.

Each test prints one PASS/FAIL line (run with -s to see them on success).
The numbered set covers: quadrature accuracy against a closed-form atomic
entropy, electron-count normalization, every infinite-separation theorem,
the mean-field entropy artifact, exact internal identities, the alpha -> 1
limit, file-format round-trips, and dissociation energetics.
"""
import math
import time

import numpy as np
import pytest

from entropart import (AtomicGridSpec, analyze_field, build_molecular_grid,
                       integrate, separation_limits)
from entropart.models import build_model, hydrogen_atom_energy
from entropart.molecule import Molecule
from entropart.wfnio import field_from_document, parse_wfn, write_wfn

from references import shannon_point_terms

LN2 = math.log(2.0)
LADDER = (1.4, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0)


def _report(number, name, ok, detail):
    print(f"acceptance {number:2d} [{name}]: {'PASS' if ok else 'FAIL'} "
          f"({detail})")
    assert ok, f"{name}: {detail}"


def test_c01_atomic_entropy_oracle(reference_spec):
    """Hydrogenic density on the densest grid reproduces 3 + ln pi."""
    t0 = time.perf_counter()
    mol = Molecule([("H", (0.0, 0.0, 0.0))])
    grid = build_molecular_grid(mol, reference_spec)
    r = np.linalg.norm(grid.points, axis=1)
    rho = np.exp(-2.0 * r) / math.pi
    integrand = np.zeros_like(rho)
    nz = rho > 0  # the far tail underflows to exactly zero
    integrand[nz] = rho[nz] * np.log(rho[nz])
    s = -integrate(integrand, grid)
    elapsed = time.perf_counter() - t0
    err = abs(s - (3.0 + math.log(math.pi)))
    _report(1, "closed-form atomic entropy", err <= 1e-6 and elapsed < 5.0,
            f"|error| = {err:.2e}, {elapsed:.2f} s")


def test_c02_normalization(reference_spec, wfn_fixtures):
    """The grid integral of every density reproduces its electron count."""
    worst = 0.0
    for method in ("hf", "hl", "fci"):
        for separation in LADDER:
            model = build_model(method, separation)
            grid = build_molecular_grid(model.molecule(), reference_spec)
            n = integrate(model.field().density(grid.points), grid)
            worst = max(worst, abs(n - 2.0))
    for name in ("gaussian", "h2_hf", "h2_fci"):
        doc = parse_wfn(wfn_fixtures["paths"][name].read_text())
        field = field_from_document(doc)
        grid = build_molecular_grid(field.molecule)
        n = integrate(field.density(grid.points), grid)
        worst = max(worst, abs(n - sum(mo.occupation for mo in doc.mos)))
    _report(2, "electron-count normalization", worst <= 1e-6,
            f"worst |N_grid - N| = {worst:.2e}")


def test_c03_shannon_separation_limit(model_analysis, atom_ref):
    """At R = 50 the density entropy is two atomic entropies and the
    interatomic terms are gone."""
    worst_s, worst_x = 0.0, 0.0
    limit = 2 * atom_ref.shannon.density.total
    for method in ("hf", "hl", "fci"):
        sh = model_analysis(method, 50.0).analysis.shannon.density
        worst_s = max(worst_s, abs(sh.total - limit))
        worst_x = max(worst_x, abs(sh.overlap[(0, 1)]), abs(sh.nadd))
    _report(3, "Shannon separation limit", worst_s <= 1e-4 and worst_x <= 1e-6,
            f"|S - 2 S_atom| <= {worst_s:.2e}, cross terms <= {worst_x:.2e}")


def test_c04_shape_separation_limit(model_analysis, atom_ref):
    """The shape entropy gains exactly log 2 over one atom."""
    limit = atom_ref.shannon.density.total + LN2
    worst = max(abs(model_analysis(m, 50.0).analysis.shannon.shape.total
                    - limit) for m in ("hf", "hl", "fci"))
    _report(4, "shape-function separation limit", worst <= 1e-4,
            f"worst |S_sigma - (S_atom + ln 2)| = {worst:.2e}")


def test_c05_mean_field_hump(model_analysis, atom_ref):
    """At intermediate separation the mean-field entropy overshoots the
    separated-atom value while the correlated one stays below."""
    limit = 2 * atom_ref.shannon.density.total
    s_hf = model_analysis("hf", 4.0).analysis.shannon.density.total
    s_fci = model_analysis("fci", 4.0).analysis.shannon.density.total
    _report(5, "mean-field entropy hump", s_hf > limit > s_fci,
            f"S_hf(4) = {s_hf:.6f} > {limit:.6f} > S_fci(4) = {s_fci:.6f}")


def test_c06_order2_separation_limit(model_analysis, atom_ref):
    """Order-2: total reaches S2_atom - ln 2 and the atomic shares are
    exactly one half each."""
    dec = model_analysis("fci", 50.0).analysis.renyi[2.0]
    limit = separation_limits([atom_ref] * 2)[1][2.0].density
    err = abs(dec.totals.density - limit)
    p = sorted(dec.net_terms.p_atom.values())
    p_err = max(abs(v - 0.5) for v in p)
    _report(6, "order-2 separation limit", err <= 1e-4 and p_err <= 1e-6,
            f"|S2 - limit| = {err:.2e}, |p_atom - 1/2| <= {p_err:.2e}")


def test_c07_pointwise_closure_and_p4(model_analysis, rng):
    """add - nadd = total pointwise; the 16 order-2 fractions sum to 1."""
    worst = 0.0
    for method, separation in (("hf", 1.4), ("hl", 1.4), ("fci", 1.4),
                               ("fci", 4.0)):
        field = build_model(method, separation).field()
        pts = rng.normal(scale=2.5, size=(10_000, 3))
        pts[:, 2] += separation / 2.0
        rho, pairs = field.pair_fields(pts)
        terms = shannon_point_terms(rho, pairs)
        scale = np.maximum(np.abs(terms.total), 1.0)
        worst = max(worst, float(np.max(
            np.abs(terms.add - terms.nadd - terms.total) / scale)))
    p4 = model_analysis("fci", 1.4).analysis.renyi[2.0].pair_partition.p4
    p4_err = abs(math.fsum(p4.values()) - 1.0)
    _report(7, "pointwise closure and p4 sum",
            worst <= 1e-10 and p4_err <= 1e-10,
            f"closure <= {worst:.2e}, |sum p4 - 1| = {p4_err:.2e}")


def test_c08_density_shape_relations(model_analysis):
    """S_rho = N S_sigma - N log N, and the order-alpha analogue, exactly."""
    worst = 0.0
    for method in ("hf", "hl", "fci"):
        for separation in (1.4, 4.0, 50.0):
            fa = model_analysis(method, separation).analysis
            n = fa.n_grid
            worst = max(worst, abs(fa.shannon.scaling_residual))
            for alpha in (0.5, 2.0, 3.0):
                totals = fa.renyi[alpha].totals
                gap = (alpha / (alpha - 1.0)) * math.log(n)
                worst = max(worst, abs(totals.shape - totals.density - gap))
    _report(8, "density/shape scaling relations", worst <= 1e-10,
            f"worst residual = {worst:.2e}")


def test_c09_order_one_continuity(model_analysis):
    """Near alpha = 1 the shape-function order-alpha entropy returns the
    Shannon value."""
    fa = model_analysis("hf", 1.4).analysis
    near = model_analysis("hf", 1.4, alphas=(1.0001,)).analysis
    diff = abs(near.renyi[1.0001].totals.shape - fa.shannon.shape.total)
    _report(9, "order -> 1 continuity", diff <= 1e-3,
            f"|S_1.0001 - S_Shannon| = {diff:.2e}")


def test_c10_file_roundtrip(wfn_fixtures, model_analysis):
    """Write/parse round-trips preserve documents and their entropies."""
    worst = 0.0
    for name, doc in wfn_fixtures["docs"].items():
        back = parse_wfn(write_wfn(doc))
        assert back.n_prim == doc.n_prim and back.n_mo == doc.n_mo
        field = field_from_document(back)
        grid = build_molecular_grid(field.molecule)
        fa = analyze_field(field, grid)
        ref_field = field_from_document(doc)
        ref = analyze_field(ref_field, grid)
        worst = max(worst, abs(fa.shannon.density.total
                               - ref.shannon.density.total))
    # a parsed built-in model matches the direct in-memory analysis
    direct = model_analysis("fci", 1.4).analysis.shannon.density.total
    parsed_doc = parse_wfn(wfn_fixtures["paths"]["h2_fci"].read_text())
    field = field_from_document(parsed_doc)
    grid = build_molecular_grid(field.molecule)
    parsed = analyze_field(field, grid).shannon.density.total
    worst = max(worst, abs(parsed - direct))
    _report(10, "wavefunction file round-trip", worst <= 1e-8,
            f"worst entropy drift = {worst:.2e}")


def test_c11_dissociation_energetics():
    """Correlated dissociation reaches two free atoms; mean-field misses by
    a finite margin."""
    e_atom = hydrogen_atom_energy()
    e_fci = build_model("fci", 50.0).energy
    e_hf = build_model("hf", 50.0).energy
    gap_fci = abs(e_fci - 2 * e_atom)
    gap_hf = e_hf - 2 * e_atom
    _report(11, "dissociation energetics", gap_fci <= 0.01 and gap_hf > 0.05,
            f"|E_fci - 2 E_atom| = {gap_fci:.2e}, "
            f"E_hf - 2 E_atom = {gap_hf:.4f}")
