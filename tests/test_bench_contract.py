"""What the benchmark under perfbench/ needs from the package.

perfbench records ``entropart.active_backend_name()`` and wraps the
kernels it finds on ``entropart.backends.get_backend()``. These tests keep
those names working.
"""
import pathlib
import sys

import pytest

import entropart
import entropart.cli  # noqa: F401  (the tracer wraps cli.main)
from entropart import (AtomicGridSpec, analyze_field, build_molecular_grid,
                       hf_model)
from entropart.backends import get_backend

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"
KERNELS = ("becke_weights_kernel", "eval_primitives", "quad_form",
           "quad_form_block")


def test_active_backend_name_is_str():
    assert isinstance(entropart.active_backend_name(), str)


def test_get_backend_holds_the_kernels():
    mod = get_backend()
    for name in KERNELS:
        assert callable(getattr(mod, name))


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    yield tracing
    sys.modules.pop("tracing", None)


def _bindings():
    """Every module global or class attribute the tracer may patch."""
    owners = [m for n, m in sorted(sys.modules.items())
              if m is not None and (n == "entropart" or n.startswith("entropart."))]
    owners += [entropart.density.PairDensityField,
               entropart.density.PrimitiveBasis]
    return {(id(o), k): v for o in owners for k, v in vars(o).items()
            if callable(v)}


def test_tracer_binds_every_target_and_restores(tracing, tmp_path):
    field = hf_model(1.4).field()
    before = _bindings()
    main = entropart.cli.main
    tracer = tracing.Tracer()
    tracer.install()  # raises if a target has no binding to wrap
    try:
        tracer.begin_op(1)
        grid = build_molecular_grid(
            field.molecule, AtomicGridSpec(n_radial=80, lebedev_order=50))
        analyze_field(field, grid, alphas=(2.0,))
        field.density(grid.points)  # the quad_form path
        tracer.end_op()
        # the sweep workload's operation, on a tiny grid
        tracer.begin_op(2)
        code = entropart.cli.main(
            ["sweep", "--method", "fci", "--distances", "1.4", "--alphas",
             "0.5,2", "--n-radial", "80", "--lebedev", "50", "--format",
             "json", "--out", str(tmp_path / "sweep.json")])
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert code == 0
    counts = tracer.summary(1)["counts"]
    for name in KERNELS:
        assert counts.get(f"backends.{name}.calls", 0) > 0, name
    sweep_counts = tracer.summary(2)["counts"]
    assert sweep_counts["cli.main.calls"] == 1
    assert sweep_counts["analysis.analyze_model.calls"] == 1
    assert entropart.cli.main is main
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_each_grid_integral_is_taken_once(tracing, h3_wfn_field):
    # one integral of rho; the Shannon pass takes int rho log rho and, per
    # unique pair, int x log x, int x log(x / rho) and int x; each order
    # alpha takes int rho**alpha and one moment per atom
    h2 = hf_model(1.4).field()
    for field in (h2, h3_wfn_field):
        nat = len(field.molecule)
        n_pairs = nat * (nat + 1) // 2
        alphas = (0.5, 2.0)
        grid = build_molecular_grid(
            field.molecule, AtomicGridSpec(n_radial=150, lebedev_order=110))
        tracer = tracing.Tracer()
        tracer.install()
        try:
            tracer.begin_op(1)
            analyze_field(field, grid, alphas=alphas)
            tracer.end_op()
        finally:
            tracer.uninstall()
        calls = tracer.summary(1)["counts"]["quadrature.integrate.calls"]
        assert calls <= 1 + (1 + 3 * n_pairs) + len(alphas) * (1 + nat)
