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


def test_tracer_binds_every_target_and_restores(tracing):
    field = hf_model(1.4).field()
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install()  # raises if a target has no binding to wrap
    try:
        tracer.begin_op(1)
        grid = build_molecular_grid(
            field.molecule, AtomicGridSpec(n_radial=80, lebedev_order=50))
        analyze_field(field, grid, alphas=(2.0,))
        field.density(grid.points)  # the quad_form path
        tracer.end_op()
    finally:
        tracer.uninstall()
    counts = tracer.summary(1)["counts"]
    for name in KERNELS:
        assert counts.get(f"backends.{name}.calls", 0) > 0, name
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
