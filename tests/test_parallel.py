"""The fork-join walk: shares of the chunks (or of a sweep's rows) in
forked workers, one BLAS thread each, with the serial walk's results,
messages and exit codes.

Small grids are shared among W = 2 or 3 workers by patching the usable
CPUs and the work a worker needs (``analysis.WORK_PER_WORKER``).
"""
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import entropart
from entropart import analysis, cli, parallel
from entropart.analysis import analyze_field
from entropart.density import (NEGATIVE_CLAMP, DensityMatrix, PairDensityField,
                               PrimitiveBasis)
from entropart.models import fci_model
from entropart.molecule import Molecule
from entropart.quadrature import (_CHUNK, AtomicGridSpec, build_molecular_grid,
                                  integrate)

SPEC = AtomicGridSpec(n_radial=100, lebedev_order=86)
SRC = os.path.dirname(os.path.dirname(entropart.__file__))


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _force(monkeypatch, cpus):
    """Let every walk take up to ``cpus`` workers, however small."""
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(cpus)))
    monkeypatch.setattr(analysis, "WORK_PER_WORKER", 1)


def _fci():
    field = fci_model(1.4).field()
    grid = build_molecular_grid(field.molecule, SPEC)
    n_chunks = -(-len(grid) // _CHUNK)
    assert n_chunks == 5 and len(grid) % _CHUNK, len(grid)  # a short last chunk
    return field, grid


def _at_chunk(monkeypatch, field, grid, changes):
    """Have field.pair_block apply changes[c](rho, terms) at chunk c."""
    firsts = {c: next(grid.chunks(c))[1][0].copy() for c in changes}
    evaluate = field.pair_block

    def pair_block(points, work=None):
        rho, terms = evaluate(points, work)
        for c, change in changes.items():
            if np.array_equal(points[0], firsts[c]):
                change(rho, terms)
        return rho, terms

    monkeypatch.setattr(field, "pair_block", pair_block)


def _message(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# --- the helper -----------------------------------------------------------

def _where(w, n):
    return w, n, os.getpid(), parallel._blas()[0]()


def test_shares_run_in_forked_children_with_one_blas_thread(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(4)))
    get, set_ = parallel._blas()
    saved = get()
    set_(2)
    try:
        shares = parallel.run(_where, jobs=3)
        assert get() == 2  # restored
    finally:
        set_(saved)
    assert [(w, n) for w, n, _, _ in shares] == [(0, 3), (1, 3), (2, 3)]
    pids = [pid for _, _, pid, _ in shares]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert [threads for *_, threads in shares] == [1, 1, 1]


def test_workers_are_capped_by_jobs_cpus_and_work(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(4)))
    assert parallel.workers() == 4
    assert parallel.workers(3) == 3
    assert parallel.workers(8, cap=2) == 2
    assert parallel.workers(8, cap=0) == 1
    assert parallel.workers(1, cap=100) == 1


@pytest.mark.parametrize("why", ["one worker", "no BLAS control", "no fork"])
def test_nothing_is_forked_without_a_second_worker(why, monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(4)))
    jobs = 1 if why == "one worker" else 3
    if why == "no BLAS control":
        monkeypatch.setattr(parallel, "_blas", lambda: None)
    forks = []

    def fork():
        forks.append(1)
        raise AssertionError("forked")

    if why == "no fork":
        monkeypatch.delattr(parallel.os, "fork")
    else:
        monkeypatch.setattr(parallel.os, "fork", fork)
    assert parallel.workers(jobs) == 1
    assert parallel.run(lambda w, n: (w, n, os.getpid()), jobs) == [
        (0, 1, os.getpid())]
    assert forks == []


def _raise_in(where, error):
    def share(w, n):
        if w in where:
            raise error
        return w
    return share


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 7.2 GiB"),
                                   ValueError("bad input at point index 3")])
def test_a_child_exception_keeps_its_type_and_text(error, monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(3)))
    with pytest.raises(type(error)) as info:
        parallel.run(_raise_in({2}, error), jobs=3)
    assert str(info.value) == str(error)


def test_the_lowest_share_raises_first(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(3)))

    def share(w, n):
        raise (KeyError if w == 2 else ValueError)(f"share {w}")

    with pytest.raises(ValueError, match="^share 0$"):
        parallel.run(share, jobs=3)


class _Unsendable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_cannot_travel_keeps_its_type_name_and_text(
        monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(2)))
    with pytest.raises(RuntimeError, match="^_Unsendable: x and y$"):
        parallel.run(_raise_in({1}, _Unsendable("x", "y")), jobs=2)


def test_a_child_that_dies_is_reported(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(2)))

    def share(w, n):
        if w == 1:
            os._exit(3)
        return w

    with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
        parallel.run(share, jobs=2)


def test_a_fork_that_fails_ends_the_workers_already_started(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(3)))
    forks = []
    fork = os.fork

    def second_fails():
        forks.append(1)
        if len(forks) == 2:
            raise OSError(11, "Resource temporarily unavailable")
        return fork()

    monkeypatch.setattr(parallel.os, "fork", second_fails)
    with pytest.raises(RuntimeError, match=(
            r"^cannot start a worker process \(\[Errno 11\] Resource "
            r"temporarily unavailable\); one worker \(--jobs 1\) forks none$")):
        parallel.run(lambda w, n: w, jobs=3)
    assert len(forks) == 2  # the first child was ended and reaped


def test_a_childs_warnings_are_issued_in_the_caller(monkeypatch):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(2)))

    def share(w, n):
        warnings.warn(f"from share {w}", UserWarning)
        return w

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel.run(share, jobs=2) == [0, 1]
    assert sorted(str(c.message) for c in caught) == ["from share 0",
                                                      "from share 1"]


# --- the walk ------------------------------------------------------------

def test_strided_chunks_are_the_walks_chunks():
    field, grid = _fci()
    serial = [(start, pts.copy()) for start, pts in grid.chunks()]
    strided = sorted(((start, pts.copy()) for offset in range(3)
                      for start, pts in grid.chunks(offset, 3)),
                     key=lambda chunk: chunk[0])
    assert [s for s, _ in strided] == [s for s, _ in serial]
    for (_, a), (_, b) in zip(serial, strided):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("cpus", [2, 3])
def test_shared_walks_give_the_serial_bits(cpus, monkeypatch, h3_wfn_field):
    grid = build_molecular_grid(h3_wfn_field.molecule, SPEC)
    assert len(grid) % _CHUNK  # a short last chunk
    serial = analyze_field(h3_wfn_field, grid, alphas=(0.5, 2.0, 3.0), jobs=1)
    _force(monkeypatch, cpus)
    assert parallel.workers(cpus, cap=99) == cpus
    shared = analyze_field(h3_wfn_field, grid, alphas=(0.5, 2.0, 3.0), jobs=cpus)
    assert shared == serial


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_non_finite_density_in_a_childs_share(cpus, monkeypatch):
    field, grid = _fci()

    def inf(rho, terms):
        rho[7] = np.inf

    def nan(rho, terms):
        rho[3] = np.nan

    # chunk 1 is share 1's for W = 2 and 3; chunk 2, later, share 0's or 2's
    _at_chunk(monkeypatch, field, grid, {1: inf, 2: nan})
    serial = _message(lambda: analyze_field(field, grid, jobs=1))
    index = _CHUNK + 7
    assert serial == (ValueError, f"non-finite field value at point index "
                                  f"{index}, position {grid.position(index)}")
    _force(monkeypatch, cpus)
    assert _message(lambda: analyze_field(field, grid, jobs=cpus)) == serial


@pytest.mark.parametrize("cpus", [2, 3])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_a_non_finite_pair_integrand_keeps_its_first_point(cpus, monkeypatch):
    field, grid = _fci()

    def at(i):
        def change(rho, terms):
            terms[0, i] = np.inf
        return change

    _at_chunk(monkeypatch, field, grid, {1: at(9), 2: at(2)})
    serial = _message(lambda: analyze_field(field, grid, jobs=1))
    assert serial == (ValueError,
                      f"non-finite field value at point index {_CHUNK + 9}")
    _force(monkeypatch, cpus)
    assert _message(lambda: analyze_field(field, grid, jobs=cpus)) == serial


@pytest.mark.parametrize("cpus", [2, 3])
def test_a_fractional_order_failure_in_a_childs_share(cpus, monkeypatch):
    field, grid = _fci()
    atom1 = field.pair_keys.index((1, 1))

    def negative(rho, terms):
        terms[atom1, 5] = -1.0

    _at_chunk(monkeypatch, field, grid, {1: negative})
    serial = _message(lambda: analyze_field(field, grid, alphas=(2.0, 0.5),
                                            jobs=1))
    assert serial == (ValueError, "the net density of atom 1 reaches values "
                      "below -1e-12; a fractional order alpha=0.5 is "
                      "undefined there")
    _force(monkeypatch, cpus)
    assert _message(lambda: analyze_field(field, grid, alphas=(2.0, 0.5),
                                          jobs=cpus)) == serial


def _clamped_h2():
    """Two unit-exponent s primitives whose density matrix makes the
    density negative over several chunks."""
    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    c = np.array([[1.0, -1.2], [-1.2, 1.0]])
    grid = build_molecular_grid(mol, SPEC)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        probe = PairDensityField(basis, DensityMatrix(c, n_electrons=1.0))
        n = integrate(probe.pair_fields(grid.points)[0], grid)
    return PairDensityField(basis, DensityMatrix(c, n)), grid


@pytest.mark.parametrize("cpus", [2, 3])
def test_clamp_counts_are_summed_with_one_warning(cpus, monkeypatch):
    field, grid = _clamped_h2()

    def run(jobs):
        before = (field.diagnostics.clamped, field.diagnostics.negated)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fa = analyze_field(field, grid, jobs=jobs)
        added = (field.diagnostics.clamped - before[0],
                 field.diagnostics.negated - before[1])
        messages = [str(w.message) for w in caught
                    if issubclass(w.category, RuntimeWarning)]
        return fa, added, messages

    serial, added, messages = run(1)
    negated = serial.shannon.diagnostics.negated
    assert negated > 0 and added == (serial.shannon.diagnostics.clamped,
                                     negated)
    assert messages == [f"density below {NEGATIVE_CLAMP} at {negated} points; "
                        "using absolute values"]
    _force(monkeypatch, cpus)
    assert run(cpus) == (serial, added, messages)


def _fail_in_children(monkeypatch, error):
    caller = os.getpid()
    evaluate = PairDensityField.pair_block

    def pair_block(self, points, work=None):
        if os.getpid() != caller:
            raise error
        return evaluate(self, points, work)

    monkeypatch.setattr(PairDensityField, "pair_block", pair_block)


def test_a_childs_memory_error_reaches_the_caller(monkeypatch):
    field, grid = _fci()
    _force(monkeypatch, 2)
    _fail_in_children(monkeypatch, MemoryError("Unable to allocate 7.2 GiB"))
    with pytest.raises(MemoryError, match="^Unable to allocate 7.2 GiB$"):
        analyze_field(field, grid, jobs=2)
    # no worker, no failure
    assert analyze_field(field, grid, jobs=1).identities_ok()


def test_a_childs_memory_error_exits_1(monkeypatch, capsys, wfn_fixtures):
    _force(monkeypatch, 2)
    _fail_in_children(monkeypatch, MemoryError("Unable to allocate 7.2 GiB"))
    code = cli.main(["analyze", str(wfn_fixtures["paths"]["h2_fci"]),
                     "--n-radial", "100", "--lebedev", "86", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: Unable to allocate 7.2 GiB\n")


def test_a_sweep_raises_the_first_failing_row(monkeypatch, capsys):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(2)))
    model = cli.analyze_model

    def analyze_model(method, R, **kwargs):
        if R in (2.0, 3.0):  # tasks 1 (a child's) and 2 (this process's)
            raise ValueError(f"no model at {R}")
        return model(method, R, **kwargs)

    monkeypatch.setattr(cli, "analyze_model", analyze_model)
    code = cli.main(["sweep", "--method", "hf", "--distances", "1.4,2,3,4",
                     "--n-radial", "60", "--lebedev", "50", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: at R=2: no model at 2.0\n")


# --- the command line ----------------------------------------------------

def test_jobs_is_an_option_of_analyze_atom_and_sweep(capsys, wfn_fixtures):
    assert cli._DEFAULTS["jobs"] == parallel.usable_cpus()
    path = str(wfn_fixtures["paths"]["h2_fci"])
    for argv in (["analyze", path], ["atom"], ["sweep"]):
        assert cli.main([*argv, "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "error: jobs must be >= 1\n"


def test_output_does_not_depend_on_blas_threads_or_jobs(h8_wfn_path):
    # a threaded BLAS splits H8's 36 x 4096 x 36 Gram product and rounds
    # it differently; every walk pins BLAS to one thread
    outputs = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(
                       [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        for jobs in ("1", "2", "3"):
            proc = subprocess.run(
                [sys.executable, "-m", "entropart.cli", "analyze",
                 str(h8_wfn_path), "--n-radial", "100", "--lebedev", "110",
                 "--alphas", "0.5,2", "--format", "json", "--jobs", jobs],
                capture_output=True, env=env)
            assert proc.returncode == 0, proc.stderr
            outputs.add(proc.stdout)
    assert len(outputs) == 1
