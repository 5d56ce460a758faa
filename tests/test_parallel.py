"""The fork-join map: the chunks of a walk (or a sweep's rows) as tasks
of forked workers, one BLAS thread each, with the serial loop's results,
messages and exit codes.

Small grids are shared among W = 2 or 3 workers by patching the usable
CPUs and the work a worker needs (``analysis.WORK_PER_WORKER``).
"""
import mmap
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import entropart
from entropart import analysis, cli, parallel
from entropart.analysis import analyze_field
from entropart.backends import Workspace
from entropart.density import (NEGATIVE_CLAMP, ClampDiagnostics, DensityMatrix,
                               PairDensityField, PrimitiveBasis)
from entropart.models import fci_model
from entropart.molecule import Molecule
from entropart.quadrature import (_CHUNK, AtomicGridSpec, build_molecular_grid,
                                  direction_orbits, integrate)

SPEC = AtomicGridSpec(n_radial=100, lebedev_order=86)
# H2 on this grid evaluates 17,336 points, five walk chunks
WALK_SPEC = AtomicGridSpec(n_radial=250, lebedev_order=194)
SRC = os.path.dirname(os.path.dirname(entropart.__file__))


def _cpus(monkeypatch, n):
    monkeypatch.setattr(parallel.os, "sched_getaffinity",
                        lambda pid: set(range(n)))


def _force(monkeypatch, cpus):
    """Let every walk take up to ``cpus`` workers, however small."""
    _cpus(monkeypatch, cpus)
    monkeypatch.setattr(analysis, "WORK_PER_WORKER", 1)


def _walk(field, grid):
    """The walk of field over grid, one point per orbit."""
    return grid.walk(field.symmetry()[0])


def _fci():
    field = fci_model(1.4).field()
    grid = build_molecular_grid(field.molecule, WALK_SPEC)
    walk = _walk(field, grid)
    # a short last chunk
    assert len(walk) == 5 and walk.evaluated % _CHUNK, walk.evaluated
    return field, grid


def _kept(field, grid, c, rep):
    """The global index of the first kept point whose orbit is the walk's
    representative rep of chunk c: the orbits are the distinct (shell,
    orbit) pairs of the kept points, in order."""
    reps, inverse = direction_orbits(grid.spec.lebedev_order,
                                     field.symmetry()[0])
    shell, j = np.divmod(grid.index.astype(np.int64), grid.directions.shape[1])
    pair = shell * len(reps) + inverse[j]
    return int(np.argmax(pair == np.unique(pair)[c * _CHUNK + rep]))


def _at_chunk(monkeypatch, field, grid, changes):
    """Have field.pair_block apply changes[c](rho, terms) at chunk c, to
    the values at the orbits' representatives that the walk evaluates.
    Returns the list of the chunks this process evaluates, in order."""
    walk = _walk(field, grid)
    firsts = [walk.chunk(c).points[0].copy() for c in range(len(walk))]
    evaluate = field.pair_block
    evaluated = []

    def pair_block(points, work=None, counts=None):
        rho, terms, block = evaluate(points, work, counts)
        (c,) = [c for c, first in enumerate(firsts)
                if np.array_equal(points[0], first)]
        evaluated.append(c)
        if c in changes:
            changes[c](rho, terms)
        return rho, terms, block

    monkeypatch.setattr(field, "pair_block", pair_block)
    return evaluated


def _message(call):
    with pytest.raises(Exception) as info:
        call()
    return type(info.value), str(info.value)


# --- the helper -----------------------------------------------------------

def _where(i):
    return i, os.getpid(), parallel._blas()[0]()


def test_shares_run_in_forked_children_with_one_blas_thread(monkeypatch):
    # 7 tasks on 3 workers: task i in worker i mod 3, the last share short
    _cpus(monkeypatch, 4)
    get, set_ = parallel._blas()
    saved = get()
    set_(2)
    try:
        tasks = parallel.map(_where, 7, jobs=3)
        assert get() == 2  # restored
    finally:
        set_(saved)
    assert [i for i, _, _ in tasks] == list(range(7))
    pids = [pid for _, pid, _ in tasks]
    assert pids[0] == os.getpid() and len(set(pids)) == 3
    assert pids == (pids[:3] * 3)[:7]
    assert [threads for *_, threads in tasks] == [1] * 7


def test_workers_are_capped_by_jobs_cpus_and_work(monkeypatch):
    _cpus(monkeypatch, 4)
    assert parallel.workers() == 4
    assert parallel.workers(3) == 3
    assert parallel.workers(8, cap=2) == 2
    assert parallel.workers(8, cap=0) == 1
    assert parallel.workers(1, cap=100) == 1


def _no_fork(monkeypatch):
    forks = []

    def fork():
        forks.append(1)
        raise AssertionError("forked")

    monkeypatch.setattr(parallel.os, "fork", fork)
    return forks


@pytest.mark.parametrize("why", ["one worker", "no BLAS control", "no fork"])
def test_nothing_is_forked_without_a_second_worker(why, monkeypatch):
    _cpus(monkeypatch, 4)
    jobs = 1 if why == "one worker" else 3
    if why == "no BLAS control":
        monkeypatch.setattr(parallel, "_blas", lambda: None)
    if why == "no fork":
        monkeypatch.delattr(parallel.os, "fork")
        forks = []
    else:
        forks = _no_fork(monkeypatch)
    assert parallel.workers(jobs) == 1
    assert parallel.map(lambda i: (i, os.getpid()), 2, jobs) == [
        (0, os.getpid()), (1, os.getpid())]
    assert forks == []


def test_nothing_is_forked_for_one_task_or_none(monkeypatch):
    _cpus(monkeypatch, 4)
    forks = _no_fork(monkeypatch)
    assert parallel.map(lambda i: (i, os.getpid()), 1, jobs=4) == [
        (0, os.getpid())]

    def task(i):
        raise AssertionError("called")

    assert parallel.map(task, 0) == []  # an empty map
    assert forks == []


def _raise_in(where, error):
    def task(i):
        if i in where:
            raise error
        return i
    return task


@pytest.mark.parametrize("error", [MemoryError("Unable to allocate 7.2 GiB"),
                                   ValueError("bad input at point index 3")])
def test_a_child_exception_keeps_its_type_and_text(error, monkeypatch):
    _cpus(monkeypatch, 3)
    with pytest.raises(type(error)) as info:
        parallel.map(_raise_in({2}, error), 3, jobs=3)
    assert str(info.value) == str(error)


def test_the_lowest_share_raises_first(monkeypatch):
    _cpus(monkeypatch, 3)

    def task(i):
        raise (KeyError if i == 2 else ValueError)(f"task {i}")

    with pytest.raises(ValueError, match="^task 0$"):
        parallel.map(task, 3, jobs=3)


def test_the_lowest_task_raises_when_workers_fail_out_of_order(monkeypatch):
    # W = 3 over 9 tasks: worker 0 takes 0, 3, 6; worker 1 takes 1, 4, 7;
    # worker 2 takes 2, 5, 8. Workers 0 and 1 fail after worker 2 does in
    # task order, at tasks 6 and 7; worker 2 fails at task 5
    _cpus(monkeypatch, 3)

    def task(i):
        warnings.warn(f"task {i}", UserWarning)
        if i in (5, 6, 7):
            raise ValueError(f"task {i}")
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="^task 5$"):
            parallel.map(task, 9, jobs=3)
    # every task before it ran, as in a serial loop; each worker stopped
    # at its first failure
    ran = sorted(int(str(c.message).split()[1]) for c in caught)
    assert ran == [0, 1, 2, 3, 4, 5, 6, 7]


class _Unsendable(Exception):
    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_cannot_travel_keeps_its_type_name_and_text(
        monkeypatch):
    _cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^_Unsendable: x and y$"):
        parallel.map(_raise_in({1}, _Unsendable("x", "y")), 2, jobs=2)


def test_a_child_that_dies_is_reported(monkeypatch):
    _cpus(monkeypatch, 2)

    def task(i):
        if i == 1:
            os._exit(3)
        return i

    with pytest.raises(RuntimeError, match=r"without a result \(exit status 3\)"):
        parallel.map(task, 2, jobs=2)


def test_a_fork_that_fails_ends_the_workers_already_started(monkeypatch):
    _cpus(monkeypatch, 3)
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
        parallel.map(lambda i: i, 3, jobs=3)
    assert len(forks) == 2  # the first child was ended and reaped


def test_a_childs_warnings_are_issued_in_the_caller(monkeypatch):
    _cpus(monkeypatch, 2)

    def task(i):
        warnings.warn(f"from task {i}", UserWarning)
        return i

    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert parallel.map(task, 2, jobs=2) == [0, 1]
    assert sorted(str(c.message) for c in caught) == ["from task 0",
                                                      "from task 1"]


# --- the walk ------------------------------------------------------------

def test_each_chunk_is_the_walks_chunk():
    # screened points and a short last chunk; every chunk of a fresh
    # workspace, and each in turn of one workspace, in any order
    grid = build_molecular_grid(fci_model(1.4).molecule(), SPEC)
    index = grid.index
    spans = [np.ptp(index[s:s + _CHUNK]) + 1
             for s in range(0, len(grid), _CHUNK)]
    assert max(spans) > _CHUNK  # a chunk with screened points among its own
    walk, one = grid.walk([0]), Workspace()  # the kept points themselves
    serial = [(c.start, c.points.copy())
              for c in (walk.chunk(i, one) for i in range(len(walk)))]
    assert len(serial) == 5 and len(serial[-1][1]) < _CHUNK
    work = Workspace()
    for i in (4, 0, 3, 1, 2):
        for start, pts in ((c.start, c.points)
                           for c in (walk.chunk(i), walk.chunk(i, work))):
            assert start == serial[i][0] == i * _CHUNK
            assert pts.shape == serial[i][1].shape
            assert np.array_equal(pts, serial[i][1])


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
    index = _kept(field, grid, 1, 7)
    assert serial == (ValueError, f"non-finite field value at point index "
                                  f"{index}, position {grid.points[index]}")
    _force(monkeypatch, cpus)
    assert _message(lambda: analyze_field(field, grid, jobs=cpus)) == serial


def _memory_error(rho, terms):
    raise MemoryError("Unable to allocate 7.2 GiB")


def _inf(rho, terms):
    rho[7] = np.inf


def _nan(rho, terms):
    rho[3] = np.nan


def test_a_serial_walk_stops_at_a_non_finite_density(monkeypatch):
    field, grid = _fci()
    evaluated = _at_chunk(monkeypatch, field, grid, {1: _inf})
    with pytest.raises(ValueError, match=(
            f"^non-finite field value at point index "
            f"{_kept(field, grid, 1, 7)}, ")):
        analyze_field(field, grid, jobs=1)
    assert evaluated == [0, 1]


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
    index = _kept(field, grid, 1, 9)
    assert serial == (ValueError, f"non-finite field value at point index "
                                  f"{index}, position {grid.points[index]}")
    _force(monkeypatch, cpus)
    assert _message(lambda: analyze_field(field, grid, jobs=cpus)) == serial


def _inf_term(rho, terms):
    terms[0, 9] = np.inf


def _negative_net(field):
    atom1 = field.pair_keys.index((1, 1))

    def change(rho, terms):
        terms[atom1, 5] = -1.0
    return change


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_the_first_failing_chunk_is_raised_whatever_the_check(cpus,
                                                              monkeypatch):
    # a negative net density in chunk 1 comes before a non-finite pair
    # integrand in chunk 3 in a serial walk, whichever check comes first
    # within a chunk
    field, grid = _fci()
    _at_chunk(monkeypatch, field, grid, {1: _negative_net(field),
                                         3: _inf_term})
    _force(monkeypatch, cpus)
    assert _message(lambda: analyze_field(field, grid, alphas=(0.5, 2.0),
                                          jobs=cpus)) == (
        ValueError, "the net density of atom 1 reaches values below -1e-12; "
                    "a fractional order alpha=0.5 is undefined there")


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.filterwarnings("ignore:invalid value encountered")
def test_each_worker_stops_at_its_first_failing_chunk(cpus, monkeypatch):
    # chunk 1 has a non-finite pair integrand; the worker that has it, the
    # only one for W = 1, evaluates none of its later chunks
    field, grid = _fci()
    seen = mmap.mmap(-1, 5)  # anonymous and shared with forked workers

    def mark(c, change=None):
        def apply(rho, terms):
            seen[c] = 1
            if change is not None:
                change(rho, terms)
        return apply

    evaluated = _at_chunk(monkeypatch, field, grid,
                          {c: mark(c, _inf_term if c == 1 else None)
                           for c in range(5)})
    _force(monkeypatch, cpus)
    assert parallel.workers(cpus, cap=99) == cpus
    with pytest.raises(ValueError, match=(
            f"^non-finite field value at point index "
            f"{_kept(field, grid, 1, 9)}, ")):
        analyze_field(field, grid, jobs=cpus)
    assert [c for c in range(5) if seen[c]] == [
        c for c in range(5) if c <= 1 or c % cpus != 1 % cpus]
    if cpus == 1:
        assert evaluated == [0, 1]


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
    grid = build_molecular_grid(mol, WALK_SPEC)
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


def test_pair_block_returns_its_counts_and_leaves_the_field():
    field, grid = _clamped_h2()
    counts = ClampDiagnostics()
    walk = grid.walk([0])  # the kept points themselves
    for i in range(len(walk)):
        counts += field.pair_block(walk.chunk(i).points)[2]
    assert field.diagnostics == ClampDiagnostics()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        walked = analyze_field(field, grid, jobs=1).shannon.diagnostics
    assert counts.negated > 0 and counts == walked == field.diagnostics


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("chunk, change, error", [
    (1, _memory_error, MemoryError), (1, _inf, ValueError),
    (2, _nan, ValueError)])
def test_a_walk_that_raises_records_no_clamp_counts(cpus, chunk, change,
                                                    error, monkeypatch):
    # chunk 1 is a child's for W = 2 and 3; chunk 2 is this process's for
    # W = 2 and a child's for W = 3; chunk 0 has negated points
    field, grid = _clamped_h2()
    first = _walk(field, grid).chunk(0)
    assert field.pair_block(first.points, None, first.counts)[2].negated > 0
    field.diagnostics.clamped, field.diagnostics.negated = 3, 4
    _at_chunk(monkeypatch, field, grid, {chunk: change})
    _force(monkeypatch, cpus)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(error):
            analyze_field(field, grid, jobs=cpus)
    assert field.diagnostics == ClampDiagnostics(clamped=3, negated=4)
    assert not [w for w in caught if "density below" in str(w.message)]


def _fail_in_children(monkeypatch, error):
    caller = os.getpid()
    evaluate = PairDensityField.pair_block

    def pair_block(self, points, work=None, counts=None):
        if os.getpid() != caller:
            raise error
        return evaluate(self, points, work, counts)

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
                     "--n-radial", "250", "--jobs", "2"])
    out, err = capsys.readouterr()
    assert (code, out, err) == (1, "", "error: Unable to allocate 7.2 GiB\n")


def test_a_sweep_raises_the_first_failing_row(monkeypatch, capsys):
    _cpus(monkeypatch, 2)
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
