"""Fork-join over the usable CPUs, with one BLAS thread per worker.

``map(task, n)`` is ``[task(0), ..., task(n - 1)]``, run on W workers:
task i in worker i mod W, worker 0 being the calling process and the
others forked children, each of which sends its results back pickled
through a pipe. It returns and raises what a serial loop would, so a
caller reads as one. Every integral of an analysis is the exactly
rounded sum (``math.fsum``) of fixed-chunk partials, so the chunks may be
evaluated by any process and the integral is the same bits. Threads would
not help, because the Python work of each chunk holds the interpreter
lock.

While ``map`` works, the loaded OpenBLAS is pinned to one thread through
its own ``*_set_num_threads`` symbol, found with ctypes, and the caller's
count is restored afterwards; the children inherit the pin. BLAS threads
on top of W processes only oversubscribe the CPUs, and a threaded matrix
product may round differently from a serial one, so results would depend
on the thread count. Where ``os.fork`` or that symbol is missing,
``workers`` gives 1 and ``map`` runs every task in this process, with
BLAS threads as they are, and forks nothing.
"""
import contextlib
import functools
import os
import pickle
import signal
import warnings


def usable_cpus() -> int:
    """The CPUs this process may run on, or the machine's count where the
    platform has no affinity call (1 if that is unknown too)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


@functools.cache
def _blas():
    """(get, set) of the thread count of the OpenBLAS this process has
    loaded, or None.

    The library is found among the mapped files of the process, and its
    thread calls under the names that OpenBLAS builds export (plain, or
    with the 64-bit-integer suffixes; NumPy's wheels prefix them with
    ``scipy_``)."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[-1].strip() for line in fh
                     if "openblas" in line.lower()}
    except OSError:
        return None
    import ctypes

    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", "_64_", ""):
                try:
                    get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
                    set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}")
                except AttributeError:
                    continue
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def workers(jobs=None, cap=None) -> int:
    """W = min(jobs, usable CPUs, cap), at least 1; jobs None asks for
    every usable CPU. 1 where this process cannot fork or pin BLAS."""
    if not hasattr(os, "fork") or _blas() is None:
        return 1
    n = usable_cpus() if jobs is None else min(jobs, usable_cpus())
    return max(1, n if cap is None else min(n, cap))


@contextlib.contextmanager
def _one_blas_thread(blas):
    """Pin BLAS to one thread, and restore the count after. A count that
    is already 1 is not set again: a set call may start the library's
    thread pool again, as it does after a fork stopped it."""
    get, set_ = blas
    saved = get()
    if saved == 1:
        yield
        return
    set_(1)
    try:
        yield
    finally:
        set_(saved)


def map(task, n, jobs=None, cap=None) -> list:
    """[task(0), ..., task(n - 1)], in task order, on W workers for
    W = ``workers(jobs, min(cap, n))``.

    Task i runs in worker i mod W, every worker with one BLAS thread:
    worker 0 is this process and the others are forked children. A task
    returns all it has to tell: what it changes in a child, an object's
    state say, is lost when the child ends, and a child's output is
    never flushed, so it should not write files or print. Warnings a
    child issues are issued again here. Each worker stops at
    its first task that raises; once every child has ended, the
    exception of the lowest raising task is raised here, every task
    before it having run, as in a serial loop. A child's exception keeps
    its type and text.
    """
    n_workers = workers(jobs, n if cap is None else min(cap, n))
    blas = _blas()
    if blas is None:
        return [task(i) for i in range(n)]
    with _one_blas_thread(blas):
        if n_workers == 1:
            return [task(i) for i in range(n)]
        children = []  # (pid, read end of its pipe)
        try:
            for w in range(1, n_workers):
                read, write = os.pipe()
                try:
                    pid = os.fork()
                except OSError as e:
                    os.close(read)
                    os.close(write)
                    raise RuntimeError(f"cannot start a worker process ({e}); "
                                       "one worker (--jobs 1) forks none") from e
                if pid == 0:
                    os.close(read)
                    _child(task, w, n_workers, n, write)  # does not return
                os.close(write)
                children.append((pid, read))
            outcomes = [(*_share(task, 0, n_workers, n, Exception), [])]
            while children:
                outcomes.append(_collect(*children.pop(0)))
        finally:
            for pid, read in children:  # interrupted: end the rest
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    for _, _, caught in outcomes:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
    failed = [w + n_workers * len(done) for w, (done, error, _)
              in enumerate(outcomes) if error is not None]
    if failed:
        raise outcomes[min(failed) % n_workers][1]
    return [outcomes[i % n_workers][0][i // n_workers] for i in range(n)]


def _share(task, w, n_workers, n, catch):
    """Worker w's tasks w, w + W, ... in order: (their results, and the
    exception of the first that raised, or None)."""
    done = []
    for i in range(w, n, n_workers):
        try:
            done.append(task(i))
        except catch as e:
            return done, e
    return done, None


def _child(task, w, n_workers, n, write):
    """Run worker w's tasks in a forked child, write its outcome to the
    pipe and exit: (results, exception or None, the warnings it issued)."""
    code = 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            done, error = _share(task, w, n_workers, n, BaseException)
        caught = [(c.message, c.category, c.filename, c.lineno) for c in caught]
        try:
            payload = pickle.dumps((done, error, caught))
            if error is not None:
                pickle.loads(payload)  # the exception must rebuild over there
        except Exception:
            if error is not None:
                error = RuntimeError(f"{type(error).__name__}: {error}")
            else:
                done, error = [], RuntimeError(
                    f"worker {w} could not send its result")
            payload = pickle.dumps((done, error, caught))
        with os.fdopen(write, "wb") as fh:
            fh.write(payload)
    except BaseException:
        code = 1
    finally:
        os._exit(code)


def _collect(pid, read):
    """The outcome a child wrote, unpickled as it is read, so that its
    bytes are not held whole; the child is reaped here, and ended first if
    the reading fails."""
    try:
        with os.fdopen(read, "rb") as fh:
            outcome = pickle.load(fh)
    except EOFError:  # it wrote nothing
        outcome = None
    except BaseException:
        os.kill(pid, signal.SIGKILL)
        raise
    finally:
        _, status = os.waitpid(pid, 0)
    if outcome is None:  # a failure at the child's first task
        return [], RuntimeError(
            f"a worker process ended without a result ({_describe(status)})"), []
    return outcome


def _describe(status):
    if os.WIFSIGNALED(status):
        return f"signal {os.WTERMSIG(status)}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
