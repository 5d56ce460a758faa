"""Fork-join over the usable CPUs, with one BLAS thread per worker.

Every integral of an analysis is the exactly rounded sum (``math.fsum``)
of fixed-chunk partials, so the chunks may be walked in any order and by
any process and the integral is the same bits. ``run`` splits such work
into W shares: the calling process does share 0, W - 1 forked children
do the others, and each child sends its result back pickled through a
pipe. Threads would not help, because the Python work of each chunk
holds the interpreter lock.

While ``run`` works, the loaded OpenBLAS is pinned to one thread through
its own ``*_set_num_threads`` symbol, found with ctypes, and the caller's
count is restored afterwards; the children inherit the pin. BLAS threads
on top of W processes only oversubscribe the CPUs, and a threaded matrix
product may round differently from a serial one, so results would depend
on the thread count. Where ``os.fork`` or that symbol is missing,
``workers`` gives 1 and ``run`` does every share in this process, with
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


def run(share, jobs=None, cap=None) -> list:
    """[share(0, W), ..., share(W - 1, W)] for W = ``workers(jobs, cap)``.

    share(w, W) is called in this process for w = 0 and in a forked child
    for each other w, every one of them with one BLAS thread. A share
    should not write files or print: a child's output is never flushed.
    Warnings a child issues are issued again here. If shares raise, the
    exception of the lowest share is raised here once every child has
    ended; a child's exception keeps its type and text.
    """
    n = workers(jobs, cap)
    blas = _blas()
    if blas is None:
        return [share(0, 1)]
    with _one_blas_thread(blas):
        if n == 1:
            return [share(0, 1)]
        children = []  # (pid, read end of its pipe)
        try:
            for w in range(1, n):
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
                    _child(share, w, n, write)  # does not return
                os.close(write)
                children.append((pid, read))
            try:
                outcomes = [(True, share(0, n), [])]
            except Exception as e:
                outcomes = [(False, e, [])]
            while children:
                outcomes.append(_collect(*children.pop(0)))
        finally:
            for pid, read in children:  # interrupted: end the rest
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    results = []
    for ok, value, caught in outcomes:
        for message, category, filename, lineno in caught:
            warnings.warn_explicit(message, category, filename, lineno)
        if not ok:
            raise value
        results.append(value)
    return results


def _child(share, w, n, write):
    """Run one share in a forked child, write its outcome to the pipe
    and exit: (ok, result or exception, the warnings it issued)."""
    code = 0
    try:
        with warnings.catch_warnings(record=True) as caught:
            try:
                ok, value = True, share(w, n)
            except BaseException as e:
                ok, value = False, e
        caught = [(c.message, c.category, c.filename, c.lineno) for c in caught]
        try:
            payload = pickle.dumps((ok, value, caught))
            if not ok:
                pickle.loads(payload)  # the exception must rebuild over there
        except Exception:
            text = (f"{type(value).__name__}: {value}" if not ok
                    else f"worker {w} could not send its result")
            payload = pickle.dumps((False, RuntimeError(text), caught))
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
    if outcome is None:
        return False, RuntimeError(
            f"a worker process ended without a result ({_describe(status)})"), []
    return outcome


def _describe(status):
    if os.WIFSIGNALED(status):
        return f"signal {os.WTERMSIG(status)}"
    return f"exit status {os.waitstatus_to_exitcode(status)}"
