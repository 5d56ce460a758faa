"""One fresh interpreter running one workload.

    python3 worker.py INPUTS RESULT MODE SECONDS SRC

MODE is ``setup`` (import plus the first, cold operation), ``loop`` (then
operations back to back for SECONDS) or ``trace`` (the loop, cycling
through untraced, traced, and traced-with-peak-memory operations). The result is written as JSON to RESULT.
``run.py`` starts this; it is not meant to be run by hand.
"""
import json
import os
import resource
import sys
import time

import workloads

# untraced, traced with spans and counts, traced with peak memory as well
TRACE_CYCLE = ("plain", "spans", "memory")


def provenance():
    """What a timing depends on besides the code: machine, versions,
    kernel backend and threading environment."""
    import platform

    import numpy
    from entropart import active_backend_name

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env_keys = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS", "ENTROPART_BACKEND")
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "backend": active_backend_name(),
        "env": {k: os.environ.get(k) for k in env_keys},
    }


def main(argv):
    inputs_path, result_path, mode, seconds, src = argv
    seconds = float(seconds)
    with open(inputs_path) as fh:
        inputs = json.load(fh)

    start = time.perf_counter()
    import entropart
    import entropart.cli  # noqa: F401  (what the console script imports)
    import_s = time.perf_counter() - start
    if not os.path.realpath(entropart.__file__).startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"entropart imported from {entropart.__file__}, not {src}")

    op = workloads.Operation(inputs, os.path.dirname(result_path))
    tracer = None
    if mode == "trace":
        from tracing import Tracer
        tracer = Tracer()

    def run_one(index, kind):
        traced = kind != "plain"
        if traced:
            tracer.memory = kind == "memory"
            tracer.install()
            tracer.begin_op(index)
        t0 = time.perf_counter()
        try:
            result, error = op.run(), None
        except (Exception, SystemExit) as e:  # a failed operation is counted, not fatal
            result, error = None, f"{type(e).__name__}: {e}"
        end = time.perf_counter()
        if traced:
            tracer.end_op()
            tracer.uninstall()
        rec = {"t": end - t0, "end": end, "kind": kind}
        if error is None:
            try:
                rec.update(op.record(result))
            except Exception as e:
                error = f"checking the result: {type(e).__name__}: {e}"
        if error is not None:
            rec["error"] = error
        return rec

    cold = run_one(0, "plain")
    setup_s = cold["end"] - start
    # a traced run cycles through these kinds and stops only after a whole cycle
    kinds = TRACE_CYCLE if mode == "trace" else ("plain",)
    ops = []
    loop_start = time.perf_counter()
    if mode != "setup":
        while True:
            ops.append(run_one(len(ops) + 1, kinds[len(ops) % len(kinds)]))
            if (time.perf_counter() - loop_start >= seconds
                    and len(ops) % len(kinds) == 0):
                break
    loop_s = time.perf_counter() - loop_start

    result = {
        "mode": mode,
        "import_s": import_s,
        "setup_s": setup_s,
        "cold": cold,
        "ops": ops,
        "loop_s": loop_s,
        "maxrss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "provenance": provenance(),
        "traces": [dict(tracer.summary(i + 1), kind=rec["kind"], op=i + 1)
                   for i, rec in enumerate(ops) if rec["kind"] != "plain"],
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
