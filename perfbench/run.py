"""entropart benchmark: one workload, one seed, closed loop, one client.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout that has ``src/entropart``. Inputs are
made from ``--seed`` in this process; every timing comes from fresh
interpreters started by ``worker.py``, which import the package from the
checkout's ``src``. With ``--trace 0`` three fresh processes run: one times
import plus the cold first operation and then operations back to back for
``--seconds`` (default: ``run_seconds`` of BENCHMARK.json), two more time
only import plus the cold operation (set-up is their median). With
``--trace 1`` one process cycles through untraced, traced, and
traced-with-tracemalloc operations. The last line of standard output is
one JSON object with the metrics BENCHMARK.json names; the lines before it print every
metric with its unit. A fuller record, with input parameters, the result
fingerprint, exact counts and environment provenance, is written under
``.perfbench/results/``. The exit code is 0 only if every operation
passed the correctness gate.

``--smoke`` runs every workload once on a coarse grid, untraced and twice
traced, checks that every named metric is emitted and that the exact
counts of the two traced runs are identical, and exits 0 only if so.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
# every run must finish well inside three minutes
BUDGET_S = 170.0
SETUP_PROCESSES = 3
TAIL_PERCENTILE = 90.0


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def tail(values):
    """The TAIL_PERCENTILE-th percentile, interpolated between order
    statistics, and the number of samples above it."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * TAIL_PERCENTILE / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
    return value, sum(v > value for v in ordered)


def run_worker(workdir, inputs_path, mode, seconds, deadline, index=0):
    result_path = os.path.join(workdir, f"{mode}-{index}.json")
    env = dict(os.environ, PYTHONPATH=SRC)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget spent before all workers ran")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), inputs_path,
             result_path, mode, repr(seconds), SRC],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker exceeded the time budget") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr.strip()}")
    with open(result_path) as fh:
        return json.load(fh)


def check_ops(workers):
    """Attempted and failed operations, failing any that raised, returned
    a non-zero exit code, broke an identity, or whose output bytes or
    fingerprint differ from the first operation of the run. A failed
    operation's record gets a ``failure`` entry, so its time is left out
    of the metrics."""
    ops = [rec for w in workers for rec in [w["cold"]] + w["ops"]]
    reference = next((r for r in ops if "error" not in r), None)
    failures = []
    for i, rec in enumerate(ops):
        if "error" in rec:
            rec["failure"] = rec["error"]
        elif not rec["ok"]:
            rec["failure"] = "identities_ok() is False"
        elif (rec.get("bytes") != reference.get("bytes")
              or rec["fingerprint"] != reference["fingerprint"]):
            rec["failure"] = "result differs from the first operation"
        if "failure" in rec:
            failures.append(f"op {i}: {rec['failure']}")
    return len(ops), failures, reference


def overhead(ops, kind):
    """Median time of ``kind`` operations over the untraced median, minus 1."""
    def median_t(k):
        return statistics.median(r["t"] for r in ops if r["kind"] == k and "failure" not in r)
    return median_t(kind) / median_t("plain") - 1.0


def layer_values(spec, traces, ops):
    """Per-layer metrics: medians over traced operations (peak memory from
    those traced with tracemalloc, everything else from those without),
    exact counts checked to repeat over all of them, and the overhead."""
    from tracing import is_exact_count, layer_metric

    values, counts, problems = {}, {}, []
    for m in spec["per_layer"]:
        name = m["name"]
        if name == "trace.overhead":
            values[name] = overhead(ops, "spans")
            continue
        if is_exact_count(name):
            per_op = [layer_metric(name, t) for t in traces]
            counts[name] = per_op[0]
            if len(set(per_op)) != 1:
                problems.append(f"count {name} differs between operations: {per_op}")
        kind = "memory" if name.endswith(".peak_mib") else "spans"
        values[name] = statistics.median(
            layer_metric(name, t) for t in traces if t["kind"] == kind)
    shares = {}
    for t in traces:
        if t["kind"] != "spans":
            continue
        for layer, s in t["layer_self_s"].items():
            shares.setdefault(layer, []).append(100.0 * s / t["total_s"])
    return values, counts, problems, {k: statistics.median(v) for k, v in shares.items()}


def run_workload(spec, workload, seed, seconds, trace, smoke=False):
    """Run one workload; returns the full record of the run."""
    started = time.monotonic()
    deadline = started + BUDGET_S
    import workloads
    from worker import TRACE_CYCLE

    if workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(workloads.WORKLOADS)}")
    inputs = workloads.generate(workload, seed, smoke=smoke)
    os.makedirs(STATE, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=STATE)
    try:
        inputs_path = os.path.join(workdir, "inputs.json")
        with open(inputs_path, "w") as fh:
            json.dump(inputs, fh)
        if trace:
            workers = [run_worker(workdir, inputs_path, "trace", seconds, deadline)]
        else:
            workers = [run_worker(workdir, inputs_path, "loop", seconds, deadline)]
            workers += [run_worker(workdir, inputs_path, "setup", 0, deadline, i)
                        for i in range(1, SETUP_PROCESSES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failures, reference = check_ops(workers)
    loop = workers[0]
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "inputs": inputs["params"],
        "npts_per_op": inputs["npts"], "attempted": attempted,
        "failed": len(failures), "failures": failures[:20],
        "error_rate": len(failures) / attempted,
        "fingerprint": reference["fingerprint"] if reference else None,
        "provenance": loop["provenance"],
        "workers": [{k: w[k] for k in ("mode", "import_s", "setup_s",
                                       "loop_s", "maxrss_mib")}
                    for w in workers],
        "op_s": [r["t"] for r in loop["ops"]],
    }
    passed = [r for r in loop["ops"] if "failure" not in r]
    if trace:
        names = spec["per_layer"]
        traces = [t for t in loop["traces"] if "failure" not in loop["ops"][t["op"] - 1]]
        if {r["kind"] for r in passed} != set(TRACE_CYCLE):
            raise BenchError("no operation of some traced kind succeeded:\n"
                             + "\n".join(failures[:20]))
        values, counts, problems, shares = layer_values(spec, traces, loop["ops"])
        record.update(counts=counts, layer_self_share_pct=shares,
                      memory_trace_overhead=overhead(loop["ops"], "memory"),
                      count_problems=problems)
    else:
        names = spec["end_to_end"]
        warm = [r["t"] for r in passed]
        if not warm:
            raise BenchError("no warm operation succeeded:\n" + "\n".join(failures[:20]))
        tail_value, beyond = tail(warm)
        values = {
            "op_s.p50": statistics.median(warm),
            "op_s.tail": tail_value,
            "mpts_per_s": inputs["npts"] * len(warm) / loop["loop_s"] / 1e6,
            "peak_rss_mib": statistics.median(w["maxrss_mib"] for w in workers),
            "setup_s": statistics.median(w["setup_s"] for w in workers),
        }
        problems = []
        record.update(tail_percentile=TAIL_PERCENTILE, tail_samples_beyond=beyond,
                      tail_samples=len(warm))
    record["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in names}
    record["correct"] = not failures and not problems and reference is not None
    record["wall_s"] = time.monotonic() - started
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}{'-smoke' if smoke else ''}"
    with open(os.path.join(STATE, "results", stem + ".json"), "w") as fh:
        json.dump(record, fh, indent=1)
    return record


def print_record(record):
    head = (f"# {record['workload']} seed={record['seed']} "
            f"trace={record['trace']} points/op={record['npts_per_op']} "
            f"ops={len(record['op_s'])} wall={record['wall_s']:.1f}s")
    print(head)
    for name, m in record["metrics"].items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    if "tail_percentile" in record:
        print(f"{'(op_s.tail percentile)':40s} p{record['tail_percentile']:.1f} "
              f"of {record['tail_samples']} samples, "
              f"{record['tail_samples_beyond']} beyond")
    print(f"{'error_rate':40s} {record['error_rate']:.6g} "
          f"({record['failed']}/{record['attempted']})")
    for line in record["failures"] + record.get("count_problems", []):
        print(f"FAILED {line}")


def emits_all(record, metrics):
    """Every named metric is present, finite and in its unit."""
    got = record["metrics"]
    return all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
               and math.isfinite(got[m["name"]]["value"]) for m in metrics)


def smoke(spec, seed):
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run_workload(spec, workload, seed, 0, False, smoke=True)
        traced = [run_workload(spec, workload, seed, 0, True, smoke=True)
                  for _ in range(2)]
        checks = {
            "correct": all(r["correct"] for r in [plain] + traced),
            "end-to-end metrics": emits_all(plain, spec["end_to_end"]),
            "per-layer metrics": all(emits_all(r, spec["per_layer"]) for r in traced),
            "exact counts repeat": traced[0]["counts"] == traced[1]["counts"],
        }
        for what, passed in checks.items():
            print(f"smoke {workload:10s} {what:20s} {'ok' if passed else 'FAILED'}")
        ok = ok and all(checks.values())
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="every workload once on a coarse grid; checks metrics")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "entropart", "__init__.py")):
        print(f"error: no entropart package under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    sys.path.insert(0, SRC)
    try:
        if args.smoke:
            return smoke(spec, args.seed)
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        record = run_workload(spec, args.workload, args.seed, seconds,
                              bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print_record(record)
    print(json.dumps({"correct": record["correct"],
                      "attempted": record["attempted"],
                      "failed": record["failed"],
                      "metrics": record["metrics"]}))
    return 0 if record["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
