"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10
    python3 perfbench/spread.py --workloads chain_h8 --seeds 1-5
    python3 perfbench/spread.py --seeds 11-20 --against .perfbench/spread-A.json

For every workload and seed it runs ``run.py`` once (workloads interleaved
per seed, so slow drift of the machine hits all of them alike) and reports,
per metric, the median over seeds and the interquartile spread as a share
of the median, with quartiles from ``statistics.quantiles(values, n=4)``.
A spread at or above the metric's bound in BENCHMARK.json is flagged (exit
code 1); a spread above a third of it is noted. With ``--against`` it also flags every
median worse than that summary's median by more than the bound. The summary
is written as JSON (``--out``, default under ``.perfbench/``).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds):
    """One run, invoked as BENCHMARK.json's command is."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def worse_by(metric, new, old):
    """Share by which ``new`` is worse than ``old`` (negative: better)."""
    change = (new - old) / old
    return change if metric["better"] == "lower" else -change


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", help="comma-separated (default: all)")
    ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    ap.add_argument("--against", help="an earlier summary to compare medians with")
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in spec["workloads"]])
    values = {w: {m["name"]: [] for m in metrics} for w in names}
    for seed in args.seeds:
        for w in names:
            t0 = time.monotonic()
            result = run_once(w, seed, spec["run_seconds"])
            if not result["correct"]:
                print(f"warning: {w} seed {seed} reported correct=false")
            for name, m in result["metrics"].items():
                values[w][name].append(m["value"])
            print(f"ran {w} seed {seed} in {time.monotonic() - t0:.1f}s",
                  file=sys.stderr)

    earlier = None
    if args.against:
        with open(args.against) as fh:
            earlier = json.load(fh)["summary"]
    summary, flags, notes = {}, [], []
    for w in names:
        summary[w] = {}
        print(f"\n{w} ({len(args.seeds)} seeds)")
        for m in metrics:
            vals = values[w][m["name"]]
            med = statistics.median(vals)
            row = {"median": med, "values": vals}
            line = f"  {m['name']:40s} median {med:.6g} {m['unit']}"
            if len(vals) >= 2 and med != 0:
                q1, _, q3 = statistics.quantiles(vals, n=4)
                row["spread"] = (q3 - q1) / abs(med)
                line += f"  spread {row['spread']:.4f} (bound {m['bound']})"
                if row["spread"] >= m["bound"]:
                    flags.append(f"{w} {m['name']}: spread over its bound")
                elif row["spread"] >= m["bound"] / 3 and m["name"] != "setup_s":
                    notes.append(f"{w} {m['name']}: spread over a third of its bound")
            if earlier:
                old = earlier[w][m["name"]]["median"]
                row["worse_by"] = worse_by(m, med, old)
                line += f"  vs earlier {row['worse_by']:+.4f}"
                if row["worse_by"] > m["bound"]:
                    flags.append(f"{w} {m['name']}: median worse than earlier by "
                                 f"more than its bound")
            summary[w][m["name"]] = row
            print(line)
    for f in flags:
        print(f"FLAG {f}")
    for n in notes:
        print(f"NOTE {n}")
    out = args.out or os.path.join(
        ROOT, ".perfbench", f"spread-{time.strftime('%Y%m%d-%H%M%S')}.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as fh:
        json.dump({"seeds": args.seeds, "summary": summary, "flags": flags, "notes": notes},
                  fh, indent=1)
    print(f"summary written to {out}")
    return 1 if flags else 0


if __name__ == "__main__":
    sys.exit(main())
