"""Compare the result fingerprints of two benchmark records.

    python3 perfbench/compare.py OLD.json NEW.json

Each file is a record ``run.py`` wrote under ``.perfbench/results/`` for
the same workload and seed, typically on two commits. The fingerprint holds
the key scalars of the first operation: energies, Shannon density and
shape totals, Renyi totals and the p4 sum. Exit code 0 when both records
have the same inputs and keys and every value agrees within the relative
tolerance, 1 otherwise.
"""
import argparse
import json
import sys

# the relative tolerance two commits' results are held to
RTOL = 1e-12


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    args = ap.parse_args(argv)
    with open(args.old) as fh:
        old = json.load(fh)
    with open(args.new) as fh:
        new = json.load(fh)
    if (old["workload"], old["inputs"]) != (new["workload"], new["inputs"]):
        print("error: the records were made from different inputs", file=sys.stderr)
        return 1
    a, b = old["fingerprint"], new["fingerprint"]
    bad = sorted(set(a) ^ set(b))
    for key in bad:
        print(f"{key}: present in only one record")
    worst = 0.0
    for key in sorted(set(a) & set(b)):
        scale = max(abs(a[key]), abs(b[key]))
        rel = abs(a[key] - b[key]) / scale if scale else 0.0
        worst = max(worst, rel)
        if rel > RTOL:
            bad.append(key)
            print(f"{key}: {a[key]!r} -> {b[key]!r} (relative {rel:.3g})")
    print(f"{len(a)} scalars compared, worst relative difference {worst:.3g}, "
          f"{len(bad)} outside {RTOL:g}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
