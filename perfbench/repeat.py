"""Repeat the benchmark and summarize each metric's median and quartiles.

    python3 perfbench/repeat.py --runs 10 --seed0 1
    python3 perfbench/repeat.py --runs 5 --workloads roundtrip --seconds 10

Runs run.py once per (seed, workload), seeds seed0 .. seed0 + runs - 1,
workloads interleaved so that slow spells of the machine spread over all
of them.  For every end-to-end metric it prints the median, the quartiles
(statistics.quantiles, n = 4) and the spread (q3 - q1) / median, next to
the metric's bound in BENCHMARK.json.  It exits 1 when a run fails or is
incorrect, when a spread other than setup_s exceeds its bound, or when the
share of failed operations differs between runs of one workload.  With
--trace 1 it repeats the traced runs instead and summarizes the per-layer
metrics, which have no bounds.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        return None
    return json.loads(lines[-1])


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main(argv=None):
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    results = {w: [] for w in workloads}
    ok = True
    for i in range(args.runs):
        for w in workloads:
            res = one_run(w, args.seed0 + i, args.seconds, args.trace)
            if res is None or not res["correct"]:
                print(f"{w} seed {args.seed0 + i}: run failed or incorrect")
                ok = False
                continue
            results[w].append(res)
            print(f"{w} seed {args.seed0 + i}: attempted {res['attempted']} failed {res['failed']}",
                  flush=True)
    summary = {}
    for w in workloads:
        runs = results[w]
        if len(runs) < 2:
            continue
        shares = {Fraction(r["failed"], r["attempted"]) for r in runs}
        if len(shares) != 1:
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
            ok = False
        print(f"\n{w}: {len(runs)} runs, failed share {', '.join(str(s) for s in sorted(shares))}")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
        summary[w] = {}
        for m in metrics:
            name = m["name"]
            values = [r["metrics"][name]["value"] for r in runs]
            med, q1, q3, spread = summarize(values)
            bound = m.get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                if spread > bound:
                    flag = "  OVER BOUND"
                    ok = False
                elif spread > bound / 3:
                    flag = "  over a third of the bound"
            print(f"  {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f} "
                  f"{'' if bound is None else bound:>6}{flag}")
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread}
    print(json.dumps(summary))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
