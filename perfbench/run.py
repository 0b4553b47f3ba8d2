"""Benchmark runner for the iwa package.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one table
    python3 perfbench/run.py --self-test                  # the checks on hand cases

Run from the root of a checkout: the package is imported from ./src, never
from an installed copy.  One run sets up its workload, runs one untimed
warm-up operation per cache-filling cell, then repeats the workload's round
(the same operations on the same inputs) until the timed operations add up
to --seconds and at least MIN_ROUNDS rounds ran.  An operation's latency
is the median over the rounds of its time scaled to nominal machine speed
(speed.py).  Every output is checked; the last
line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  With --trace 1 the metrics are the per-layer ones from
tracing.py instead of the end-to-end ones.  Exit code 0 when every check
passed and every failure was a known one, 1 otherwise, 2 when the package
cannot be imported from ./src.
"""

from time import perf_counter

T_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from collections import Counter  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
# set-ups per run, this process plus fresh interpreters: at least
# SETUP_SAMPLES, and more while they add up to less than SETUP_TOTAL_S, so
# that a set-up of a fraction of a second, where import and file-system
# time weigh most, rests on more samples
SETUP_SAMPLES = 3
SETUP_TOTAL_S = 2.0
SETUP_MAX_SAMPLES = 9
MIN_ROUNDS = 3  # each operation's time is the median of at least this many runs of it
sys.path.insert(0, HERE)

import checks  # noqa: E402
from speed import Speed  # noqa: E402
from workloads import N_INPUT, WORKLOADS  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "ops/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("digits_kept", "digits"),
]


def import_package():
    """Import iwa from ROOT/src, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import iwa
        from iwa import cli, cyclotomic, groupring, halflogs, padic, plusminus, qpn  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import iwa from {src}: {exc}\n")
        sys.exit(2)
    where = os.path.realpath(iwa.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        sys.stderr.write(f"perfbench: iwa resolves to {where}, not to {src}\n")
        sys.exit(2)
    return iwa


def set_up(name, seed):
    """Import, build inputs, warm up.

    Returns the workload and the set-up time since the first line of this
    script, less the reference samples taken between its steps, scaled to
    nominal speed by the median of those samples.
    """
    speed = Speed()
    speed.sample()
    iwa = import_package()
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    wl = WORKLOADS[name](iwa, seed, workdir)
    wl.setup()
    speed.sample()
    for op in wl.warmup:
        try:
            op.run()
        except Exception:  # noqa: BLE001 - known-failure cells fail here too
            pass
        speed.sample()
    while len(speed.ms) < 5:
        speed.sample()
    raw = perf_counter() - T_START - sum(speed.ms) / 1000
    return wl, raw * speed.overall()


def fresh_setup_seconds(name, seed):
    """Set-up time of a fresh interpreter running this script with --setup-only."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


class Tally:
    """Outcome of repeated rounds of the same operations."""

    def __init__(self, ops):
        # an operation listed twice in a round is one operation timed twice
        self.index = {}
        for op in ops:
            self.index.setdefault(id(op), len(self.index))
        self.size = len(self.index)
        self.attempted = 0
        self.failed = 0
        self.op_seconds = 0.0
        self.execs = []  # (operation index, start, end, succeeded)
        self.digits = []
        self.known = Counter()
        self.unexpected = Counter()
        self.check_errors = []

    @property
    def correct(self):
        return not self.unexpected and not self.check_errors

    def per_operation(self, speed):
        """Median nominal time of each operation: (any outcome, successes only)."""
        every = [[] for _ in range(self.size)]
        ok = [[] for _ in range(self.size)]
        for pos, start, end, succeeded in self.execs:
            t = (end - start) * speed.scale(start, end)
            every[pos].append(t)
            if succeeded:
                ok[pos].append(t)
        return ([statistics.median(v) for v in every],
                [statistics.median(v) for v in ok if v])


def run_round(ops, tally, speed, tracer=None):
    """Run and check one round; returns the summed operation time."""
    spent = 0.0
    speed.sample()
    for op in ops:
        pos = tally.index[id(op)]
        # untimed: each operation starts with no garbage pending, so the
        # collections it pays for are the same in every round
        gc.collect()
        if tracer is not None:
            tracer.op = tally.attempted
            tracer.on = True
        start = perf_counter()
        try:
            out = op.run()
            err = None
        except Exception as exc:  # noqa: BLE001 - classified below
            err = exc
        end = perf_counter()
        if tracer is not None:
            tracer.on = False
        spent += end - start
        tally.attempted += 1
        tally.execs.append((pos, start, end, err is None))
        if err is not None:
            tally.failed += 1
            cls = str(err) if type(err).__name__ == "OpFailed" else type(err).__name__
            if op.known and cls in op.known:
                tally.known[(op.cell, cls)] += 1
            else:
                tally.unexpected[(op.cell, cls)] += 1
        else:
            try:
                digits = op.check(out)
            except checks.CheckFailed as exc:
                tally.check_errors.append(f"{op.cell}: {exc}")
                digits = None
            if digits is not None and not op.known:
                tally.digits.append(digits)
        speed.maybe_sample()
    speed.sample()
    tally.op_seconds += spent
    return spent


def end_to_end(wl, tally, speed, setup_samples):
    """End-to-end metrics from each operation's median nominal time over the rounds."""
    every, ok = tally.per_operation(speed)
    lat_ms = sorted(t * 1000 for t in ok)
    if len(lat_ms) >= 2:
        p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    else:
        p90 = lat_ms[0] if lat_ms else 0.0
    if wl.exact:
        digits = float(N_INPUT)  # exact rationals keep every digit asked for
    else:
        digits = statistics.fmean(tally.digits) if tally.digits else 0.0
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": len(lat_ms) / sum(every),
        "op_p50_ms": statistics.median(lat_ms) if lat_ms else 0.0,
        "op_p90_ms": p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digits_kept": digits,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def report(name, seed, tally, metrics, extra_lines=()):
    print(f"workload {name} seed {seed}: attempted {tally.attempted}, "
          f"failed {tally.failed}, {tally.size} operations per round")
    for (cell, cls), count in sorted(tally.known.items()):
        print(f"  known failure  {cell}: {cls} x{count}")
    for (cell, cls), count in sorted(tally.unexpected.items()):
        print(f"  UNEXPECTED failure  {cell}: {cls} x{count}")
    for msg in tally.check_errors[:20]:
        print(f"  CHECK FAILED  {msg}")
    for line in extra_lines:
        print(f"  {line}")
    for metric, m in metrics.items():
        print(f"  {metric:36s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))


def run_workload(name, seed, seconds, trace):
    wl, setup_s = set_up(name, seed)
    tally = Tally(wl.ops)
    speed = Speed()
    extra = []
    if not trace:
        rounds = 0
        while tally.op_seconds < seconds or rounds < MIN_ROUNDS:
            run_round(wl.ops, tally, speed)
            rounds += 1
        samples = [setup_s]
        while len(samples) < SETUP_SAMPLES or (
                sum(samples) < SETUP_TOTAL_S and len(samples) < SETUP_MAX_SAMPLES):
            samples.append(fresh_setup_seconds(name, seed))
        metrics = end_to_end(wl, tally, speed, samples)
        extra.append(f"{rounds} rounds, {tally.op_seconds:.2f} s of operations; reference "
                     f"{min(speed.ms):.3f}..{max(speed.ms):.3f} ms over {len(speed.ms)} samples")
        extra.append("set-up samples " + ", ".join(f"{s:.4f}" for s in samples) + " s (nominal)")
    else:
        import tracing

        # one untraced round, then traced rounds: the ratio of the first
        # traced round to the untraced one is the tracing overhead
        plain = Tally(wl.ops)
        run_round(wl.ops, plain, speed)
        tracer = tracing.install(tracing.Tracer())
        run_round(wl.ops, tally, speed, tracer)
        first = sum(tally.per_operation(speed)[0])
        while tally.op_seconds < seconds:
            run_round(wl.ops, tally, speed, tracer)
        metrics = tracing.per_layer(tracer, tally.attempted, speed.overall())
        untraced = sum(plain.per_operation(speed)[0])
        metrics["trace.overhead_ratio"] = {"value": first / untraced - 1.0, "unit": "ratio"}
        os.makedirs(WORK, exist_ok=True)
        stem = os.path.join(WORK, f"trace-{name}-seed{seed}")
        tracer.dump_spans(stem + ".spans.json")
        with open(stem + ".layers.json", "w", encoding="utf-8") as fh:
            json.dump({
                "workload": name, "seed": seed, "ops": tally.attempted,
                "metrics": metrics,
                "inclusive_s": dict(sorted(tracer.total.items())),
                "self_s": dict(sorted(tracer.self_time.items())),
                "calls": dict(sorted(tracer.calls.items())),
                "counts": dict(sorted(tracer.counts.items())),
            }, fh, indent=1)
        extra.append(f"spans and layer totals written to {stem}.*.json")
    bad = checks.self_test()
    tally.check_errors.extend(f"self-test: {msg}" for msg in bad)
    shutil.rmtree(wl.workdir, ignore_errors=True)
    report(name, seed, tally, metrics, extra)
    return 0 if tally.correct else 1


def run_all(seed, seconds):
    """Every workload in its own fresh interpreter; one table at the end."""
    results, code = {}, 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            code = 1
        results[name] = json.loads(lines[-1]) if lines else None
    print("\nworkload     attempted failed  " + "  ".join(f"{m} [{u}]" for m, u in END_TO_END))
    for name, res in results.items():
        if res is None:
            print(f"{name:12s} no result")
            continue
        vals = "  ".join(f"{res['metrics'][m]['value']:.6g}" for m, _ in END_TO_END)
        flag = "" if res["correct"] else "  INCORRECT"
        print(f"{name:12s} {res['attempted']:9d} {res['failed']:6d}  {vals}{flag}")
    print(json.dumps(results))
    return code


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    if args.self_test:
        bad = checks.self_test()
        for msg in bad:
            print(f"self-test FAILED: {msg}")
        print("self-test passed" if not bad else f"self-test: {len(bad)} failures")
        return 1 if bad else 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_only:
        wl, setup_s = set_up(args.workload, args.seed)
        shutil.rmtree(wl.workdir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
