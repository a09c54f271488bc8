"""Benchmark of the diamondwave library: three closed-loop workloads.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload fast_recovery --seed 0 \
        --seconds 20 --trace 0

Workloads (see workloads.py):
    fast_recovery  fast-route recovery of V at points drawn from the seed
    full_route     the PDE-route interaction integral (fixed inputs)
    curved_beam    a Gaussian beam on a curved split metric (fixed inputs)

One process, one client: operations run back to back until --seconds have
passed (at least one).  Set-up (import plus input construction) is timed
in three fresh interpreters and reported as their median.  BLAS and OpenMP
are pinned to one thread so runs on shared cores stay comparable.

With --trace 0 the last line of output is the JSON result with the
end-to-end metrics (setup_s, op_s, peak_rss_mb); with --trace 1 the
library's layers are wrapped (tracing.py) and the per-layer metrics are
reported instead, as per-operation means.  Earlier lines carry the run
header, per-operation timings, output checks and the output fingerprint
compared against baseline.json.

Other modes:
    --selftest        per workload, check that traced outputs equal untraced
                      ones bit for bit, that exact counts repeat, and that
                      every wrapped original is restored
    --write-baseline  merge this run's fingerprints (and exact counts, when
                      traced) into baseline.json
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "baseline.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
NAMES = ("fast_recovery", "full_route", "curved_beam")


def pin_threads():
    for var in THREAD_VARS:
        os.environ[var] = "1"


def git_commit():
    """Commit of the checkout from .git, or "unavailable" outside a repo."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable"


def steal_seconds():
    """CPU time the host took from this machine's CPUs (from /proc/stat),
    a diagnostic for noisy timings on shared virtual machines."""
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def header(args):
    import numpy
    import scipy
    import sympy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": sys.version.split()[0], "numpy": numpy.__version__,
        "scipy": scipy.__version__, "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": git_commit(),
    }


def time_setups(args):
    """Wall seconds of SETUP_REPEATS fresh interpreters building inputs."""
    cmd = [sys.executable, str(Path(__file__)), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # a blocking wait: waiting with a timeout polls in 50 ms steps
        child = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.DEVNULL)
        rc = child.wait()
        times.append(time.perf_counter() - t0)
        if rc:
            raise RuntimeError(f"set-up run failed with exit code {rc}")
    return times


def load_baseline():
    try:
        return json.loads(BASELINE.read_text())
    except FileNotFoundError:
        return {}


def compare_fingerprints(recorded, fps):
    """Ops bit-identical to the baseline, and the largest relative change."""
    compared = identical = 0
    worst = 0.0
    for key, fp in fps.items():
        if key not in recorded:
            continue
        compared += 1
        old = recorded[key]["fingerprint"]
        identical += old == fp
        for name, val in fp.items():
            a, b = float(old[name]), float(val)
            worst = max(worst, abs(a - b) / max(abs(a), 1e-300))
    return {"compared": compared, "identical": identical,
            "unrecorded": len(fps) - compared, "max_rel_dev": worst}


def run_loop(wl, seconds, tracer):
    """Closed loop over wl.items; returns per-op records."""
    records = []
    start = time.perf_counter()
    i = 0
    while i == 0 or time.perf_counter() - start < seconds:
        item = wl.items[i % len(wl.items)]
        rec = {"key": wl.key(item), "item": item}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = wl.run(item)
            else:
                result, root = tracer.op(wl.run, item)
            rec["op_s"] = time.perf_counter() - t0
            rec["cpu_s"] = time.process_time() - c0
            rec["fingerprint"] = wl.fingerprint(result)
            rec["result"] = result
            if tracer is not None:
                rec["trace"] = tracer.summary(root)
        except Exception:       # one failed operation must not end the run
            rec["op_s"] = time.perf_counter() - t0
            rec["cpu_s"] = time.process_time() - c0
            rec["error"] = traceback.format_exc(limit=3)
            print(rec["error"], file=sys.stderr)
        print(f"op {i} {rec['key']} {rec['op_s']:.4f} s "
              f"cpu {rec['cpu_s']:.4f} s "
              + ("FAILED" if "error" in rec else "ok"), flush=True)
        records.append(rec)
        i += 1
    return records


def run(args):
    import tracing
    from workloads import WORKLOADS

    head = header(args)
    setups = None if args.trace else time_setups(args)   # untraced metric
    print("header " + json.dumps(head), flush=True)
    wl = WORKLOADS[args.workload](args.seed)
    warm = wl.warm_up()

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, wl.metric)
    steal0 = steal_seconds()
    try:
        records = run_loop(wl, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    steal = steal_seconds() - steal0

    ok = [r for r in records if "error" not in r]
    done = [(r["item"], r["result"]) for r in ok]
    failed = len(records) - len(done)
    checks = wl.check(done, warm)
    if tracer is not None:
        checks["originals_restored_ok"] = not tracer.check_restored()
    checks["failed_share"] = failed / len(records)
    checks["wall_s"] = sum(r["op_s"] for r in records)
    checks["cpu_s"] = sum(r["cpu_s"] for r in records)
    checks["host_steal_s"] = steal
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks["peak_rss_mb"] = peak_rss_mb
    print("checks " + json.dumps(checks), flush=True)

    fps = {r["key"]: {"fingerprint": r["fingerprint"]} for r in ok}
    if tracer is not None:
        for r in ok:
            fps[r["key"]]["counts"] = tracing.exact_counts(r["trace"])
    print("fingerprints " + json.dumps(fps), flush=True)
    recorded = load_baseline().get(wl.name, {})
    print("baseline " + json.dumps(compare_fingerprints(
        recorded, {k: v["fingerprint"] for k, v in fps.items()})), flush=True)
    if tracer is not None:
        counts = {k: v["counts"] for k, v in fps.items()
                  if "counts" in recorded.get(k, {})}
        same = all(recorded[k]["counts"] == c for k, c in counts.items())
        print(f"baseline exact counts: {len(counts)} compared, "
              f"{'all equal' if same else 'DIFFERENT'}", flush=True)
    if args.write_baseline:
        write_baseline(wl.name, fps)

    correct = failed == 0 and all(v for k, v in checks.items()
                                  if k.endswith("_ok"))
    if args.trace:
        values = tracing.per_layer_values([r["trace"] for r in ok]) \
            if ok else {}
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit}
                   for name, unit, _ in tracing.per_layer_metrics()}
    else:
        op_times = [r["op_s"] for r in records]
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "op_s": {"value": statistics.median(op_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": bool(correct), "attempted": len(records),
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


def write_baseline(name, fps):
    data = load_baseline()
    entry = data.setdefault(name, {})
    for key, val in fps.items():
        entry.setdefault(key, {}).update(val)
    BASELINE.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def selftest(names):
    """Traced outputs equal untraced ones; exact counts repeat; originals
    are restored.  Returns the number of failed checks."""
    import tracing
    from workloads import WORKLOADS

    bad = 0
    for name in names:
        wl = WORKLOADS[name](0)
        item = wl.items[0]
        plain = wl.fingerprint(wl.run(item))
        tracer = tracing.Tracer()
        tracing.install(tracer, wl.metric)
        try:
            traced, counts = [], []
            for _ in range(2):
                res, root = tracer.op(wl.run, item)
                traced.append(wl.fingerprint(res))
                counts.append(tracing.exact_counts(tracer.summary(root)))
        finally:
            tracer.restore()
        result = {"traced_equals_untraced": traced[0] == plain == traced[1],
                  "exact_counts_repeat": counts[0] == counts[1],
                  "originals_restored": not tracer.check_restored()}
        print(f"selftest {name} {json.dumps(result)} counts "
              f"{json.dumps(counts[0])}", flush=True)
        bad += sum(not v for v in result.values())
    return bad


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help=argparse.SUPPRESS)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-baseline", action="store_true")
    args = ap.parse_args(argv)
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    src = ROOT / "src"
    if not (src / "diamondwave" / "__init__.py").is_file():
        print(f"error: no diamondwave sources under {src}", file=sys.stderr)
        return 2
    pin_threads()
    sys.path.insert(0, str(src))
    import diamondwave
    if Path(diamondwave.__file__).resolve().parent != src / "diamondwave":
        print("error: diamondwave imported from outside the checkout",
              file=sys.stderr)
        return 2

    if args.setup_only:
        from workloads import WORKLOADS
        WORKLOADS[args.workload](args.seed)
        return 0
    if args.selftest:
        return 1 if selftest([args.workload] if args.workload else NAMES) \
            else 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
