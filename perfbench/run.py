"""The smoothsum benchmark.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout (the directory that holds
src/smoothsum); it imports the library from that source tree.

A run draws one op list from (workload, seed) and runs it in a sequence of
passes, each in a new single-threaded process (worker.py).  Every op's
result is checked outside the timed loop: the first pass computes each
op's reference, and every pass is judged against those references.
Passes continue until --seconds have elapsed, and at least MIN_PASSES run.

--trace 0 reports the end-to-end metrics: medians over passes of set-up
time, op-loop wall time and peak RSS, and the median and tail of the pooled
op latencies.  Times are scaled to a reference host speed, measured by a
fixed kernel that the worker times between its ops (calibrate.py); the
raw times are printed beside them.

--trace 1 runs each pass twice, untraced and then traced with the same
ops, and reports the per-layer metrics of the traced passes (layers.py)
and the tracing overhead.

Every line but the last is a record (machine facts, one line per op, one
per pass, then a metric table); the last line is the JSON result.
"""

import argparse
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import time

import calibrate
import layers
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PASSES = 3
RUN_LIMIT_S = 170.0  # no pass may end later than this after the run starts
TAIL_BEYOND = 10  # op_tail_s: the highest percentile with >= 10 ops beyond it

UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "raw.setup_s": "s",
    "raw.wall_s": "s",
    "raw.op_p50_s": "s",
    "raw.op_tail_s": "s",
    "host.kernel_s": "s",
    **layers.UNITS,
}


class BenchError(RuntimeError):
    pass


def machine_facts() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SMOOTHSUM_CACHE_DIR", None)  # no on-disk cache: every pass computes
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_pass(src: str, ops: list, trace: bool, timeout: float, references=None) -> dict:
    """One pass in a fresh worker process; it computes the references
    itself unless they are given (one per op, None where none exists)."""
    job = {"src": src, "ops": ops, "trace": trace, "references": references,
           "spawn_t": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py")],
            input=json.dumps(job),
            capture_output=True,
            text=True,
            env=worker_env(),
            timeout=max(timeout, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"pass exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail_percentile(n_ref: int) -> int:
    """Highest whole percentile leaving >= TAIL_BEYOND of n_ref ops beyond it.

    n_ref is the op count of MIN_PASSES passes, so the percentile is fixed
    per workload and a faster build (more passes) does not move it."""
    return max(50, math.floor(100 * (n_ref - TAIL_BEYOND) / n_ref))


def nearest_rank(sorted_vals: list, pct: int) -> tuple:
    rank = max(1, math.ceil(pct / 100 * len(sorted_vals)))
    return sorted_vals[rank - 1], len(sorted_vals) - rank


def run(workload: str, seed: int, seconds: float, trace: bool, src: str) -> dict:
    generate = workloads.GENERATORS[workload]
    t_run = time.monotonic()
    ops = generate(random.Random(f"{workload}:{seed}"))
    plain, traced = [], []
    references = None
    i = 0
    while i < MIN_PASSES or time.monotonic() - t_run < seconds:
        for kind in (False, True) if trace else (False,):
            left = RUN_LIMIT_S - (time.monotonic() - t_run)
            res = run_pass(src, ops, kind, left, references)
            if references is None:
                references = [rec.get("reference") for rec in res["records"]]
            res["index"], res["traced"] = i, kind
            # seconds at the reference host speed per second measured
            kernel_s = res.pop("kernel_s")
            for rec, scale in zip(res["records"], calibrate.op_scales(kernel_s)):
                rec["scale"] = scale
            res["kernel_med_s"] = statistics.median(kernel_s)
            res["scale"] = calibrate.REFERENCE_S / res["kernel_med_s"]
            res["scaled_wall_s"] = sum(r["latency_s"] * r["scale"] for r in res["records"])
            (traced if kind else plain).append(res)
        i += 1

    print("machine " + json.dumps({**machine_facts(), "numpy": plain[0]["numpy"]}))
    attempted = failed = 0
    for p in plain + traced:
        for rec in p["records"]:
            op = rec["op"]
            attempted += 1
            failed += not rec["passed"]
            print("op " + json.dumps({
                "pass": p["index"], "traced": p["traced"], "alpha": op["alpha"],
                "k": op["k"], "N": op["N"], "tol": op["tol"], "group": op["group"],
                "cache": rec["cache"], "latency_s": rec["latency_s"],
                "scale": rec["scale"],
                "result": rec["result"],
                "passed": rec["passed"], "gap": rec.get("gap"),
                "allowed": rec.get("allowed"), "error": rec["error"],
            }))
        print("pass " + json.dumps({
            "pass": p["index"], "traced": p["traced"], "ops": len(p["records"]),
            "setup_s": p["setup_s"], "wall_s": p["wall_s"], "peak_rss_mb": p["peak_rss_mb"],
            "kernel_med_s": p["kernel_med_s"], "scale": p["scale"],
        }))

    pct = tail_percentile(MIN_PASSES * len(plain[0]["records"]))
    e2e, _ = time_metrics(plain, pct, scaled=True)
    e2e["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in plain)
    raw, beyond = time_metrics(plain, pct, scaled=False)
    print(f"# {workload}, seed {seed}: {len(plain)} passes, "
        f"{sum(len(p['records']) for p in plain)} ops; "
        f"op_tail_s is p{pct} with {beyond} ops beyond it")
    table = dict(e2e, fail_frac=failed / attempted)
    table.update({"raw." + n: v for n, v in raw.items()})
    table["host.kernel_s"] = statistics.median(p["kernel_med_s"] for p in plain)
    metrics = e2e
    if trace:
        metrics = trace_metrics(workload, plain, traced)
        table.update(metrics)
    for name, v in table.items():
        print(f"metric {name:<36} {v:>16.6g} {UNITS[name]}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": UNITS[n]} for n, v in metrics.items()},
    }


def time_metrics(plain: list, pct: int, scaled: bool) -> tuple:
    """Set-up, wall and latency metrics over the untraced passes, each time
    multiplied by its host-speed scale when `scaled`, and the number of ops
    beyond the tail percentile."""
    def f(x):
        return x["scale"] if scaled else 1.0

    lat = sorted(r["latency_s"] * f(r) for p in plain for r in p["records"])
    tail, beyond = nearest_rank(lat, pct)
    return {
        "setup_s": statistics.median(p["setup_s"] * f(p) for p in plain),
        "wall_s": statistics.median(p["scaled_wall_s" if scaled else "wall_s"] for p in plain),
        "op_p50_s": statistics.median(lat),
        "op_tail_s": tail,
    }, beyond


def trace_metrics(workload: str, plain: list, traced: list) -> dict:
    """Medians over traced passes of each per-layer metric, plus overhead.

    The layer times are raw; trace.wall_s and trace.overhead_s are scaled
    like wall_s, so that drift between the two passes of a pair cancels."""
    names = set.intersection(*(set(p["layer"]) for p in traced))
    out = {n: statistics.median(p["layer"][n] for p in traced) for n in sorted(names)}
    shares = [
        sum(p["layer"].get(n, 0.0) for n in layers.INTENDED[workload]) / p["wall_s"]
        for p in traced
    ]
    wall_traced = statistics.median(p["scaled_wall_s"] for p in traced)
    out["trace.wall_s"] = wall_traced
    out["trace.overhead_s"] = wall_traced - statistics.median(p["scaled_wall_s"] for p in plain)
    out["trace.intended_share"] = statistics.median(shares)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "smoothsum", "__init__.py")):
        print("perfbench: no src/smoothsum here; run from the root of a checkout",
              file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), src)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
