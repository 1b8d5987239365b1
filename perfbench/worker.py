"""One benchmark pass in a fresh process: set up, run the op list, check it.

Reads a job (JSON) on stdin and prints one JSON object on stdout.  run.py
starts one such process per pass, so every lru_cache and the sieve cache
start cold, as they do on each CLI call.

    job = {"src": <dir holding the smoothsum package>, "ops": [...],
           "trace": bool, "spawn_t": time.monotonic() just before the spawn,
           "references": None, or one reference result (or None) per op}

Only the ops are timed.  Before each op and after the last one the worker
times the calibration kernel (calibrate.py), so that run.py can scale the
pass's times to a reference host speed.  Tracing (when asked) covers set-up and the op
loop and is removed before the correctness checks run.  Without
"references" the worker computes each op's reference itself (untimed);
with them, it judges its results against those, which is how the later
passes of a run reuse the references of its first pass.
"""

import json
import resource
import sys
import time


def main():
    job = json.load(sys.stdin)
    sys.path.insert(0, job["src"])
    import numpy

    import smoothsum as lib

    import calibrate
    import layers
    import workloads

    tracer = layers.install(lib) if job["trace"] else None
    ops = job["ops"]
    f = lib.make_gaussian(*workloads.TEST_FUNCTION)
    lib.arith_core.sieve_primes(max(op["N"] for op in ops))
    lib.dickman.default_table()
    lib.zeta_engine.stieltjes_constants()
    # CLOCK_MONOTONIC is system-wide on Linux, so the parent's stamp compares
    setup_s = time.monotonic() - job["spawn_t"]

    calibrate.kernel_seconds()  # warm-up: the first run pays numpy's first calls
    records, seen, kernel_s = [], set(), []
    for op in ops:
        kernel_s.append(calibrate.kernel_seconds())
        key = (tuple(op["alpha"]), op["k"])
        # only main_term keeps a per-(alpha, k) cache: the h contour
        warm = op["workload"] == "main-term" and key in seen
        seen.add(key)
        t0 = time.perf_counter()
        try:
            res, error = workloads.execute(lib, op, f), None
        except Exception as exc:  # a raising op is a failed op, not a crash
            res, error = None, f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        records.append(
            {"op": op, "cache": "warm" if warm else "cold", "latency_s": latency,
             "result": res, "error": error}
        )
    kernel_s.append(calibrate.kernel_seconds())
    wall_s = sum(rec["latency_s"] for rec in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    layer = None
    if tracer is not None:
        tracer.restore()
        layer = layers.report(tracer)

    given = job.get("references")
    for i, rec in enumerate(records):
        rec["passed"] = False
        if rec["error"] is not None:
            continue
        if given is not None:
            ref = given[i]
            if ref is None:
                rec["error"] = "no reference: it could not be computed in the first pass"
                continue
        else:
            try:
                ref = workloads.reference(lib, rec["op"], f)
            except Exception as exc:
                rec["error"] = f"check raised {type(exc).__name__}: {exc}"
                continue
        rec["reference"] = ref
        rec["passed"], rec["gap"], rec["allowed"] = workloads.judge(rec["op"], rec["result"], ref)

    print(json.dumps({
        "setup_s": setup_s,
        "wall_s": wall_s,
        "kernel_s": kernel_s,
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "layer": layer,
        "numpy": numpy.__version__,
    }))


if __name__ == "__main__":
    main()
