"""Self-test of the benchmark.

    python3 perfbench/selftest.py        (from the root of a checkout)

1. A tiny run of each workload, traced, passes every correctness check,
   both when the pass computes its references and when a second pass is
   judged against the first pass's references.
2. Each workload's check flags a result perturbed by a relative 1e-6,
   wherever that perturbation exceeds the op's own certified error ledger
   (a sound check cannot see an error smaller than that ledger).
3. An op that raises a SmoothsumError is recorded as a failed op and the
   pass still completes.
4. The tracer restores every wrapped binding, and a binding the library
   lacks reads as absent, not as zero.
"""

import os
import random
import sys
import types

import layers
import run
import workloads as W

REL = 1e-6

TINY = {
    "oracle": lambda rng: W.oracle_ops(rng, strata=1, k2_range=(30, 45), k3_range=(30, 45)),
    "exact": lambda rng: W.exact_ops(rng, strata=2, n_range=(1000, 3000)),
    "main-term": lambda rng: W.main_term_ops(rng, rungs=2, n_decades=(2, 3), p_class=2**17),
}


def check_workload(src, name, gen) -> list:
    problems = []
    ops = gen(random.Random(f"selftest:{name}"))
    res = run.run_pass(src, ops, True, run.RUN_LIMIT_S)
    resolvable = 0
    for rec in res["records"]:
        if not rec["passed"]:
            problems.append(f"{name}: op failed: {rec['op']} {rec['error'] or rec.get('gap')}")
            continue
        re, im = rec["result"]["value"]
        shift = REL * abs(complex(re, im))
        if shift <= rec["allowed"] + rec["gap"]:
            continue  # inside the op's own ledger: no sound check can see it
        resolvable += 1
        bumped = dict(rec["result"], value=[re * (1 + REL), im * (1 + REL)])
        if W.judge(rec["op"], bumped, rec["reference"])[0]:
            problems.append(f"{name}: a {REL:g} relative error passed the check: {rec['op']}")
    if resolvable == 0:
        problems.append(f"{name}: no op resolves a {REL:g} relative error")
    if not res["layer"]:
        problems.append(f"{name}: traced pass reported no layers")
    refs = [rec.get("reference") for rec in res["records"]]
    again = run.run_pass(src, ops, False, run.RUN_LIMIT_S, refs)
    problems += [f"{name}: op failed against the first pass's reference: {rec['op']}"
                 for rec in again["records"] if not rec["passed"]]
    print(f"{name}: {len(res['records'])} ops, {resolvable} check a {REL:g} perturbation")
    return problems


def check_raising_op(src) -> list:
    # eta = 6 <= 1 - Re(alpha) for alpha = -6: main_term raises EtaTooSmall
    op = W._op("main-term", -6 + 0j, 2, 100, W.MAIN_TOL)
    rec = run.run_pass(src, [op], False, run.RUN_LIMIT_S)["records"][0]
    if rec["passed"] or "EtaTooSmall" not in (rec["error"] or ""):
        return [f"raising op not recorded as a failed op: {rec}"]
    return []


def check_tracer(src) -> list:
    sys.path.insert(0, src)
    import smoothsum as lib

    before = {(m, a): getattr(getattr(lib, m), a) for m, a in (
        ("asymptotic", "g_values"), ("oracle", "enumerate_kfree_smooth"), ("zeta_engine", "zeta"))}
    tr = layers.install(lib)
    tr.restore()
    problems = [f"{m}.{a} not restored" for (m, a), fn in before.items()
                if getattr(getattr(lib, m), a) is not fn]
    oracle = types.SimpleNamespace(brute_S=lib.oracle.brute_S, sieve_primes=lib.sieve_primes)
    fake = types.SimpleNamespace(oracle=oracle)  # no enumerate_kfree_smooth, no other module
    tr = layers.install(fake)
    tr.restore()
    got = layers.report(tr)
    if "oracle.enum_s" in got or "oracle.accum_s" in got or "oracle.brute_s" not in got:
        problems.append(f"absent binding not reported as absent: {sorted(got)}")
    return problems


def main() -> int:
    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "smoothsum", "__init__.py")):
        print("selftest: run from the root of a checkout", file=sys.stderr)
        return 2
    problems = []
    for name, gen in TINY.items():
        problems += check_workload(src, name, gen)
    problems += check_raising_op(src)
    problems += check_tracer(src)
    for p in problems:
        print("FAIL", p)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
