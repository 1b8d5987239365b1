"""Workload definitions: seeded op lists, the library call behind each op,
and the correctness check that judges its result.

Op lists are built with the standard library only, so the parent process
never imports smoothsum; the worker turns each op into a `SumParams` and the
fixed test function and calls one public entry point.

Sizes are drawn by stratified sampling: an interval of log N is cut into
equal strata and every stratum gets an antithetic pair of draws (positions
u and 1-u inside it).  Each op is still log-uniform on its own, but every
op list covers the whole range the same way, so its cost (dominated by
the largest N) moves little from seed to seed.
"""

import cmath
import math
import random

TEST_FUNCTION = (1.0, 0.4)  # gaussian:1,0.4, as in the acceptance gate

ORACLE_REF_TOL = 1e-10  # exact_integral reference for the oracle check
EXACT_TOL = 1e-7
MAIN_TOL = 1e-6
MAIN_H_TOL = MAIN_TOL / 10.0  # main_term's default h_tol
MAIN_P_CLASS = 2**21  # certified h cutoff every non-integer main-term group has


def stratified_log(rng: random.Random, lo: float, hi: float, strata: int) -> list:
    """2 * strata integers, log-uniform on [lo, hi], one antithetic pair per stratum."""
    a, b = math.log(lo), math.log(hi)
    out = []
    for i in range(strata):
        u = rng.random()
        for v in (u, 1.0 - u):
            out.append(int(round(math.exp(a + (b - a) * (i + v) / strata))))
    return out


def mixed_slots(n: int) -> list:
    """A fixed permutation of range(n) that sends neighbouring positions to
    far-apart slots: position i gets the rank of frac(i * golden ratio)."""
    order = sorted(range(n), key=lambda i: (i * 0.6180339887498949) % 1.0)
    slots = [0] * n
    for rank, i in enumerate(order):
        slots[i] = rank
    return slots


def disc_draws(rng: random.Random, n: int, r_max: float, cells=None) -> list:
    """n complex numbers uniform on the disc |z| <= r_max, radius stratified.

    Without `cells` the radius strata are dealt out at random and each
    angle is uniform.  With `cells`, a list of (radius stratum, angle
    stratum) pairs, draw i falls in the radius stratum and the angle sector
    (one of n) that cells[i] names."""
    if cells is None:
        slots = list(range(n))
        rng.shuffle(slots)
        cells = [(j, None) for j in slots]
    out = []
    for j, sector in cells:
        r = r_max * math.sqrt((j + rng.random()) / n)
        r = max(r, 1e-3 * r_max)  # alpha = 0 is the one-term special case
        turn = rng.random() if sector is None else (sector + rng.random()) / n
        out.append(r * cmath.exp(2j * math.pi * turn))
    return out


def _op(workload, alpha, k, N, tol, group=0):
    return {
        "workload": workload,
        "alpha": [alpha.real, alpha.imag],
        "k": k,
        "N": N,
        "tol": tol,
        "group": group,
    }


def oracle_ops(rng, strata=12, k2_range=(30, 100), k3_range=(30, 70)):
    """brute_S calls: k = 2 over N in k2_range and k = 3 over k3_range.

    Term counts grow like N^4, so a pass mixes calls of a few hundred terms
    (per-call overhead) with calls of 1-2 * 10^5 terms (throughput).  The
    ranges stop at 100 and 70: N = 150 is 0.8 M terms at k = 2 and about 5 M
    (13 s) at k = 3, and a pass with one such call is set by its jitter alone.
    """
    ops = []
    for k, (lo, hi) in ((2, k2_range), (3, k3_range)):
        ns = stratified_log(rng, lo, hi, strata)
        for alpha, N in zip(disc_draws(rng, len(ns), 2.0), ns):
            ops.append(_op("oracle", alpha, k, N, None))
    rng.shuffle(ops)
    return ops


def exact_ops(rng, strata=16, n_range=(10**3, 10**4.5)):
    """exact_integral calls at tol 1e-7, k cycling through 2, 3, 4.

    The N range stops at 10^4.5 (3.4k primes per g_values call): the cost
    of an op grows like pi(N), and above that a pass of 32 ops, plus the
    tol/10 reruns that check it, no longer fits several times into a run.

    An op's cost is pi(N) times its quadrature nodes, and alpha can move
    the nodes from 220 to 440.  So k and the cell of alpha in the disc are
    tied to the rank of N by a fixed rule (k cycles; `mixed_slots` spreads
    the radius strata, and the angle sectors in the reverse order): every
    seed pairs sizes with k and alpha the same way, and the cost of an op
    list, its median op and its slowest ops move little from seed to seed.
    """
    ns = sorted(stratified_log(rng, n_range[0], n_range[1], strata))
    slots = mixed_slots(len(ns))
    alphas = disc_draws(rng, len(ns), 2.0, list(zip(slots, reversed(slots))))
    ops = [
        _op("exact", alpha, 2 + i % 3, N, EXACT_TOL)
        for i, (alpha, N) in enumerate(zip(alphas, ns))
    ]
    rng.shuffle(ops)
    return ops


def h_cutoff_class(alpha: complex, k: int, tol: float = MAIN_H_TOL) -> int:
    """The doubling cutoff P the library certifies for the infinite h product
    on the 1-line (the rule of `euler_products.h_cutoff`, copied here so the
    draw below stays the same when that rule changes)."""
    a, big = abs(alpha), max(1.0, abs(alpha))

    def prime_sum(x, P):
        return 1.25506 * x / ((x - 1.0) * math.log(P)) * P ** (1.0 - x)

    P = 128
    while P < 10**8:
        if P >= 2.0 * big:
            bound = 2.0 * a * abs(alpha - 1.0) * prime_sum(2.0, P) + 2.0 * a**k * prime_sum(k, P)
            if bound <= tol:
                return P
        P *= 2
    return 10**8


def main_term_ops(rng, rungs=4, n_decades=(2, 5), p_class=MAIN_P_CLASS):
    """Two groups, each an N ladder of main_term calls at tol 1e-6.

    Group 0 is alpha = 1, k = 3: integer alpha, so it is checked against the
    integer-power route, and its h cutoff is tiny, so all its ops run the
    path layers (rhohat, zeta, quadrature).  Group 1 draws alpha from
    |alpha| <= 1.5 and k from {2, 3}, kept only when the certified h cutoff
    is `p_class`: the first op of the group builds the h contour over the
    primes below it, the rest reuse it.
    """
    for _ in range(100_000):
        alpha = 1.5 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        k = rng.choice((2, 3))
        if abs(alpha.imag) > 1e-3 and h_cutoff_class(alpha, k) == p_class:
            break
    else:
        raise ValueError(f"no alpha in |alpha| <= 1.5 has h cutoff {p_class}")
    lo, hi = n_decades
    groups = [(1 + 0j, 3), (alpha, k)]
    order = [0, 1]
    rng.shuffle(order)
    ops = []
    for g in order:
        a, kk = groups[g]
        for i in range(rungs):
            e = lo + (hi - lo) * (i + rng.random()) / rungs
            ops.append(_op("main-term", a, kk, int(round(10**e)), MAIN_TOL, g))
    return ops


GENERATORS = {"oracle": oracle_ops, "exact": exact_ops, "main-term": main_term_ops}


# --- library calls (worker side) ----------------------------------------------


def _params(lib, op):
    return lib.SumParams(complex(*op["alpha"]), op["k"], op["N"])


def execute(lib, op, f):
    """The timed library call behind one op, as a plain record."""
    p = _params(lib, op)
    w = op["workload"]
    if w == "oracle":
        r = lib.oracle.brute_S(p, f, threads=1)
        return {"value": _c(r.value), "terms": r.terms_used, "tail_certificate": r.tail_certificate}
    if w == "exact":
        return _quad(lib.asymptotic.exact_integral(p, f, op["tol"]))
    return _quad(lib.asymptotic.main_term(p, f, op["tol"]))


def reference(lib, op, f):
    """The independent result each check compares against (untimed)."""
    p = _params(lib, op)
    w = op["workload"]
    if w == "oracle":
        return _quad(lib.asymptotic.exact_integral(p, f, ORACLE_REF_TOL))
    if w == "exact":
        return _quad(lib.asymptotic.exact_integral(p, f, op["tol"] / 10.0))
    if _integer_alpha(op):
        return _quad(lib.asymptotic.main_term(p, f, op["tol"], use_integer_powers=True))
    return _quad(lib.asymptotic.main_term(p, f, op["tol"], h_variant="finite"))


def _c(z):
    return [z.real, z.imag]


def _quad(r):
    return {
        "value": _c(r.value),
        "quad_error": r.quad_error,
        "tail_bound": r.tail_bound,
        "nodes": r.node_count,
    }


def _integer_alpha(op):
    re, im = op["alpha"]
    return im == 0.0 and re == round(re)


# --- checks (pure) --------------------------------------------------------------


def _ledger(r):
    return r["quad_error"] + r["tail_bound"]


def judge(op, res, ref) -> tuple:
    """(passed, gap, allowed) for one op's result against its reference.

    oracle:    |brute - exact| <= quad_error + tail_bound + tail_certificate
               (criterion 1's rule, with the exact route at tol 1e-10).
    exact:     both ledgers <= tol, and |S(tol) - S(tol/10)| <= both ledgers.
    main-term: integer alpha: |C - C_integer_powers| <= both quad_errors;
               otherwise |C - C_finite_h| <= both ledgers + E2 scale, with E2
               = (log N)^(Re alpha - 1)/N measured on the scale of S, i.e.
               divided by |(log N)^alpha| = (log N)^(Re alpha).
    """
    gap = abs(complex(*res["value"]) - complex(*ref["value"]))
    w = op["workload"]
    if w == "oracle":
        allowed = _ledger(ref) + res["tail_certificate"]
        return gap <= allowed, gap, allowed
    if w == "exact":
        allowed = _ledger(res) + _ledger(ref)
        within = res["quad_error"] <= op["tol"] and res["tail_bound"] <= op["tol"]
        return within and gap <= allowed, gap, allowed
    if _integer_alpha(op):
        allowed = res["quad_error"] + ref["quad_error"]
    else:
        log_n = math.log(op["N"])
        allowed = _ledger(res) + _ledger(ref) + 1.0 / (op["N"] * log_n)
    return gap <= allowed, gap, allowed
