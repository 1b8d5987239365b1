"""The acceptance gate.

Each criterion body returns (ok, detail, rows) and is registered, in
definition order, in CRITERIA with its number, name, table header and
optional runtime budget.  One runner times each body and fails it past its
budget; the CLI `verify-all` subcommand and tests/test_acceptance.py both run
the registry, so the gate is a single source of truth.
"""

import cmath
import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from . import dickman, zeta_engine
from .asymptotic import (
    exact_integral,
    main_term,
    make_gaussian,
    make_test_constant,
    tenenbaum_check,
    theorem2_report,
)
from .dickman import EXP_EULER_GAMMA
from .euler_products import (
    g_product,
    h_finite,
    h_infinite,
    lemma1_check,
    zeta_partial,
)
from .arith_core import sieve_primes
from .oracle import brute_S
from .params import SumParams


@dataclass
class CheckResult:
    criterion: int
    name: str
    passed: bool
    detail: str
    elapsed: float
    header: tuple
    rows: list

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"{tag} criterion {self.criterion} [{self.name}] ({self.elapsed:.1f}s): {self.detail}"


def fmt_value(v) -> str:
    """One table cell: floats (and complex parts) to 17 significant digits,
    so equal doubles print equal bytes."""
    if isinstance(v, complex):
        return f"{v.real:.17g}{'+' if v.imag >= 0 else '-'}{abs(v.imag):.17g}j"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def csv_body(header, rows) -> str:
    """The bytes below a table's metadata header: the column names, then one
    line of fmt_value cells per row."""
    lines = [",".join(header)] + [",".join(fmt_value(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


CRITERIA = []  # the registered checks, in definition order


def criterion(number: int, name: str, header: tuple, budget: float | None = None):
    """Register a body returning (ok, detail, rows) as the check that times
    it once on a monotonic clock, fails it past `budget` seconds and builds
    its CheckResult."""

    def register(body):
        @functools.wraps(body)
        def check() -> CheckResult:
            t0 = time.perf_counter()
            ok, detail, rows = body()
            elapsed = time.perf_counter() - t0
            ok = ok and (budget is None or elapsed < budget)
            return CheckResult(number, name, ok, detail, elapsed, header, rows)

        CRITERIA.append(check)
        return check

    return register


@criterion(
    1,
    "oracle-equivalence",
    ("alpha", "k", "N", "gap", "quad_error", "tail_bound", "tail_certificate", "ok"),
    budget=120.0,
)
def check_oracle_equivalence():
    """1. exact_integral agrees with brute_S within the stated certificates."""
    f = make_gaussian(1, 0.4)
    rows = []
    for alpha in (0, 1, -1, 0.5 + 0.5j):
        for k in (2, 3):
            for N in (10, 30):
                p = SumParams(alpha, k, N)
                ex = exact_integral(p, f, 1e-7)
                br = brute_S(p, f)
                gap = abs(ex.value - br.value)
                bound = ex.quad_error + ex.tail_bound + br.tail_certificate
                good = (
                    gap <= bound
                    and ex.quad_error <= 1e-7
                    and ex.tail_bound <= 1e-7
                    and br.tail_certificate <= 1e-7
                )
                rows.append(
                    (alpha, k, N, gap, ex.quad_error, ex.tail_bound, br.tail_certificate, good)
                )
    detail = f"16 parameter combinations, worst |exact-brute| = {max(r[3] for r in rows):.2e}"
    return all(r[-1] for r in rows), detail, rows


@criterion(2, "product-identity", ("case", "count", "residual", "ok"))
def check_product_identity():
    """2. log g = alpha log zeta_N + log h factorwise, and brute_S(f=1) equals
    the closed-form product."""
    rng = np.random.default_rng(20260809)
    worst_ident = 0.0
    rows = []
    n_pts = 100
    for _ in range(n_pts):
        alpha = complex(3.0 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random()))
        tau = rng.uniform(-3.0, 3.0)
        N = int(rng.choice([100, 1000, 10000]))
        k = int(rng.integers(2, 5))
        s = 1.0 + 1j * tau
        params = SumParams(alpha, k, N)
        lg = g_product(params, s).log_value
        lz = zeta_partial(sieve_primes(N), s).log_value
        lh = h_finite(params, s).log_value
        worst_ident = max(worst_ident, abs(lg - alpha * lz - lh))
    rows.append(("identity_points", n_pts, worst_ident, worst_ident <= 1e-10))

    f1 = make_test_constant()
    worst_brute = 0.0
    for alpha, k, N in ((1, 2, 30), (0.5 + 0.5j, 3, 30), (2, 4, 13), (-1, 2, 61)):
        p = SumParams(alpha, k, N)
        br = brute_S(p, f1, math.inf)
        g = g_product(p, 1.0)
        rel = abs(br.value - g.value) / abs(g.value)
        worst_brute = max(worst_brute, rel)
        rows.append((f"brute_vs_g a={alpha} k={k} N={N}", br.terms_used, rel, rel <= 1e-12))
    ok = worst_ident <= 1e-10 and worst_brute <= 1e-12
    detail = (
        f"identity residual {worst_ident:.2e} (<=1e-10); "
        f"brute vs product rel {worst_brute:.2e} (<=1e-12)"
    )
    return ok, detail, rows


def _expint_cf(z: complex, tol: float = 1e-14, max_iter: int = 600) -> complex:
    """E1(z) by the modified-Lentz continued fraction: the independent oracle
    for the exponential-integral identity."""
    tiny = 1e-300
    b = z + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, max_iter):
        a = -(i * i)
        b += 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < tol:
            return cmath.exp(-z) * h
    raise RuntimeError("continued fraction did not converge")


@criterion(3, "golden-values", ("check", "tolerance", "residual", "ok"), budget=60.0)
def check_golden_values():
    """3. Special-function golden values, each against an independent route."""
    rows = []
    table = dickman.default_table()

    rho2 = abs(table.rho(2.0) - (1.0 - math.log(2.0)))
    rows.append(("rho(2) vs 1-log2", 1e-10, rho2, rho2 <= 1e-10))

    int_route = abs(table.integral() - EXP_EULER_GAMMA)
    rows.append(("rhohat(0) via int rho", 1e-6, int_route, int_route <= 1e-6))
    x = 1e-8
    lim_route = abs(math.exp(-dickman.expint_J(x).real) / x - EXP_EULER_GAMMA)
    rows.append(("rhohat(0) via exp(-J) limit", 1e-6, lim_route, lim_route <= 1e-6))

    pts = [0.5, 1.0, 2.0, 4.0, 7.0, 12.0, 20.0]
    pts += [complex(re, im) for re in (0.5, 2.0, 6.0) for im in (1.0, 5.0, -9.0)]
    pts += [1 + 30j, 0.3 - 2j, 14 + 14j, 25 - 3j]
    worst_j = max(abs(dickman.expint_J(s) - _expint_cf(complex(s))) for s in pts[:20])
    rows.append((f"J vs continued fraction at {len(pts[:20])} pts", 1e-8, worst_j, worst_j <= 1e-8))

    for k in (2, 3, 4):
        hv = h_infinite(1.0, k, 1.0, 1e-8)
        zk = zeta_engine.zeta(float(k)).zeta
        diff = abs(hv.value - 1.0 / zk)
        rows.append((f"h_infinite(1,{k},1) vs 1/zeta({k})", 1e-8, diff, diff <= 1e-8))
    z2 = abs(zeta_engine.zeta(2.0).zeta - math.pi**2 / 6.0)
    rows.append(("zeta(2) vs pi^2/6", 1e-10, z2, z2 <= 1e-10))
    detail = f"rho/rhohat/J/h/zeta golden checks, worst J residual {worst_j:.2e}"
    return all(r[3] for r in rows), detail, rows


@criterion(4, "tenenbaum-lemma", ("N", "max_rel_err", "argmax_tau", "L_eps"), budget=300.0)
def check_tenenbaum():
    """4. The partial-zeta factorization error decreases along the N ladder
    and is <= 0.1 at the top."""
    rep = tenenbaum_check([10**3, 10**4, 10**5, 10**6], np.linspace(-3.0, 3.0, 25))
    errs = [r.max_rel_err for r in rep]
    decreasing = all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))
    rows = [(r.N, r.max_rel_err, r.argmax_tau, r.l_eps) for r in rep]
    detail = f"max rel errors {['%.2e' % e for e in errs]}, decreasing={decreasing}"
    return decreasing and errs[-1] <= 0.1, detail, rows


@criterion(
    5, "lemma1-trend", ("alpha", "k", "err_1e3", "err_1e4", "ratio", "expected_ratio", "ok")
)
def check_lemma1():
    """5. |h_N/h - 1| shrinks by >= 8x from N=10^3 to 10^4."""
    taus = np.linspace(-3.0, 3.0, 25)
    rows = []
    for alpha in (1.0, 0.5 + 0.5j):
        rep = lemma1_check(alpha, 2, [10**3, 10**4], taus)
        ratio = rep.decay_ratios[0]
        errs = rep.max_errors
        rows.append((alpha, 2, errs[0], errs[1], ratio, rep.expected_ratios[0], ratio >= 8.0))
    detail = f"decay ratios {[f'{r[4]:.1f}' for r in rows]} (need >= 8, scaling ~13.3)"
    return all(r[-1] for r in rows), detail, rows


@criterion(
    6,
    "theorem2-convergence",
    ("alpha", "k", "N", "S_exact", "C_f", "E_measured", "envelope", "ok"),
    budget=600.0,
)
def check_theorem2():
    """6. |E measured| strictly decreasing along the N ladder with >= 5x total
    shrink, S computed via the exact integral."""
    f = make_gaussian(1, 0.4)
    ladder = [10**2, 10**3, 10**4, 10**5]
    rows = []
    for alpha, k in ((1, 2), (-1, 2), (0.5 + 0.5j, 3)):
        rep = theorem2_report([SumParams(alpha, k, N) for N in ladder], f, tol=1e-6)
        es = [r.e_measured for r in rep]
        decreasing = all(es[i] > es[i + 1] for i in range(len(es) - 1))
        good = decreasing and es[-1] <= es[0] / 5.0
        for r in rep:
            rows.append((alpha, k, r.params.N, r.s_exact, r.c_f, r.e_measured, r.envelope, good))
    return all(r[-1] for r in rows), f"3 parameter sets over N ladder {ladder}", rows


@criterion(7, "alpha-zero", ("check", "terms", "residual", "ok"))
def check_alpha_zero():
    """7. Degenerate alpha = 0: one term, exact value, tiny E."""
    f = make_gaussian(1, 0.4)
    p = SumParams(0, 2, 100)
    br = brute_S(p, f)
    f0 = complex(np.complex128(f.eval_f(0.0)))
    exact_one_term = br.terms_used == 1 and br.value == f0
    e = theorem2_report([p], f, tol=1e-7)[0].e_measured
    rows = [
        ("brute single term", br.terms_used, abs(br.value - f0), exact_one_term),
        ("theorem2 |E|", 1, e, e <= 1e-6),
    ]
    detail = f"brute = f(0) exactly ({exact_one_term}), |E| = {e:.2e} <= 1e-6"
    return exact_one_term and e <= 1e-6, detail, rows


@criterion(8, "vinogradov-korobov", ("t", "zeta_abs", "bound", "ok"))
def check_vinogradov_korobov():
    """8. |zeta(1+it)| <= 76.2 (log|t|)^{2/3} at the stated points."""
    rows = []
    for t in (3.0, 10.0, 1e3, 1e6):
        r = zeta_engine.vk_check(t)
        rows.append((t, r.zeta_abs, r.bound, r.passed))
    return all(r[-1] for r in rows), "bound holds at t in {3, 10, 1e3, 1e6}", rows


@criterion(
    9,
    "branch-robustness",
    ("alpha", "route_gap", "refinement_move", "nodes", "refined_nodes", "quad_error", "ok"),
)
def check_branch_robustness():
    """9. Branched powers equal direct integer powers; C_f refined to tol/10
    takes more nodes and moves by at most the base call's quad_error."""
    f = make_gaussian(1, 0.4)
    rows = []
    for alpha in (1, 2):
        p = SumParams(alpha, 2, 1000)
        a = main_term(p, f, 1e-9)
        b = main_term(p, f, 1e-9, use_integer_powers=True)
        c = main_term(p, f, 1e-10)
        route_gap = abs(a.value - b.value)
        move = abs(a.value - c.value)
        good = route_gap <= 1e-9 and move <= a.quad_error and c.node_count > a.node_count
        rows.append((alpha, route_gap, move, a.node_count, c.node_count, a.quad_error, good))
    detail = f"route gaps {[f'{r[1]:.1e}' for r in rows]} (<=1e-9); refinement within quad_error"
    return all(r[-1] for r in rows), detail, rows


def run_criteria() -> list:
    """Run criteria 1-9 (criterion 10, byte-level determinism, compares two
    invocations of this function and lives in the CLI/tests)."""
    return [fn() for fn in CRITERIA]


def render_tables(results) -> dict:
    """CSV bodies per criterion (no metadata header: these are the
    determinism-comparable bytes)."""
    out = {f"criterion_{res.criterion:02d}.csv": csv_body(res.header, res.rows) for res in results}
    # no timings in the table bodies: they are the determinism-compared bytes
    out["summary.csv"] = csv_body(
        ("criterion", "name", "passed", "detail"),
        [(r.criterion, r.name, int(r.passed), r.detail.replace(",", ";")) for r in results],
    )
    return out
