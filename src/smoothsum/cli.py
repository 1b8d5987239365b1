"""Batch experiment runner: it parses the command line and writes files.

The parser checks syntax only (numbers, `re,im` pairs, grids, and finite
positive table extents and steps); every other check belongs to the library
call that uses the value, which refuses a bad input with ValueError before
anything is written.  Exit codes: 2 on a configuration error (a parse error
or such a ValueError, e.g. `cfactor --N 10` or `--tol 0.5`), 3 on a
computational error (a SmoothsumError, its class named), 1 when `verify-all`
finds a failing criterion, 0 otherwise.

Tables are CSV: a `#`-prefixed metadata header (version, config hash,
timestamp, one `# config: key=value` line per setting) over a body that is
byte-reproducible for identical configs.  Records are JSON: {"meta": the
same metadata, "result": the record's fields}.

Complex values on the command line are `re,im` pairs (`--alpha 1,0`); N
ladders are comma lists (`--N 100,1000`), and the single-N subcommands
(products-table, brute, exact, cfactor, errordecomp) take one integer; test
functions are `gaussian:mu,sigma[,eta]`.  A `--config FILE` (or
`--config=FILE`) of `key=value` lines mirrors the flags exactly (flags given
on the command line win).
"""

import argparse
import hashlib
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__, acceptance, dickman, zeta_engine
from .asymptotic import (
    error_decomposition,
    exact_integral,
    main_term,
    make_gaussian,
    tenenbaum_check,
    theorem2_report,
)
from .arith_core import DEFAULT_COUNT_CAP, sieve_primes
from .errors import SmoothsumError
from .euler_products import g_product, h_finite, lemma1_check, zeta_partial
from .oracle import brute_S
from .params import SumParams


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) == 1:
        return complex(float(parts[0]), 0.0)
    if len(parts) == 2:
        return complex(float(parts[0]), float(parts[1]))
    raise argparse.ArgumentTypeError(f"expected re or re,im - got {text!r}")


def _parse_N(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer N - got {text!r}")
    if n < 2:
        raise argparse.ArgumentTypeError(f"every N must be >= 2 - got {n}")
    return n


def _parse_N_list(text: str) -> tuple:
    return tuple(_parse_N(tok) for tok in text.split(","))


def _parse_grid(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("expected min,max,count")
    lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    if n < 2 or not (math.isfinite(lo) and math.isfinite(hi) and hi > lo):
        raise argparse.ArgumentTypeError("grid needs finite max > min and count >= 2")
    return (lo, hi, n)


def _parse_positive(text: str) -> float:
    x = float(text)
    if not (math.isfinite(x) and x > 0):
        raise argparse.ArgumentTypeError(f"expected a finite number > 0 - got {text!r}")
    return x


def _parse_testfn(text: str):
    # run() calls this, not argparse: the config records --f as given
    name, _, args = text.partition(":")
    if name != "gaussian":
        raise ValueError(f"unknown test function {name!r} (supported: gaussian:mu,sigma[,eta])")
    vals = [float(v) for v in args.split(",")] if args else []
    if len(vals) not in (2, 3):
        raise ValueError("gaussian needs mu,sigma or mu,sigma,eta")
    return make_gaussian(*vals)


def _config_items(args: argparse.Namespace) -> list:
    """The resolved configuration in the same key=value form the flags and
    --config files use, so emit -> parse round-trips exactly."""
    skip = {"func", "config", "out", "f_obj"}
    items = []
    for key, val in sorted(vars(args).items()):
        if key in skip or val is None:
            continue
        if isinstance(val, tuple):
            val = ",".join(str(v) for v in val)
        elif isinstance(val, complex):
            val = f"{val.real:g},{val.imag:g}"
        items.append((key.replace("_", "-"), str(val)))
    return items


def _meta(args: argparse.Namespace) -> dict:
    """The metadata of every output: a table's `#` header, a record's "meta"."""
    items = _config_items(args)
    canon = "\n".join(f"{k}={v}" for k, v in items)
    return {
        "version": __version__,
        "config_hash": hashlib.sha256(canon.encode()).hexdigest()[:16],
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "config": dict(items),
    }


def _csv_header(args) -> str:
    meta = _meta(args)
    lines = [f"smoothsum v{meta['version']}", f"config_hash: {meta['config_hash']}",
             f"timestamp: {meta['timestamp']}"]
    lines += [f"config: {k}={v}" for k, v in meta["config"].items()]
    return "".join(f"# {line}\n" for line in lines)


def _write(args, name: str, text: str) -> None:
    path = Path(args.out) / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    print(f"wrote {path}")


def _write_table(args, name: str, header, rows) -> None:
    _write(args, name, _csv_header(args) + acceptance.csv_body(header, rows))


def _write_record(args, name: str, result: dict) -> None:
    _write(args, name, json.dumps({"meta": _meta(args), "result": result}, indent=2) + "\n")


def _complex_fields(prefix: str, v: complex) -> dict:
    return {f"re_{prefix}": v.real, f"im_{prefix}": v.imag}


def _quad_fields(prefix: str, res) -> dict:
    # a QuadResult: its value and full ledger
    return {**_complex_fields(prefix, res.value), "quad_error": res.quad_error,
            "tail_bound": res.tail_bound, "node_count": res.node_count}


# --- subcommand executors ----------------------------------------------------


def _cmd_dickman_table(args) -> int:
    table = dickman.build_rho(args.u_max, args.tol)
    us = np.arange(0.0, args.u_max + 1e-9, args.du)
    rows = [(float(u), float(table.rho(float(u)))) for u in us]
    _write_table(args, "dickman_rho.csv", ("u", "rho"), rows)
    xs = np.arange(-args.x_max, args.x_max + 1e-9, args.dx)
    values = np.exp(dickman.log_rho_hat_ix(xs))
    rrows = [(float(x), float(v.real), float(v.imag)) for x, v in zip(xs, values)]
    _write_table(args, "dickman_rhohat.csv", ("x", "re_rhohat", "im_rhohat"), rrows)
    return 0


def _cmd_zeta_table(args) -> int:
    lo, hi, n = args.tau
    rows = []
    for tau in np.linspace(lo, hi, n):
        v = zeta_engine.zeta(complex(1.0, float(tau)))  # zeta is nan at tau = 0
        rows.append((float(tau), v.zeta.real, v.zeta.imag, v.regular.real, v.regular.imag))
    _write_table(
        args, "zeta_line.csv", ("tau", "re_zeta", "im_zeta", "re_regular", "im_regular"), rows
    )
    return 0


def _cmd_products_table(args) -> int:
    params = SumParams(args.alpha, args.k, args.N)
    primes = sieve_primes(params.N)
    lo, hi, n = args.tau
    rows = []
    for tau in np.linspace(lo, hi, n):
        s = complex(1.0, float(tau))
        g = g_product(params, s)
        zn = zeta_partial(primes, s)
        zpow = np.exp(params.alpha * zn.log_value)
        h = h_finite(params, s)
        rows.append(
            (float(tau), g.value.real, g.value.imag, zpow.real, zpow.imag,
             h.value.real, h.value.imag)
        )
    _write_table(
        args,
        "products.csv",
        ("tau", "re_g", "im_g", "re_zetaN_pow", "im_zetaN_pow", "re_h", "im_h"),
        rows,
    )
    return 0


def _cmd_brute(args) -> int:
    params = SumParams(args.alpha, args.k, args.N)
    cutoff = None if args.u_cutoff is None else float(args.u_cutoff)
    res = brute_S(params, args.f_obj, cutoff, count_cap=args.count_cap)
    _write_record(
        args,
        "brute.json",
        {
            **_complex_fields("value", res.value),
            "terms_used": res.terms_used,
            "u_cutoff": res.u_cutoff,
            "tail_certificate": res.tail_certificate,
        },
    )
    return 0


def _cmd_exact(args) -> int:
    params = SumParams(args.alpha, args.k, args.N)
    res = exact_integral(params, args.f_obj, args.tol)
    _write_record(args, "exact.json", _quad_fields("value", res))
    return 0


def _cmd_cfactor(args) -> int:
    params = SumParams(args.alpha, args.k, args.N)
    res = main_term(
        params,
        args.f_obj,
        args.tol,
        use_integer_powers=args.integer_powers,
        h_variant=args.h_variant,
    )
    _write_record(args, "cfactor.json", _quad_fields("C_f", res))
    return 0


def _cmd_theorem2(args) -> int:
    rows_out = []
    params_list = [SumParams(args.alpha, args.k, n) for n in args.N]
    for r in theorem2_report(params_list, args.f_obj, args.tol):
        rows_out.append(
            (r.params.N, r.s_exact.real, r.s_exact.imag, r.c_f.real, r.c_f.imag,
             r.e_measured, r.envelope, r.s_ledger, r.c_ledger)
        )
    _write_table(
        args,
        "theorem2.csv",
        ("N", "re_S", "im_S", "re_C_f", "im_C_f", "abs_E_measured", "predicted_envelope",
         "S_ledger", "C_f_ledger"),
        rows_out,
    )
    return 0


def _cmd_tenenbaum(args) -> int:
    lo, hi, n = args.tau
    rows = [
        (r.N, r.max_rel_err, r.argmax_tau, r.l_eps)
        for r in tenenbaum_check(args.N, np.linspace(lo, hi, n), eps=args.eps)
    ]
    _write_table(args, "tenenbaum.csv", ("N", "max_rel_err", "argmax_tau", "L_eps"), rows)
    return 0


def _cmd_lemma1(args) -> int:
    lo, hi, n = args.tau
    rep = lemma1_check(args.alpha, args.k, args.N, np.linspace(lo, hi, n))
    rows = []
    for i, N in enumerate(rep.n_values):
        ratio = rep.decay_ratios[i] if i < len(rep.decay_ratios) else float("nan")
        expect = rep.expected_ratios[i] if i < len(rep.expected_ratios) else float("nan")
        rows.append((N, rep.max_errors[i], ratio, expect))
    _write_table(
        args, "lemma1.csv", ("N", "max_rel_err", "decay_ratio_to_next", "expected_ratio"), rows
    )
    return 0


def _cmd_errordecomp(args) -> int:
    params = SumParams(args.alpha, args.k, args.N)
    d = error_decomposition(params, args.f_obj, args.tol)
    fields = ("i2_abs", "i2_shape", "i2_ratio", "e2_abs", "e2_shape", "e2_ratio")
    _write_record(args, "errordecomp.json", {name: getattr(d, name) for name in fields})
    return 0


def _cmd_verify_all(args) -> int:
    results = acceptance.run_criteria()
    tables = acceptance.render_tables(results)
    header = _csv_header(args)
    for name, body in tables.items():
        _write(args, name, header + body)
    for res in results:
        print(res.line())
    ok = all(r.passed for r in results)
    if args.determinism:  # the second run finds every in-process cache warm
        same = acceptance.render_tables(acceptance.run_criteria()) == tables
        print(
            f"{'PASS' if same else 'FAIL'} criterion 10 [determinism]: "
            f"cold- and warm-cache tables byte-identical: {same}"
        )
        ok = ok and same
    print("verify-all:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


# --- parser ------------------------------------------------------------------


def _add_common(sub, *, f=False, alpha=False, n=None, tol=None, tau=None):
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument(
        "--config", default=None,
        help="key=value file mirroring these flags (flags win)",
    )
    if alpha:
        sub.add_argument("--alpha", type=_parse_complex, required=True,
                         help="complex weight base as re,im")
        sub.add_argument("--k", type=int, required=True, help="k-free order (>= 2)")
    if n == "list":
        sub.add_argument("--N", type=_parse_N_list, required=True,
                         help="smoothness bounds, comma list")
    elif n == "one":
        sub.add_argument("--N", type=_parse_N, required=True, help="smoothness bound")
    if f:
        sub.add_argument("--f", required=True,
                         help="test function, e.g. gaussian:1,0.4")
    if tol is not None:
        sub.add_argument("--tol", type=float, default=tol, help="target tolerance")
    if tau is not None:
        sub.add_argument("--tau", type=_parse_grid, default=tau,
                         help="tau grid as min,max,count")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="smoothsum",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    top.add_argument("--version", action="version", version=f"smoothsum {__version__}")
    subs = top.add_subparsers(dest="command", required=True)

    p = subs.add_parser(
        "dickman-table",
        help="tabulate rho and rhohat",
        description="Columns dickman_rho.csv: u, rho.  "
        "Columns dickman_rhohat.csv: x, re_rhohat, im_rhohat.",
    )
    _add_common(p)
    p.add_argument("--u-max", type=_parse_positive, default=45.0)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--du", type=_parse_positive, default=0.25)
    p.add_argument("--x-max", type=_parse_positive, default=10.0)
    p.add_argument("--dx", type=_parse_positive, default=0.25)
    p.set_defaults(func=_cmd_dickman_table)

    p = subs.add_parser(
        "zeta-table",
        help="tabulate zeta on the 1-line",
        description="Columns zeta_line.csv: tau, re_zeta, im_zeta, re_regular, "
        "im_regular.  regular is (s-1) zeta(s) at s = 1 + i tau; zeta is nan "
        "at tau = 0.",
    )
    _add_common(p, tau=(-3.0, 3.0, 61))
    p.set_defaults(func=_cmd_zeta_table)

    p = subs.add_parser(
        "products-table",
        help="tabulate g, zeta_N^alpha, h_N on the 1-line",
        description="Columns products.csv: tau, re_g, im_g, re_zetaN_pow, "
        "im_zetaN_pow, re_h, im_h, at s = 1 + i tau.",
    )
    _add_common(p, alpha=True, n="one", tau=(-3.0, 3.0, 61))
    p.set_defaults(func=_cmd_products_table)

    p = subs.add_parser(
        "brute",
        help="brute-force oracle sum (JSON)",
        description="brute.json result fields: re_value, im_value, terms_used, "
        "u_cutoff, tail_certificate.",
    )
    _add_common(p, alpha=True, n="one", f=True)
    p.add_argument("--u-cutoff", default=None,
                   help="truncation in u = log n / log N ('inf' sums all terms)")
    p.add_argument("--count-cap", type=int, default=DEFAULT_COUNT_CAP)
    p.set_defaults(func=_cmd_brute)

    p = subs.add_parser(
        "exact",
        help="exact Fourier-integral sum (JSON)",
        description="exact.json result fields: re_value, im_value, quad_error, "
        "tail_bound, node_count.",
    )
    _add_common(p, alpha=True, n="one", f=True, tol=1e-7)
    p.set_defaults(func=_cmd_exact)

    p = subs.add_parser(
        "cfactor",
        help="main-term constant C_f (JSON)",
        description="cfactor.json result fields: re_C_f, im_C_f, quad_error, "
        "tail_bound, node_count.",
    )
    _add_common(p, alpha=True, n="one", f=True, tol=1e-7)
    p.add_argument("--integer-powers", action="store_true",
                   help="direct integer powers instead of branched logs")
    p.add_argument("--h-variant", choices=("infinite", "finite"), default="infinite")
    p.set_defaults(func=_cmd_cfactor)

    p = subs.add_parser(
        "theorem2",
        help="S vs C_f (log N)^alpha ladder (CSV)",
        description="Columns theorem2.csv: N, re_S, im_S, re_C_f, im_C_f, "
        "abs_E_measured, predicted_envelope, S_ledger, C_f_ledger.  "
        "E = S/(C_f (log N)^alpha) - 1; each ledger is quad_error + tail_bound; "
        "the envelope is (log N)^{1-eta} ((log log N)^{2 Re alpha/3} when "
        "Re alpha >= 0).",
    )
    _add_common(p, alpha=True, n="list", f=True, tol=1e-6)
    p.set_defaults(func=_cmd_theorem2)

    p = subs.add_parser(
        "tenenbaum",
        help="partial-zeta factorization errors (CSV)",
        description="Columns tenenbaum.csv: N, max_rel_err, argmax_tau, L_eps. "
        "max_rel_err is over the tau grid of |zeta_N/(zeta (s-1) log N "
        "rhohat) - 1|.",
    )
    _add_common(p, n="list", tau=(-3.0, 3.0, 25))
    p.add_argument("--eps", type=float, default=0.1, help="epsilon in L_eps(N)")
    p.set_defaults(func=_cmd_tenenbaum)

    p = subs.add_parser(
        "lemma1",
        help="h_N vs h decay measurement (CSV)",
        description="Columns lemma1.csv: N, max_rel_err, decay_ratio_to_next, "
        "expected_ratio (the N log N scaling).",
    )
    _add_common(p, alpha=True, n="list", tau=(-3.0, 3.0, 25))
    p.set_defaults(func=_cmd_lemma1)

    p = subs.add_parser(
        "errordecomp",
        help="window + substitution error report (JSON)",
        description="errordecomp.json result fields: i2_abs, i2_shape, i2_ratio, "
        "e2_abs, e2_shape, e2_ratio.",
    )
    _add_common(p, alpha=True, n="one", f=True, tol=1e-8)
    p.set_defaults(func=_cmd_errordecomp)

    p = subs.add_parser(
        "verify-all",
        help="run the acceptance gate",
        description="Writes criterion_NN.csv tables plus summary.csv; prints one "
        "PASS/FAIL line per criterion; exit 1 on any failure.  "
        "--determinism runs the gate again in the same process (warm caches) "
        "and byte-compares the tables.",
    )
    _add_common(p)
    p.add_argument("--determinism", action="store_true")
    p.set_defaults(func=_cmd_verify_all)
    return top


def _inject_config(argv: list) -> list:
    """Expand `--config FILE` or `--config=FILE` into the equivalent flags
    (given flags win)."""
    for i, arg in enumerate(argv):
        if arg == "--config" and i + 1 < len(argv):
            path = Path(argv[i + 1])
            break
        if arg.startswith("--config="):
            path = Path(arg[len("--config="):])
            break
    else:
        return argv
    extra = []
    for line in path.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        # --key=value form: values may start with '-' (e.g. tau grids)
        extra.append(f"--{key.strip()}={val.strip()}")
    # subcommand first, then config-derived flags, then explicit flags
    return argv[:1] + extra + argv[1:]


def run(argv) -> int:
    argv = list(argv)
    try:
        argv = _inject_config(argv)
        parser = build_parser()
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        if getattr(args, "f", None) is not None:
            args.f_obj = _parse_testfn(args.f)
        return args.func(args)
    except SmoothsumError as exc:
        print(f"computational error [{type(exc).__name__}]: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # a malformed --f, or an input the library refuses
        print(f"config error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
