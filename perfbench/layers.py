"""Per-layer spans for the traced run, recorded from outside the library.

Each layer is timed by replacing the module-level names through which one
layer calls another (for example `asymptotic.g_values`, the binding the
exact integral uses) with a wrapper that records calls, wall time, time in
wrapped children, and work counters.  `restore()` puts every original back.
A binding the library no longer has is recorded as absent; metrics that
depend only on absent bindings are left out of the report, not set to 0.
"""

import time
import types
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.ns = defaultdict(int)  # span name -> total wall ns
        self.child_ns = defaultdict(int)  # span name -> ns inside wrapped children
        self.calls = defaultdict(int)
        self.count = defaultdict(int)  # work counters
        self.peak = defaultdict(int)  # largest value seen
        self.present = set()  # span names with at least one live binding
        self._stack = []
        self._saved = []

    # -- recording ---------------------------------------------------------

    def _timed(self, name, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            frame = [0]
            self._stack.append(frame)
            t0 = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter_ns() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dt
                self.ns[name] += dt
                self.child_ns[name] += frame[0]
                self.calls[name] += 1
            if after is not None:
                after(self, args, out)
            return out

        return wrapper

    def _generator(self, name, fn):
        """Time spent producing items, excluding the consumer's work."""

        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            ns = 0
            try:
                while True:
                    t0 = time.perf_counter_ns()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        ns += time.perf_counter_ns() - t0
                    yield item
            finally:
                self.ns[name] += ns
                self.calls[name] += 1

        return wrapper

    def patch(self, module, attr, name, kind="call", before=None, after=None):
        if module is None or not hasattr(module, attr):
            return
        orig = getattr(module, attr)
        if kind == "generator":
            new = self._generator(name, orig)
        else:
            new = self._timed(name, orig, before, after)
        self._saved.append((module, attr, orig))
        setattr(module, attr, new)
        self.present.add(name)

    def restore(self):
        while self._saved:
            module, attr, orig = self._saved.pop()
            setattr(module, attr, orig)

    # -- report --------------------------------------------------------------

    def seconds(self, name):
        return self.ns[name] / 1e9

    def self_seconds(self, name):
        return (self.ns[name] - self.child_ns[name]) / 1e9


def _sieve_bound(tr, args, kwargs):
    bound = args[0] if args else kwargs["bound"]
    tr.peak["sieve_bound"] = max(tr.peak["sieve_bound"], int(bound))
    return args, kwargs


def _g_pieces(tr, args, kwargs):
    nodes = args[1] if len(args) > 1 else kwargs["s_nodes"]
    primes = args[2] if len(args) > 2 else kwargs.get("primes")
    n_primes = len(primes) if primes is not None else 0
    tr.count["g_pieces"] += getattr(nodes, "size", 1) * n_primes
    return args, kwargs


def _h_cutoff_P(tr, args, out):
    tr.peak["h_cutoff_P"] = max(tr.peak["h_cutoff_P"], int(out[0]))


def _brute_terms(tr, args, out):
    tr.count["terms"] += out.terms_used


def _quad_integrand(tr, args, kwargs):
    args = (tr._timed("quadrature.integrand", args[0]),) + tuple(args[1:])
    return args, kwargs


def _quad_nodes(tr, args, out):
    tr.count["quad_nodes"] += out[0].node_count


def _path_nodes(tr, args, out):
    tr.count["path_nodes"] += len(out.xs)


def install(lib) -> Tracer:
    """Wrap every layer boundary the benchmark reports on."""
    tr = Tracer()
    # a module the library no longer has is None, and patch() skips it
    m = types.SimpleNamespace(
        **{n: getattr(lib, n, None) for n in (
            "arith_core", "asymptotic", "dickman", "euler_products", "oracle", "zeta_engine"
        )}
    )
    for mod in (m.asymptotic, m.oracle, m.euler_products, m.arith_core):
        tr.patch(mod, "sieve_primes", "arith_core.sieve", before=_sieve_bound)
    tr.patch(m.oracle, "brute_S", "oracle.brute", after=_brute_terms)
    tr.patch(m.oracle, "enumerate_kfree_smooth", "oracle.enum", kind="generator")
    tr.patch(m.asymptotic, "g_values", "euler_products.g_values", before=_g_pieces)
    for mod in (m.asymptotic, m.oracle):
        tr.patch(mod, "g_abs_bound", "euler_products.g_abs_bound")
    tr.patch(m.asymptotic, "h_cutoff", "euler_products.h_cutoff", after=_h_cutoff_P)
    tr.patch(m.asymptotic, "exact_integral", "asymptotic.exact_integral")
    tr.patch(m.asymptotic, "main_term", "asymptotic.main_term")
    tr.patch(
        m.asymptotic,
        "integrate_adaptive",
        "quadrature.integrate",
        before=_quad_integrand,
        after=_quad_nodes,
    )
    tr.patch(m.dickman, "build_rho", "dickman.table")
    tr.patch(m.dickman, "rho_hat_path", "dickman.rho_path")
    tr.patch(m.dickman, "expint_J", "dickman.expint_J")
    tr.patch(m.zeta_engine, "stieltjes_constants", "zeta_engine.stieltjes")
    tr.patch(m.zeta_engine, "regular_factor_path", "zeta_engine.regular_path")
    tr.patch(m.zeta_engine, "zeta", "zeta_engine.zeta")
    for mod in (m.dickman, m.zeta_engine):
        tr.patch(mod, "build_branched_path", "branching.path", after=_path_nodes)
    return tr


def _rate(num, den, scale=1.0):
    return scale * num / den if den > 0 else 0.0


def report(tr: Tracer) -> dict:
    """Per-layer metrics of one traced pass; absent layers are omitted."""
    out = {}

    def put(span, name, value):
        if span in tr.present:
            out[name] = value

    s = tr.seconds
    put("arith_core.sieve", "arith_core.sieve_s", s("arith_core.sieve"))
    put("arith_core.sieve", "arith_core.sieve_max_bound", tr.peak["sieve_bound"])

    brute, enum = s("oracle.brute"), s("oracle.enum")
    put("oracle.brute", "oracle.brute_s", brute)
    put("oracle.brute", "oracle.terms", tr.count["terms"])
    put("oracle.brute", "oracle.terms_per_s", _rate(tr.count["terms"], brute))
    put("oracle.enum", "oracle.enum_s", enum)
    if "oracle.enum" in tr.present:
        put("oracle.brute", "oracle.accum_s", brute - enum)

    g = s("euler_products.g_values")
    put("euler_products.g_values", "euler_products.g_values_calls", tr.calls["euler_products.g_values"])
    put("euler_products.g_values", "euler_products.g_pieces", tr.count["g_pieces"])
    put("euler_products.g_values", "euler_products.g_values_s", g)
    put("euler_products.g_values", "euler_products.g_pieces_per_s", _rate(tr.count["g_pieces"], g))
    put("euler_products.g_abs_bound", "euler_products.g_abs_bound_s", s("euler_products.g_abs_bound"))
    put("euler_products.h_cutoff", "euler_products.h_cutoff_calls", tr.calls["euler_products.h_cutoff"])
    put("euler_products.h_cutoff", "euler_products.h_cutoff_P_max", tr.peak["h_cutoff_P"])

    put("asymptotic.exact_integral", "asymptotic.exact_integral_s", s("asymptotic.exact_integral"))
    put("asymptotic.main_term", "asymptotic.main_term_s", s("asymptotic.main_term"))
    put("asymptotic.main_term", "asymptotic.main_term_self_s", tr.self_seconds("asymptotic.main_term"))

    q = "quadrature.integrate"
    put(q, "quadrature.integrals", tr.calls[q])
    put(q, "quadrature.nodes", tr.count["quad_nodes"])
    put(q, "quadrature.nodes_per_integral", _rate(tr.count["quad_nodes"], tr.calls[q]))
    put(q, "quadrature.integrate_s", s(q))
    put(q, "quadrature.self_s", tr.self_seconds(q))

    put("dickman.table", "dickman.table_s", s("dickman.table"))
    put("dickman.rho_path", "dickman.rho_path_s", s("dickman.rho_path"))
    put("dickman.expint_J", "dickman.rho_evals", tr.calls["dickman.expint_J"])
    put(
        "dickman.expint_J",
        "dickman.us_per_rho_hat",
        _rate(s("dickman.expint_J"), tr.calls["dickman.expint_J"], 1e6),
    )

    put("zeta_engine.stieltjes", "zeta_engine.stieltjes_s", s("zeta_engine.stieltjes"))
    put("zeta_engine.regular_path", "zeta_engine.regular_path_s", s("zeta_engine.regular_path"))
    put("zeta_engine.zeta", "zeta_engine.zeta_calls", tr.calls["zeta_engine.zeta"])
    put(
        "zeta_engine.zeta",
        "zeta_engine.us_per_zeta",
        _rate(s("zeta_engine.zeta"), tr.calls["zeta_engine.zeta"], 1e6),
    )

    put("branching.path", "branching.paths", tr.calls["branching.path"])
    put("branching.path", "branching.path_nodes", tr.count["path_nodes"])
    return out


# the layer time each workload is meant to spend its wall time in
INTENDED = {
    "oracle": ("oracle.brute_s",),
    "exact": ("euler_products.g_values_s",),
    "main-term": ("asymptotic.main_term_self_s", "arith_core.sieve_s"),
}

UNITS = {
    "arith_core.sieve_s": "s",
    "arith_core.sieve_max_bound": "count",
    "oracle.brute_s": "s",
    "oracle.terms": "count",
    "oracle.terms_per_s": "1/s",
    "oracle.enum_s": "s",
    "oracle.accum_s": "s",
    "euler_products.g_values_calls": "count",
    "euler_products.g_pieces": "count",
    "euler_products.g_values_s": "s",
    "euler_products.g_pieces_per_s": "1/s",
    "euler_products.g_abs_bound_s": "s",
    "euler_products.h_cutoff_calls": "count",
    "euler_products.h_cutoff_P_max": "count",
    "asymptotic.exact_integral_s": "s",
    "asymptotic.main_term_s": "s",
    "asymptotic.main_term_self_s": "s",
    "quadrature.integrals": "count",
    "quadrature.nodes": "count",
    "quadrature.nodes_per_integral": "count",
    "quadrature.integrate_s": "s",
    "quadrature.self_s": "s",
    "dickman.table_s": "s",
    "dickman.rho_path_s": "s",
    "dickman.rho_evals": "count",
    "dickman.us_per_rho_hat": "us",
    "zeta_engine.stieltjes_s": "s",
    "zeta_engine.regular_path_s": "s",
    "zeta_engine.zeta_calls": "count",
    "zeta_engine.us_per_zeta": "us",
    "branching.paths": "count",
    "branching.path_nodes": "count",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.intended_share": "ratio",
}
