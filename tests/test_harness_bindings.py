"""The benchmark harness in perfbench/ patches and calls library names from
outside the library.  A traced run reports a per-layer metric only while
its binding exists, so a deleted or renamed name silently drops metrics the
benchmark declares.  These tests pin every name it uses."""

import importlib.util
import json
from pathlib import Path

import pytest

import smoothsum

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def workloads():
    return _load("workloads")


def test_traced_run_reports_every_declared_layer():
    layers = _load("layers")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    # the trace.* metrics come from run.py, not from a library binding
    expected = {m["name"] for m in declared if not m["name"].startswith("trace.")}
    tr = layers.install(smoothsum)
    try:
        assert set(layers.report(tr)) == expected
    finally:
        tr.restore()


def test_worker_setup_calls():
    assert smoothsum.dickman.default_table().u_max == 45.0
    assert len(smoothsum.zeta_engine.stieltjes_constants()) == 6
    f = smoothsum.make_gaussian(1, 0.4)
    p = smoothsum.SumParams(1, 2, 30)
    assert smoothsum.oracle.brute_S(p, f, threads=1).value == smoothsum.brute_S(p, f).value


@pytest.mark.parametrize(
    "workload, alpha, k, N, tol",
    [
        ("oracle", 0.5 + 0.5j, 3, 30, 0.0),
        ("exact", -1 + 0j, 2, 300, 1e-7),
        ("main-term", 1 + 0j, 3, 200, 1e-6),
        ("main-term", 0.1 + 0.05j, 2, 200, 1e-6),
    ],
)
def test_workload_ops_run_and_pass(workloads, workload, alpha, k, N, tol):
    op = workloads._op(workload, alpha, k, N, tol)
    f = smoothsum.make_gaussian(*workloads.TEST_FUNCTION)
    res = workloads.execute(smoothsum, op, f)
    ref = workloads.reference(smoothsum, op, f)
    passed, gap, allowed = workloads.judge(op, res, ref)
    assert passed, (gap, allowed)
