"""The acceptance gate: every criterion at its stated scale and tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Criterion 10 (byte-level determinism across repeat runs)
drives the CLI `verify-all` subcommand end to end.
"""

from pathlib import Path

from smoothsum import acceptance
from smoothsum.cli import run


def _run(check):
    res = check()
    print()
    print(res.line())
    assert res.passed, res.detail
    return res


def test_criterion_01_oracle_equivalence():
    res = _run(acceptance.check_oracle_equivalence)
    assert res.elapsed < 120.0


def test_criterion_02_product_identity():
    _run(acceptance.check_product_identity)


def test_criterion_03_golden_values():
    res = _run(acceptance.check_golden_values)
    assert res.elapsed < 60.0


def test_criterion_04_tenenbaum_trend():
    res = _run(acceptance.check_tenenbaum)
    assert res.elapsed < 300.0
    errs = [row[1] for row in res.rows]
    assert errs[-1] <= 0.1
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))


def test_criterion_05_lemma1_trend():
    _run(acceptance.check_lemma1)


def test_criterion_06_theorem2_convergence():
    res = _run(acceptance.check_theorem2)
    assert res.elapsed < 600.0


def test_criterion_07_alpha_zero():
    _run(acceptance.check_alpha_zero)


def test_criterion_08_vinogradov_korobov():
    _run(acceptance.check_vinogradov_korobov)


def test_criterion_09_branch_robustness():
    _run(acceptance.check_branch_robustness)


def _stripped_tables(out_dir: Path) -> dict:
    tables = {}
    for path in sorted(out_dir.glob("*.csv")):
        tables[path.name] = "\n".join(
            line for line in path.read_text().splitlines() if not line.startswith("#")
        )
    return tables


def test_criterion_10_determinism(tmp_path):
    """verify-all twice: byte-identical tables."""
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        rc = run(["verify-all", "--out", str(out)])
        assert rc == 0, f"verify-all failed (run {name})"
        outs.append(_stripped_tables(out))
    assert outs[0] == outs[1], "repeat run differs"
    assert len(outs[0]) == 10  # nine criterion tables + summary
    print()
    print("PASS criterion 10 [determinism]: 2 verify-all runs byte-identical")
