"""The acceptance gate: every criterion at its stated scale and tolerance.

Run with `pytest -v -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion.  Criterion 10 (byte-level determinism across repeat runs)
drives the CLI `verify-all` subcommand end to end.
"""

from pathlib import Path

import pytest

from smoothsum import acceptance
from smoothsum.cli import run


@pytest.mark.parametrize("check", acceptance.CRITERIA, ids=lambda fn: fn.__name__)
def test_criterion(check):
    res = check()
    print()
    print(res.line())
    assert res.passed, res.detail


def test_a_body_past_its_budget_fails(monkeypatch):
    def body():
        return True, "ok", [(1, True)]

    monkeypatch.setattr(acceptance, "CRITERIA", [])  # the gate's registry stays as it is
    over = acceptance.criterion(98, "over", ("x", "ok"), budget=0.0)(body)  # no body runs in 0 s
    free = acceptance.criterion(99, "free", ("x", "ok"))(body)
    assert acceptance.CRITERIA == [over, free]
    assert (over().passed, free().passed) == (False, True)


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
