import math

import numpy as np
import pytest

import smoothsum.branching as branching
import smoothsum.dickman as dickman
from smoothsum import (
    CountCapExceeded,
    SumParams,
    ToleranceUnachievable,
    UnwrapError,
    brute_S,
    build_rho,
    make_gaussian,
    make_test_constant,
)
from smoothsum.dickman import rho_hat_path
from smoothsum.cli import build_parser


def test_build_rho_tolerance_unachievable(monkeypatch):
    monkeypatch.setattr(dickman, "_MAX_CHEB_DEGREE", 2)
    with pytest.raises(ToleranceUnachievable):
        build_rho(5.0, 1e-8)


def test_rho_hat_pow_unwrap_error(monkeypatch):
    monkeypatch.setattr(branching, "MAX_REFINE", 0)
    with pytest.raises(UnwrapError):
        rho_hat_path(np.linspace(-10, 10, 9))


def test_brute_count_cap():
    f = make_gaussian(1, 0.4)
    with pytest.raises(CountCapExceeded):
        brute_S(SumParams(1, 3, 30), f, math.inf, count_cap=100)
    # the cap bounds the whole sum (3^10 = 59049 terms), not each of the k seeds
    f1 = make_test_constant()
    with pytest.raises(CountCapExceeded):
        brute_S(SumParams(1, 3, 30), f1, math.inf, count_cap=30000)
    with pytest.raises(CountCapExceeded):
        brute_S(SumParams(1, 3, 30), f1, math.inf, count_cap=3**9)
    full = brute_S(SumParams(1, 3, 30), f1, math.inf, count_cap=3**10)
    assert full.terms_used == 3**10
    # a negative cap is an input error, not a cap the sum exceeds
    with pytest.raises(ValueError):
        brute_S(SumParams(1, 2, 30), f, count_cap=-5)


def test_every_csv_column_documented_in_help():
    """The --help text of each table subcommand names every emitted column."""
    columns = {
        "dickman-table": ["u", "rho", "x", "re_rhohat", "im_rhohat"],
        "zeta-table": ["tau", "re_zeta", "im_zeta", "re_regular", "im_regular"],
        "products-table": ["tau", "re_g", "im_g", "re_zetaN_pow", "im_zetaN_pow", "re_h", "im_h"],
        "theorem2": ["N", "re_S", "im_S", "re_C_f", "im_C_f", "abs_E_measured", "predicted_envelope",
                     "S_ledger", "C_f_ledger"],
        "tenenbaum": ["N", "max_rel_err", "argmax_tau", "L_eps"],
        "lemma1": ["N", "max_rel_err", "decay_ratio_to_next", "expected_ratio"],
    }
    parser = build_parser()
    subactions = next(
        a for a in parser._actions if isinstance(a, type(parser._subparsers._group_actions[0]))
    )
    for name, cols in columns.items():
        help_text = subactions.choices[name].format_help()
        for col in cols:
            assert col in help_text, f"{name}: column {col} missing from --help"
