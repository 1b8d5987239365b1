import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import smoothsum.cache as cache
import smoothsum.dickman as dickman
import smoothsum.zeta_engine as zeta_engine
from smoothsum import (
    CountCapExceeded,
    SumParams,
    ToleranceUnachievable,
    UnwrapError,
    brute_S,
    build_rho,
    make_gaussian,
    make_test_constant,
    rho_hat_path,
)
from smoothsum.cli import build_parser


def test_dickman_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SMOOTHSUM_CACHE_DIR", str(tmp_path))
    fresh = build_rho(6.0, 1e-9)
    assert (tmp_path / "dickman_table.txt").is_file()
    cached = build_rho(6.0, 1e-9)
    us = np.linspace(0, 6, 301)
    # a cache hit reproduces the computed doubles bit for bit
    assert np.array_equal(fresh.rho(us), cached.rho(us))
    assert fresh.err_bound == cached.err_bound


def test_stieltjes_cache_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("SMOOTHSUM_CACHE_DIR", str(tmp_path))
    zeta_engine.stieltjes_constants.cache_clear()
    fresh = zeta_engine.stieltjes_constants()
    assert (tmp_path / "stieltjes.txt").is_file()
    zeta_engine.stieltjes_constants.cache_clear()
    cached = zeta_engine.stieltjes_constants()
    assert fresh == cached
    zeta_engine.stieltjes_constants.cache_clear()


def test_cache_disabled_without_env(tmp_path, monkeypatch):
    monkeypatch.delenv("SMOOTHSUM_CACHE_DIR", raising=False)
    build_rho(3.0, 1e-8)
    assert not list(tmp_path.iterdir())


def test_build_rho_tolerance_unachievable(monkeypatch):
    monkeypatch.setattr(dickman, "_MAX_CHEB_DEGREE", 2)
    with pytest.raises(ToleranceUnachievable):
        build_rho(5.0, 1e-8)


def test_truncated_dickman_cache_is_a_miss(tmp_path, monkeypatch):
    """A cache file cut short (an interrupted write) is rebuilt, not read:
    cut after a few lines, and cut inside its last number, which keeps the
    value count right but changes the value."""
    monkeypatch.setenv("SMOOTHSUM_CACHE_DIR", str(tmp_path))
    fresh = build_rho(10.0, 1e-10)
    path = tmp_path / "dickman_table.txt"
    whole = path.read_bytes()
    us = np.linspace(0, 10, 401)
    for cut in (whole[:3000], whole.rstrip(b"\n")[:-1]):
        path.write_bytes(cut)
        rebuilt = build_rho(10.0, 1e-10)
        assert np.array_equal(fresh.rho(us), rebuilt.rho(us))
        # the rebuild rewrote a whole file, with no temp file left beside it
        assert path.read_bytes() == whole
        assert build_rho(10.0, 1e-10).err_bound == fresh.err_bound
        assert [p.name for p in tmp_path.iterdir()] == ["dickman_table.txt"]


@settings(
    max_examples=60,
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=12))
def test_cache_round_trip_property(tmp_path, monkeypatch, values):
    """Every finite float list comes back bit for bit, and every strict
    prefix of the stored file is a miss."""
    monkeypatch.setenv("SMOOTHSUM_CACHE_DIR", str(tmp_path))
    cache.store_floats("prop.txt", "key", values)
    got = cache.load_floats("prop.txt", "key")
    assert np.array(got, dtype=float).tobytes() == np.array(values, dtype=float).tobytes()
    path = tmp_path / "prop.txt"
    whole = path.read_bytes()
    for n in range(len(whole)):
        path.write_bytes(whole[:n])
        assert cache.load_floats("prop.txt", "key") is None


def test_rho_hat_pow_unwrap_error():
    with pytest.raises(UnwrapError):
        rho_hat_path(np.linspace(-10, 10, 9), max_refine=0)


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


def test_every_csv_column_documented_in_help():
    """The --help text of each table subcommand names every emitted column."""
    columns = {
        "dickman-table": ["u", "rho", "x", "re_rhohat", "im_rhohat"],
        "zeta-table": ["tau", "re_zeta", "im_zeta", "re_regular", "im_regular", "method"],
        "products-table": ["tau", "re_g", "im_g", "re_zetaN_pow", "im_zetaN_pow", "re_h", "im_h"],
        "theorem2": ["N", "re_S", "im_S", "re_C_f", "im_C_f", "abs_E_measured", "predicted_envelope"],
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
