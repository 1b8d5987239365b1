import hashlib
import json
import math
from pathlib import Path

import pytest

from smoothsum import sieve_primes
from smoothsum.cli import run


def body_of(path: Path) -> str:
    return "\n".join(
        line for line in path.read_text().splitlines() if not line.startswith("#")
    )


def config_of(path: Path) -> dict:
    out = {}
    for line in path.read_text().splitlines():
        if line.startswith("# config: "):
            key, _, val = line[len("# config: ") :].partition("=")
            out[key] = val
    return out


def test_brute_alpha_zero_json(tmp_path):
    rc = run(["brute", "--alpha", "0,0", "--k", "2", "--N", "30",
              "--f", "gaussian:0,1", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "brute.json").read_text())
    assert abs(data["result"]["re_value"] - 1.0) <= 1e-12
    assert data["result"]["im_value"] == 0.0
    assert data["result"]["terms_used"] == 1
    assert data["meta"]["config"]["alpha"] == "0,0"


def test_theorem2_columns(tmp_path):
    rc = run(["theorem2", "--alpha", "1,0", "--k", "2", "--N", "100",
              "--f", "gaussian:1,0.4", "--out", str(tmp_path)])
    assert rc == 0
    lines = body_of(tmp_path / "theorem2.csv").splitlines()
    assert lines[0] == (
        "N,re_S,im_S,re_C_f,im_C_f,abs_E_measured,predicted_envelope,S_ledger,C_f_ledger"
    )
    assert len(lines) == 2
    first = lines[1].split(",")
    assert first[0] == "100"
    assert float(first[5]) < 0.05
    assert 0 < float(first[7]) <= 1e-6 and 0 < float(first[8]) <= 1e-6


def test_byte_identical_bodies(tmp_path):
    argv = ["exact", "--alpha", "0.5,0.5", "--k", "3", "--N", "100",
            "--f", "gaussian:1,0.4", "--tol", "1e-7"]
    assert run(argv + ["--out", str(tmp_path / "a")]) == 0
    assert run(argv + ["--out", str(tmp_path / "b")]) == 0
    a = json.loads((tmp_path / "a/exact.json").read_text())
    b = json.loads((tmp_path / "b/exact.json").read_text())
    assert a["result"] == b["result"]


def test_brute_thread_counts_identical(tmp_path):
    """`brute` has no --threads option: asking for one is a config error."""
    base = ["brute", "--alpha", "0.5,0.5", "--k", "3", "--N", "30", "--f", "gaussian:1,0.4"]
    assert run(base + ["--out", str(tmp_path / "t1")]) == 0
    assert run(base + ["--threads", "8", "--out", str(tmp_path / "t8")]) == 2
    assert not (tmp_path / "t8").exists()


def test_config_file_round_trip(tmp_path):
    argv = ["tenenbaum", "--N", "1000,10000", "--tau=-3,3,13",
            "--out", str(tmp_path / "flags")]
    assert run(argv) == 0
    # replay from the emitted config: identical body
    cfg_items = config_of(tmp_path / "flags/tenenbaum.csv")
    cfg_items.pop("command")
    cfg = "\n".join(f"{k}={v}" for k, v in cfg_items.items())
    (tmp_path / "replay.cfg").write_text(cfg + "\n")
    cfg_path = str(tmp_path / "replay.cfg")
    for form in (["--config", cfg_path], [f"--config={cfg_path}"]):
        assert run(["tenenbaum", *form, "--out", str(tmp_path / "replay")]) == 0
        assert body_of(tmp_path / "flags/tenenbaum.csv") == body_of(
            tmp_path / "replay/tenenbaum.csv"
        )
        # and the re-emitted config matches the one it was parsed from
        assert config_of(tmp_path / "replay/tenenbaum.csv") == config_of(
            tmp_path / "flags/tenenbaum.csv"
        )


def test_flags_override_config(tmp_path):
    (tmp_path / "c.cfg").write_text("alpha=1,0\nk=2\nN=30\nf=gaussian:0,1\n")
    rc = run(["brute", "--config", str(tmp_path / "c.cfg"), "--alpha", "0,0",
              "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "brute.json").read_text())
    assert data["meta"]["config"]["alpha"] == "0,0"  # flag wins


def test_exit_code_config_error(tmp_path):
    assert run(["exact", "--alpha", "1,0", "--k", "1", "--N", "30",
                "--f", "gaussian:1,0.4", "--out", str(tmp_path)]) == 2
    assert run(["exact", "--alpha", "1,0", "--k", "2", "--N", "30",
                "--f", "gaussian:1,0.4", "--tol", "0.5", "--out", str(tmp_path)]) == 2
    assert run(["exact", "--alpha", "1,0", "--k", "2", "--N", "30",
                "--f", "lorentz:1", "--out", str(tmp_path)]) == 2
    assert run(["brute", "--alpha", "not-a-number", "--k", "2", "--N", "30",
                "--f", "gaussian:1,0.4", "--out", str(tmp_path)]) == 2
    # the single-N subcommands take one integer, not a ladder
    for cmd in ("products-table", "brute", "exact", "cfactor", "errordecomp"):
        argv = [cmd, "--alpha", "1,0", "--k", "2", "--N", "30,40", "--out", str(tmp_path)]
        if cmd != "products-table":
            argv += ["--f", "gaussian:1,0.4"]
        assert run(argv) == 2, cmd
    assert run(["tenenbaum", "--N", "1000,1", "--out", str(tmp_path)]) == 2
    # inputs the computation itself refuses with ValueError
    assert run(["lemma1", "--alpha", "1,0", "--k", "2", "--N", "50",
                "--out", str(tmp_path)]) == 2
    assert run(["tenenbaum", "--N", "100", "--out", str(tmp_path)]) == 2
    assert run(["cfactor", "--alpha", "1,0", "--k", "2", "--N", "10",
                "--f", "gaussian:1,0.4", "--out", str(tmp_path)]) == 2
    # NaN and negative inputs are refused up front
    brute = ["brute", "--alpha", "1,0", "--k", "2", "--N", "30", "--out", str(tmp_path)]
    assert run(brute + ["--f", "gaussian:1,0.4", "--u-cutoff", "nan"]) == 2
    assert run(brute + ["--f", "gaussian:1,0.4", "--u-cutoff", "-1"]) == 2
    assert run(brute + ["--f", "gaussian:1,0.4", "--count-cap", "-5"]) == 2
    assert run(brute + ["--f", "gaussian:1,nan"]) == 2
    assert run(brute + ["--f", "gaussian:nan,0.4"]) == 2
    assert run(["products-table", "--alpha", "1,0", "--k", "2", "--N", "30",
                "--tau=-inf,0,3", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []  # nothing written


def test_removed_options_are_refused(tmp_path):
    # lemma1 has no walk to size, and the gate has one level
    assert run(["lemma1", "--alpha", "1,0", "--k", "2", "--N", "1000",
                "--prime-cap", "10", "--out", str(tmp_path)]) == 2
    assert run(["verify-all", "--level", "quick", "--out", str(tmp_path)]) == 2
    assert list(tmp_path.iterdir()) == []


def test_exit_code_computational_error(tmp_path):
    # |Im s| = 1e9 is past zeta's certified range: PrecisionLoss, at once
    rc = run(["tenenbaum", "--N", "1000", "--tau=-1e9,1e9,3", "--out", str(tmp_path / "out")])
    assert rc == 3
    assert not (tmp_path / "out").exists()


def test_products_table_at_w_one(tmp_path):
    # alpha 2^(-s) = 1 at s = 1: a regular point of h, where h_2 = (1/2)^2 2
    assert run(["products-table", "--alpha", "2,0", "--k", "2", "--N", "100",
                "--tau=0,1,2", "--out", str(tmp_path)]) == 0
    rows = [line.split(",") for line in body_of(tmp_path / "products.csv").splitlines()[1:]]
    assert [float(r[0]) for r in rows] == [0.0, 1.0]
    for r in rows:
        s, h = complex(1.0, float(r[0])), 1.0 + 0j
        for p in sieve_primes(100).primes.tolist():
            h *= (1 - complex(p) ** -s) ** 2 * (1 + 2 * complex(p) ** -s)
        assert complex(float(r[5]), float(r[6])) == pytest.approx(h, rel=1e-12)


@pytest.mark.parametrize("cmd", ["brute", "cfactor"])
def test_huge_gaussian_sigma_ends_in_a_result_or_a_refusal(tmp_path, cmd):
    # sigma^2 is past the double range: a finite record or exit 3, never
    # OverflowError (exact refuses it: test_edge_inputs)
    rc = run([cmd, "--alpha", "1,0", "--k", "2", "--N", "100", "--f", "gaussian:1,1e300",
              "--out", str(tmp_path)])
    assert rc in (0, 3)
    if rc == 0:
        result = json.loads((tmp_path / f"{cmd}.json").read_text())["result"]
        assert all(math.isfinite(v) for v in result.values())


def test_exact_past_the_sieve_cap_is_refused_and_cfactor_runs(tmp_path):
    # the exact route sieves to N and refuses N = 10^21 (exit 3) before it
    # allocates; the main term sieves no prime past its h cutoff and runs
    args = ["--alpha", "1,0", "--k", "2", "--N", str(10**21), "--f", "gaussian:1,0.4"]
    assert run(["exact", *args, "--out", str(tmp_path / "bad")]) == 3
    assert not (tmp_path / "bad").exists()
    assert run(["cfactor", *args, "--out", str(tmp_path)]) == 0


@pytest.mark.parametrize(
    "argv, code",
    [
        (["dickman-table", "--du", "0"], 2),
        (["dickman-table", "--du=-1", "--dx=-1"], 2),
        (["dickman-table", "--x-max=-1"], 2),
        (["dickman-table", "--dx", "inf"], 2),
        (["tenenbaum", "--N", "1000", "--eps=-5"], 2),
        (["tenenbaum", "--N", "1000", "--eps", "nan"], 2),
        (["lemma1", "--alpha", "nan,0", "--k", "2", "--N", "1000"], 2),
        (["cfactor", "--alpha", "1e300,0", "--k", "2", "--N", "1000",
          "--f", "gaussian:1,0.4"], 3),
        (["cfactor", "--alpha", "1,0", "--k", "2", "--N", "100", "--f", "gaussian:1,1e3"], 3),
        (["cfactor", "--alpha", "1,0", "--k", "2", "--N", "100", "--f", "gaussian:1,0.02"], 0),
        (["lemma1", "--alpha", "1e60,0", "--k", "2", "--N", "1000"], 3),
        (["exact", "--alpha", "1,0", "--k", "2", "--N", "100", "--f", "gaussian:1,1e300"], 3),
        (["exact", "--alpha", "1,0", "--k", "2", "--N", "100", "--f", "gaussian:1e300,0.4"], 3),
        (["brute", "--alpha", "1,0", "--k", "2", "--N", "30", "--f", "gaussian:1,0.4",
          "--u-cutoff", "1e200"], 0),
        # a Gaussian centred below 0 takes its default cutoff, clamped at 0
        (["brute", "--f", "gaussian:-3,0.1", "--alpha", "1,0", "--k", "2", "--N", "30"], 0),
    ],
    ids=lambda v: " ".join(v[:3]) if isinstance(v, list) else f"exit{v}",
)
def test_edge_inputs(tmp_path, argv, code):
    out = tmp_path / "out"
    assert run(argv + ["--out", str(out)]) == code
    assert out.exists() == (code == 0)  # a refusal writes nothing


def test_json_meta_carries_the_csv_config_hash(tmp_path):
    def rule(config: dict) -> str:  # the hash a CSV header states
        canon = "\n".join(f"{k}={v}" for k, v in config.items())
        return hashlib.sha256(canon.encode()).hexdigest()[:16]

    assert run(["brute", "--alpha", "0.5,0.5", "--k", "3", "--N", "30",
                "--f", "gaussian:1,0.4", "--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / "brute.json").read_text())["meta"]
    assert meta["config_hash"] == rule(meta["config"])
    assert run(["zeta-table", "--tau=-1,1,3", "--out", str(tmp_path)]) == 0
    header = (tmp_path / "zeta_line.csv").read_text()
    assert f"# config_hash: {rule(config_of(tmp_path / 'zeta_line.csv'))}\n" in header


def test_cfactor_alpha_zero(tmp_path):
    rc = run(["cfactor", "--alpha", "0,0", "--k", "2", "--N", "100",
              "--f", "gaussian:1,0.4", "--out", str(tmp_path)])
    assert rc == 0
    data = json.loads((tmp_path / "cfactor.json").read_text())
    f0 = math.exp(-(0 - 1) ** 2 / (2 * 0.4**2))
    assert abs(data["result"]["re_C_f"] - f0) <= 1e-6


def test_dickman_table_output(tmp_path):
    rc = run(["dickman-table", "--u-max", "5", "--du", "0.5", "--x-max", "2",
              "--dx", "1", "--out", str(tmp_path)])
    assert rc == 0
    rho_lines = body_of(tmp_path / "dickman_rho.csv").splitlines()
    assert rho_lines[0] == "u,rho"
    vals = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rho_lines[1:]}
    assert vals[0.5] == 1.0
    assert vals[2.0] == pytest.approx(1 - math.log(2), abs=1e-10)
    hat_lines = body_of(tmp_path / "dickman_rhohat.csv").splitlines()
    assert hat_lines[0] == "x,re_rhohat,im_rhohat"


def test_zeta_and_products_and_lemma1_tables(tmp_path):
    assert run(["zeta-table", "--tau=-2,2,5", "--out", str(tmp_path)]) == 0
    lines = body_of(tmp_path / "zeta_line.csv").splitlines()
    assert lines[0] == "tau,re_zeta,im_zeta,re_regular,im_regular"
    assert run(["products-table", "--alpha", "1,0", "--k", "2", "--N", "100",
                "--tau=-1,1,3", "--out", str(tmp_path)]) == 0
    plines = body_of(tmp_path / "products.csv").splitlines()
    assert plines[0] == "tau,re_g,im_g,re_zetaN_pow,im_zetaN_pow,re_h,im_h"
    assert run(["lemma1", "--alpha", "1,0", "--k", "2", "--N", "1000,2000",
                "--tau=-1,1,5", "--out", str(tmp_path)]) == 0
    llines = body_of(tmp_path / "lemma1.csv").splitlines()
    assert llines[0] == "N,max_rel_err,decay_ratio_to_next,expected_ratio"
