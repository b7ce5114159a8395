import math
import warnings

import pytest

from omnistbc.cli import cli
from omnistbc.selfcheck import CHECKS

AC_CONFIG = """
code = ac
rate = 1
m = 16
snr_db = 6, 10
max_trials = 3000
min_bit_errors = 30
master_seed = 5
"""


def write_cfg(tmp_path, text=AC_CONFIG):
    path = tmp_path / "sim.cfg"
    path.write_text(text)
    return str(path)


def test_coding_gain_qostbc(capsys):
    assert cli(["coding-gain", "--code", "qostbc", "--rate", "1"]) == 0
    assert float(capsys.readouterr().out.strip()) == pytest.approx(4.0, abs=1e-9)


def test_coding_gain_ciod(capsys):
    assert cli(["coding-gain", "--code", "ciod", "--rate", "1"]) == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(8 / math.sqrt(5), abs=1e-9)


def test_coding_gain_rejects_nze(capsys):
    assert cli(["coding-gain", "--code", "nze_tc", "--rate", "1"]) == 2
    assert "enumerable" in capsys.readouterr().err


def test_pep_bound_runs(capsys):
    assert cli(["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "10", "--k", "2"]) == 0
    two_users = float(capsys.readouterr().out.strip())
    assert cli(["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "10", "--k", "1"]) == 0
    one_user = float(capsys.readouterr().out.strip())
    assert two_users == pytest.approx(2 * one_user, rel=1e-12)


@pytest.mark.parametrize(
    "argv,flag",
    [
        (["coding-gain", "--code", "ac", "--rate", "0"], "--rate"),
        (["pep-bound", "--code", "ac", "--rate", "0", "--snr-db", "5"], "--rate"),
        (["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "nan"], "--snr-db"),
        (["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "inf"], "--snr-db"),
        (["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "5", "--k", "0"], "--k"),
        (["coding-gain", "--code", "qostbc", "--rate", "4"], "--rate"),
        (["pep-bound", "--code", "qostbc", "--rate", "3", "--snr-db", "5"], "--rate"),
    ],
    ids=["coding-gain-rate", "pep-bound-rate", "snr-nan", "snr-inf", "k", "coding-gain-cap", "pep-bound-cap"],
)
def test_bad_flag_is_config_error(argv, flag, capsys):
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag}:" in err
    assert "Traceback" not in err


def test_unknown_subcommand_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli(["frobnicate"])
    assert exc.value.code != 0
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_exits_nonzero(capsys):
    with pytest.raises(SystemExit) as exc:
        cli(["coding-gain", "--code", "ac", "--rate", "1", "--frob"])
    assert exc.value.code != 0


def test_ber_sweep_writes_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "ber.csv"
    assert cli(["ber-sweep", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("code,rate_bps,M,")
    assert len(lines) == 3


def test_ber_sweep_config_error_names_key(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "code = qostbc\nm = 100\nsnr_db = 10\n")
    out = tmp_path / "x.csv"
    assert cli(["ber-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "m:" in err or "multiple" in err


def test_out_of_range_angle_is_config_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, AC_CONFIG + "pas.theta0_deg = 100\n")
    assert cli(["ber-sweep", "--config", cfg, "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert "config error: pas.theta0_deg" in err
    assert "Traceback" not in err


def test_unresolvable_spread_is_config_error(tmp_path, capsys):
    """A spread that no quadrature rule resolves stops the sweep with a
    config error that names the keys, before any CSV is written."""
    cfg = write_cfg(tmp_path, AC_CONFIG + "pas.sigma_deg = 1e-300\n")
    out = tmp_path / "x.csv"
    assert cli(["ber-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "config error: spacing_ratio, pas.sigma_deg: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("spacing", ["1e20", "1e300", "1e308"])
def test_unresolvable_spacing_is_config_error(spacing, tmp_path, capsys):
    """A spacing whose lag phases double precision cannot resolve stops the
    sweep with only a config error naming the key: no floating-point
    warning, no traceback and no CSV."""
    cfg = write_cfg(tmp_path, AC_CONFIG + f"spacing_ratio = {spacing}\n")
    out = tmp_path / "x.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["ber-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: spacing_ratio: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err and "RuntimeWarning" not in err
    assert not out.exists()


def test_unbuildable_rate_is_config_error(tmp_path, capsys):
    """A rate whose alphabet no array could hold stops the sweep with one
    config error line naming the key, before any CSV is written."""
    cfg = write_cfg(tmp_path, AC_CONFIG.replace("rate = 1", "rate = 64"))
    out = tmp_path / "x.csv"
    assert cli(["ber-sweep", "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: rate: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "text,key",
    [
        ("code = nze_tc\nnze.l = 10000000000000\nnze.n = 4\nsnr_db = 10\n", "nze.l"),
        ("code = nze_tc\nnze.l = 8\nnze.n = 10000000000000\nsnr_db = 10\n", "nze.l"),
        (AC_CONFIG.replace("m = 16", "m = 1099511627776"), "m"),
    ],
    ids=["nze.l", "nze.n", "m"],
)
def test_unbounded_size_is_config_error(text, key, tmp_path, capsys):
    """An L, N or M whose arrays would not fit in memory stops the sweep
    with one config error line naming the key, before any CSV is written."""
    out = tmp_path / "x.csv"
    assert cli(["ber-sweep", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "command,snr,key",
    [
        ("ber-sweep", "-7000", "snr_db"),
        ("ber-sweep", "1e303", "snr_db"),
        ("angle-sweep", "-7000", "snr_db"),
        ("angle-sweep", "1e303", "snr_db"),
        ("pep-bound", "-7000", "--snr-db"),
        ("pep-bound", "1e303", "--snr-db"),
    ],
)
def test_out_of_range_snr_is_config_error(command, snr, key, tmp_path, capsys):
    """An SNR past 300 dB either way, whose noise scale or integer key would
    overflow, stops with one config error line naming the key, not a
    traceback, before any CSV is written."""
    out = tmp_path / "x.csv"
    if command == "ber-sweep":
        cfg = write_cfg(tmp_path, AC_CONFIG.replace("snr_db = 6, 10", f"snr_db = 6, {snr}"))
        argv = [command, "--config", cfg, "--out", str(out)]
    elif command == "angle-sweep":
        cfg = write_cfg(tmp_path, AC_CONFIG + "theta0_deg_list = 0\n")
        argv = [command, "--config", cfg, "--snr-db", snr, "--out", str(out)]
    else:
        argv = [command, "--code", "ac", "--rate", "1", "--snr-db", snr]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_snr_at_the_bound_runs_without_warning(tmp_path, capsys):
    """At -300 and 300 dB every command runs, with no floating-point warning."""
    cfg = write_cfg(tmp_path, AC_CONFIG.replace("6, 10", "-300, 300") + "theta0_deg_list = 0\n")
    out = str(tmp_path / "x.csv")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli(["ber-sweep", "--config", cfg, "--out", out]) == 0
        for snr in ("-300", "300"):
            assert cli(["angle-sweep", "--config", cfg, "--snr-db", snr, "--out", out]) == 0
            for kind in ("single", "ac", "ostbc", "qostbc", "ciod"):
                assert cli(["pep-bound", "--code", kind, "--rate", "1", "--snr-db", snr]) == 0
    assert capsys.readouterr().err == ""


def test_validate_passes_every_check(capsys):
    """Each check prints one line; a failing check's line, which names the
    case that broke, is the assertion message."""
    status = cli(["validate"])
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if not line.startswith("[PASS] ")]
    assert not failed, "\n".join(failed)
    assert [line.partition(":")[0] for line in lines] == [f"[PASS] {name}" for name, _ in CHECKS]
    assert status == 0


def test_unbuildable_rate_flag_is_config_error(capsys):
    assert cli(["coding-gain", "--code", "ac", "--rate", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error: --rate: ")
    assert captured.err.count("\n") == 1
    assert captured.out == ""


def test_seed_override_changes_output(tmp_path):
    cfg = write_cfg(tmp_path)
    a, b, c = (tmp_path / n for n in ("a.csv", "b.csv", "c.csv"))
    assert cli(["ber-sweep", "--config", cfg, "--out", str(a)]) == 0
    assert cli(["ber-sweep", "--config", cfg, "--out", str(b), "--seed", "99"]) == 0
    assert cli(["ber-sweep", "--config", cfg, "--out", str(c), "--seed", "5"]) == 0
    assert a.read_bytes() != b.read_bytes()
    assert a.read_bytes() == c.read_bytes()


def test_angle_sweep_cli(tmp_path):
    text = AC_CONFIG + "theta0_deg_list = -30, 0, 30\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "angle.csv"
    assert cli(["angle-sweep", "--config", cfg, "--snr-db", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[4] == "-30"
