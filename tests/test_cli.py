import math
import os
import subprocess
import sys
import warnings

import pytest

from omnistbc import analysis, engine, kinds, precoding, receivers, selfcheck
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


def test_package_runs_as_a_module():
    """``python -m omnistbc`` starts the same front end: a fresh interpreter
    prints QOSTBC's coding gain and exits 0."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "omnistbc", "coding-gain", "--code", "qostbc", "--rate", "1"],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert out.returncode == 0, out.stderr
    assert float(out.stdout) == pytest.approx(4.0, abs=1e-9)


def test_coding_gain_ciod(capsys):
    assert cli(["coding-gain", "--code", "ciod", "--rate", "1"]) == 0
    out = float(capsys.readouterr().out.strip())
    assert out == pytest.approx(8 / math.sqrt(5), abs=1e-9)


def test_coding_gain_qostbc_rate_3(capsys):
    """R = 3 has 2^24 whole-codebook pairs but 64 candidates per group, so
    the gain enumerates and prints the closed form 8 sin^3(pi / 8)."""
    assert cli(["coding-gain", "--code", "qostbc", "--rate", "3"]) == 0
    assert capsys.readouterr().out == "0.448341529168\n"


def test_coding_gain_enumerates_each_group_once(monkeypatch, capsys):
    """``coding-gain`` builds the groups' sub-codebooks once beyond what
    ``build_code`` builds: the analysis checks the pair cap on the codebooks
    it enumerates, the CLI sizes none of its own, and the decoder, built on
    first use, is not built."""
    calls = []
    enumerate_groups = kinds.Code.group_codebooks

    def counted(code):
        calls.append(code)
        return enumerate_groups(code)

    monkeypatch.setattr(kinds.Code, "group_codebooks", counted)
    kinds.build_code("qostbc", 3)
    built = len(calls)
    calls.clear()
    assert cli(["coding-gain", "--code", "qostbc", "--rate", "3"]) == 0
    assert capsys.readouterr().out == "0.448341529168\n"
    assert len(calls) <= built + 1


def test_refused_rate_builds_no_decoder(monkeypatch, capsys):
    """``coding-gain`` refuses a rate past the pair cap without building the
    ML decoder's search weights: the decoder is built on first use."""
    built = []
    init = receivers._GroupSearch.__init__

    def counted(self, code):
        built.append(code)
        init(self, code)

    monkeypatch.setattr(receivers._GroupSearch, "__init__", counted)
    assert cli(["coding-gain", "--code", "qostbc", "--rate", "8"]) == 2
    assert capsys.readouterr().err == (
        "config error: --rate: 8 is too large to enumerate: 4294901760 codeword pairs "
        "exceed the enumeration cap 1048576\n"
    )
    assert built == []


def test_coding_gain_rejects_nze(capsys):
    assert cli(["coding-gain", "--code", "nze_tc", "--rate", "1"]) == 2
    assert "enumerable" in capsys.readouterr().err


def test_pep_bound_runs(capsys):
    assert cli(["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "10", "--k", "2"]) == 0
    two_users = float(capsys.readouterr().out.strip())
    assert cli(["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "10", "--k", "1"]) == 0
    one_user = float(capsys.readouterr().out.strip())
    assert two_users == pytest.approx(2 * one_user, rel=1e-12)


# The refusal of 2^12 codewords, a QOSTBC group's at R = 6 or its whole
# codebook at R = 3, past the pair cap.
CAP_EXCESS = "too large to enumerate: 16773120 codeword pairs exceed the enumeration cap 1048576"
# A misspelt kind is unknown, not a kind without an enumerable codebook.
UNKNOWN_CODE = "--code: 'qostc' is an unknown kind; choose one of single, ac, ostbc, qostbc, ciod"


@pytest.mark.parametrize(
    "argv,flag,line",
    [
        (["coding-gain", "--code", "ac", "--rate", "0"], "--rate", None),
        (["pep-bound", "--code", "ac", "--rate", "0", "--snr-db", "5"], "--rate", None),
        (["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "nan"], "--snr-db", None),
        (["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "inf"], "--snr-db", None),
        (["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "5", "--k", "0"], "--k", None),
        (
            ["coding-gain", "--code", "qostbc", "--rate", "6"],
            "--rate",
            f"--rate: 6 is {CAP_EXCESS}",
        ),
        (
            ["pep-bound", "--code", "qostbc", "--rate", "3", "--snr-db", "5"],
            "--rate",
            f"--rate: 3 is {CAP_EXCESS}",
        ),
        (
            ["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "10", "--k", "1" + "0" * 400],
            "--k",
            None,
        ),
        (
            ["pep-bound", "--code", "ac", "--rate", "1", "--snr-db", "-300", "--k", "1" + "0" * 300],
            "--k, --snr-db",
            None,
        ),
        (["coding-gain", "--code", "qostc", "--rate", "1"], "--code", UNKNOWN_CODE),
        (["pep-bound", "--code", "qostc", "--rate", "1", "--snr-db", "5"], "--code", UNKNOWN_CODE),
    ],
    ids=[
        "coding-gain-rate", "pep-bound-rate", "snr-nan", "snr-inf", "k", "coding-gain-cap",
        "pep-bound-cap", "k-overflow", "bound-overflow", "coding-gain-code", "pep-bound-code",
    ],
)
def test_bad_flag_is_config_error(argv, flag, line, capsys):
    """One config error line naming the flag; where ``line`` is given, the
    whole of stderr is that line."""
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert f"config error: {flag}:" in err
    assert "Traceback" not in err
    if line is not None:
        assert err == f"config error: {line}\n"


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


@pytest.mark.parametrize("seed", [-1, 1 << 64, 0, (1 << 64) - 1])
def test_seed_outside_64_bits_is_refused(seed, tmp_path, capsys):
    """The streams are keyed on the seed's 64 bits, so a --seed outside
    [0, 2^64) would repeat the run of another seed: it stops with one config
    error line naming master_seed.  Both ends of the range run."""
    out = tmp_path / "x.csv"
    argv = ["ber-sweep", "--config", write_cfg(tmp_path), "--out", str(out), "--seed", str(seed)]
    if 0 <= seed < 1 << 64:
        assert cli(argv) == 0
        assert out.read_text().splitlines()[1].endswith(f",{seed}")
    else:
        assert cli(argv) == 2
        assert capsys.readouterr().err == (
            f"config error: master_seed: must be in [0, 2^64), got {seed}\n"
        )
        assert not out.exists()


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    """A config file that is not UTF-8 stops with one config error line
    naming the file and the offending byte's offset."""
    path = tmp_path / "sim.cfg"
    path.write_bytes(b"code = ac\nsnr_db = 0\n\xff\xfe = 1\n")
    assert cli(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: byte 21 ")
    assert err.count("\n") == 1


def test_leading_bom_is_ignored(tmp_path):
    """A config saved with a UTF-8 byte order mark writes the same CSV
    bytes as the same text without it."""
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_bytes(AC_CONFIG.lstrip().encode())
    marked.write_bytes(b"\xef\xbb\xbf" + AC_CONFIG.lstrip().encode())
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert cli(["ber-sweep", "--config", str(plain), "--out", str(a)]) == 0
    assert cli(["ber-sweep", "--config", str(marked), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_bom_config_reports_the_file_offset_of_a_bad_byte(tmp_path, capsys):
    """Past a byte order mark, a byte that is not UTF-8 is still reported
    at its offset in the file, the mark's three bytes included."""
    path = tmp_path / "sim.cfg"
    path.write_bytes(b"\xef\xbb\xbfcode = ac\nsnr_db = 0\n\xff\xfe = 1\n")
    assert cli(["ber-sweep", "--config", str(path), "--out", str(tmp_path / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: byte 24 ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "command,line,reason",
    [
        ("ber-sweep", "snr_db = 6,,10", "empty list item"),
        ("ber-sweep", "snr_db = 6, 10,", "empty list item"),
        ("ber-sweep", "snr_db =", "empty list"),
        ("angle-sweep", "theta0_deg_list = 0,,30", "empty list item"),
        ("angle-sweep", "theta0_deg_list = , 0, 30", "empty list item"),
    ],
    ids=["snr-inner", "snr-trailing", "snr-empty", "angle-inner", "angle-leading"],
)
def test_empty_list_item_is_config_error(command, line, reason, tmp_path, capsys):
    """An empty item in a list value is refused, not dropped, and so is an
    empty value: one config error line naming the key, and no CSV."""
    text = AC_CONFIG.replace("snr_db = 6, 10\n", "") + line + "\n"
    out = tmp_path / "x.csv"
    argv = [command, "--config", write_cfg(tmp_path, text), "--out", str(out)]
    if command == "angle-sweep":
        argv += ["--snr-db", "6"]
    assert cli(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {line.split()[0]}: cannot parse value ")
    assert err.endswith(f"({reason})\n")
    assert err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("out", ["missing/x.csv", "."], ids=["no-parent", "directory"])
def test_unwritable_out_is_refused_before_the_sweep(out, tmp_path, monkeypatch, capsys):
    """An --out whose directory is missing, or that is a directory, stops
    with one config error line naming --out before any trial runs."""
    from omnistbc import engine

    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(engine, "run_ber_sweep", no_sweep)
    out = tmp_path / out
    assert cli(["ber-sweep", "--config", write_cfg(tmp_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: --out: ")
    assert err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


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
    assert "config error: m, spacing_ratio, pas.sigma_deg, pas.theta0_deg: " in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("m,theta0", [(524288, 0), (262144, 60)])
def test_unresolvable_array_size_is_config_error(m, theta0, tmp_path, capsys):
    """An array too large for the covariance quadrature at the default
    spacing and spread stops the sweep with one config error line naming
    the keys and the angle, and writes no CSV."""
    cfg = write_cfg(tmp_path, AC_CONFIG.replace("m = 16", f"m = {m}") + f"pas.theta0_deg = {theta0}\n")
    out = tmp_path / "x.csv"
    assert cli(["ber-sweep", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "config error: m, spacing_ratio, pas.sigma_deg, pas.theta0_deg: covariance quadrature "
        f"did not converge within 65536 panels at {theta0} degrees\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("sigma", ["1e200", "1e308"])
def test_spread_past_any_angle_is_the_flat_pas(sigma, tmp_path, capsys):
    """A spread too wide for 2 sigma^2 to be a finite float runs without a
    warning and writes the CSV of an infinite spread, the flat PAS."""
    rows = {}
    for value in (sigma, "inf"):
        cfg = write_cfg(tmp_path, AC_CONFIG + f"pas.sigma_deg = {value}\n")
        out = tmp_path / f"{value}.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli(["ber-sweep", "--config", cfg, "--out", str(out)]) == 0
        rows[value] = out.read_bytes()
    assert rows[sigma] == rows["inf"]
    assert "Traceback" not in capsys.readouterr().err


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


def test_nze_keys_on_fixed_port_kind_are_config_error(tmp_path, capsys):
    """NZE keys on a kind with fixed ports stop the sweep with one config
    error line naming the key, instead of running its 4 ports."""
    text = "code = qostbc\nnze.n = 8\nnze.l = 30\nsnr_db = 1\n"
    out = tmp_path / "x.csv"
    assert cli(["ber-sweep", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: nze.l: qostbc has 4 fixed ports")
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


@pytest.mark.parametrize(
    "command,text,key",
    [
        ("angle-sweep", AC_CONFIG + "theta0_deg_list = 0, 0\n", "theta0_deg_list"),
        ("angle-sweep", AC_CONFIG + "theta0_deg_list = 30, -10, 30.0000001\n", "theta0_deg_list"),
        ("ber-sweep", AC_CONFIG.replace("snr_db = 6, 10", "snr_db = 6, 10, 6"), "snr_db"),
    ],
    ids=["angle", "angle-same-key", "snr"],
)
def test_repeated_sweep_point_is_config_error(command, text, key, tmp_path, capsys):
    """A sweep coordinate listed twice, or two that match to a millionth,
    is one point, which reads the same trials and would be counted twice:
    one config error line naming the key, before any CSV is written."""
    out = tmp_path / "x.csv"
    argv = [command, "--config", write_cfg(tmp_path, text), "--out", str(out)]
    if command == "angle-sweep":
        argv += ["--snr-db", "6"]
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


def test_validate_reports_a_failed_check(monkeypatch, capsys):
    """A broken invariant fails its check with a line naming the case, the
    other checks still pass, and validate counts the failure and exits 1."""
    monkeypatch.setattr(precoding, "check_requirements", lambda signal: (False, True))
    assert cli(["validate"]) == 1
    lines = capsys.readouterr().out.splitlines()
    failed = [line for line in lines if not line.startswith("[PASS] ")]
    assert failed == [
        "[FAIL] requirements_all_kinds: single payload [0] at M=4",
        "1 check(s) failed",
    ]
    assert len(lines) == len(CHECKS) + 1


def test_validate_reports_a_crashed_check(monkeypatch, capsys):
    """A check that raises is a failed check whose detail names the error."""

    def crash(code):
        raise RuntimeError("no codebook")

    monkeypatch.setattr(analysis, "coding_gain", crash)
    monkeypatch.setattr(selfcheck, "CHECKS", [("coding_gains", selfcheck.check_coding_gains)])
    assert cli(["validate"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[FAIL] coding_gains: raised RuntimeError: no codebook",
        "1 check(s) failed",
    ]


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


def test_workers_override_keeps_the_csv(tmp_path, monkeypatch):
    """--workers 2 reaches the sweep and writes the same bytes as the
    config's one worker, on a point of two batches."""
    cfg = write_cfg(tmp_path, AC_CONFIG.replace("max_trials = 3000", "max_trials = 6000"))
    seen, sweep = [], engine._sweep

    def recorded(cfg, *args):
        seen.append(cfg.workers)
        return sweep(cfg, *args)

    monkeypatch.setattr(engine, "_sweep", recorded)
    one, two = tmp_path / "one.csv", tmp_path / "two.csv"
    assert cli(["ber-sweep", "--config", cfg, "--out", str(one)]) == 0
    assert cli(["ber-sweep", "--config", cfg, "--out", str(two), "--workers", "2"]) == 0
    assert seen == [1, 2]
    assert one.read_bytes() == two.read_bytes()


def test_angle_sweep_cli(tmp_path):
    text = AC_CONFIG + "theta0_deg_list = -30, 0, 30\n"
    cfg = write_cfg(tmp_path, text)
    out = tmp_path / "angle.csv"
    assert cli(["angle-sweep", "--config", cfg, "--snr-db", "8", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 4
    assert lines[1].split(",")[4] == "-30"
