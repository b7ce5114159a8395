import functools
import math
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import hermitian_toeplitz

from omnistbc import engine
from omnistbc.analysis import BerPoint
from omnistbc.channel import covariance_for
from omnistbc.config import TRIALS_PER_BATCH, ConfigError, SimConfig
from omnistbc.engine import (
    CSV_HEADER,
    emit_csv,
    run_angle_sweep,
    run_ber_sweep,
)
from omnistbc.precoding import PRBS_TAG, prbs_phase_vector, precoder_for_code


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


def one_trial(cfg, snr_db, theta0_deg, t):
    """(bits_sent, bit_errors, aborted) of trial t alone, on its own set-up."""
    setup = engine._point_setup(cfg.validate(), theta0_deg)
    counted, errors, aborted = engine._run_batch(cfg, setup, snr_db, theta0_deg, t, t + 1)
    return counted * setup.code.nbits, errors, aborted


def test_run_trial_deterministic():
    cfg = small_cfg()
    a = one_trial(cfg, 8.0, 0.0, 1234)
    b = one_trial(cfg, 8.0, 0.0, 1234)
    assert a == b
    assert a[0] == 2

    def words(snr_db, trial):
        return engine._trial_words(cfg, snr_db, 0.0, trial, trial + 1, 10)

    # a different trial index or SNR draws different words
    assert not np.array_equal(words(8.0, 1235), words(8.0, 1234))
    assert not np.array_equal(words(8.5, 1234), words(8.0, 1234))


def test_run_trial_noiseless_is_error_free():
    cfg = small_cfg()
    for idx in range(200):
        _, errors, aborted = one_trial(cfg, 300.0, 0.0, idx)
        assert errors == 0 and not aborted


def test_run_trial_matches_sweep_accounting():
    """The sweep aggregates exactly the per-trial outcomes, in index order."""
    cfg = small_cfg(max_trials=64, min_bit_errors=10**9, snr_db=(4.0,))
    point = run_ber_sweep(cfg)[0]
    total = sum(one_trial(cfg, 4.0, 0.0, k)[1] for k in range(64))
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


def test_workers_never_rebuild_the_setup(tmp_path, monkeypatch):
    """Each point's set-up is built in the sweep process and sent to the pool
    workers with its batches; a worker that built its own would call the
    patched covariance_factor, which forked workers inherit, and fail."""
    if multiprocessing.get_start_method() != "fork":
        pytest.skip("the patch reaches pool workers only when they are forked")
    kw = dict(theta0_deg_list=(-30.0, 0.0, 30.0), max_trials=6000, min_bit_errors=10**9)
    f1, f2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    emit_csv([p for _, p in run_angle_sweep(small_cfg(**kw), 6.0)], f1)

    owner = os.getpid()
    factor = engine.covariance_factor

    def sweep_process_only(model):
        if os.getpid() != owner:
            raise RuntimeError("covariance_factor called in a pool worker")
        return factor(model)

    monkeypatch.setattr(engine, "covariance_factor", sweep_process_only)
    emit_csv([p for _, p in run_angle_sweep(small_cfg(workers=2, **kw), 6.0)], f2)
    assert f1.read_bytes() == f2.read_bytes()


@functools.lru_cache(maxsize=None)
def _split_setup(kind):
    extra = dict(nze_l=4, nze_n=2) if kind == "nze_tc" else {}
    cfg = small_cfg(code=kind, **extra)
    return cfg, engine._point_setup(cfg, 10.0)


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(["ac", "nze_tc"]),
    n=st.integers(1, 64),
    cuts=st.sets(st.integers(1, 63), max_size=8),
)
def test_any_batch_split_gives_same_totals(kind, n, cuts):
    """Summing _run_batch over any partition of [0, n) gives the totals of
    one batch: a trial's outcome does not depend on its batch."""
    cfg, setup = _split_setup(kind)
    edges = [0, *sorted(c for c in cuts if c < n), n]
    parts = [engine._run_batch(cfg, setup, 2.0, 10.0, lo, hi) for lo, hi in zip(edges, edges[1:])]
    assert tuple(map(sum, zip(*parts))) == engine._run_batch(cfg, setup, 2.0, 10.0, 0, n)


# (config overrides, N): every kind's port count, the NZE shapes at their
# gate sizes, the PRBS precoder override and one massive array.
_SETUP_CASES = [
    (dict(code="single"), 1),
    (dict(code="ac"), 2),
    (dict(code="ac", precoder_override="prbs"), 2),
    (dict(code="ostbc", m=64), 4),
    (dict(code="qostbc", m=1024), 4),
    (dict(code="ciod", m=64), 4),
    (dict(code="nze_oac", nze_l=6, nze_n=3, m=72), 3),
    (dict(code="nze_tc", nze_l=30, nze_n=8, m=64), 8),
]


def test_point_setup_keeps_an_n_by_n_factor():
    """The set-up holds only an N x N factor of W^H R W, equal to the dense
    product with the M x M covariance, for every kind's N."""
    for overrides, n_ports in _SETUP_CASES:
        cfg = small_cfg(**overrides)
        setup = engine._point_setup(cfg, 10.0)
        phase = None
        if cfg.precoder_override == "prbs":
            phase = prbs_phase_vector(cfg.m, (cfg.master_seed, PRBS_TAG))
        w = precoder_for_code(
            cfg.code, cfg.m, cfg.gamma, n_ports=n_ports, phase_vector=phase
        ).w_matrix
        model = covariance_for(
            cfg.m, cfg.spacing_ratio, math.radians(10.0), math.radians(cfg.sigma_deg)
        )
        r = hermitian_toeplitz(model.lags)
        assert setup.g_map.shape == (n_ports, n_ports), overrides
        np.testing.assert_allclose(
            setup.g_map.conj().T @ setup.g_map,
            w.conj().T @ r @ w,
            rtol=0,
            atol=1e-12,
            err_msg=str(overrides),
        )


def test_point_setup_never_forms_the_covariance():
    """At M = 4096 one M x M complex matrix is 256 MiB; the set-up, lag
    quadrature included, peaks far below it."""
    cfg = small_cfg(m=4096)
    tracemalloc.start()
    try:
        engine._point_setup(cfg, 10.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"set-up peaked at {peak / 2**20:.1f} MiB"


def test_trial_draws_have_unit_moments():
    """Over one batch the payload bits are fair and the Gaussians are unit
    circular: E z = 0, E|z|^2 = 1 and E z^2 = 0, each within 5 sigma."""
    cfg, setup = _split_setup("ac")
    bits, z = engine._draw_trials(cfg, setup.code, 2.0, 10.0, 0, TRIALS_PER_BATCH)
    assert bits.shape == (TRIALS_PER_BATCH, setup.code.nbits)
    assert abs(bits.mean() - 0.5) < 5 * 0.5 / math.sqrt(bits.size)
    z = z.ravel()
    n = z.size
    for value, sd in [
        (z.mean().real, math.sqrt(0.5 / n)),
        (z.mean().imag, math.sqrt(0.5 / n)),
        (np.mean(np.abs(z) ** 2) - 1.0, math.sqrt(1.0 / n)),
        (np.mean(z**2).real, math.sqrt(1.0 / n)),
        (np.mean(z**2).imag, math.sqrt(1.0 / n)),
    ]:
        assert abs(value) < 5 * sd


def test_trial_stream_known_answer():
    """The first words of trials 0 and 1 for one fixed key.  A change in
    NumPy's Philox or SeedSequence fails here by name, not only in the CSV
    pins; trial 1 starts one stride (three 4-word blocks) after trial 0."""
    words = engine._trial_words(small_cfg(master_seed=7), 0.0, 10.0, 0, 2, 10)
    assert words.shape == (2, 12)
    assert words[:, :2].tolist() == [
        [13810185768343152399, 1519566188412070718],
        [7337219107382647587, 4010189983282976391],
    ]


def test_all_aborted_point_reports_nan(tmp_path):
    """A point with no counted trial has no BER estimate: nan, never 0."""
    cfg, setup = _split_setup("ac")

    def all_aborted(batch, lows, highs):
        return [(0, 0, hi - lo) for lo, hi in zip(lows, highs)]

    point = engine._run_point(cfg, setup, 2.0, 10.0, all_aborted)
    assert math.isnan(point.ber)
    assert (point.trials, point.bit_errors, point.aborted) == (0, 0, cfg.max_trials)
    emit_csv([point], tmp_path / "nan.csv")
    assert (tmp_path / "nan.csv").read_text().splitlines()[1] == "ac,1,16,2,10,0,0,nan,3"


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
    assert point.aborted == 0  # only an all-zero channel aborts


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
