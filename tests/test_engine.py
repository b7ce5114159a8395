import functools
import math
import os
import platform
import subprocess
import sys
import threading
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
    code, g_maps = engine._sweep_setup(cfg.validate(), "pas.theta0_deg", [theta0_deg])
    errors, aborted = engine._run_batch(
        cfg, code, g_maps[theta0_deg], snr_db, theta0_deg, t, t + 1
    )
    return int(not aborted[0]) * code.nbits, int(errors[0]), int(aborted[0])


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


def test_workers_run_every_trial_in_the_sweep_process(tmp_path, monkeypatch):
    """A workers = 2 sweep runs every batch in the sweep process, some of
    them on a second thread, and writes the same CSV as one worker, also
    when the threads switch every microsecond."""
    kw = dict(theta0_deg_list=(-30.0, 0.0, 30.0), max_trials=6000, min_bit_errors=10**9)
    f1, f2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    emit_csv([p for _, p in run_angle_sweep(small_cfg(**kw), 6.0)], f1)

    ran = []
    run_batch = engine._run_batch

    def recorded(*args):
        ran.append((os.getpid(), threading.get_ident()))
        return run_batch(*args)

    monkeypatch.setattr(engine, "_run_batch", recorded)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        emit_csv([p for _, p in run_angle_sweep(small_cfg(workers=2, **kw), 6.0)], f2)
    finally:
        sys.setswitchinterval(interval)
    assert f1.read_bytes() == f2.read_bytes()
    assert len(ran) == 6
    assert {pid for pid, _ in ran} == {os.getpid()}
    assert len({thread for _, thread in ran}) == 2


def _count_calls(monkeypatch, names):
    """Wrap each named engine global in a counter; returns name -> calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:

        def counted(*args, _name=name, _fn=getattr(engine, name), **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    return calls


_SETUP_NAMES = ("build_code", "precoder_for_code", "covariance_for", "covariance_factor")


def test_sweep_builds_code_and_precoder_once(monkeypatch):
    """The code and W are built once per sweep, the covariance and its
    factor once per distinct angle: never once per point, nor in a worker
    thread."""
    calls = _count_calls(monkeypatch, _SETUP_NAMES)
    for workers in (1, 2):
        kw = dict(max_trials=2 * TRIALS_PER_BATCH, min_bit_errors=10**9, workers=workers)
        calls.update(dict.fromkeys(calls, 0))
        run_angle_sweep(small_cfg(theta0_deg_list=(-30.0, 0.0, 30.0), **kw), 6.0)
        assert tuple(calls.values()) == (1, 1, 3, 3)
        calls.update(dict.fromkeys(calls, 0))
        run_ber_sweep(small_cfg(snr_db=(0.0, 4.0, 8.0), **kw))
        assert tuple(calls.values()) == (1, 1, 1, 1)


def test_unresolvable_angle_fails_before_the_first_trial(monkeypatch):
    """Every angle's factor is built before any batch runs, so an angle the
    quadrature cannot resolve stops the sweep even when it is listed last.
    At 2000 wavelengths broadside resolves, while 60 degrees, whose support
    reaches endfire, does not."""
    calls = _count_calls(monkeypatch, ["_run_batch"])
    cfg = small_cfg(code="qostbc", m=64, spacing_ratio=2000.0, theta0_deg_list=(0.0, 60.0))
    keys = "m, spacing_ratio, pas.sigma_deg, theta0_deg_list: "
    with pytest.raises(ConfigError, match=f"^{keys}.* at 60 degrees$"):
        run_angle_sweep(cfg, 6.0)
    assert calls["_run_batch"] == 0


def test_covariance_resolves_arrays_up_to_2_to_the_18():
    """At the default spacing and spread the covariance resolves M = 2^18
    at broadside; at M = 2^19, which validation accepts, the sweep stops
    with a config error that names the array size and the angle's key."""
    cfg = small_cfg(m=2**18).validate()
    assert engine._sweep_setup(cfg, "pas.theta0_deg", [0.0])[1][0.0].shape == (2, 2)
    cfg = small_cfg(m=2**19, snr_db=(6.0,)).validate()
    with pytest.raises(ConfigError, match="^m, spacing_ratio, pas.sigma_deg, pas.theta0_deg: "):
        run_ber_sweep(cfg)


def test_setup_builds_the_decoder():
    """The sweep's set-up builds the code's decoder, which ``Code`` builds
    on first use, so that no worker thread builds it in its first batch."""
    code, _ = engine._sweep_setup(small_cfg().validate(), "pas.theta0_deg", [0.0])
    assert "decoder" in vars(code)


class _RecordingPool:
    """Stand-in for ThreadPoolExecutor: maps on the calling thread, starts
    no worker, and records its width and every batch it is handed."""

    widths = []
    batches = []

    def __init__(self, max_workers):
        self.widths.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, lows, highs):
        handed = list(zip(lows, highs))
        self.batches.extend(handed)
        return [fn(lo, hi) for lo, hi in handed]


def test_pool_is_no_wider_than_a_wave(tmp_path, monkeypatch):
    """The sweep thread runs one batch of each wave, so a larger worker
    count builds a pool of WAVE_BATCHES - 1 threads."""
    monkeypatch.setattr(_RecordingPool, "widths", [])
    f1, f64 = tmp_path / "w1.csv", tmp_path / "w64.csv"
    emit_csv(run_ber_sweep(small_cfg(workers=1)), f1)
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _RecordingPool)
    emit_csv(run_ber_sweep(small_cfg(workers=64)), f64)
    assert _RecordingPool.widths == [engine.WAVE_BATCHES - 1]
    assert f1.read_bytes() == f64.read_bytes()


def test_sweep_process_runs_the_first_batch_of_each_wave(monkeypatch):
    """Of a two-wave point the pool gets only the first wave's second
    batch: the sweep thread runs the first batch of every wave, and the
    last wave, one batch long, hands the pool nothing."""
    monkeypatch.setattr(_RecordingPool, "batches", [])
    monkeypatch.setattr(engine, "ThreadPoolExecutor", _RecordingPool)
    ran = []
    run_batch = engine._run_batch

    def recorded(cfg, code, g_map, snr_db, theta0_deg, t_lo, t_hi):
        ran.append((t_lo, t_hi))
        return run_batch(cfg, code, g_map, snr_db, theta0_deg, t_lo, t_hi)

    monkeypatch.setattr(engine, "_run_batch", recorded)
    n = TRIALS_PER_BATCH
    cfg = small_cfg(workers=2, snr_db=(6.0,), max_trials=2 * n + 5, min_bit_errors=10**9)
    point = run_ber_sweep(cfg)[0]
    assert _RecordingPool.batches == [(n, 2 * n)]
    assert [b for b in ran if b not in _RecordingPool.batches] == [(0, n), (2 * n, 2 * n + 5)]
    assert point.trials == 2 * n + 5


@functools.lru_cache(maxsize=None)
def _split_setup(kind):
    extra = dict(nze_l=4, nze_n=2) if kind == "nze_tc" else {}
    cfg = small_cfg(code=kind, **extra)
    code, g_maps = engine._sweep_setup(cfg, "pas.theta0_deg", [10.0])
    return cfg, code, g_maps[10.0]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(
    kind=st.sampled_from(["ac", "nze_tc"]),
    n=st.integers(1, 64),
    cuts=st.sets(st.integers(1, 63), max_size=8),
)
def test_any_batch_split_gives_same_totals(kind, n, cuts):
    """Joining _run_batch over any partition of [0, n) gives the per-trial
    errors and aborts of one batch: a trial's outcome does not depend on
    its batch."""
    cfg, code, g_map = _split_setup(kind)
    edges = [0, *sorted(c for c in cuts if c < n), n]
    batch = functools.partial(engine._run_batch, cfg, code, g_map, 2.0, 10.0)
    parts = [batch(lo, hi) for lo, hi in zip(edges, edges[1:])]
    for joined, whole in zip(zip(*parts), batch(0, n)):
        np.testing.assert_array_equal(np.concatenate(joined), whole)


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
        g_map = engine._sweep_setup(cfg, "pas.theta0_deg", [10.0])[1][10.0]
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
        assert g_map.shape == (n_ports, n_ports), overrides
        np.testing.assert_allclose(
            g_map.conj().T @ g_map,
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
        engine._sweep_setup(cfg, "pas.theta0_deg", [10.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20, f"set-up peaked at {peak / 2**20:.1f} MiB"


@pytest.mark.parametrize(
    "kind,nze_l,nze_n", [("nze_tc", 32, 20), ("nze_oac", 26, 22)], ids=["nze_tc", "nze_oac"]
)
def test_batch_frees_codewords_before_decoding(kind, nze_l, nze_n):
    """At the largest NZE shapes validation accepts, one full batch peaks
    under 1.5 codeword batches of traced memory: the codewords are freed
    once transmitted, before the decoder allocates its blocks."""
    cfg = small_cfg(code=kind, nze_l=nze_l, nze_n=nze_n, m=4 * nze_n**2).validate()
    code, g_maps = engine._sweep_setup(cfg, "pas.theta0_deg", [10.0])
    batch_bytes = 16 * code.n_ports * code.n_slots * TRIALS_PER_BATCH
    tracemalloc.start()
    try:
        engine._run_batch(cfg, code, g_maps[10.0], 2.0, 10.0, 0, TRIALS_PER_BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * batch_bytes, f"batch peaked at {peak / batch_bytes:.2f} codeword batches"


# Three BER sweeps in one process, each printing the minor page faults it took.
_REPEATED_SWEEPS = """
import resource
from omnistbc.config import TRIALS_PER_BATCH, SimConfig
from omnistbc.engine import run_ber_sweep
cfg = SimConfig(code="nze_tc", rate=1, m=64, snr_db={snr_db!r}, max_trials={batches} * TRIALS_PER_BATCH,
                min_bit_errors=10**15, master_seed=1, nze_l={nze_l}, nze_n={nze_n})
for _ in range(3):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    run_ber_sweep(cfg)
    print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap thresholds are glibc's")
@pytest.mark.parametrize(
    "nze_l,nze_n,snr_db,batches",
    [(12, 4, (2.0, 8.0), 2), (30, 8, (2.0,), 4)],
    ids=["nze_tc_12_4", "nze_tc_30_8"],
)
def test_repeated_sweeps_keep_the_heap(nze_l, nze_n, snr_db, batches):
    """A fresh process runs the same NZE-TC sweep three times; the third
    takes under 500 minor page faults.  A process whose heap is trimmed
    after each batch faults every batch's pages in again: 15k faults a
    repeat at (12, 4) with 2 points of 2 batches, 13k at (30, 8) with one
    point of 4 batches, while a kept heap takes a few."""
    src = os.path.dirname(os.path.dirname(engine.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    script = _REPEATED_SWEEPS.format(snr_db=snr_db, batches=batches, nze_l=nze_l, nze_n=nze_n)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert out.returncode == 0, out.stderr
    faults = [int(line) for line in out.stdout.split()]
    assert faults[2] < 500, f"minor faults per sweep: {faults}"


def test_trial_draws_have_unit_moments():
    """Over one batch the payload bits are fair and the Gaussians are unit
    circular: E z = 0, E|z|^2 = 1 and E z^2 = 0, each within 5 sigma."""
    cfg, code, _ = _split_setup("ac")
    bits, z = engine._draw_trials(cfg, code, 2.0, 10.0, 0, TRIALS_PER_BATCH)
    assert bits.shape == (TRIALS_PER_BATCH, code.nbits)
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


# (kind, rate, extra config): the fewest normals per word, the most
# payload words per normal, and the largest benchmark NZE shape.
_DRAW_CASES = [
    ("single", 1, {}),
    ("qostbc", 2, {}),
    ("nze_tc", 1, dict(nze_l=30, nze_n=8)),
]


def _draw_case(kind, rate, extra):
    cfg = small_cfg(code=kind, rate=rate, m=64, **extra).validate()
    return cfg, engine.build_code(kind, rate, cfg.nze_l, cfg.nze_n)


@pytest.mark.parametrize("kind,rate,extra", _DRAW_CASES, ids=[c[0] for c in _DRAW_CASES])
def test_draw_is_the_gaussian_formula(kind, rate, extra):
    """The in-place draw equals, bit for bit, the formula written out: each
    bit a word's top bit, and z = sqrt(-ln u1) exp(2 pi i u2) with each u
    in (0, 1] from a word's top 53 bits."""
    cfg, code = _draw_case(kind, rate, extra)
    n = code.n_ports + code.n_slots
    bits, z = engine._draw_trials(cfg, code, 2.0, 10.0, 100, 1100)
    words = engine._trial_words(cfg, 2.0, 10.0, 100, 1100, code.nbits + 2 * n)
    u = ((words[:, code.nbits : code.nbits + 2 * n] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    expected = np.sqrt(-np.log(u[:, :n])) * np.exp(2j * np.pi * u[:, n:])
    np.testing.assert_array_equal(bits, words[:, : code.nbits] >> np.uint64(63))
    assert bits.dtype == np.int64
    assert z.shape == expected.shape and z.dtype == expected.dtype
    assert z.tobytes() == expected.tobytes()


@pytest.mark.parametrize("kind,rate,extra", _DRAW_CASES, ids=[c[0] for c in _DRAW_CASES])
def test_draw_peaks_under_three_and_a_half_outputs(kind, rate, extra):
    """A full batch's draw allocates each array once and works in place, so
    it peaks under 3.5 times its Gaussians' bytes of traced memory."""
    cfg, code = _draw_case(kind, rate, extra)
    tracemalloc.start()
    try:
        _, z = engine._draw_trials(cfg, code, 2.0, 10.0, 0, TRIALS_PER_BATCH)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * z.nbytes, f"draw peaked at {peak / z.nbytes:.2f}x its output"


def test_point_sums_match_a_per_trial_recount():
    """A point's bit errors, squared bit errors and frames with any error
    equal a recount of its trials run one at a time.  At 4 dB some trials
    lose more than one bit, so the two sums differ."""
    n_trials, snr = 300, 4.0
    cfg = small_cfg(
        code="ciod", rate=2, snr_db=(snr,), max_trials=n_trials, min_bit_errors=10**9
    ).validate()
    point = run_ber_sweep(cfg)[0]
    code, g_maps = engine._sweep_setup(cfg, "pas.theta0_deg", [cfg.theta0_deg])
    errors = []
    for t in range(n_trials):
        err, aborted = engine._run_batch(
            cfg, code, g_maps[cfg.theta0_deg], snr, cfg.theta0_deg, t, t + 1
        )
        if not aborted[0]:
            errors.append(int(err[0]))
    assert (point.trials, point.bit_errors, point.bit_errors_sq, point.frame_errors) == (
        len(errors),
        sum(errors),
        sum(e * e for e in errors),
        sum(e > 0 for e in errors),
    )
    assert point.bit_errors < point.bit_errors_sq
    assert 0 < point.frame_errors < point.trials


def test_point_sums_do_not_depend_on_workers():
    """Every BerPoint field, the per-trial sums included, is the same for
    one worker and for eight, over points of two waves."""
    kw = dict(
        code="qostbc",
        rate=2,
        snr_db=(2.0, 8.0),
        max_trials=2 * TRIALS_PER_BATCH + 100,
        min_bit_errors=10**9,
    )
    one = run_ber_sweep(small_cfg(workers=1, **kw))
    eight = run_ber_sweep(small_cfg(workers=8, **kw))
    assert one == eight
    assert all(p.frame_errors > 0 and p.bit_errors_sq > p.bit_errors for p in one)


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
    cfg, code, g_map = _split_setup("ac")

    def all_aborted(batch, lows, highs):
        return [(np.zeros(hi - lo, int), np.ones(hi - lo, bool)) for lo, hi in zip(lows, highs)]

    point = engine._run_point(cfg, code, g_map, 2.0, 10.0, all_aborted)
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
