"""Seeded Monte Carlo BER engine.

Every trial owns an RNG stream keyed by (master_seed, snr, theta0,
trial_index), so a trial's outcome never depends on which worker ran it
or on how trials are grouped into batches.  Early stopping is decided at
fixed wave boundaries (a wave is WAVE_BATCHES batches of TRIALS_PER_BATCH
trials), which keeps the set of executed trials identical for any worker
count.  Stopping looks only at the accumulated error count, so it never
biases the estimate.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .analysis import BerPoint
from .channel import covariance_factor, covariance_for
# Unused here; kept importable because perfbench/spans.py traces them by these names.
from .codes import ac_matrix, ciod_matrix, ostbc_matrix, qostbc_matrix  # noqa: F401
from .config import ConfigError
from .kinds import Code, build_code
from .precoding import precoder_for_code, prbs_phase_vector

__all__ = [
    "TrialOutcome",
    "run_trial",
    "run_ber_sweep",
    "run_angle_sweep",
    "emit_csv",
    "CSV_HEADER",
]

TRIALS_PER_BATCH = 4096
WAVE_BATCHES = 2
_PRBS_TAG = 0x50524253
_U64 = (1 << 64) - 1

CSV_HEADER = "code,rate_bps,M,snr_db,theta0_deg,trials,bit_errors,ber,seed"


@dataclass
class TrialOutcome:
    bits_sent: int
    bit_errors: int
    aborted: bool = False


def _quantize(value):
    """Stable integer key for a sweep coordinate (angles, SNR in dB)."""
    if math.isfinite(value):
        return int(round(value * 1e6)) & _U64
    return (0x7F800000 if value > 0 else 0xFF800000) & _U64


@dataclass
class _PointSetup:
    w_matrix: np.ndarray
    chan_factor: np.ndarray
    code: Code


_SETUP_CACHE = {}


def _setup_for(cfg, theta0_deg):
    key = (cfg.digest(), float(theta0_deg))
    setup = _SETUP_CACHE.get(key)
    if setup is None:
        phase = None
        if cfg.precoder_override == "prbs":
            phase = prbs_phase_vector(cfg.m, (cfg.master_seed & _U64, _PRBS_TAG))
        code = build_code(cfg.code, cfg.rate, cfg.nze_l, cfg.nze_n)
        prec = precoder_for_code(
            cfg.code, cfg.m, cfg.gamma, n_ports=code.n_ports, phase_vector=phase
        )
        cov = covariance_for(
            cfg.m,
            cfg.spacing_ratio,
            math.radians(theta0_deg),
            math.radians(cfg.sigma_deg),
        )
        setup = _PointSetup(prec.w_matrix, covariance_factor(cov), code)
        _SETUP_CACHE[key] = setup
    return setup


def _run_batch(cfg, setup, snr_db, theta0_deg, t_lo, t_hi):
    """Run trials [t_lo, t_hi); returns (counted, bit_errors, aborted)."""
    code = setup.code
    n_trials = t_hi - t_lo
    m_len = cfg.m
    t_len = code.n_slots
    seed_parts = (
        cfg.master_seed & _U64,
        _quantize(snr_db),
        _quantize(theta0_deg),
    )
    bits = np.empty((n_trials, code.nbits), dtype=np.int64)
    z_ch = np.empty((n_trials, 2 * m_len))
    z_n = np.empty((n_trials, 2 * t_len))
    for i, trial in enumerate(range(t_lo, t_hi)):
        rng = np.random.default_rng((*seed_parts, trial & _U64))
        bits[i] = rng.integers(0, 2, code.nbits)
        z_ch[i] = rng.standard_normal(2 * m_len)
        z_n[i] = rng.standard_normal(2 * t_len)

    h = (z_ch[:, :m_len] + 1j * z_ch[:, m_len:]) / np.sqrt(2.0) @ setup.chan_factor.T
    g_row = np.conjugate(h) @ setup.w_matrix  # entries of h^H W
    x = code.encode(bits)
    y = np.einsum("bn,bnt->bt", g_row, x)
    sigma_n2 = 10.0 ** (-snr_db / 10.0)
    if sigma_n2 > 0:
        y = y + (z_n[:, :t_len] + 1j * z_n[:, t_len:]) * np.sqrt(sigma_n2 / 2.0)

    bits_hat, aborted = code.decoder.decode_bits(y, g_row)
    if aborted is None:
        aborted = np.zeros(n_trials, dtype=bool)
    ok = ~aborted
    errors = int(np.sum((bits_hat != bits) & ok[:, None]))
    return int(ok.sum()), errors, int(aborted.sum())


def _batch_task(cfg, snr_db, theta0_deg, t_lo, t_hi):
    setup = _setup_for(cfg, theta0_deg)
    return _run_batch(cfg, setup, snr_db, theta0_deg, t_lo, t_hi)


def run_trial(cfg, snr_db, theta0_deg, trial_index):
    """One end-to-end trial, deterministic in (seed, index, snr, theta0)."""
    cfg.validate()
    setup = _setup_for(cfg, theta0_deg)
    counted, errors, aborted = _run_batch(
        cfg, setup, snr_db, theta0_deg, trial_index, trial_index + 1
    )
    nbits = setup.code.nbits if counted else 0
    return TrialOutcome(bits_sent=nbits, bit_errors=errors, aborted=bool(aborted))


def _run_point(cfg, snr_db, theta0_deg, pool):
    setup = _setup_for(cfg, theta0_deg)
    nbits = setup.code.nbits
    attempted = counted = errors = aborted = 0
    next_trial = 0
    while attempted < cfg.max_trials and errors < cfg.min_bit_errors:
        ranges = []
        for _ in range(WAVE_BATCHES):
            if next_trial >= cfg.max_trials:
                break
            hi = min(next_trial + TRIALS_PER_BATCH, cfg.max_trials)
            ranges.append((next_trial, hi))
            next_trial = hi
        if pool is None:
            results = [
                _run_batch(cfg, setup, snr_db, theta0_deg, lo, hi) for lo, hi in ranges
            ]
        else:
            futures = [
                pool.submit(_batch_task, cfg, snr_db, theta0_deg, lo, hi)
                for lo, hi in ranges
            ]
            results = [f.result() for f in futures]
        for cnt, err, abo in results:
            counted += cnt
            errors += err
            aborted += abo
        attempted = next_trial
    ber = errors / (counted * nbits) if counted else 0.0
    return BerPoint(
        snr_db=float(snr_db),
        ber=ber,
        trials=counted,
        bit_errors=errors,
        config_digest=cfg.digest(),
        code=cfg.code,
        rate_bps=setup.code.rate_bps,
        n_antennas=cfg.m,
        theta0_deg=float(theta0_deg),
        seed=cfg.master_seed,
        aborted=aborted,
        bits_sent=counted * nbits,
    )


def _with_pool(cfg, body):
    if cfg.workers <= 1:
        return body(None)
    with ProcessPoolExecutor(max_workers=cfg.workers) as pool:
        return body(pool)


def run_ber_sweep(cfg):
    """BER versus SNR at the configured mean angle of departure."""
    cfg.validate()
    if not cfg.snr_db:
        raise ConfigError("snr_db: list must be nonempty for a BER sweep")
    return _with_pool(
        cfg,
        lambda pool: [
            _run_point(cfg, snr, cfg.theta0_deg, pool) for snr in cfg.snr_db
        ],
    )


def run_angle_sweep(cfg, snr_db):
    """BER versus mean angle of departure at one fixed SNR."""
    cfg.validate()
    if not cfg.theta0_deg_list:
        raise ConfigError("theta0_deg_list: list must be nonempty for an angle sweep")
    if not math.isfinite(snr_db):
        raise ConfigError(f"snr_db: {snr_db} is not a finite number")
    points = _with_pool(
        cfg,
        lambda pool: [
            _run_point(cfg, snr_db, theta, pool) for theta in cfg.theta0_deg_list
        ],
    )
    return list(zip(cfg.theta0_deg_list, points))


def _fmt(value):
    return f"{float(value):.10g}"


def emit_csv(results, path):
    """Write BER points as CSV: one row per point, floats at 10 significant
    digits, newline-terminated."""
    rows = [CSV_HEADER]
    for p in results:
        rows.append(
            ",".join(
                [
                    p.code,
                    _fmt(p.rate_bps),
                    str(p.n_antennas),
                    _fmt(p.snr_db),
                    _fmt(p.theta0_deg),
                    str(p.trials),
                    str(p.bit_errors),
                    _fmt(p.ber),
                    str(p.seed),
                ]
            )
        )
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("\n".join(rows) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc
