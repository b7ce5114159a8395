"""Seeded Monte Carlo BER engine.

Every point (master_seed, snr, theta0) owns one counter-based Philox
stream (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11), keyed by a SeedSequence of the three.  Trial t reads the fixed
run of 4-word counter blocks that starts at counter t x stride, so a
trial's outcome depends only on (master_seed, snr, theta0, t), never on
which worker ran it or on how trials are grouped into batches.  Early
stopping is decided at fixed wave boundaries (a wave is WAVE_BATCHES
batches of TRIALS_PER_BATCH trials), which keeps the set of executed
trials identical for any worker count.  Stopping looks only at the
accumulated error count, so it never biases the estimate.

A trial draws only what the receiver sees: the N-dimensional effective
channel h^H W, from an N x N factor of W^H R W, and the T noise samples.
Its cost does not depend on the array size M.  The set-up forms W^H R W
from the covariance's M lags and never the M x M matrix R, so its cost
grows as M log M.

A point's set-up (the code and that factor) is built once in the sweep
process and sent with every batch to the pool workers, which never build
one themselves.  So results do not depend on how the workers are started
either.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import partial

import numpy as np

from .analysis import BerPoint
from .channel import covariance_factor, covariance_for
# Unused here; kept importable because perfbench/spans.py traces them by these names.
from .codes import ac_matrix, ciod_matrix, ostbc_matrix, qostbc_matrix  # noqa: F401
from .config import TRIALS_PER_BATCH, ConfigError, snr_problem
from .kinds import Code, build_code
from .precoding import PRBS_TAG, precoder_for_code, prbs_phase_vector

__all__ = [
    "run_ber_sweep",
    "run_angle_sweep",
    "emit_csv",
    "CSV_HEADER",
]

WAVE_BATCHES = 2
_U64 = (1 << 64) - 1
_BLOCK_WORDS = 4  # Philox4x64 gives four 64-bit words per counter step

CSV_HEADER = "code,rate_bps,M,snr_db,theta0_deg,trials,bit_errors,ber,seed"


def _quantize(value):
    """Stable integer key for a sweep coordinate (angles, SNR in dB), each
    finite once the config is validated."""
    return int(round(value * 1e6)) & _U64


@dataclass(frozen=True)
class _PointSetup:
    """What every trial of one (config, theta0) point shares.

    ``g_map`` is an N x N factor with g_map^H g_map = W^H R W.  Since
    h ~ CN(0, R), the effective channel h^H W has the law of z @ g_map for
    a row z of N i.i.d. unit circular Gaussians, so a trial draws z and
    never forms the M-dimensional channel.
    """

    g_map: np.ndarray
    code: Code


def _point_setup(cfg, theta0_deg):
    phase = None
    if cfg.precoder_override == "prbs":
        phase = prbs_phase_vector(cfg.m, (cfg.master_seed & _U64, PRBS_TAG))
    code = build_code(cfg.code, cfg.rate, cfg.nze_l, cfg.nze_n)
    prec = precoder_for_code(
        cfg.code, cfg.m, cfg.gamma, n_ports=code.n_ports, phase_vector=phase
    )
    try:
        cov = covariance_for(
            cfg.m, cfg.spacing_ratio, math.radians(theta0_deg), math.radians(cfg.sigma_deg)
        )
    except RuntimeError as exc:
        raise ConfigError(f"spacing_ratio, pas.sigma_deg: {exc}") from None
    return _PointSetup(covariance_factor(cov.project(prec.w_matrix)).conj().T, code)


def _trial_words(cfg, snr_db, theta0_deg, t_lo, t_hi, n_words):
    """Raw 64-bit words of trials [t_lo, t_hi), one row per trial: the
    point's Philox stream read from counter t_lo x blocks, each trial
    taking ``n_words`` words padded up to ``blocks`` whole 4-word blocks."""
    blocks = -(-n_words // _BLOCK_WORDS)
    key = np.random.SeedSequence(
        (cfg.master_seed & _U64, _quantize(snr_db), _quantize(theta0_deg))
    ).generate_state(2, np.uint64)
    stream = np.random.Philox(key=key, counter=t_lo * blocks)
    raw = stream.random_raw((t_hi - t_lo) * blocks * _BLOCK_WORDS)
    return raw.reshape(t_hi - t_lo, blocks * _BLOCK_WORDS)


def _draw_trials(cfg, code, snr_db, theta0_deg, t_lo, t_hi):
    """Payload bits (B, nbits) and unit circular Gaussians (B, N + T) of
    trials [t_lo, t_hi): the channel draw, then the noise.

    Each bit is one word's top bit.  Each Gaussian takes two words, read as
    u in (0, 1] from their top 53 bits: z = sqrt(-ln u1) exp(2 pi i u2)."""
    n_normals = code.n_ports + code.n_slots
    n_words = code.nbits + 2 * n_normals
    words = _trial_words(cfg, snr_db, theta0_deg, t_lo, t_hi, n_words)
    bits = (words[:, : code.nbits] >> np.uint64(63)).astype(np.int64)
    u = ((words[:, code.nbits : n_words] >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    z = np.sqrt(-np.log(u[:, :n_normals])) * np.exp(2j * np.pi * u[:, n_normals:])
    return bits, z


def _run_batch(cfg, setup, snr_db, theta0_deg, t_lo, t_hi):
    """Run trials [t_lo, t_hi); returns (counted, bit_errors, aborted)."""
    code = setup.code
    n_ports = code.n_ports
    bits, z = _draw_trials(cfg, code, snr_db, theta0_deg, t_lo, t_hi)
    g_row = z[:, :n_ports] @ setup.g_map  # entries of h^H W
    x = code.encode(bits)
    y = np.einsum("bn,bnt->bt", g_row, x) + z[:, n_ports:] * 10.0 ** (-snr_db / 20.0)

    bits_hat, aborted = code.decode(y, g_row)
    ok = ~aborted
    errors = int(np.sum((bits_hat != bits) & ok[:, None]))
    return int(ok.sum()), errors, int(aborted.sum())


def _run_point(cfg, setup, snr_db, theta0_deg, map_batches):
    """One point, wave by wave; ``map_batches`` is ``map`` or a pool's map."""
    batch = partial(_run_batch, cfg, setup, snr_db, theta0_deg)
    nbits = setup.code.nbits
    attempted = counted = errors = aborted = 0
    while attempted < cfg.max_trials and errors < cfg.min_bit_errors:
        wave_end = min(attempted + WAVE_BATCHES * TRIALS_PER_BATCH, cfg.max_trials)
        lows = range(attempted, wave_end, TRIALS_PER_BATCH)
        highs = [min(lo + TRIALS_PER_BATCH, wave_end) for lo in lows]
        for cnt, err, abo in map_batches(batch, lows, highs):
            counted += cnt
            errors += err
            aborted += abo
        attempted = wave_end
    ber = errors / (counted * nbits) if counted else math.nan
    return BerPoint(
        snr_db=float(snr_db),
        ber=ber,
        trials=counted,
        bit_errors=errors,
        code=cfg.code,
        rate_bps=setup.code.rate_bps,
        n_antennas=cfg.m,
        theta0_deg=float(theta0_deg),
        seed=cfg.master_seed,
        aborted=aborted,
        bits_sent=counted * nbits,
    )


def _run_points(cfg, points):
    """BerPoints for (setup, snr_db, theta0_deg) triples, in order, on one
    process pool when ``cfg.workers`` > 1."""
    if cfg.workers <= 1:
        return [_run_point(cfg, *point, map) for point in points]
    with ProcessPoolExecutor(cfg.workers) as pool:
        return [_run_point(cfg, *point, pool.map) for point in points]


def run_ber_sweep(cfg):
    """BER versus SNR at the configured mean angle of departure."""
    cfg.validate()
    if not cfg.snr_db:
        raise ConfigError("snr_db: list must be nonempty for a BER sweep")
    setup = _point_setup(cfg, cfg.theta0_deg)
    return _run_points(cfg, [(setup, snr, cfg.theta0_deg) for snr in cfg.snr_db])


def run_angle_sweep(cfg, snr_db):
    """BER versus mean angle of departure at one fixed SNR."""
    cfg.validate()
    if not cfg.theta0_deg_list:
        raise ConfigError("theta0_deg_list: list must be nonempty for an angle sweep")
    problem = snr_problem(snr_db)
    if problem:
        raise ConfigError(f"snr_db: {problem}")
    thetas = cfg.theta0_deg_list
    points = _run_points(cfg, ((_point_setup(cfg, t), snr_db, t) for t in thetas))
    return list(zip(thetas, points))


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
