"""Seeded Monte Carlo BER engine.

A sweep reads one counter-based Philox stream (Salmon et al., "Parallel
random numbers: as easy as 1, 2, 3", SC'11), keyed by a SeedSequence of
master_seed alone.  Trial t reads the fixed run of 4-word counter blocks
that starts at counter t x stride, and every point of the sweep reads the
same words for trial t: common random numbers across its SNRs and angles
(Glasserman & Yao, Management Science, 1992).  A trial's outcome depends
only on (master_seed, snr, theta0, t), never on which worker ran it, on
how trials are grouped into batches or on which other points share its
batch.  Early stopping is decided per point at fixed wave boundaries (a
wave is WAVE_BATCHES batches of TRIALS_PER_BATCH trials), which keeps each
point's set of executed trials identical for any worker count.  Stopping
looks only at the accumulated error count, so it never biases the
estimate.

Since the points share their trials, a batch is drawn and encoded once for
the points still running: each distinct angle costs one channel product
and one noiseless signal, and each point only
y = noise x 10^(-snr/20) + signal, a decode and an error count.

A trial draws only what the receiver sees: the N-dimensional effective
channel h^H W, from an N x N factor of W^H R W, and the T noise samples.
Its cost does not depend on the array size M.  The set-up forms W^H R W
from the covariance's M lags and never the M x M matrix R, so its cost
grows as M log M.

A sweep builds its set-up before its first trial: the code and W once,
and that factor once per distinct angle.  The sweep thread runs each
wave's first batch and hands the rest to at most WAVE_BATCHES - 1 worker
threads, which share the set-up; NumPy releases the GIL in the kernels
where a trial spends its time.

A process keeps its heap between batches.  Before its first sweep it
allocates one 24 MiB block and frees it untouched (``_keep_heap``).  Under
glibc that raises the allocator's mmap threshold to 24 MiB and its trim
threshold to 48 MiB, so every per-batch array comes from a heap that is
not handed back to the kernel after one batch and faulted in again by the
next.
"""

import math
from concurrent.futures import ThreadPoolExecutor
from functools import cache, partial

import numpy as np

from .analysis import BerPoint
from .channel import covariance_factor, covariance_for
# Unused here; kept importable because perfbench/spans.py traces them by these names.
from .codes import ac_matrix, ciod_matrix, ostbc_matrix, qostbc_matrix  # noqa: F401
from .config import TRIALS_PER_BATCH, ConfigError, snr_problem
from .kinds import build_code
from .precoding import PRBS_TAG, precoder_for_code, prbs_phase_vector

__all__ = [
    "run_ber_sweep",
    "run_angle_sweep",
    "emit_csv",
    "CSV_HEADER",
]

WAVE_BATCHES = 2
_BLOCK_WORDS = 4  # Philox4x64 gives four 64-bit words per counter step

CSV_HEADER = "code,rate_bps,M,snr_db,theta0_deg,trials,bit_errors,ber,seed"

# glibc's malloc serves a block of at least its mmap threshold by mmap and,
# when such a block of at most 32 MiB is freed, raises the threshold to the
# block's size and the trim threshold to twice that (mallopt(3),
# M_MMAP_THRESHOLD).  A batch peaks above twice its largest array (the
# codeword batch and the ZF products are 3.9-4.9 MB each on the NZE
# workloads), so under the default thresholds the heap is trimmed after
# every batch and the next batch faults the same pages in again.  16 and
# 20 MiB still let a 4-batch NZE-TC (30, 8) point churn; 24 MiB stops it,
# and a block whose size with its header passes 32 MiB changes nothing.
_HEAP_BLOCK_BYTES = 24 << 20


@cache
def _keep_heap():
    """Free one untouched _HEAP_BLOCK_BYTES block, once per process: the
    raised thresholds last as long as the process, and a second block of
    the same size, now under the threshold, would come from the heap
    itself.  Under any other allocator the block is a freed virtual
    allocation and costs nothing."""
    np.empty(_HEAP_BLOCK_BYTES, dtype=np.uint8)


def _sweep_setup(cfg, angle_key, thetas):
    """The sweep's Code and, for each distinct angle of ``thetas`` (key
    ``angle_key``, degrees), an N x N factor g_map with g_map^H g_map = W^H R W.

    Since h ~ CN(0, R), the effective channel h^H W has the law of
    z @ g_map for a row z of N i.i.d. unit circular Gaussians, so a trial
    draws z and never forms the M-dimensional channel.  Neither the code
    nor W depends on the angle, so each is built once.
    """
    phase = None
    if cfg.precoder_override == "prbs":
        phase = prbs_phase_vector(cfg.m, (cfg.master_seed, PRBS_TAG))
    code = build_code(cfg.code, cfg.rate, cfg.nze_l, cfg.nze_n)
    code.decoder  # built here, in set-up, so that no worker thread builds it
    w = precoder_for_code(
        cfg.code, cfg.m, cfg.gamma, n_ports=code.n_ports, phase_vector=phase
    ).w_matrix
    g_maps = {}
    for theta0_deg in dict.fromkeys(thetas):
        try:
            cov = covariance_for(
                cfg.m, cfg.spacing_ratio, math.radians(theta0_deg), math.radians(cfg.sigma_deg)
            )
        except RuntimeError as exc:
            raise ConfigError(
                f"m, spacing_ratio, pas.sigma_deg, {angle_key}: {exc} at {theta0_deg:g} degrees"
            ) from None
        g_maps[theta0_deg] = covariance_factor(cov.project(w)).conj().T
    return code, g_maps


def _trial_words(cfg, t_lo, t_hi, n_words):
    """Raw 64-bit words of trials [t_lo, t_hi), one row per trial: the
    sweep's Philox stream read from counter t_lo x blocks, each trial
    taking ``n_words`` words padded up to ``blocks`` whole 4-word blocks.
    The key's two zero words make it the stream that (0 dB, 0 degrees)
    read when each point had a stream of its own."""
    blocks = -(-n_words // _BLOCK_WORDS)
    key = np.random.SeedSequence((cfg.master_seed, 0, 0)).generate_state(2, np.uint64)
    stream = np.random.Philox(key=key, counter=t_lo * blocks)
    raw = stream.random_raw((t_hi - t_lo) * blocks * _BLOCK_WORDS)
    return raw.reshape(t_hi - t_lo, blocks * _BLOCK_WORDS)


def _draw_trials(cfg, code, t_lo, t_hi):
    """Payload bits (B, nbits) and unit circular Gaussians (B, N + T) of
    trials [t_lo, t_hi): the channel draw, then the noise.

    Each bit is one word's top bit.  Each Gaussian takes two words, read as
    u in (0, 1] from their top 53 bits: z = sqrt(-ln u1) exp(2 pi i u2).
    Each array is allocated once and every later step runs in place, so a
    batch's draw holds about three times its output at its peak."""
    n_normals = code.n_ports + code.n_slots
    n_words = code.nbits + 2 * n_normals
    words = _trial_words(cfg, t_lo, t_hi, n_words)
    bits = (words[:, : code.nbits] >> np.uint64(63)).astype(np.int64)
    # A ufunc on a strided or differently typed operand adds an
    # 8192-element buffer to the peak, so the strided words are copied
    # first and the complex z is cast before it is scaled.
    v = words[:, code.nbits : n_words].copy()
    del words
    v >>= np.uint64(11)
    v += np.uint64(1)
    u = v * 2.0**-53
    del v
    r = np.log(u[:, :n_normals])
    np.negative(r, out=r)
    np.sqrt(r, out=r)
    z = u[:, n_normals:].astype(np.complex128)
    del u
    z *= 2j * np.pi
    np.exp(z, out=z)
    z *= r
    return bits, z


def _run_batch(cfg, code, g_maps, points, t_lo, t_hi):
    """Run trials [t_lo, t_hi) at each (snr_db, theta0_deg) of ``points``,
    all from one draw and one encode; returns, per point, each trial's bit
    errors (B,), zero for an aborted trial, and the abort mask (B,)."""
    n_ports = code.n_ports
    bits, z = _draw_trials(cfg, code, t_lo, t_hi)
    noise = z[:, n_ports:]
    codewords = code.encode(bits)
    thetas = list(dict.fromkeys(theta for _, theta in points))
    results = [None] * len(points)
    for theta in thetas:
        g_row = z[:, :n_ports] @ g_maps[theta]  # entries of h^H W
        signal = np.einsum("bn,bnt->bt", g_row, codewords)
        if theta == thetas[-1]:
            # The codewords are freed once every angle has sent them, so a
            # one-angle batch frees them before the decoder allocates its
            # blocks.
            del codewords
        for i, (snr_db, point_theta) in enumerate(points):
            if point_theta == theta:
                y = noise * 10.0 ** (-snr_db / 20.0)
                y += signal
                bits_hat, aborted = code.decode(y, g_row)
                del y
                errors = np.count_nonzero(bits_hat != bits, axis=1)
                errors[aborted] = 0
                results[i] = errors, aborted
    return results


class _Tally:
    """One point's sums over its trials: the CSV's totals, the counted
    trials' squared bit errors and the frames with any bit error."""

    def __init__(self):
        self.counted = self.aborted = self.errors = self.errors_sq = self.frames = 0

    def add(self, trial_errors, trial_aborted):
        n_aborted = int(np.count_nonzero(trial_aborted))
        self.counted += len(trial_aborted) - n_aborted
        self.aborted += n_aborted
        self.errors += int(trial_errors.sum())
        self.errors_sq += int(trial_errors @ trial_errors)
        self.frames += int(np.count_nonzero(trial_errors))

    def point(self, cfg, code, snr_db, theta0_deg):
        bits_sent = self.counted * code.nbits
        return BerPoint(
            snr_db=float(snr_db),
            ber=self.errors / bits_sent if bits_sent else math.nan,
            trials=self.counted,
            bit_errors=self.errors,
            code=cfg.code,
            rate_bps=code.rate_bps,
            n_antennas=cfg.m,
            theta0_deg=float(theta0_deg),
            seed=cfg.master_seed,
            aborted=self.aborted,
            bits_sent=bits_sent,
            bit_errors_sq=self.errors_sq,
            frame_errors=self.frames,
        )


def _sweep(cfg, angle_key, points):
    """BerPoints of (snr_db, theta0_deg) pairs, in order, once every factor
    is built.  Every point reads trial t from the same words, so a wave
    draws and encodes each batch once for the points still running.  This
    thread runs each wave's first batch and hands the rest to ``map`` or,
    for workers > 1, a pool thread, started at its first batch."""
    _keep_heap()
    code, g_maps = _sweep_setup(cfg, angle_key, [theta for _, theta in points])
    tallies = [_Tally() for _ in points]
    live = list(range(len(points)))
    width = min(cfg.workers, WAVE_BATCHES) - 1
    attempted = 0
    with ThreadPoolExecutor(max(width, 1)) as pool:
        map_rest = pool.map if width else map
        while live and attempted < cfg.max_trials:
            wave_end = min(attempted + WAVE_BATCHES * TRIALS_PER_BATCH, cfg.max_trials)
            lows = range(attempted, wave_end, TRIALS_PER_BATCH)
            highs = [min(lo + TRIALS_PER_BATCH, wave_end) for lo in lows]
            batch = partial(_run_batch, cfg, code, g_maps, [points[i] for i in live])
            rest = map_rest(batch, lows[1:], highs[1:])
            for results in [batch(lows[0], highs[0]), *rest]:
                for i, (trial_errors, trial_aborted) in zip(live, results):
                    tallies[i].add(trial_errors, trial_aborted)
            attempted = wave_end
            live = [i for i in live if tallies[i].errors < cfg.min_bit_errors]
    return [tally.point(cfg, code, *point) for tally, point in zip(tallies, points)]


def run_ber_sweep(cfg):
    """BER versus SNR at the configured mean angle of departure."""
    cfg.validate()
    if not cfg.snr_db:
        raise ConfigError("snr_db: list must be nonempty for a BER sweep")
    return _sweep(cfg, "pas.theta0_deg", [(snr, cfg.theta0_deg) for snr in cfg.snr_db])


def run_angle_sweep(cfg, snr_db):
    """BER versus mean angle of departure at one fixed SNR."""
    cfg.validate()
    if not cfg.theta0_deg_list:
        raise ConfigError("theta0_deg_list: list must be nonempty for an angle sweep")
    problem = snr_problem(snr_db)
    if problem:
        raise ConfigError(f"snr_db: {problem}")
    thetas = cfg.theta0_deg_list
    return list(zip(thetas, _sweep(cfg, "theta0_deg_list", [(snr_db, t) for t in thetas])))


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
