"""Invariant suite backing the ``validate`` CLI subcommand.

This module is the single home of the paper's structural invariants.  The
tests call these checks instead of restating them: the CLI test runs them
all, and criteria 02, 03, 04, 06 (its noiseless half) and 10 call theirs
and print the detail.  Each check returns (passed, detail); a failed
check's detail names the case that broke.

- ``zc_family``: every ZC sequence of length 3, 4, 8, 9, 16, 64, 127 and
  128, at every coprime root, has |c_m| = 1/sqrt(M), is CAZAC, and has
  periodic autocorrelation 1 at lag 0 and 0 at every other lag.
- ``lift_equivalence``: the replication of N = 2 and 4 QPSK symbols onto a
  ZC backbone of M = N^2, 2 N^2 and 4 N^2 is CAZAC for every payload, and
  stops being CAZAC (and constant amplitude) when any one symbol is scaled
  by 0.5, 1.5 or 2.
- ``precoder_structure``: trace(W W^H) = 1 and W^H W = I/N for every kind.
- ``requirements_all_kinds``: every codeword of every kind at R = 1 meets
  both power requirements, omnidirectional and equal per antenna.
- ``prbs_non_omni``: the pseudo-random phase baseline keeps equal
  per-antenna power and fails the omni check, for three seeds.
- ``decoder_roundtrips``: every fixed-port kind at R = 1 and 2 decodes
  every payload without error over noiseless random channels.
- ``coding_gains``: coding gains enumerated over the decoupled groups
  equal the closed forms, at R = 1..4 for QOSTBC and CIOD and R = 1, 2
  for OSTBC.
- ``gain_orderings``: the closed forms for R = 1..6 put QOSTBC at or above
  CIOD up to 4 bps/Hz and CIOD above QOSTBC past it; OSTBC ties QOSTBC at
  R = 1 and trails both above.
- ``pep_scaling``: for AC and QOSTBC the pairwise-error bound falls by
  10^-N per SNR decade and is linear in the user count K.
- ``energy_normalization``: the mean codeword Gram of every kind at R = 1
  and 2 is T times the identity within 2%.
"""

import itertools
import math

import numpy as np

from . import analysis, precoding, sequences
from .constellations import make_psk
from .kinds import REGISTRY, build_code
from .sequences import is_cazac, is_constant_amplitude, lift

__all__ = ["run_all_checks", "CHECKS"]


def check_zc_family():
    for m_len in (3, 4, 8, 9, 16, 64, 127, 128):
        for gamma in range(1, m_len):
            if math.gcd(gamma, m_len) != 1:
                continue
            seq = sequences.zc_generate(m_len, gamma)
            name = f"zc({m_len},{gamma})"
            if not np.abs(np.abs(seq) - 1 / math.sqrt(m_len)).max() < 1e-12:
                return False, f"{name} entries are not 1/sqrt(M) in magnitude"
            if not is_cazac(seq):
                return False, f"{name} is not CAZAC"
            if not abs(sequences.periodic_autocorr(seq, 0) - 1.0) <= 1e-12:
                return False, f"{name} autocorrelation at 0 is not 1"
            for shift in range(1, m_len):
                if not abs(sequences.periodic_autocorr(seq, shift)) < 1e-10:
                    return False, f"{name} autocorrelation at {shift}"
    return True, "ZC family CAZAC + zero autocorrelation"


def check_lift_equivalence():
    qpsk = make_psk(4).points
    cases = 0
    for n_len in (2, 4):
        for mult in (1, 2, 4):
            m_len = mult * n_len * n_len
            c = sequences.zc_generate(m_len, 1)
            for combo in itertools.product(range(4), repeat=n_len):
                x = qpsk[list(combo)]
                if not (is_constant_amplitude(x) and is_cazac(lift(c, x))):
                    return False, f"constant-amplitude lift of {combo} not CAZAC at M={m_len}"
                for pos, factor in itertools.product(range(n_len), (0.5, 1.5, 2.0)):
                    bad = x.copy()
                    bad[pos] *= factor
                    if is_constant_amplitude(bad) or is_cazac(lift(c, bad)):
                        return False, f"lift of {combo}, symbol {pos} x {factor} CAZAC at M={m_len}"
                cases += 1 + 3 * n_len
    return True, f"lift CAZAC iff constant amplitude, {cases} cases, 0 exceptions"


def _requirement_cases():
    """(kind, M, Code) for every kind at R = 1, with L = N = 8 for the NZE
    kinds, on the smallest array of at least four antennas that N^2 divides."""
    for kind, spec in REGISTRY.items():
        code = build_code(kind, 1, *(() if spec.n_ports else (8, 8)))
        yield kind, max(4, code.n_ports**2), code


def check_requirements_all_kinds():
    for kind, m_len, code in _requirement_cases():
        prec = precoding.precoder_for_code(kind, m_len, n_ports=code.n_ports)
        for bits, matrix in zip(*code.codebook()):
            signal = prec.w_matrix @ matrix
            omni, per_antenna = precoding.check_requirements(signal)
            if not (omni and per_antenna):
                return False, f"{kind} payload {bits.tolist()} at M={m_len}"
    return True, "both power requirements hold for every kind, exhaustively"


def check_prbs_fails_omni():
    seeds = ((1, precoding.PRBS_TAG), 2024, (11, precoding.PRBS_TAG))
    for seed in seeds:
        phase = precoding.prbs_phase_vector(64, seed)
        prec = precoding.precoder_for_code("single", 64, phase_vector=phase)
        omni, per_antenna = precoding.check_requirements(prec.w_matrix)
        if omni or not per_antenna:
            return False, f"seed {seed}: omni {omni}, per-antenna {per_antenna}"
    return True, f"pseudo-random baseline fails the omni check only, {len(seeds)} seeds"


def check_precoder_structure():
    for kind, m_len, code in _requirement_cases():
        prec = precoding.precoder_for_code(kind, m_len, n_ports=code.n_ports)
        w = prec.w_matrix
        if abs(np.trace(w @ w.conj().T) - 1.0) > 1e-10:
            return False, f"{kind}: trace(W W^H) != 1"
        gram = w.conj().T @ w
        if np.abs(gram - np.eye(code.n_ports) / code.n_ports).max() > 1e-10:
            return False, f"{kind}: W^H W != I/N"
    return True, "precoder power normalization and column orthogonality"


def check_decoder_roundtrips():
    rng = np.random.default_rng(2024)
    for kind, spec in REGISTRY.items():
        if spec.n_ports is None:
            continue
        for rate in (1, 2):
            code = build_code(kind, rate)
            bits, book = (np.repeat(a, 50, axis=0) for a in code.codebook())
            z = rng.standard_normal((len(bits), 2, code.n_ports))
            g = (z[:, 0] + 1j * z[:, 1]) / math.sqrt(2.0 * code.n_ports)
            decoded, aborted = code.decode(np.einsum("bn,bnt->bt", g, book)[None], g)
            if aborted.any() or not np.array_equal(decoded[0], bits):
                return False, f"{kind} R={rate} noiseless round-trip failed"
    return True, "noiseless ML round-trips, exhaustive payloads"


def check_coding_gains():
    for kind, spec in REGISTRY.items():
        if spec.closed_form_gain is None:
            continue
        for rate in (1, 2) if kind == "ostbc" else (1, 2, 3, 4):
            gain = analysis.coding_gain(build_code(kind, rate))
            expected = spec.closed_form_gain(rate)
            if abs(gain - expected) > 1e-9:
                return False, f"{kind} R={rate}: enumerated {gain} vs closed form {expected}"
    return True, "enumerated coding gains match the closed forms"


def check_gain_orderings():
    for rate in range(1, 7):
        qo, ci, os_ = (REGISTRY[k].closed_form_gain(rate) for k in ("qostbc", "ciod", "ostbc"))
        if (qo < ci) if rate <= 4 else (ci <= qo):
            return False, f"R={rate}: qostbc {qo:.6g} vs ciod {ci:.6g}, wrong side of 4 bps/Hz"
        if (abs(os_ - qo) > 1e-9) if rate == 1 else not os_ < min(qo, ci):
            return False, f"R={rate}: ostbc {os_:.6g} vs qostbc {qo:.6g}, ciod {ci:.6g}"
    return True, "QOSTBC/CIOD/OSTBC gain orderings hold for R = 1..6"


def check_pep_scaling():
    for kind in ("ac", "qostbc"):
        code = build_code(kind, 1)
        n_ports = code.n_ports
        for sigma_n2, tenth in ((0.1, 0.01), (0.2, 0.02)):
            ref = analysis.pep_upper_bound(code, sigma_n2, 1)
            decade = analysis.pep_upper_bound(code, tenth, 1) / ref
            if abs(decade - 10.0**-n_ports) > 1e-9 * 10.0**-n_ports:
                return False, f"{kind} at sigma^2={sigma_n2}: decade ratio {decade:.12g}"
            for users in (2, 3, 7):
                want = users * ref
                got = analysis.pep_upper_bound(code, sigma_n2, users)
                if abs(got - want) > 1e-12 * min(1.0, want):
                    return False, f"{kind} at sigma^2={sigma_n2}: K={users} gives {got!r}"
    return True, "pairwise-error bound scales by 10^-N per SNR decade and linearly in K"


def check_energy_normalization():
    rng = np.random.default_rng(99)
    for kind, spec in REGISTRY.items():
        for rate in (1, 2):
            code = build_code(kind, rate, *(() if spec.n_ports else (8, 4)))
            bits = rng.integers(0, 2, (10_000, code.nbits))
            x = code.encode(bits)
            gram = np.einsum("bnt,bmt->nm", x, x.conj()) / len(bits)
            err = np.abs(gram - code.n_slots * np.eye(code.n_ports)).max()
            if err > 0.02 * code.n_slots:
                return False, f"{kind} R={rate}: E[X X^H] off by {err:.3g}"
    return True, "mean codeword Gram is T times identity within 2%"


CHECKS = [
    ("zc_family", check_zc_family),
    ("lift_equivalence", check_lift_equivalence),
    ("precoder_structure", check_precoder_structure),
    ("requirements_all_kinds", check_requirements_all_kinds),
    ("prbs_non_omni", check_prbs_fails_omni),
    ("decoder_roundtrips", check_decoder_roundtrips),
    ("coding_gains", check_coding_gains),
    ("gain_orderings", check_gain_orderings),
    ("pep_scaling", check_pep_scaling),
    ("energy_normalization", check_energy_normalization),
]


def run_all_checks():
    """Run every check; yields (name, passed, detail)."""
    for name, fn in CHECKS:
        try:
            passed, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        yield name, passed, detail
