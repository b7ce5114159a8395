"""Invariant suite backing the ``validate`` CLI subcommand.

Each check returns (name, passed, detail).  The suite covers the sequence
algebra, the replication lift, the two power constraints for every code
kind, decoder round-trips, coding-gain closed forms, the pairwise-error
bound scaling, and codeword energy normalization.
"""

import itertools
import math

import numpy as np

from . import analysis, precoding, sequences
from .constellations import make_psk
from .kinds import REGISTRY, build_code

__all__ = ["run_all_checks", "CHECKS"]


def check_zc_family():
    for m_len in (3, 4, 8, 9, 16, 64, 128):
        for gamma in range(1, m_len):
            if math.gcd(gamma, m_len) != 1:
                continue
            seq = sequences.zc_generate(m_len, gamma)
            if not sequences.is_cazac(seq.values, 1e-9):
                return False, f"zc({m_len},{gamma}) is not CAZAC"
            for shift in range(1, m_len):
                if abs(sequences.periodic_autocorr(seq.values, shift)) > 1e-10:
                    return False, f"zc({m_len},{gamma}) autocorrelation at {shift}"
    return True, "ZC family CAZAC + zero autocorrelation"


def check_lift_equivalence():
    qpsk = make_psk(4).points
    for n_len in (2, 4):
        for mult in (1, 2, 4):
            m_len = mult * n_len * n_len
            c = sequences.zc_generate(m_len, 1)
            for combo in itertools.product(range(4), repeat=n_len):
                x = qpsk[list(combo)]
                if not sequences.is_cazac(sequences.lift(c, x)):
                    return False, f"constant-amplitude lift not CAZAC at M={m_len}"
                bad = x.copy()
                bad[0] *= 2.0
                if sequences.is_cazac(sequences.lift(c, bad)):
                    return False, f"unequal-amplitude lift CAZAC at M={m_len}"
    return True, "lift is CAZAC iff the input is constant-amplitude"


def _requirement_cases():
    """(kind, M, Code) for every kind at R = 1, with L = N = 8 for the NZE
    kinds, on the smallest array of at least four antennas that N^2 divides."""
    for kind in REGISTRY:
        code = build_code(kind, 1, 8, 8)
        yield kind, max(4, code.n_ports**2), code


def check_requirements_all_kinds():
    for kind, m_len, code in _requirement_cases():
        prec = precoding.precoder_for_code(kind, m_len, n_ports=code.n_ports)
        for bits, matrix in zip(*code.codebook()):
            signal = precoding.transmit(prec, matrix)
            omni, per_antenna = precoding.check_requirements(signal, 1e-9)
            if not (omni and per_antenna):
                return False, f"{kind} payload {bits.tolist()} at M={m_len}"
    return True, "both power requirements hold for every kind, exhaustively"


def check_prbs_fails_omni():
    phase = precoding.prbs_phase_vector(64, (1, 0x50524253))
    prec = precoding.precoder_for_code("single", 64, phase_vector=phase)
    signal = precoding.transmit(prec, np.eye(1, dtype=complex))
    omni, per_antenna = precoding.check_requirements(signal, 1e-9)
    if omni:
        return False, "pseudo-random phases unexpectedly omnidirectional"
    if not per_antenna:
        return False, "pseudo-random phases broke the per-antenna constraint"
    return True, "pseudo-random baseline fails the omni check only"


def check_precoder_structure():
    for kind, m_len, code in _requirement_cases():
        prec = precoding.precoder_for_code(kind, m_len, n_ports=code.n_ports)
        w = prec.w_matrix
        if abs(np.trace(w @ w.conj().T) - 1.0) > 1e-10:
            return False, f"{kind}: trace(W W^H) != 1"
        gram = w.conj().T @ w
        if np.abs(gram - np.eye(prec.n_ports) / prec.n_ports).max() > 1e-10:
            return False, f"{kind}: W^H W != I/N"
    return True, "precoder power normalization and column orthogonality"


def check_decoder_roundtrips():
    rng = np.random.default_rng(2024)
    for kind, spec in REGISTRY.items():
        if not spec.enumerable:
            continue
        code = build_code(kind, 1)
        bits, book = (np.repeat(a, 10, axis=0) for a in code.codebook())
        z = rng.standard_normal((len(bits), 2, code.n_ports))
        g = (z[:, 0] + 1j * z[:, 1]) / 2.0
        decoded, aborted = code.decode(np.einsum("bn,bnt->bt", g, book), g)
        if aborted.any() or not np.array_equal(decoded, bits):
            return False, f"{kind} noiseless round-trip failed"
    return True, "noiseless ML round-trips, exhaustive payloads"


def check_coding_gains():
    for kind, spec in REGISTRY.items():
        if spec.closed_form_gain is None:
            continue
        for rate in (1, 2):
            gain = analysis.coding_gain(build_code(kind, rate).codebook()[1])
            expected = spec.closed_form_gain(rate)
            if abs(gain - expected) > 1e-9:
                return False, f"{kind} R={rate}: enumerated {gain} vs closed form {expected}"
    return True, "enumerated coding gains match the closed forms"


def check_pep_scaling():
    book = build_code("ac", 1).codebook()[1]
    b1 = analysis.pep_upper_bound(book, 2, 0.1, 1)
    b2 = analysis.pep_upper_bound(book, 2, 0.01, 1)
    if abs(b2 / b1 - 1e-2) > 1e-11:
        return False, "decade scaling is not 10^-N"
    if abs(analysis.pep_upper_bound(book, 2, 0.1, 3) - 3 * b1) > 1e-12:
        return False, "bound is not linear in the user count"
    return True, "pairwise-error bound scales as K (4 sigma^2)^N"


def check_energy_normalization():
    rng = np.random.default_rng(99)
    for kind in REGISTRY:
        code = build_code(kind, 2, 8, 4)
        bits = rng.integers(0, 2, (10_000, code.nbits))
        x = code.encode(bits)
        gram = np.einsum("bnt,bmt->nm", x, x.conj()) / len(bits)
        err = np.abs(gram - code.n_slots * np.eye(code.n_ports)).max()
        if err > 0.02 * code.n_slots:
            return False, f"{kind}: E[X X^H] off by {err:.3g}"
    return True, "mean codeword Gram is T times identity within 2%"


CHECKS = [
    ("zc_family", check_zc_family),
    ("lift_equivalence", check_lift_equivalence),
    ("precoder_structure", check_precoder_structure),
    ("requirements_all_kinds", check_requirements_all_kinds),
    ("prbs_non_omni", check_prbs_fails_omni),
    ("decoder_roundtrips", check_decoder_roundtrips),
    ("coding_gains", check_coding_gains),
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
