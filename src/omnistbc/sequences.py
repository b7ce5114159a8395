"""Zadoff-Chu sequences, the unitary DFT and 2 x 2 Hadamard, CAZAC predicates.

A CAZAC sequence has constant amplitude in both the time domain and the
DFT domain.  Zadoff-Chu sequences are the canonical family; they form the
phase backbone of every precoder in this package.  The ``lift`` operation
replicates a short vector, or a small matrix along its first axis, across a
long ZC sequence.  It is the mechanism by which per-port symbols inherit the
CAZAC property, and it builds the precoder itself: W = lift(c, V).
"""

import math

import numpy as np

__all__ = [
    "zc_generate",
    "unitary_dft",
    "hadamard2",
    "is_constant_amplitude",
    "is_cazac",
    "periodic_autocorr",
    "lift",
]

# Largest spread of magnitudes, relative to the peak, that counts as constant.
AMPLITUDE_TOL = 1e-9


def zc_generate(m_len, gamma):
    """The root-``gamma`` Zadoff-Chu sequence of length ``m_len`` as a
    read-only array with unit total energy.

    Every element has magnitude 1/sqrt(M), the periodic autocorrelation is
    zero at every nonzero cyclic shift, and the unitary DFT again has all
    magnitudes equal to 1/sqrt(M).

    The phase exponent is gamma*m^2/M for even M and gamma*m*(m+1)/M for
    odd M, evaluated in exact integer arithmetic modulo 2M before the
    complex exponential so no phase error accumulates with the index.
    """
    m_len = int(m_len)
    gamma = int(gamma)
    if m_len < 1:
        raise ValueError(f"sequence length must be positive, got {m_len}")
    if not 1 <= gamma < m_len:
        raise ValueError(f"root {gamma} outside [1, {m_len})")
    if math.gcd(gamma, m_len) != 1:
        raise ValueError(f"root {gamma} is not coprime with length {m_len}")

    m = np.arange(m_len, dtype=np.int64)
    if m_len % 2 == 0:
        exponent = (gamma * (m * m)) % (2 * m_len)
    else:
        exponent = (gamma * (m * (m + 1))) % (2 * m_len)
    values = np.exp(1j * np.pi * exponent / m_len) / np.sqrt(m_len)
    values.flags.writeable = False
    return values


def unitary_dft(v):
    """Energy-preserving forward DFT of a vector."""
    v = np.asarray(v, dtype=complex)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("input must be a nonempty 1-D vector")
    return np.fft.fft(v) / np.sqrt(v.size)


def hadamard2():
    """The 2 x 2 unitary Hadamard matrix."""
    return np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)


def is_constant_amplitude(v):
    """True iff all elements share one magnitude, within AMPLITUDE_TOL of
    the max.

    An all-zero vector is not constant-amplitude: zero amplitude carries
    no signal.
    """
    mags = np.abs(np.asarray(v, dtype=complex))
    if mags.size == 0:
        raise ValueError("input must be nonempty")
    peak = mags.max()
    if peak == 0.0:
        return False
    return bool(mags.max() - mags.min() <= AMPLITUDE_TOL * peak)


def is_cazac(v):
    """True iff ``v`` and its unitary DFT are both constant-amplitude."""
    v = np.asarray(v, dtype=complex)
    if v.size == 0:
        raise ValueError("input must be nonempty")
    return is_constant_amplitude(v) and is_constant_amplitude(unitary_dft(v))


def periodic_autocorr(v, shift):
    """Periodic autocorrelation v^H Pi_n v at cyclic shift ``shift``.

    Pi_n is the cyclic shifting matrix, so Pi_n v rolls the vector down by
    ``shift`` positions.
    """
    v = np.asarray(v, dtype=complex)
    shift = int(shift)
    if not 0 <= shift < v.size:
        raise ValueError(f"shift {shift} outside [0, {v.size})")
    return complex(np.vdot(v, np.roll(v, shift)))


def lift(c, x):
    """diag(c) (1_{M/N} kron x): replicas of ``x`` along its first axis,
    modulated onto the ZC sequence array ``c``.

    ``x`` is a length-N symbol vector or an N x K matrix such as the
    precoder's V.  With M a multiple of N^2, a lifted vector is CAZAC
    exactly when all entries of ``x`` share one amplitude.
    """
    x = np.asarray(x, dtype=complex)
    m_len = c.size
    n_len = x.shape[0] if x.ndim else 0
    if n_len == 0:
        raise ValueError(f"x must have a nonempty first axis, got shape {x.shape}")
    if m_len % (n_len * n_len) != 0:
        raise ValueError(f"sequence length {m_len} is not a multiple of N^2 = {n_len * n_len}")
    tail = (1,) * (x.ndim - 1)
    return c.reshape(m_len, *tail) * np.tile(x, (m_len // n_len, *tail))
