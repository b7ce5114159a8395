"""Channel-independent precoders W = diag(c) (1_{M/N} kron V).

The ZC sequence c fixes the per-antenna phases, V is a small unitary
matrix chosen per code so that every column of V X has constant amplitude.
Total transmit power is normalized: trace(W W^H) = 1 and W^H W = I_N / N.
"""

import numpy as np

from .kinds import spec_for
from .sequences import is_constant_amplitude, zc_generate

__all__ = [
    "Precoder",
    "build_precoder",
    "precoder_for_code",
    "prbs_phase_vector",
    "transmit",
    "check_requirements",
    "avg_receive_power",
]

UNITARY_TOL = 1e-10


class Precoder:
    """M x N precoding matrix W, read-only."""

    def __init__(self, w_matrix):
        self.w_matrix = w_matrix
        self.w_matrix.flags.writeable = False

    @property
    def n_antennas(self):
        return self.w_matrix.shape[0]

    @property
    def n_ports(self):
        return self.w_matrix.shape[1]

    def __repr__(self):
        return f"Precoder(M={self.n_antennas}, N={self.n_ports})"


def build_precoder(n_antennas, n_ports, gamma, v_matrix, phase_vector=None):
    """Assemble W = diag(c) (1_{M/N} kron V).

    ``phase_vector`` overrides the ZC sequence (used for the non-omni
    pseudo-random baseline); it must still have 1/sqrt(M) magnitudes.
    """
    m_len = int(n_antennas)
    n_len = int(n_ports)
    v_matrix = np.asarray(v_matrix, dtype=complex)
    if v_matrix.shape != (n_len, n_len):
        raise ValueError(f"V must be {n_len} x {n_len}, got {v_matrix.shape}")
    if m_len % (n_len * n_len) != 0:
        raise ValueError(
            f"antenna count {m_len} is not a multiple of N^2 = {n_len * n_len}"
        )
    gram = v_matrix.conj().T @ v_matrix
    if np.max(np.abs(gram - np.eye(n_len))) > UNITARY_TOL:
        raise ValueError("V is not unitary")
    if phase_vector is None:
        phase_vector = zc_generate(m_len, gamma)
    else:
        phase_vector = np.asarray(phase_vector, dtype=complex)
        if phase_vector.size != m_len:
            raise ValueError("phase vector length must equal the antenna count")
    w = phase_vector[:, None] * np.tile(v_matrix, (m_len // n_len, 1))
    return Precoder(w)


def precoder_for_code(kind, n_antennas, gamma=1, n_ports=None, phase_vector=None):
    """Precoder with the preset V for ``kind``; ``n_ports`` is needed only
    by the kinds whose port count is configurable."""
    v = spec_for(kind).preset_v(n_ports)
    return build_precoder(n_antennas, v.shape[0], gamma, v, phase_vector)


def prbs_phase_vector(n_antennas, seed):
    """Pseudo-random +-1/sqrt(M) vector replacing the ZC sequence.

    Keeps the per-antenna power constraint but breaks omnidirectionality
    with high probability; this is the non-omni baseline.
    """
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, int(n_antennas)) * 2 - 1
    return signs.astype(complex) / np.sqrt(n_antennas)


def transmit(precoder, x):
    """Antenna-domain signal W X (M x T) of an N x T codeword array X."""
    if x.shape[0] != precoder.n_ports:
        raise ValueError(f"codeword has {x.shape[0]} ports, precoder expects {precoder.n_ports}")
    return precoder.w_matrix @ x


def check_requirements(signal, tol=1e-9):
    """(omni, per_antenna) flags for an antenna-domain M x T signal.

    omni: every column of F_M S is constant-amplitude (equal power in all
    DFT-grid spatial directions).  per_antenna: every column of S itself is
    constant-amplitude (equal power on every antenna).
    """
    signal = np.atleast_2d(np.asarray(signal, dtype=complex))
    spatial = np.fft.fft(signal, axis=0) / np.sqrt(signal.shape[0])
    omni = all(is_constant_amplitude(spatial[:, t], tol) for t in range(signal.shape[1]))
    per_antenna = all(
        is_constant_amplitude(signal[:, t], tol) for t in range(signal.shape[1])
    )
    return omni, per_antenna


def avg_receive_power(precoder, x_t, lambda_diag):
    """Fast-fading-averaged receive power x^H W^H F^H diag(lambda) F W x.

    Constant over all trace-M diagonal loadings exactly when the transmit
    vector W x has constant-amplitude DFT.
    """
    lam = np.asarray(lambda_diag, dtype=float)
    if np.any(lam < 0):
        raise ValueError("diagonal loading must be nonnegative")
    if abs(lam.sum() - precoder.n_antennas) > 1e-6 * precoder.n_antennas:
        raise ValueError("diagonal loading must have trace M")
    x_t = np.asarray(x_t, dtype=complex)
    a = np.fft.fft(precoder.w_matrix @ x_t) / np.sqrt(precoder.n_antennas)
    return float(np.sum(lam * np.abs(a) ** 2))
