"""Channel-independent precoders W = lift(c, V) = diag(c) (1_{M/N} kron V).

The ZC sequence c fixes the per-antenna phases, V is a small unitary
matrix chosen per code so that every column of V X has constant amplitude.
Total radiated power is normalized: trace(W W^H) = 1 and W^H W = I_N / N.
"""

import numpy as np

from .kinds import spec_for
from .sequences import is_constant_amplitude, lift, unitary_dft, zc_generate

__all__ = [
    "Precoder",
    "precoder_for_code",
    "prbs_phase_vector",
    "PRBS_TAG",
    "check_requirements",
]

# Second word of the engine's PRBS seed (master_seed, PRBS_TAG): "PRBS" in
# ASCII, which keeps the baseline's phases apart from every trial stream.
PRBS_TAG = 0x50524253


class Precoder:
    """Read-only holder of the M x N matrix ``w_matrix``, kept only for its
    readers perfbench/run.py and perfbench/tests/test_perfbench.py; after
    ROADMAP item 1, ``precoder_for_code`` can return the array itself."""

    def __init__(self, w_matrix):
        self.w_matrix = w_matrix
        self.w_matrix.flags.writeable = False


def precoder_for_code(kind, n_antennas, gamma=1, n_ports=None, phase_vector=None):
    """W = lift(c, V): c is the root-``gamma`` ZC sequence, or the length-M
    ``phase_vector`` when given (the non-omni baseline), and V the preset
    for ``kind``; ``n_ports`` is needed only when its port count is set."""
    if phase_vector is None:
        c = zc_generate(n_antennas, gamma)
    else:
        c = np.asarray(phase_vector, dtype=complex)
        if c.size != n_antennas:
            raise ValueError("phase vector length must equal the antenna count")
    return Precoder(lift(c, spec_for(kind).preset_v(n_ports)))


def prbs_phase_vector(n_antennas, seed):
    """Pseudo-random +-1/sqrt(M) vector replacing the ZC sequence.

    Keeps the per-antenna power constraint but breaks omnidirectionality
    with high probability; this is the non-omni baseline.
    """
    rng = np.random.default_rng(seed)
    signs = rng.integers(0, 2, int(n_antennas)) * 2 - 1
    return signs.astype(complex) / np.sqrt(n_antennas)


def check_requirements(signal):
    """(omni, per_antenna) flags for an antenna-domain M x T signal.

    omni: the unitary DFT of every column is constant-amplitude (equal power
    in all DFT-grid spatial directions).  per_antenna: every column itself
    is constant-amplitude (equal power on every antenna).
    """
    columns = np.asarray(signal, dtype=complex).T
    omni = all(is_constant_amplitude(unitary_dft(s)) for s in columns)
    per_antenna = all(is_constant_amplitude(s) for s in columns)
    return omni, per_antenna
