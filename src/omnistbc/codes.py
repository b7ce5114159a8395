"""Codeword construction for the six space-time block code designs.

All codewords are stored ports x time (N x T).  The Toeplitz-family
matrices are written time x ports in their defining index formulas and are
transposed on construction.

Matrix builders accept scalars or arrays with a leading batch axis, so the
batched encoders of the code registry (``omnistbc.kinds``) map thousands of
payloads in one call.  The bit-driven scalar encoders are that batched
encoder applied to a batch of one.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .constellations import (
    Constellation,
    ciod_rotation,
    make_pam,
    make_psk,
    make_rotated_qam,
    qostbc_rotation,
)

__all__ = [
    "Codeword",
    "encode_ostbc",
    "encode_qostbc",
    "encode_ciod",
    "encode_nze_tc",
    "encode_nze_oac",
    "ac_matrix",
    "ostbc_matrix",
    "qostbc_matrix",
    "ciod_matrix",
    "ciod_interleave",
    "ostbc_constellations",
    "qostbc_constellations",
    "ciod_constellation",
    "NzeTables",
    "nze_tc_tables",
    "nze_oac_tables",
]


@dataclass
class Codeword:
    """An N x T codeword."""

    matrix: np.ndarray


def _conj(x):
    return np.conjugate(x)


def ac_matrix(x1, x2):
    """Alamouti matrix [[x1, x2*], [x2, -x1*]] (batch-aware)."""
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    row0 = np.stack([x1, _conj(x2)], axis=-1)
    row1 = np.stack([x2, -_conj(x1)], axis=-1)
    return np.stack([row0, row1], axis=-2)


def ostbc_matrix(x1, x2, x3):
    """Rate-3/4 orthogonal design for four ports (batch-aware)."""
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    x3 = np.asarray(x3, dtype=complex)
    z = np.zeros(np.broadcast(x1, x2, x3).shape, dtype=complex)
    rows = [
        np.stack([x1, _conj(x2), _conj(x3), z], axis=-1),
        np.stack([x2, -_conj(x1), z, _conj(x3)], axis=-1),
        np.stack([x3, z, -_conj(x1), -_conj(x2)], axis=-1),
        np.stack([z, x3, -x2, x1], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def qostbc_matrix(x1, x2, x3, x4):
    """TBH quasi-orthogonal design: blocks [[A, B], [B, A]] of Alamouti pairs."""
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    x3 = np.asarray(x3, dtype=complex)
    x4 = np.asarray(x4, dtype=complex)
    rows = [
        np.stack([x1, _conj(x2), x3, _conj(x4)], axis=-1),
        np.stack([x2, -_conj(x1), x4, -_conj(x3)], axis=-1),
        np.stack([x3, _conj(x4), x1, _conj(x2)], axis=-1),
        np.stack([x4, -_conj(x3), x2, -_conj(x1)], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def ciod_matrix(x1, x2, x3, x4):
    """Block-diagonal pair of Alamouti blocks (batch-aware)."""
    x1 = np.asarray(x1, dtype=complex)
    x2 = np.asarray(x2, dtype=complex)
    x3 = np.asarray(x3, dtype=complex)
    x4 = np.asarray(x4, dtype=complex)
    z = np.zeros(np.broadcast(x1, x2, x3, x4).shape, dtype=complex)
    rows = [
        np.stack([x1, _conj(x2), z, z], axis=-1),
        np.stack([x2, -_conj(x1), z, z], axis=-1),
        np.stack([z, z, x3, _conj(x4)], axis=-1),
        np.stack([z, z, x4, -_conj(x3)], axis=-1),
    ]
    return np.stack(rows, axis=-2)


def ciod_interleave(s1, s2):
    """Coordinate interleaver mapping (s1, s2) to the four matrix symbols."""
    s1 = np.asarray(s1, dtype=complex)
    s2 = np.asarray(s2, dtype=complex)
    r2 = np.sqrt(2.0)
    x1 = r2 * (1 + 1j) * s1.real
    x2 = r2 * (1 - 1j) * s2.real
    x3 = r2 * (1 + 1j) * s1.imag
    x4 = r2 * (1j - 1) * s2.imag
    return x1, x2, x3, x4


def ostbc_constellations(rate):
    """(PAM for x1, QPSK for the phase of x3) at bit rate ``rate``.

    x2 uses j times the same PAM set; the amplitude of x3 is slaved to
    |x1 + x2| so only its QPSK phase carries bits.
    """
    rate = int(rate)
    if rate < 1:
        raise ValueError(f"bit rate must be at least 1, got {rate}")
    return make_pam(2 ** (2 * rate - 2)), make_psk(4)


@lru_cache(maxsize=None)
def _payload_code(kind, rate):
    """The registry's Code of ``kind`` at ``rate``, built once per process."""
    from .kinds import build_code  # the registry imports this module

    return build_code(kind, rate)


def _encode_payload(kind, bits, rate):
    """One payload through the registry's batched encoder."""
    code = _payload_code(kind, int(rate))
    bits = np.asarray(bits)
    if bits.size != code.nbits:
        raise ValueError(f"expected {code.nbits} bits, got {bits.size}")
    return Codeword(code.encode(bits.reshape(1, -1))[0])


def encode_ostbc(bits, rate):
    """Orthogonal design carrying 4*rate bits over four slots.

    2*rate-1 bits go to x1 in PAM, 2*rate-1 bits to x2 in j*PAM, and the
    remaining 2 bits pick the QPSK phase of x3 = |x1+x2| * x3'.
    """
    return _encode_payload("ostbc", bits, rate)


def qostbc_constellations(rate):
    """(plain PSK for x1/x2, rotated PSK for x3/x4) at bit rate ``rate``.

    ML decoding pairs (x1, x3) and (x2, x4), so the rotation goes on the
    second symbol of each pair; that keeps every pairwise difference
    matrix full rank.
    """
    rate = int(rate)
    if rate < 1:
        raise ValueError(f"bit rate must be at least 1, got {rate}")
    order = 2**rate
    psk = make_psk(order)
    return psk, _rotate_constellation(psk, qostbc_rotation(order))


def _rotate_constellation(c, theta):
    return Constellation(c.points * np.exp(1j * theta), c.scale)


def encode_qostbc(bits, rate):
    """TBH quasi-orthogonal codeword carrying 4*rate bits over four slots."""
    return _encode_payload("qostbc", bits, rate)


def ciod_constellation(rate):
    """Rotated 2^(2*rate)-QAM carrying the bits of one CIOD symbol."""
    rate = int(rate)
    if rate < 1:
        raise ValueError(f"bit rate must be at least 1, got {rate}")
    return make_rotated_qam(2 ** (2 * rate), ciod_rotation())


def encode_ciod(bits, rate):
    """Coordinate-interleaved codeword: s1 and s2 each carry 2*rate bits."""
    return _encode_payload("ciod", bits, rate)


def _nze_tc_index_sign(n_sym, n_ports):
    """Symbol index and sign of each entry of the tall NZE-TC matrix.

    Wrapping the Toeplitz band cyclically gives entry (m, n) the symbol
    (m - n) mod L, negated once the band has wrapped past the bottom.
    Requires L >= n_ports - 1 so the top wrap stays inside the band.
    """
    if n_sym < n_ports - 1:
        raise ValueError(f"nze.l: must be at least {n_ports - 1}")
    t_len = n_sym + n_ports - 1
    m = np.arange(t_len)[:, None]
    n = np.arange(n_ports)[None, :]
    idx = (m - n) % n_sym
    sign = np.where(m >= n + n_sym, -1.0, 1.0)
    return idx, sign


@dataclass(frozen=True, eq=False)
class NzeTables:
    """Gather table of a no-zero-entry codeword.

    Every entry (n, t) is +-x_k or +-conj(x_k) of exactly one symbol:
    ``idx`` names k, ``sign`` the sign and ``conj`` whether it conjugates,
    each an (N, T) array.
    """

    idx: np.ndarray
    sign: np.ndarray
    conj: np.ndarray

    def build(self, x):
        """Codeword matrix for symbols ``x`` of shape (..., L)."""
        vals = np.asarray(x, dtype=complex)[..., self.idx]
        return self.sign * np.where(self.conj, np.conjugate(vals), vals)


# The NZE table builders state each kind's (L, N) rule once; config validation
# reports their messages, which name the key.
def _check_nze_counts(n_sym, n_ports):
    if n_sym < 1 or n_ports < 1:
        raise ValueError("nze.l, nze.n: required for Toeplitz-family codes")


def _tables(idx, sign, conj):
    """NzeTables from time x ports arrays."""
    return NzeTables(*(np.ascontiguousarray(np.transpose(a)) for a in (idx, sign, conj)))


def nze_tc_tables(n_sym, n_ports):
    """Toeplitz tables; L >= N keeps every symbol on every port."""
    _check_nze_counts(n_sym, n_ports)
    if n_sym < n_ports:
        raise ValueError("nze.l: must be at least nze.n")
    idx, sign = _nze_tc_index_sign(n_sym, n_ports)
    return _tables(idx, sign, np.zeros(idx.shape, dtype=bool))


def _nze_oac_tall(n_sym, n_ports):
    """Odd-port overlapped-Alamouti table in time x ports orientation.

    Entry (m, n) with m - n even reads the base Toeplitz code, conjugated
    on even columns; with m - n odd it reads the base code's reversed
    column N - 1 - n, negated and conjugated on odd columns.  Since L is
    even, the base symbol (m - n) mod L has the parity of m - n, so the
    even-position and odd-position symbols fill complementary entries.
    """
    idx, sign = _nze_tc_index_sign(n_sym, n_ports)
    cols = np.arange(n_ports)
    src = n_ports - 1 - cols
    odd = idx % 2 == 1
    sign = np.where(odd, sign[:, src] * np.where(cols % 2 == 0, 1.0, -1.0), sign)
    idx = np.where(odd, idx[:, src], idx)
    return idx, sign, odd == (cols % 2 == 1)


def nze_oac_tables(n_sym, n_ports):
    """Overlapped-Alamouti tables; the even-port code is carved out of the
    odd (n_ports + 1)-port one by dropping its first column and the first
    and last rows of what remains."""
    _check_nze_counts(n_sym, n_ports)
    if n_sym % 2 != 0:
        raise ValueError("nze.l: must be even for the overlapped code")
    if n_ports % 2 == 1:
        return _tables(*_nze_oac_tall(n_sym, n_ports))
    return _tables(*(a[1:-1, 1:] for a in _nze_oac_tall(n_sym, n_ports + 1)))


def _check_psk_symbols(x):
    if np.any(np.abs(x) < 1e-12):
        raise ValueError("zero-amplitude symbol violates the constant-power constraint")


def encode_nze_tc(x, n_sym, n_ports):
    """No-zero-entry Toeplitz codeword, stored ports x time."""
    x = np.asarray(x, dtype=complex)
    if x.size != n_sym:
        raise ValueError(f"expected {n_sym} symbols, got {x.size}")
    _check_psk_symbols(x)
    tables = nze_tc_tables(n_sym, n_ports)
    return Codeword(tables.build(x))


def encode_nze_oac(x, n_sym, n_ports):
    """No-zero-entry overlapped-Alamouti codeword, stored ports x time."""
    x = np.asarray(x, dtype=complex)
    if x.size != n_sym:
        raise ValueError(f"expected {n_sym} symbols, got {x.size}")
    _check_psk_symbols(x)
    tables = nze_oac_tables(n_sym, n_ports)
    return Codeword(tables.build(x))

