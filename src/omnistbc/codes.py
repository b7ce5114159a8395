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
    "encode_ac",
    "encode_ostbc",
    "encode_qostbc",
    "encode_ciod",
    "encode_toeplitz",
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
    """An N x T codeword tagged with its kind and carried payload."""

    kind: str
    matrix: np.ndarray
    payload_bits: np.ndarray | None = None

    @property
    def n_ports(self):
        return self.matrix.shape[0]

    @property
    def n_slots(self):
        return self.matrix.shape[1]


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


def encode_ac(x1, x2, bits=None):
    """Alamouti codeword from two symbols of one PSK constellation."""
    return Codeword("ac", ac_matrix(x1, x2), payload_bits=bits)


def ostbc_constellations(rate):
    """(PAM for x1, QPSK for the phase of x3) at bit rate ``rate``.

    x2 uses j times the same PAM set; the amplitude of x3 is slaved to
    |x1 + x2| so only its QPSK phase carries bits.
    """
    rate = int(rate)
    if rate < 1:
        raise ValueError(f"bit rate must be at least 1, got {rate}")
    return make_pam(2 ** (2 * rate - 2)), make_psk(4)


def _encode_payload(kind, bits, rate):
    """One payload through the registry's batched encoder."""
    from .kinds import build_code  # the registry imports this module

    code = build_code(kind, rate)
    bits = np.asarray(bits)
    if bits.size != code.nbits:
        raise ValueError(f"expected {code.nbits} bits, got {bits.size}")
    return Codeword(kind, code.encode(bits.reshape(1, -1))[0], payload_bits=bits)


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
    return Constellation(c.kind, c.order, c.points * np.exp(1j * theta), c.scale, theta)


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


def encode_toeplitz(x, n_sym, n_ports):
    """Banded (n_sym + n_ports - 1) x n_ports Toeplitz matrix (time x ports)."""
    x = np.asarray(x, dtype=complex)
    if x.size != n_sym:
        raise ValueError(f"expected {n_sym} symbols, got {x.size}")
    t_len = n_sym + n_ports - 1
    out = np.zeros((t_len, n_ports), dtype=complex)
    for n in range(n_ports):
        out[n : n + n_sym, n] = x
    return out


def _nze_tc_index_sign(n_sym, n_ports):
    """Symbol index and sign of each entry of the tall NZE-TC matrix.

    Wrapping the Toeplitz band cyclically gives entry (m, n) the symbol
    (m - n) mod L, negated once the band has wrapped past the bottom.
    Requires L >= n_ports - 1 so the top wrap stays inside the band.
    """
    if n_sym < n_ports - 1:
        raise ValueError(
            f"need at least {n_ports - 1} symbols for {n_ports} ports, got {n_sym}"
        )
    t_len = n_sym + n_ports - 1
    m = np.arange(t_len)[:, None]
    n = np.arange(n_ports)[None, :]
    idx = (m - n) % n_sym
    sign = np.where(m >= n + n_sym, -1.0, 1.0)
    return idx, sign


class NzeTables:
    """Layered gather tables describing a no-zero-entry codeword.

    Each layer holds, per (port, slot) entry: whether the layer is active
    there, which symbol it reads, the sign, and whether it conjugates.
    ``build`` sums the layers; exactly one layer is active per entry for
    the shipped constructions, which is what makes the matrices zero-free.
    """

    def __init__(self, kind, n_sym, n_ports, layers):
        self.kind = kind
        self.n_sym = n_sym
        self.n_ports = n_ports
        self.layers = layers  # list of (valid, idx, sign, conj), each (N, T)
        self.n_slots = layers[0][0].shape[1]

    def build(self, x):
        """Codeword matrix for symbols ``x`` of shape (..., n_sym)."""
        x = np.asarray(x, dtype=complex)
        out = np.zeros(x.shape[:-1] + (self.n_ports, self.n_slots), dtype=complex)
        for valid, idx, sign, conj in self.layers:
            vals = x[..., idx]
            vals = np.where(conj, np.conjugate(vals), vals)
            out += np.where(valid, sign * vals, 0.0)
        return out

    def entries(self):
        """Iterate active entries as (port, slot, symbol index, sign, conj)."""
        for valid, idx, sign, conj in self.layers:
            for n in range(self.n_ports):
                for t in range(self.n_slots):
                    if valid[n, t]:
                        yield n, t, int(idx[n, t]), float(sign[n, t]), bool(conj[n, t])


def nze_tc_tables(n_sym, n_ports):
    idx, sign = _nze_tc_index_sign(n_sym, n_ports)
    valid = np.ones_like(sign, dtype=bool)
    conj = np.zeros_like(valid)
    layer = (valid.T, idx.T, sign.T, conj.T)
    return NzeTables("nze_tc", n_sym, n_ports, [layer])


def _nze_oac_layers_tall(n_sym, n_ports):
    """Odd-port overlapped-Alamouti layers in time x ports orientation.

    Layer one reads odd-position symbols through the columns of the base
    code, conjugating odd columns; layer two reads even-position symbols
    through the reversed columns with alternating negation and conjugation.
    """
    base_idx, base_sign = _nze_tc_index_sign(n_sym, n_ports)
    cols = np.arange(n_ports)

    valid_o = base_idx % 2 == 0
    conj_o = np.broadcast_to(cols % 2 == 0, base_idx.shape)
    layer_o = (valid_o, base_idx, base_sign.copy(), conj_o)

    src = n_ports - 1 - cols
    idx_e = base_idx[:, src]
    sign_e = base_sign[:, src] * np.where(cols % 2 == 0, 1.0, -1.0)
    valid_e = idx_e % 2 == 1
    conj_e = np.broadcast_to(cols % 2 == 1, idx_e.shape)
    layer_e = (valid_e, idx_e, sign_e, conj_e)
    return [layer_o, layer_e]


def nze_oac_tables(n_sym, n_ports):
    """Overlapped-Alamouti tables; the even-port code is carved out of the
    odd (n_ports + 1)-port one by dropping its first column and the first
    and last rows of what remains."""
    if n_sym % 2 != 0:
        raise ValueError(f"symbol count must be even, got {n_sym}")
    if n_ports % 2 == 1:
        layers = _nze_oac_layers_tall(n_sym, n_ports)
    else:
        layers = _nze_oac_layers_tall(n_sym, n_ports + 1)
        layers = [
            tuple(a[1:-1, 1:] for a in layer) for layer in layers
        ]
    layers = [tuple(np.ascontiguousarray(a.T) for a in layer) for layer in layers]
    return NzeTables("nze_oac", n_sym, n_ports, layers)


def _check_psk_symbols(x):
    if np.any(np.abs(x) < 1e-12):
        raise ValueError("zero-amplitude symbol violates the constant-power constraint")


def encode_nze_tc(x, n_sym, n_ports, bits=None):
    """No-zero-entry Toeplitz codeword, stored ports x time."""
    x = np.asarray(x, dtype=complex)
    if x.size != n_sym:
        raise ValueError(f"expected {n_sym} symbols, got {x.size}")
    if n_sym < n_ports:
        raise ValueError(f"need at least {n_ports} symbols, got {n_sym}")
    _check_psk_symbols(x)
    tables = nze_tc_tables(n_sym, n_ports)
    return Codeword("nze_tc", tables.build(x), payload_bits=bits)


def encode_nze_oac(x, n_sym, n_ports, bits=None):
    """No-zero-entry overlapped-Alamouti codeword, stored ports x time."""
    x = np.asarray(x, dtype=complex)
    if x.size != n_sym:
        raise ValueError(f"expected {n_sym} symbols, got {x.size}")
    if n_sym % 2 != 0:
        raise ValueError(f"symbol count must be even, got {n_sym}")
    _check_psk_symbols(x)
    tables = nze_oac_tables(n_sym, n_ports)
    return Codeword("nze_oac", tables.build(x), payload_bits=bits)

