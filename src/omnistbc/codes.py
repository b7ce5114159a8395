"""Codeword construction for the six space-time block code designs.

All codewords are stored ports x time (N x T).  Every design is one
gather table, ``NzeTables``: each entry is 0, +-x_k or +-conj(x_k) of one
symbol.  The single-port, Alamouti, orthogonal, quasi-orthogonal and
coordinate-interleaved tables are written out below in the paper's
notation; the Toeplitz-family tables follow from their defining index
formulas, which are written time x ports and transposed on construction.
A table's ``build`` maps symbols (..., k) to codewords (..., N, T), so the
batched encoders of the code registry (``omnistbc.kinds``) map thousands of
payloads in one call.  The registry also holds what feeds the tables: each
kind's constellations and its pre-map.  The bit-driven scalar encoders are
that batched encoder applied to a batch of one.
"""

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "Codeword",
    "encode_ostbc",
    "encode_qostbc",
    "encode_ciod",
    "encode_nze_tc",
    "encode_nze_oac",
    "SINGLE_TABLE",
    "AC_TABLE",
    "OSTBC_TABLE",
    "QOSTBC_TABLE",
    "CIOD_TABLE",
    "NzeTables",
    "nze_tc_tables",
    "nze_oac_tables",
]


@dataclass
class Codeword:
    """An N x T codeword."""

    matrix: np.ndarray


@dataclass(frozen=True, eq=False)
class NzeTables:
    """Gather table of a codeword whose entries are 0, +-x_k or +-conj(x_k).

    ``idx`` names k, ``sign`` the sign (0 for a zero entry) and ``conj``
    whether the entry conjugates, each an (N, T) array.  The name predates
    the zero entries; perfbench/spans.py wraps ``NzeTables.build``.
    """

    idx: np.ndarray
    sign: np.ndarray
    conj: np.ndarray

    def build(self, x):
        """Codeword matrices (..., N, T) for symbols ``x`` of shape (..., k)."""
        x = np.asarray(x, dtype=complex)
        both = np.concatenate([x, x.conj()], axis=-1)
        return self.sign * both[..., self.idx + x.shape[-1] * self.conj]


def _table(*rows):
    """The gather table of a codeword written as one string per port, its
    entries in slot order, each 0, xk, -xk, xk* or -xk*."""
    cells = [[re.fullmatch(r"0|(-?)x(\d)(\*?)", e).groups() for e in row.split()] for row in rows]
    idx = [[int(k) - 1 if k else 0 for _, k, _ in row] for row in cells]
    sign = [[0.0 if not k else -1.0 if minus else 1.0 for minus, k, _ in row] for row in cells]
    conj = [[star == "*" for _, _, star in row] for row in cells]
    return NzeTables(np.array(idx), np.array(sign), np.array(conj))


SINGLE_TABLE = _table("x1")

# Alamouti.
AC_TABLE = _table(
    "x1  x2*",
    "x2 -x1*",
)

# Rate-3/4 orthogonal design for four ports.
OSTBC_TABLE = _table(
    "x1  x2*  x3*   0 ",
    "x2 -x1*   0   x3*",
    "x3   0  -x1* -x2*",
    " 0  x3  -x2   x1 ",
)

# TBH quasi-orthogonal design: blocks [[A, B], [B, A]] of Alamouti pairs.
QOSTBC_TABLE = _table(
    "x1  x2*  x3  x4*",
    "x2 -x1*  x4 -x3*",
    "x3  x4*  x1  x2*",
    "x4 -x3*  x2 -x1*",
)

# Block-diagonal pair of Alamouti blocks, fed by the coordinate interleaver.
CIOD_TABLE = _table(
    "x1  x2*   0   0 ",
    "x2 -x1*   0   0 ",
    " 0   0   x3  x4*",
    " 0   0   x4 -x3*",
)

# The four tables' builders under their former names, kept because
# perfbench/spans.py wraps these names.
ac_matrix = AC_TABLE.build
ostbc_matrix = OSTBC_TABLE.build
qostbc_matrix = QOSTBC_TABLE.build
ciod_matrix = CIOD_TABLE.build


@lru_cache(maxsize=None)
def _payload_code(kind, rate):
    """The registry's Code of ``kind`` at ``rate``, built once per process."""
    from .kinds import build_code  # the registry imports this module

    return build_code(kind, rate)


def _encode_payload(kind, bits, rate):
    """One payload through the registry's batched encoder."""
    code = _payload_code(kind, rate)
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


def encode_qostbc(bits, rate):
    """TBH quasi-orthogonal codeword carrying 4*rate bits over four slots."""
    return _encode_payload("qostbc", bits, rate)


def encode_ciod(bits, rate):
    """Coordinate-interleaved codeword: s1 and s2 each carry 2*rate bits."""
    return _encode_payload("ciod", bits, rate)


def _nze_tc_index_sign(n_sym, n_ports):
    """Symbol index and sign of each entry of the tall NZE-TC matrix.

    Wrapping the Toeplitz band cyclically gives entry (m, n) the symbol
    (m - n) mod L, negated once the band has wrapped past the bottom.
    Requires L >= n_ports - 1 so the top wrap stays inside the band; the
    public builders check it in the user's nze.n.
    """
    t_len = n_sym + n_ports - 1
    m = np.arange(t_len)[:, None]
    n = np.arange(n_ports)[None, :]
    idx = (m - n) % n_sym
    sign = np.where(m >= n + n_sym, -1.0, 1.0)
    return idx, sign


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
    # The tall code has n_ports | 1 ports and needs L >= its port count - 1.
    if n_ports % 2 == 0 and n_sym < n_ports:
        raise ValueError("nze.l, nze.n: the overlapped code needs nze.l >= nze.n for even nze.n")
    if n_ports % 2 == 1 and n_sym < n_ports - 1:
        raise ValueError("nze.l, nze.n: the overlapped code needs nze.l >= nze.n - 1 for odd nze.n")
    if n_ports % 2 == 1:
        return _tables(*_nze_oac_tall(n_sym, n_ports))
    return _tables(*(a[1:-1, 1:] for a in _nze_oac_tall(n_sym, n_ports + 1)))


def _nze_codeword(make_tables, x, n_sym, n_ports):
    """One codeword of L constant-amplitude symbols through ``make_tables``."""
    x = np.asarray(x, dtype=complex)
    if x.size != n_sym:
        raise ValueError(f"expected {n_sym} symbols, got {x.size}")
    if np.any(np.abs(x) < 1e-12):
        raise ValueError("zero-amplitude symbol violates the constant-power constraint")
    return Codeword(make_tables(n_sym, n_ports).build(x))


def encode_nze_tc(x, n_sym, n_ports):
    """No-zero-entry Toeplitz codeword, stored ports x time."""
    return _nze_codeword(nze_tc_tables, x, n_sym, n_ports)


def encode_nze_oac(x, n_sym, n_ports):
    """No-zero-entry overlapped-Alamouti codeword, stored ports x time."""
    return _nze_codeword(nze_oac_tables, x, n_sym, n_ports)
