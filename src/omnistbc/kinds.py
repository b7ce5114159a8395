"""The code registry: one CodeSpec per space-time block code kind.

Every fact that differs between the kinds lives here: the port count, the
preset unitary V in W = diag(c) (1 kron V), the gather table and its (L, N)
rules, the largest buildable rate, and, per (rate, L, N), a Code holding
the slot count, the constellations in bit-word order, the batched encoder
and the batched decoder, whose ML groups come from the table and pre-map.
Every design is one ``GatherTable`` whose entries are 0, +-x_k or
+-conj(x_k) of one symbol, the linear-dispersion form of Hassibi & Hochwald.
Each kind's builder sits beside what only that kind uses: its table (written
out in the paper's notation, or for the Toeplitz family built from its index
formulas), its constellations and their rotation, its pre-map (OSTBC's
slaved x3, CIOD's coordinate interleaver) and its closed-form coding gain.
Adding a kind means adding one CodeSpec to REGISTRY.
"""

import math
import numbers
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from .constellations import Constellation, make_pam, make_psk, make_rotated_qam
from .receivers import (
    AcDecoder,
    CiodDecoder,
    NzeZfDecoder,
    OstbcDecoder,
    QostbcDecoder,
    SingleDecoder,
)
from .sequences import hadamard2

__all__ = ["GatherTable", "Code", "CodeSpec", "REGISTRY", "spec_for", "build_code", "payloads"]

# No alphabet and no ML candidate group may exceed 2^MAX_SEARCH_BITS points.
MAX_SEARCH_BITS = 16

# The most bytes one per-batch array may take.  ``Code.decode`` hands a
# decoder a batch in blocks of rows whose largest array fits under it.
# Config validation refuses an N x T codeword whose full batch would pass
# it, and an M whose set-up 2M x N FFT would.
MAX_BLOCK_BYTES = 1 << 26


@dataclass(frozen=True, eq=False)
class GatherTable:
    """Gather table of a codeword whose entries are 0, +-x_k or +-conj(x_k).

    ``idx`` names k, ``sign`` the sign (0 for a zero entry) and ``conj``
    whether the entry conjugates, each an (N, T) array.
    """

    idx: np.ndarray
    sign: np.ndarray
    conj: np.ndarray

    def build(self, x):
        """Codeword matrices (..., N, T) for symbols ``x`` of shape (..., k).

        One gather writes a C-ordered batch, each codeword's N x T entries
        contiguous, and the sign multiplies it in place: the batch is the
        only array of its size held at the peak.
        """
        x = np.asarray(x, dtype=complex)
        both = np.concatenate([x, x.conj()], axis=-1)
        out = np.take(both, self.idx + x.shape[-1] * self.conj, axis=-1)
        out *= self.sign
        return out


def _table(*rows):
    """The gather table of a codeword written as one string per port, its
    entries in slot order, each 0, xk, -xk, xk* or -xk*."""
    cells = [[re.fullmatch(r"0|(-?)x(\d)(\*?)", e).groups() for e in row.split()] for row in rows]
    idx = [[int(k) - 1 if k else 0 for _, k, _ in row] for row in cells]
    sign = [[0.0 if not k else -1.0 if minus else 1.0 for minus, k, _ in row] for row in cells]
    conj = [[star == "*" for _, _, star in row] for row in cells]
    return GatherTable(np.array(idx), np.array(sign), np.array(conj))


def payloads(nbits):
    """Every bit vector of length ``nbits`` (MSB first) in ascending word
    order, as one (2^nbits, nbits) array."""
    shifts = np.arange(nbits - 1, -1, -1)
    return (np.arange(2**nbits)[:, None] >> shifts) & 1


class Code:
    """One kind at one (rate, L, N): its shapes, batched encoder and decoder.

    ``alphabets`` lists (constellation, count) in payload order: the payload
    bits are cut into ``count`` bit words of each constellation's width in
    turn, and each word picks its symbol.  ``assemble`` maps those symbols
    (B, symbols) to (B, N, T) codewords: the optional ``premap`` (symbols
    to the table's symbols), then the gather ``table``, whose shape is
    (N, T).  ``constellations`` has one entry per symbol.  The decoder,
    ``decoder_cls(self)``, is built from all of these on first use, so a
    code that only encodes or is refused never builds it.  ``decode`` holds the
    batch policy that every decoder shares: it marks the trials whose
    channel row is all zero as aborted and gives the decoder a row of ones
    in their place, hands it the batch in blocks of rows with every
    observation of those rows (P observations through one channel, as the
    points of one angle are), and unpacks the symbols' bit words to bits.
    ``groups`` and ``group_codebooks`` are the decoupled symbol groups and
    their sub-codebooks, which the ML decoder and the coding gain read;
    they are derived on first use, so the ZF kinds never derive them.
    """

    def __init__(self, alphabets, table, decoder_cls, premap=None):
        self.table = table
        self.premap = premap
        self.constellations = [c for c, count in alphabets for _ in range(count)]
        self.n_ports, self.n_slots = table.idx.shape
        self._decoder_cls = decoder_cls
        # Per alphabet: bit width, symbol count and points.
        self._alphabets = [(c.bit_width, count, c.points) for c, count in alphabets]
        self.nbits = sum(width * count for width, count, _ in self._alphabets)
        # Payload bit j is bit _bit_shift[j] of symbol _bit_symbol[j]'s word.
        widths = [c.bit_width for c in self.constellations]
        self._bit_symbol = np.repeat(np.arange(len(widths)), widths)
        self._bit_shift = np.concatenate([np.arange(w - 1, -1, -1) for w in widths])

    @cached_property
    def decoder(self):
        return self._decoder_cls(self)

    def assemble(self, x):
        """Symbols (B, symbols) -> codewords (B, N, T)."""
        return self.table.build(x if self.premap is None else self.premap(x))

    @property
    def rate_bps(self):
        return self.nbits / self.n_slots

    def encode(self, bits):
        """Payloads (B, nbits) -> codewords (B, N, T)."""
        parts, start = [], 0
        for width, count, points in self._alphabets:
            stop = start + width * count
            words = bits[:, start:stop].reshape(len(bits), count, width)
            parts.append(points[words @ (1 << np.arange(width - 1, -1, -1))])
            start = stop
        return self.assemble(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))

    def decode(self, y, g):
        """Observations (P, B, T), each through the same channels (B, N), ->
        (bits (P, B, nbits), aborted (B,)); a trial aborts when its channel
        row is all zero, and its bits mean nothing: the decoder sees a row
        of ones in its place.  The decoder takes the rows in blocks, all P
        observations of a row together, whose ``row_bytes`` per row fit in
        MAX_BLOCK_BYTES."""
        g = np.asarray(g, dtype=complex)
        aborted = ~g.any(axis=1)
        if aborted.any():
            g = g.copy()
            g[aborted] = 1.0
        words = np.empty((len(y), len(g), len(self.constellations)), dtype=np.intp)
        step = max(1, MAX_BLOCK_BYTES // self.decoder.row_bytes)
        for lo in range(0, len(g), step):
            rows = slice(lo, lo + step)
            words[:, rows] = self.decoder.decode_batch(y[:, rows], g[rows])
        bits = words[..., self._bit_symbol]
        bits >>= self._bit_shift
        bits &= 1
        return bits, aborted

    def codebook(self):
        """(payloads, codewords) over every payload, in ascending word order."""
        bits = payloads(self.nbits)
        return bits, self.encode(bits)

    @cached_property
    def groups(self):
        """The decoupled groups of payload symbols, as sorted tuples of
        symbol positions, derived from the table and pre-map.

        The groups partition the payload symbols so that the codeword is
        the sum of its groups' parts, X = sum_a X_a, and every two parts
        satisfy X_a X_b^H + X_b X_a^H = 0 (the multigroup test of Karmakar
        & Sundar Rajan, IEEE Trans. IT, 2009).  Table symbols couple when
        the real dispersion matrices (``table.build`` of e_k and j e_k) of
        any two of their coordinates fail that test, exactly, since the
        entries are 0, +-1 or +-j.  A payload symbol touches the table
        symbols whose pre-map output it alone changes at one generic
        point; payload symbols that touch the same or coupled table symbols
        couple, and the groups are the connected components.
        """
        n_symbols = len(self.constellations)
        k = np.arange(1.0, n_symbols + 1)
        base, step = np.exp(1j * k), np.exp(1j * np.sqrt(2.0) * k)
        probes = np.vstack([base, base + np.diag(step)])
        out = probes if self.premap is None else self.premap(probes)
        touches = out[1:] != out[0]  # (payload symbol, table symbol)
        n_table = touches.shape[1]
        unit = np.eye(n_table)
        basis = self.table.build(np.concatenate([unit, 1j * unit]))  # (2K, N, T)
        cross = np.einsum("ant,bmt->abnm", basis, basis.conj())
        coupled = (cross + cross.swapaxes(0, 1)).any(axis=(2, 3))
        coupled = coupled.reshape(2, n_table, 2, n_table).any(axis=(0, 2))
        reach = touches @ coupled @ touches.T | np.eye(n_symbols, dtype=bool)
        for _ in range(n_symbols):
            reach = reach @ reach
        return tuple(sorted({tuple(np.flatnonzero(row).tolist()) for row in reach}))

    def group_codebooks(self):
        """Per group: (group, cand, sub), where ``group`` lists its symbol
        positions, ``cand`` (C, len(group)) its candidates' bit words, lowest
        word first, and ``sub`` (C, N, T) their codewords with every other
        symbol at zero."""
        points = [c.points for c in self.constellations]
        for group in self.groups:
            group = list(group)
            cand = np.indices([len(points[k]) for k in group]).reshape(len(group), -1).T
            x = np.zeros((len(cand), len(points)), dtype=complex)
            for j, k in enumerate(group):
                x[:, k] = points[k][cand[:, j]]
            yield group, cand, self.assemble(x)


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """The rate-independent facts of one kind.

    ``table(nze_l, nze_n)`` is the kind's GatherTable; when L and N do not
    suit the kind, a nonzero one on a fixed-port kind included, it raises
    ValueError with a message naming the offending config key, which config
    validation and ``build_code`` report.  ``build(rate, table)``
    makes the Code on that table.  ``n_ports`` is None when the port count
    is ``nze.n``; the fixed-port kinds are the ML-decoded ones, whose
    codebooks are small enough to enumerate.  ``v_matrix`` None means V is
    the identity, which suffices when the raw codeword already has
    equal-magnitude entries (the orthogonal and coordinate-interleaved
    designs have zero entries and need Hadamard mixing to spread symbols
    over all ports).
    ``search_bits`` is the bit count, per unit of rate, of the kind's
    largest alphabet or ML candidate group, which fixes the largest rate
    ``rate_problem`` accepts.  ``closed_form_gain(rate)`` exists for the
    kinds whose coding gain has a closed form.
    """

    kind: str
    build: Callable
    table: Callable
    n_ports: int = None
    v_matrix: np.ndarray = None
    search_bits: int = 1
    closed_form_gain: Callable = None

    def rate_problem(self, rate):
        """Why ``rate`` cannot be built, or None; checked before any array
        is allocated."""
        largest = MAX_SEARCH_BITS // self.search_bits
        if isinstance(rate, bool) or not isinstance(rate, numbers.Integral) or rate < 1:
            return f"must be a positive integer, got {rate!r}"
        if rate > largest:
            return (
                f"{rate} is above {largest}, the largest rate at which every "
                f"{self.kind} alphabet and ML search has at most 2^{MAX_SEARCH_BITS} points"
            )
        return None

    def preset_v(self, n_ports=None):
        n = self.n_ports or n_ports
        if n is None:
            raise ValueError(f"{self.kind} preset needs the port count")
        if self.v_matrix is None:
            return np.eye(int(n), dtype=complex)
        return self.v_matrix.copy()


def _fixed(kind, build, table, **facts):
    """The CodeSpec of a kind whose table, and so its port count, does not
    depend on L and N; its table rule refuses a nonzero nze.l or nze.n."""
    n_ports = table.idx.shape[0]

    def rule(nze_l, nze_n):
        for key, value in (("nze.l", nze_l), ("nze.n", nze_n)):
            if value:
                raise ValueError(
                    f"{key}: {kind} has {n_ports} fixed ports; nze.l and nze.n "
                    "apply to the Toeplitz-family codes only"
                )
        return table

    return CodeSpec(kind, build, rule, n_ports=n_ports, **facts)


SINGLE_TABLE = _table("x1")


def _single(rate, table):
    return Code([(make_psk(2**rate), 1)], table, SingleDecoder)


# Alamouti.
AC_TABLE = _table(
    "x1  x2*",
    "x2 -x1*",
)


def _ac(rate, table):
    return Code([(make_psk(2**rate), 2)], table, AcDecoder)


# The pre-maps are module-level functions, not lambdas, so that a Code
# pickles.
def _ostbc_premap(x):
    """x2 carries j times the PAM set; x3 = |x1 + x2| times the QPSK x3'."""
    x1, x2 = x[:, 0], 1j * x[:, 1]
    return np.stack([x1, x2, np.abs(x1 + x2) * x[:, 2]], axis=1)


# Rate-3/4 orthogonal design for four ports.
OSTBC_TABLE = _table(
    "x1  x2*  x3*   0 ",
    "x2 -x1*   0   x3*",
    "x3   0  -x1* -x2*",
    " 0  x3  -x2   x1 ",
)


def _ostbc(rate, table):
    """x1 and x2 in one 2^(2R-1)-ary PAM set, and the QPSK phase of x3: the
    bit split equalizes the three symbols' minimum distances."""
    pam = make_pam(2 ** (2 * rate - 2))
    return Code([(pam, 2), (make_psk(4), 1)], table, OstbcDecoder, _ostbc_premap)


def _ostbc_gain(rate):
    """(2d)^2 of the PAM set, 12 / (2^(4R-2) - 1): the Gram identity makes
    the coding gain the smallest squared distance of the three symbols."""
    return 12.0 / (2 ** (4 * rate - 2) - 1)


# TBH quasi-orthogonal design: blocks [[A, B], [B, A]] of Alamouti pairs.
QOSTBC_TABLE = _table(
    "x1  x2*  x3  x4*",
    "x2 -x1*  x4 -x3*",
    "x3  x4*  x1  x2*",
    "x4 -x3*  x2 -x1*",
)


def _qostbc(rate, table):
    """Plain 2^R-PSK for x1, x2 and the same PSK rotated by pi / 2^R for x3, x4.

    ML decoding pairs (x1, x3) and (x2, x4), so the rotation goes on the
    second symbol of each pair; that keeps every pairwise difference
    matrix full rank (Tirkkonen, Boariu & Hottinen).
    """
    psk = make_psk(2**rate)
    rotated = Constellation(psk.points * np.exp(1j * (math.pi / 2**rate)))
    return Code([(psk, 2), (rotated, 2)], table, QostbcDecoder)


def _qostbc_gain(rate):
    """4 sin^2(pi / 2^R) for R <= 2, 8 sin^3(pi / 2^R) above."""
    s = math.sin(math.pi / 2**rate)
    return 4.0 * s * s if rate <= 2 else 8.0 * s**3


def _ciod_interleave(s):
    """Coordinate interleaver: symbols (s1, s2) (..., 2) to the table's (..., 4),
    sqrt(2) ((1 + j) Re s1, (1 - j) Re s2, (1 + j) Im s1, (j - 1) Im s2)."""
    s = np.asarray(s, dtype=complex)
    scale = np.sqrt(2.0) * np.array([1 + 1j, 1 - 1j, 1 + 1j, 1j - 1])
    return scale * np.concatenate([s.real, s.imag], axis=-1)


# Block-diagonal pair of Alamouti blocks, fed by the coordinate interleaver.
CIOD_TABLE = _table(
    "x1  x2*   0   0 ",
    "x2 -x1*   0   0 ",
    " 0   0   x3  x4*",
    " 0   0   x4 -x3*",
)


def _ciod(rate, table):
    """s1 and s2 in 2^(2R)-QAM rotated by atan(2)/2 (Khan & Sundar Rajan),
    each carrying 2R bits."""
    qam = make_rotated_qam(2 ** (2 * rate), math.atan(2.0) / 2.0)
    return Code([(qam, 2)], table, CiodDecoder, _ciod_interleave)


def _ciod_gain(rate):
    """16 d^2 cos(theta) sin(theta) at theta = atan(2)/2, where
    d^2 = 3 / (2 (4^R - 1)) scales the QAM: 24 / ((4^R - 1) sqrt(5))."""
    return 24.0 / ((4**rate - 1) * math.sqrt(5.0))


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
    """GatherTable from time x ports arrays."""
    return GatherTable(*(np.ascontiguousarray(np.transpose(a)) for a in (idx, sign, conj)))


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


def _nze(rate, table):
    """All L symbols, the table's largest index + 1, in one 2^R-PSK set,
    decoded by zero forcing."""
    return Code([(make_psk(2**rate), int(table.idx.max()) + 1)], table, NzeZfDecoder)


REGISTRY = {
    spec.kind: spec
    for spec in (
        _fixed("single", _single, SINGLE_TABLE),
        _fixed("ac", _ac, AC_TABLE),
        _fixed(
            "ostbc",
            _ostbc,
            OSTBC_TABLE,
            v_matrix=np.kron(np.eye(2, dtype=complex), hadamard2()),
            search_bits=4,
            closed_form_gain=_ostbc_gain,
        ),
        _fixed("qostbc", _qostbc, QOSTBC_TABLE, search_bits=2, closed_form_gain=_qostbc_gain),
        _fixed(
            "ciod",
            _ciod,
            CIOD_TABLE,
            v_matrix=np.kron(hadamard2(), hadamard2()),
            search_bits=2,
            closed_form_gain=_ciod_gain,
        ),
        CodeSpec("nze_tc", _nze, nze_tc_tables),
        CodeSpec("nze_oac", _nze, nze_oac_tables),
    )
}


def spec_for(kind):
    try:
        return REGISTRY[kind]
    except KeyError:
        raise ValueError(f"unknown code kind {kind!r}") from None


def build_code(kind, rate, nze_l=0, nze_n=0):
    """The Code of ``kind`` at bit rate ``rate`` (L and N for the NZE kinds).

    A rate that ``rate_problem`` refuses raises ValueError before any array
    is allocated, and so do an L and N that the kind's table refuses.
    """
    spec = spec_for(kind)
    problem = spec.rate_problem(rate)
    if problem:
        raise ValueError(f"rate: {problem}")
    return spec.build(rate, spec.table(nze_l, nze_n))
