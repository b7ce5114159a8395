"""The code registry: one CodeSpec per space-time block code kind.

Every fact that differs between the kinds lives here: the port count, the
preset unitary V in W = diag(c) (1 kron V), the kind's own config rules,
its largest buildable rate, whether its codebook is small enough to
enumerate, and, per (rate, L, N), a Code holding the slot count, the
constellations in bit-word order, the batched encoder and the batched
decoder.  Each kind's builder sits beside what only that kind uses: its
constellations and their rotation, its pre-map (OSTBC's slaved x3, CIOD's
coordinate interleaver) and its closed-form coding gain as a function of
the rate.  The gather tables themselves are in ``omnistbc.codes``.
Adding a kind means adding one CodeSpec to REGISTRY.
"""

import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .codes import (
    AC_TABLE,
    CIOD_TABLE,
    OSTBC_TABLE,
    QOSTBC_TABLE,
    SINGLE_TABLE,
    nze_oac_tables,
    nze_tc_tables,
)
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

__all__ = ["Code", "CodeSpec", "REGISTRY", "spec_for", "build_code", "payloads"]

# No alphabet and no ML candidate group may exceed 2^MAX_SEARCH_BITS points.
MAX_SEARCH_BITS = 16


def payloads(nbits):
    """Every bit vector of length ``nbits`` (MSB first) in ascending word
    order, as one (2^nbits, nbits) array."""
    shifts = np.arange(nbits - 1, -1, -1)
    return (np.arange(2**nbits)[:, None] >> shifts) & 1


class Code:
    """One kind at one (rate, L, N): its shapes, batched encoder and decoder.

    ``groups`` lists (constellation, count) in payload order: the payload
    bits are cut into ``count`` bit words of each constellation's width in
    turn, and each word picks its symbol.  ``assemble`` maps those symbols
    (B, symbols) to (B, N, T) codewords: the optional ``premap`` (symbols
    to the table's symbols), then the gather ``table``, whose shape is
    (N, T).  ``constellations`` has one entry per symbol,
    and the decoder is ``decoder_cls(assemble, constellations)``; it
    returns the symbols' bit words in the same order, and ``decode``
    unpacks them to bits.
    """

    def __init__(self, groups, table, decoder_cls, premap=None):
        self.table = table
        self.premap = premap
        self.constellations = [c for c, count in groups for _ in range(count)]
        self.n_ports, self.n_slots = table.idx.shape
        self.decoder = decoder_cls(self.assemble, self.constellations)
        self._groups = [(c.bit_width, count, c.points) for c, count in groups]
        self.nbits = sum(width * count for width, count, _ in self._groups)

    def assemble(self, x):
        """Symbols (B, symbols) -> codewords (B, N, T)."""
        return self.table.build(x if self.premap is None else self.premap(x))

    @property
    def rate_bps(self):
        return self.nbits / self.n_slots

    def encode(self, bits):
        """Payloads (B, nbits) -> codewords (B, N, T)."""
        parts, start = [], 0
        for width, count, points in self._groups:
            stop = start + width * count
            words = bits[:, start:stop].reshape(len(bits), count, width)
            parts.append(points[words @ (1 << np.arange(width - 1, -1, -1))])
            start = stop
        return self.assemble(parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1))

    def decode(self, y, g):
        """Observations (B, T) through channels (B, N) -> (bits (B, nbits),
        aborted (B,)); the bits of an aborted trial mean nothing."""
        idx, aborted = self.decoder.decode_batch(y, g)
        parts, start = [], 0
        for width, count, _ in self._groups:
            parts.append(payloads(width)[idx[:, start : start + count]].reshape(len(idx), -1))
            start += count
        return np.concatenate(parts, axis=1), aborted

    def codebook(self):
        """(payloads, codewords) over every payload, in ascending word order."""
        bits = payloads(self.nbits)
        return bits, self.encode(bits)


@dataclass(frozen=True, eq=False)
class CodeSpec:
    """The rate-independent facts of one kind.

    ``build(rate, nze_l, nze_n)`` makes the Code.  ``n_ports`` is None when
    the port count is ``nze.n``; ``v_matrix`` None means V is the identity,
    which suffices when the raw codeword already has equal-magnitude
    entries (the orthogonal and coordinate-interleaved designs have zero
    entries and need Hadamard mixing to spread symbols over all ports).
    ``rules(nze_l, nze_n)`` returns a message naming the offending config
    key, or None when L and N suit the kind; for the NZE kinds it is the
    table builder's own error.  ``search_bits`` is the bit count, per unit
    of rate, of the kind's largest alphabet or ML candidate group, which
    fixes the largest rate ``rate_problem`` accepts.
    ``closed_form_gain(rate)`` exists for the enumerable kinds whose coding
    gain has a closed form.
    """

    kind: str
    build: Callable
    n_ports: int = None
    v_matrix: np.ndarray = None
    rules: Callable = lambda nze_l, nze_n: None
    search_bits: int = 1
    enumerable: bool = False
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

    def ports(self, nze_n):
        return self.n_ports or nze_n

    def preset_v(self, n_ports=None):
        n = self.ports(n_ports)
        if n is None:
            raise ValueError(f"{self.kind} preset needs the port count")
        if self.v_matrix is None:
            return np.eye(int(n), dtype=complex)
        return self.v_matrix.copy()


def _single(rate, nze_l, nze_n):
    return Code([(make_psk(2**rate), 1)], SINGLE_TABLE, SingleDecoder)


def _ac(rate, nze_l, nze_n):
    return Code([(make_psk(2**rate), 2)], AC_TABLE, AcDecoder)


# The pre-maps are module-level functions, not lambdas, so that a Code
# pickles and can be sent to pool workers.
def _ostbc_premap(x):
    """x2 carries j times the PAM set; x3 = |x1 + x2| times the QPSK x3'."""
    x1, x2 = x[:, 0], 1j * x[:, 1]
    return np.stack([x1, x2, np.abs(x1 + x2) * x[:, 2]], axis=1)


def _ostbc(rate, nze_l, nze_n):
    """x1 and x2 in one 2^(2R-1)-ary PAM set, and the QPSK phase of x3: the
    bit split equalizes the three symbols' minimum distances."""
    pam = make_pam(2 ** (2 * rate - 2))
    return Code([(pam, 2), (make_psk(4), 1)], OSTBC_TABLE, OstbcDecoder, _ostbc_premap)


def _ostbc_gain(rate):
    """(2d)^2 of the PAM set, 12 / (2^(4R-2) - 1): the Gram identity makes
    the coding gain the smallest squared distance of the three symbols."""
    return 12.0 / (2 ** (4 * rate - 2) - 1)


def _qostbc(rate, nze_l, nze_n):
    """Plain 2^R-PSK for x1, x2 and the same PSK rotated by pi / 2^R for x3, x4.

    ML decoding pairs (x1, x3) and (x2, x4), so the rotation goes on the
    second symbol of each pair; that keeps every pairwise difference
    matrix full rank (Tirkkonen, Boariu & Hottinen).
    """
    psk = make_psk(2**rate)
    rotated = Constellation(psk.points * np.exp(1j * (math.pi / 2**rate)))
    return Code([(psk, 2), (rotated, 2)], QOSTBC_TABLE, QostbcDecoder)


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


def _ciod(rate, nze_l, nze_n):
    """s1 and s2 in 2^(2R)-QAM rotated by atan(2)/2 (Khan & Sundar Rajan),
    each carrying 2R bits."""
    qam = make_rotated_qam(2 ** (2 * rate), math.atan(2.0) / 2.0)
    return Code([(qam, 2)], CIOD_TABLE, CiodDecoder, _ciod_interleave)


def _ciod_gain(rate):
    """16 d^2 cos(theta) sin(theta) at theta = atan(2)/2, where
    d^2 = 3 / (2 (4^R - 1)) scales the QAM: 24 / ((4^R - 1) sqrt(5))."""
    return 24.0 / ((4**rate - 1) * math.sqrt(5.0))


def _nze(make_tables):
    def build(rate, nze_l, nze_n):
        tables = make_tables(nze_l, nze_n)
        return Code([(make_psk(2**rate), nze_l)], tables, NzeZfDecoder)

    return build


def _nze_rules(make_tables):
    def rules(nze_l, nze_n):
        try:
            make_tables(nze_l, nze_n)
        except ValueError as exc:
            return str(exc)
        return None

    return rules


REGISTRY = {
    spec.kind: spec
    for spec in (
        CodeSpec("single", _single, n_ports=1, enumerable=True),
        CodeSpec("ac", _ac, n_ports=2, enumerable=True),
        CodeSpec(
            "ostbc",
            _ostbc,
            n_ports=4,
            v_matrix=np.kron(np.eye(2, dtype=complex), hadamard2()),
            search_bits=4,
            enumerable=True,
            closed_form_gain=_ostbc_gain,
        ),
        CodeSpec(
            "qostbc",
            _qostbc,
            n_ports=4,
            search_bits=2,
            enumerable=True,
            closed_form_gain=_qostbc_gain,
        ),
        CodeSpec(
            "ciod",
            _ciod,
            n_ports=4,
            v_matrix=np.kron(hadamard2(), hadamard2()),
            search_bits=2,
            enumerable=True,
            closed_form_gain=_ciod_gain,
        ),
        CodeSpec("nze_tc", _nze(nze_tc_tables), rules=_nze_rules(nze_tc_tables)),
        CodeSpec("nze_oac", _nze(nze_oac_tables), rules=_nze_rules(nze_oac_tables)),
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
    is allocated.
    """
    spec = spec_for(kind)
    problem = spec.rate_problem(rate)
    if problem:
        raise ValueError(f"rate: {problem}")
    return spec.build(rate, nze_l, nze_n)
