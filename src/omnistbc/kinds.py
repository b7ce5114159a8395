"""The code registry: one CodeSpec per space-time block code kind.

Every fact that differs between the kinds lives here: the port count, the
preset unitary V in W = diag(c) (1 kron V), the kind's own config rules,
its largest buildable rate, whether its codebook is small enough to
enumerate, its closed-form coding gain, and, per (rate, L, N), a Code
holding the slot count, the constellations in bit-word order, the batched
encoder and the batched decoder.  Adding a kind means adding one CodeSpec
to REGISTRY.
"""

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import analysis
from .codes import (
    ac_matrix,
    ciod_constellation,
    ciod_interleave,
    ciod_matrix,
    nze_oac_tables,
    nze_tc_tables,
    ostbc_constellations,
    ostbc_matrix,
    qostbc_constellations,
    qostbc_matrix,
)
from .constellations import make_psk
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
    turn, each word picks its symbol, and ``assemble`` maps those
    (B, symbols) to (B, N, T) codewords; N and T are read off one assembled
    row.  ``constellations`` has one entry per symbol, and the decoder is
    ``decoder_cls(assemble, constellations)``; it returns the symbols' bit
    words in the same order, and ``decode`` unpacks them to bits.
    """

    def __init__(self, groups, assemble, decoder_cls):
        self.assemble = assemble
        self.constellations = [c for c, count in groups for _ in range(count)]
        zero_row = np.zeros((1, len(self.constellations)), dtype=complex)
        self.n_ports, self.n_slots = assemble(zero_row).shape[1:]
        self.decoder = decoder_cls(assemble, self.constellations)
        self._groups = [(c.bit_width, count, c.points) for c, count in groups]
        self.nbits = sum(width * count for width, count, _ in self._groups)

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
        if rate < 1:
            return f"must be a positive integer, got {rate}"
        if rate > largest:
            return (
                f"{rate} is above {largest}, the largest rate at which every "
                f"{self.kind} alphabet and ML search has at most 2^{MAX_SEARCH_BITS} points"
            )
        return None

    def ports(self, nze_n):
        return self.n_ports or nze_n

    def preset_v(self, n_ports=None):
        n = self.n_ports or n_ports
        if n is None:
            raise ValueError(f"{self.kind} preset needs the port count")
        if self.v_matrix is None:
            return np.eye(int(n), dtype=complex)
        return self.v_matrix.copy()


# The assembly steps are module-level functions, not lambdas, so that a Code
# pickles and can be sent to pool workers.
def _single_assemble(x):
    return x[:, :, None]


def _single(rate, nze_l, nze_n):
    psk = make_psk(2**rate)
    return Code([(psk, 1)], _single_assemble, SingleDecoder)


def _ac_assemble(x):
    return ac_matrix(x[:, 0], x[:, 1])


def _ac(rate, nze_l, nze_n):
    psk = make_psk(2**rate)
    return Code([(psk, 2)], _ac_assemble, AcDecoder)


def _ostbc_assemble(x):
    """x2 carries j times the PAM set; x3 = |x1 + x2| times the QPSK x3'."""
    x1, x2 = x[:, 0], 1j * x[:, 1]
    return ostbc_matrix(x1, x2, np.abs(x1 + x2) * x[:, 2])


def _ostbc(rate, nze_l, nze_n):
    pam, qpsk = ostbc_constellations(rate)
    return Code([(pam, 2), (qpsk, 1)], _ostbc_assemble, OstbcDecoder)


def _qostbc_assemble(x):
    return qostbc_matrix(*x.T)


def _qostbc(rate, nze_l, nze_n):
    psk, rotated = qostbc_constellations(rate)
    return Code([(psk, 2), (rotated, 2)], _qostbc_assemble, QostbcDecoder)


def _ciod_assemble(x):
    return ciod_matrix(*ciod_interleave(x[:, 0], x[:, 1]))


def _ciod(rate, nze_l, nze_n):
    qam = ciod_constellation(rate)
    return Code([(qam, 2)], _ciod_assemble, CiodDecoder)


def _nze(make_tables):
    def build(rate, nze_l, nze_n):
        tables = make_tables(nze_l, nze_n)
        return Code([(make_psk(2**rate), nze_l)], tables.build, NzeZfDecoder)

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
            closed_form_gain=analysis.ostbc_gain_closed_form,
        ),
        CodeSpec(
            "qostbc",
            _qostbc,
            n_ports=4,
            search_bits=2,
            enumerable=True,
            closed_form_gain=lambda rate: analysis.qostbc_gain_closed_form(2**rate),
        ),
        CodeSpec(
            "ciod",
            _ciod,
            n_ports=4,
            v_matrix=np.kron(hadamard2(), hadamard2()),
            search_bits=2,
            enumerable=True,
            closed_form_gain=lambda rate: analysis.ciod_gain_closed_form(
                ciod_constellation(rate).scale
            ),
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
    """The Code of ``kind`` at bit rate ``rate`` (L and N for the NZE kinds)."""
    return spec_for(kind).build(int(rate), nze_l, nze_n)
