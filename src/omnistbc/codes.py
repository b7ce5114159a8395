"""Only the names the benchmark harness (perfbench/) reads; every code kind,
its gather table included, lives in ``omnistbc.kinds``.  ROADMAP item 1
moves the harness to ``build_code(kind, rate)`` and deletes this module.
"""

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .kinds import (
    AC_TABLE,
    CIOD_TABLE,
    OSTBC_TABLE,
    QOSTBC_TABLE,
    GatherTable,
    build_code,
    nze_oac_tables,
    nze_tc_tables,
)

__all__ = [
    "Codeword",
    "encode_ostbc",
    "encode_qostbc",
    "encode_ciod",
    "encode_nze_tc",
    "encode_nze_oac",
    "NzeTables",
]

# The same class object, so that wrapping ``NzeTables.build`` traces every
# table's encode.
NzeTables = GatherTable

# The four tables' builders under their former names, which the tracer wraps.
ac_matrix = AC_TABLE.build
ostbc_matrix = OSTBC_TABLE.build
qostbc_matrix = QOSTBC_TABLE.build
ciod_matrix = CIOD_TABLE.build


# The payload encoders restate Code.encode for one payload, for
# perfbench/run.py::_references.
@dataclass
class Codeword:
    """An N x T codeword."""

    matrix: np.ndarray


# The registry's Code of a kind at a rate, built once per process.
_payload_code = lru_cache(maxsize=None)(build_code)


def _encode_payload(kind, bits, rate):
    """One payload through the registry's batched encoder."""
    code = _payload_code(kind, rate)
    bits = np.asarray(bits)
    if bits.size != code.nbits:
        raise ValueError(f"expected {code.nbits} bits, got {bits.size}")
    return Codeword(code.encode(bits.reshape(1, -1))[0])


def encode_ostbc(bits, rate):
    """Orthogonal design carrying 4*rate bits over four slots."""
    return _encode_payload("ostbc", bits, rate)


def encode_qostbc(bits, rate):
    """TBH quasi-orthogonal codeword carrying 4*rate bits over four slots."""
    return _encode_payload("qostbc", bits, rate)


def encode_ciod(bits, rate):
    """Coordinate-interleaved codeword: s1 and s2 each carry 2*rate bits."""
    return _encode_payload("ciod", bits, rate)


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
