"""Symbol alphabets in bit-word order: PSK, PAM, and rotated square QAM.

``points[b]`` is the symbol that carries bit word ``b`` (bits read MSB
first), so a symbol's index is its label.  The labels are Gray: geometric
neighbours (adjacent PAM levels, adjacent PSK phases, QAM neighbours along
one axis) carry words that differ in exactly one bit.  PAM and QAM sets are
scaled to unit average energy so that SNR = 1/sigma_n^2 is comparable
across code designs.
"""

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Constellation",
    "make_psk",
    "make_pam",
    "make_rotated_qam",
    "min_sq_distance",
]


@dataclass(frozen=True, eq=False)
class Constellation:
    """Finite symbol set in bit-word order: points[b] carries bit word b."""

    points: np.ndarray

    def __post_init__(self):
        self.points.flags.writeable = False

    @property
    def bit_width(self):
        return len(self.points).bit_length() - 1


def _gray_rank(order, name):
    """rank[b] = position of Gray word b in the Gray sequence, for the
    ``order`` words of a power-of-two alphabet: the inverse Gray code of b,
    the XOR of all its right shifts."""
    width = order.bit_length() - 1
    if order < 2 or 2**width != order:
        raise ValueError(f"{name} order must be a power of two, at least 2, got {order}")
    words = np.arange(order)
    rank = words.copy()
    for k in range(1, width):
        rank ^= words >> k
    return rank


def make_psk(order):
    """PSK constellation {e^{j 2 pi l / order}}; word b sits at phase
    index l = rank(b), so adjacent phases differ in one bit."""
    order = int(order)
    rank = _gray_rank(order, "PSK")
    return Constellation(np.exp(2j * np.pi * rank / order))


def make_pam(half_order):
    """PAM set d * {+-1, +-3, ..., +-(2*half_order - 1)}, unit average energy.

    Word b takes the rank(b)-th level counted from the bottom; the mean of
    the squared odd levels is (4*half_order^2 - 1)/3, which fixes d.
    """
    half_order = int(half_order)
    if half_order < 1:
        raise ValueError(f"half_order must be positive, got {half_order}")
    rank = _gray_rank(2 * half_order, "PAM")
    levels = np.arange(-(2 * half_order - 1), 2 * half_order, 2, dtype=float)
    d = math.sqrt(3.0 / (4 * half_order * half_order - 1))
    return Constellation((d * levels[rank]).astype(complex))


def make_rotated_qam(order, rotation=0.0):
    """Square QAM scaled to unit average energy, then rotated by e^{j rotation}.

    The first half of a word's bits Gray-selects the I level and the
    second half the Q level.
    """
    order = int(order)
    side = math.isqrt(order)
    if side * side != order or order < 4 or (order & (order - 1)) != 0:
        raise ValueError(f"order {order} is not square power-of-two QAM")
    rank = _gray_rank(side, "QAM axis")
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    d = math.sqrt(3.0 / (2.0 * (order - 1)))
    words = np.arange(order)
    axis_bits = side.bit_length() - 1
    points = d * (levels[rank[words >> axis_bits]] + 1j * levels[rank[words & (side - 1)]])
    return Constellation(points * np.exp(1j * rotation))


def min_sq_distance(constellation):
    """Minimum squared Euclidean distance over distinct point pairs."""
    pts = constellation.points
    if pts.size < 2:
        raise ValueError("need at least two points")
    diff = pts[:, None] - pts[None, :]
    d2 = np.abs(diff) ** 2
    d2[np.diag_indices_from(d2)] = np.inf
    return float(d2.min())
