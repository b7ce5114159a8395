"""Symbol alphabets with Gray bit labeling: PSK, PAM, and rotated square QAM.

PAM and QAM sets are scaled to unit average energy so that SNR = 1/sigma_n^2
is comparable across code designs.  The point at list index ``i`` carries the
Gray code of ``i``; for PAM (levels ascending) and PSK (phases ascending)
this makes adjacent symbols differ in exactly one bit, and the QAM point
order is chosen so the same rule reproduces the usual per-axis Gray map.
"""

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Constellation",
    "make_psk",
    "make_pam",
    "make_rotated_qam",
    "qostbc_rotation",
    "ciod_rotation",
    "min_sq_distance",
    "gray_encode",
    "gray_decode",
]


def gray_encode(i):
    return i ^ (i >> 1)


def gray_decode(g):
    i = 0
    while g:
        i ^= g
        g >>= 1
    return i


@dataclass(frozen=True, eq=False)
class Constellation:
    """Finite symbol set with bit labeling.

    points[i] carries bit pattern gray_encode(i) (MSB first).  ``scale`` is
    the normalization factor d applied to the integer lattice for PAM/QAM
    (1.0 for PSK), ``rotation`` the common phase in radians.
    """

    kind: str
    order: int
    points: np.ndarray
    scale: float = 1.0
    rotation: float = 0.0
    bit_width: int = field(init=False)

    def __post_init__(self):
        self.points.flags.writeable = False
        width = self.order.bit_length() - 1
        if 2**width != self.order:
            width = 0  # non-power-of-two PSK carries no bit labeling
        object.__setattr__(self, "bit_width", width)

    def _require_bits(self):
        if self.bit_width == 0:
            raise ValueError(f"order {self.order} carries no integral bit labeling")

    def bits_of_index(self, i):
        """Bit pattern (MSB first) carried by points[i]."""
        self._require_bits()
        g = gray_encode(int(i))
        return np.array(
            [(g >> k) & 1 for k in range(self.bit_width - 1, -1, -1)], dtype=np.int8
        )

    def index_of_bits(self, bits):
        """Point index whose label equals ``bits``."""
        self._require_bits()
        bits = np.asarray(bits)
        if bits.size != self.bit_width:
            raise ValueError(f"expected {self.bit_width} bits, got {bits.size}")
        g = 0
        for b in bits:
            g = (g << 1) | int(b)
        return gray_decode(g)

    def encode(self, bits):
        """Map a bit pattern to its symbol."""
        return complex(self.points[self.index_of_bits(bits)])

    # Lookup tables used by the vectorized Monte Carlo path.

    def index_table(self):
        """indices[b] = point index for bit word b (bits read MSB first)."""
        self._require_bits()
        return np.array([gray_decode(b) for b in range(self.order)], dtype=np.int64)

    def bits_table(self):
        """bits[i] = label of points[i], shape (order, bit_width)."""
        self._require_bits()
        return np.stack([self.bits_of_index(i) for i in range(self.order)])


def make_psk(order):
    """PSK constellation {e^{j 2 pi l / order}} in phase order."""
    order = int(order)
    if order < 2:
        raise ValueError(f"PSK order must be at least 2, got {order}")
    points = np.exp(2j * np.pi * np.arange(order) / order)
    return Constellation("PSK", order, points)


def make_pam(half_order):
    """PAM set d * {+-1, +-3, ..., +-(2*half_order - 1)}, unit average energy.

    Levels are listed ascending; the mean of the squared odd levels is
    (4*half_order^2 - 1)/3, which fixes d.
    """
    half_order = int(half_order)
    if half_order < 1:
        raise ValueError(f"half_order must be positive, got {half_order}")
    levels = np.arange(-(2 * half_order - 1), 2 * half_order, 2, dtype=float)
    d = math.sqrt(3.0 / (4 * half_order * half_order - 1))
    return Constellation("PAM", 2 * half_order, (d * levels).astype(complex), scale=d)


def make_rotated_qam(order, rotation=0.0):
    """Square QAM scaled to unit average energy, then rotated by e^{j rotation}.

    Points are ordered so the linear Gray labeling splits into independent
    Gray codes on the I and Q axes (first half of the bits selects the I
    level, second half the Q level).
    """
    order = int(order)
    side = math.isqrt(order)
    if side * side != order or order < 4 or (order & (order - 1)) != 0:
        raise ValueError(f"order {order} is not square power-of-two QAM")
    levels = np.arange(-(side - 1), side, 2, dtype=float)
    d = math.sqrt(3.0 / (2.0 * (order - 1)))
    axis_bits = side.bit_length() - 1
    points = np.empty(order, dtype=complex)
    for i in range(order):
        g = gray_encode(i)
        i_axis = gray_decode(g >> axis_bits)
        q_axis = gray_decode(g & (side - 1))
        points[i] = d * (levels[i_axis] + 1j * levels[q_axis])
    points *= np.exp(1j * rotation)
    return Constellation("QAM", order, points, scale=d, rotation=float(rotation))


def qostbc_rotation(order):
    """Coding-gain-maximizing rotation for PSK quasi-orthogonal pairs."""
    order = int(order)
    if order < 2:
        raise ValueError(f"PSK order must be at least 2, got {order}")
    if order % 2 == 0:
        return math.pi / order
    return math.pi / (2 * order)


def ciod_rotation():
    """Rotation angle arctan(2)/2 used by the coordinate-interleaved design."""
    return math.atan(2.0) / 2.0


def min_sq_distance(constellation):
    """Minimum squared Euclidean distance over distinct point pairs."""
    pts = constellation.points
    if pts.size < 2:
        raise ValueError("need at least two points")
    diff = pts[:, None] - pts[None, :]
    d2 = np.abs(diff) ** 2
    d2[np.diag_indices_from(d2)] = np.inf
    return float(d2.min())
