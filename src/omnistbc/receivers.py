"""AWGN injection and the decoders for every code design.

Observation model: y_t = sum_n g_n X_{n,t} + z_t, where g is the
receiver-side effective channel written as the row vector h^H W.  That is
the conjugate of the column form W^H h produced by the channel module; the
Monte Carlo engine applies the conjugation when it builds observations.

All decoders exist in two forms: a function operating on one
RxObservation, and a batched kernel (leading axis = trial) used by the
Monte Carlo engine.  Ties in any candidate search resolve to the lowest
candidate index.
"""

from dataclasses import dataclass

import numpy as np

from .codes import NzeTables
from .constellations import Constellation, make_psk

__all__ = [
    "RxObservation",
    "UndecodableError",
    "RankDeficientError",
    "add_awgn",
    "ml_decode_single",
    "ml_decode_ac",
    "ml_decode_ostbc",
    "ml_decode_qostbc",
    "ml_decode_ciod",
    "zf_decode_nze",
    "SingleDecoder",
    "AcDecoder",
    "OstbcDecoder",
    "QostbcDecoder",
    "CiodDecoder",
    "NzeZfDecoder",
]


class UndecodableError(ValueError):
    """Raised when the effective channel is identically zero."""


class RankDeficientError(np.linalg.LinAlgError):
    """Raised when a ZF system loses rank (measure-zero channel draw)."""


@dataclass
class RxObservation:
    """T received samples with the effective channel known at the receiver.

    ``g`` follows the row convention h^H W (see module docstring).
    """

    y: np.ndarray
    g: np.ndarray
    sigma_n2: float = 0.0


def add_awgn(clean, sigma_n2, rng):
    """Add circular complex Gaussian noise of variance sigma_n2 per sample."""
    if sigma_n2 < 0:
        raise ValueError("noise variance must be nonnegative")
    clean = np.asarray(clean, dtype=complex)
    if sigma_n2 == 0:
        return clean.copy()
    w = rng.standard_normal(2 * clean.size)
    noise = (w[: clean.size] + 1j * w[clean.size :]) * np.sqrt(sigma_n2 / 2.0)
    return clean + noise.reshape(clean.shape)


def _check_channel(g):
    if not np.any(np.abs(g) > 0):
        raise UndecodableError("effective channel is zero")


class _BatchDecoder:
    """``decode_batch`` returns the decoded bits first; ``decode_bits`` adds
    the mask of aborted trials, None for decoders that never abort."""

    def decode_bits(self, y, g):
        return self.decode_batch(y, g)[0], None


def _slice_batch(stat, points):
    """Nearest-point indices for a batch of soft statistics."""
    return np.argmin(np.abs(stat[..., None] - points), axis=-1)


class SingleDecoder(_BatchDecoder):
    """Nearest-point detection of one PSK symbol per slot."""

    def __init__(self, constellation):
        self.constellation = constellation
        self.bits_table = constellation.bits_table()

    def decode_batch(self, y, g):
        stat = y[:, 0] * np.conjugate(g[:, 0]) / (np.abs(g[:, 0]) ** 2)
        idx = _slice_batch(stat, self.constellation.points)
        return self.bits_table[idx], idx

    def decode(self, obs):
        _check_channel(obs.g)
        bits, idx = self.decode_batch(
            np.atleast_2d(obs.y), np.atleast_2d(obs.g)
        )
        xhat = complex(self.constellation.points[idx[0]])
        return bits[0], xhat


class AcDecoder(_BatchDecoder):
    """Symbol-wise ML for the Alamouti code via matched filtering.

    The statistics x1~ = g1* y1 - g2 y2* and x2~ = g2* y1 + g1 y2* each
    equal ||g||^2 times the corresponding symbol plus noise, so slicing
    them independently is exact ML.
    """

    def __init__(self, constellation):
        self.constellation = constellation
        self.bits_table = constellation.bits_table()

    def decode_batch(self, y, g):
        g1, g2 = g[:, 0], g[:, 1]
        y2c = np.conjugate(y[:, 1])
        energy = np.abs(g1) ** 2 + np.abs(g2) ** 2
        x1 = (np.conjugate(g1) * y[:, 0] - g2 * y2c) / energy
        x2 = (np.conjugate(g2) * y[:, 0] + g1 * y2c) / energy
        i1 = _slice_batch(x1, self.constellation.points)
        i2 = _slice_batch(x2, self.constellation.points)
        bits = np.concatenate([self.bits_table[i1], self.bits_table[i2]], axis=1)
        return bits, i1, i2

    def decode(self, obs):
        _check_channel(obs.g)
        bits, i1, i2 = self.decode_batch(np.atleast_2d(obs.y), np.atleast_2d(obs.g))
        pts = self.constellation.points
        return bits[0], complex(pts[i1[0]]), complex(pts[i2[0]])


class OstbcDecoder(_BatchDecoder):
    """Two-step ML for the rate-3/4 orthogonal design.

    Step one maximizes f(x3') = Re(x3'(g3 y1* + g4 y2*) + x3'*(g1 y3* +
    g2 y4*)) over QPSK; x3' decouples because its coefficient |x1 + x2| is
    positive for every payload.  Step two evaluates the exact residual
    metric jointly over the (x1, x2) grid, 2^(4R-2) candidates, keeping
    the |x1 + x2| coupling in x3.
    """

    def __init__(self, rate):
        from .codes import ostbc_constellations

        self.rate = rate
        self.pam, self.qpsk = ostbc_constellations(rate)
        self.pam_bits = self.pam.bits_table()
        self.qpsk_bits = self.qpsk.bits_table()
        m = self.pam.order
        i1, i2 = np.divmod(np.arange(m * m), m)
        self.cand_i1 = i1
        self.cand_i2 = i2
        self.cand_x1 = self.pam.points[i1]
        self.cand_x2 = 1j * self.pam.points[i2]
        self.cand_amp = np.abs(self.cand_x1 + self.cand_x2)

    def decode_batch(self, y, g):
        g1, g2, g3, g4 = (g[:, k] for k in range(4))
        yc = np.conjugate(y)
        s_a = g3 * yc[:, 0] + g4 * yc[:, 1]
        s_b = g1 * yc[:, 2] + g2 * yc[:, 3]
        f = (s_a[:, None] * self.qpsk.points + s_b[:, None] * np.conjugate(self.qpsk.points)).real
        i3 = np.argmax(f, axis=1)
        x3p = self.qpsk.points[i3]

        x1 = self.cand_x1[None, :]
        x2 = self.cand_x2[None, :]
        x3 = self.cand_amp[None, :] * x3p[:, None]
        g1, g2, g3, g4 = (c[:, None] for c in (g1, g2, g3, g4))
        r1 = y[:, 0:1] - (g1 * x1 + g2 * x2 + g3 * x3)
        r2 = y[:, 1:2] - (g1 * np.conjugate(x2) - g2 * np.conjugate(x1) + g4 * x3)
        r3 = y[:, 2:3] - (g1 * np.conjugate(x3) - g3 * np.conjugate(x1) - g4 * x2)
        r4 = y[:, 3:4] - (g2 * np.conjugate(x3) - g3 * np.conjugate(x2) + g4 * x1)
        metric = (
            np.abs(r1) ** 2 + np.abs(r2) ** 2 + np.abs(r3) ** 2 + np.abs(r4) ** 2
        )
        c = np.argmin(metric, axis=1)
        i1, i2 = self.cand_i1[c], self.cand_i2[c]
        bits = np.concatenate(
            [self.pam_bits[i1], self.pam_bits[i2], self.qpsk_bits[i3]], axis=1
        )
        return bits, i1, i2, i3

    def decode(self, obs):
        _check_channel(obs.g)
        bits, i1, i2, i3 = self.decode_batch(np.atleast_2d(obs.y), np.atleast_2d(obs.g))
        x1 = complex(self.pam.points[i1[0]])
        x2 = complex(1j * self.pam.points[i2[0]])
        x3p = complex(self.qpsk.points[i3[0]])
        return bits[0], x1, x2, x3p


class QostbcDecoder(_BatchDecoder):
    """Exact pair-wise ML for the TBH quasi-orthogonal design.

    The metric splits into independent terms for (x1, x3) and (x2, x4):
    the cross Gram g X_A X_B^H g^H is purely imaginary for every payload,
    so two searches of L^2 candidates each reproduce full ML.
    """

    def __init__(self, rate):
        from .codes import qostbc_constellations

        self.rate = rate
        self.psk, self.rotated = qostbc_constellations(rate)
        self.psk_bits = self.psk.bits_table()
        self.rot_bits = self.rotated.bits_table()
        order = self.psk.order
        ia, ib = np.divmod(np.arange(order * order), order)
        self.cand_ia = ia  # plain-PSK member of the pair
        self.cand_ib = ib  # rotated member
        self.cand_a = self.psk.points[ia]
        self.cand_b = self.rotated.points[ib]

    def _pair_metric(self, y, coeffs):
        """Residual metric for one pair over the candidate grid.

        ``coeffs`` are the four per-slot channel pairs (ca_t, cb_t) such
        that the pair's contribution to slot t is ca_t*a + cb_t*b (with
        conjugation already folded in by the caller).
        """
        a = self.cand_a[None, :]
        b = self.cand_b[None, :]
        total = np.zeros((y.shape[0], a.shape[1]))
        for t, (ca, cb, conj_flag) in enumerate(coeffs):
            if conj_flag:
                contrib = ca[:, None] * np.conjugate(a) + cb[:, None] * np.conjugate(b)
            else:
                contrib = ca[:, None] * a + cb[:, None] * b
            total += np.abs(y[:, t : t + 1] - contrib) ** 2
        return total

    def decode_batch(self, y, g):
        g1, g2, g3, g4 = (g[:, k] for k in range(4))
        # (x1, x3): slots carry g1 x1 + g3 x3, -(g2 x1* + g4 x3*), ...
        m13 = self._pair_metric(
            y,
            [
                (g1, g3, False),
                (-g2, -g4, True),
                (g3, g1, False),
                (-g4, -g2, True),
            ],
        )
        m24 = self._pair_metric(
            y,
            [
                (g2, g4, False),
                (g1, g3, True),
                (g4, g2, False),
                (g3, g1, True),
            ],
        )
        c13 = np.argmin(m13, axis=1)
        c24 = np.argmin(m24, axis=1)
        i1, i3 = self.cand_ia[c13], self.cand_ib[c13]
        i2, i4 = self.cand_ia[c24], self.cand_ib[c24]
        bits = np.concatenate(
            [self.psk_bits[i1], self.psk_bits[i2], self.rot_bits[i3], self.rot_bits[i4]],
            axis=1,
        )
        return bits, i1, i2, i3, i4

    def decode(self, obs):
        _check_channel(obs.g)
        bits, i1, i2, i3, i4 = self.decode_batch(
            np.atleast_2d(obs.y), np.atleast_2d(obs.g)
        )
        return (
            bits[0],
            complex(self.psk.points[i1[0]]),
            complex(self.psk.points[i2[0]]),
            complex(self.rotated.points[i3[0]]),
            complex(self.rotated.points[i4[0]]),
        )


class CiodDecoder(_BatchDecoder):
    """Separate per-symbol ML for the coordinate-interleaved design.

    s1 and s2 touch disjoint Alamouti blocks through the interleaver and
    their cross Gram is purely imaginary, so each decodes by a 2^(2R)-point
    search over the rotated QAM set.
    """

    def __init__(self, rate):
        from .codes import ciod_constellation, ciod_interleave

        self.rate = rate
        self.qam = ciod_constellation(rate)
        self.qam_bits = self.qam.bits_table()
        s = self.qam.points
        x1, x2, x3, x4 = ciod_interleave(s, s)
        self.s1_parts = (x1, x3)  # contributions keyed by s1
        self.s2_parts = (x2, x4)

    def decode_batch(self, y, g):
        g1, g2, g3, g4 = (g[:, k, None] for k in range(4))
        x1, x3 = (p[None, :] for p in self.s1_parts)
        m1 = (
            np.abs(y[:, 0:1] - g1 * x1) ** 2
            + np.abs(y[:, 1:2] + g2 * np.conjugate(x1)) ** 2
            + np.abs(y[:, 2:3] - g3 * x3) ** 2
            + np.abs(y[:, 3:4] + g4 * np.conjugate(x3)) ** 2
        )
        x2, x4 = (p[None, :] for p in self.s2_parts)
        m2 = (
            np.abs(y[:, 0:1] - g2 * x2) ** 2
            + np.abs(y[:, 1:2] - g1 * np.conjugate(x2)) ** 2
            + np.abs(y[:, 2:3] - g4 * x4) ** 2
            + np.abs(y[:, 3:4] - g3 * np.conjugate(x4)) ** 2
        )
        i1 = np.argmin(m1, axis=1)
        i2 = np.argmin(m2, axis=1)
        bits = np.concatenate([self.qam_bits[i1], self.qam_bits[i2]], axis=1)
        return bits, i1, i2

    def decode(self, obs):
        _check_channel(obs.g)
        bits, i1, i2 = self.decode_batch(np.atleast_2d(obs.y), np.atleast_2d(obs.g))
        return bits[0], complex(self.qam.points[i1[0]]), complex(self.qam.points[i2[0]])


class NzeZfDecoder(_BatchDecoder):
    """Unregularized least squares over the real expansion of an NZE code.

    Conjugated entries make the map y = f(x) widely linear, so the 2T real
    observations are expressed against the 2L real symbol coordinates and
    solved by normal equations; each recovered symbol is then sliced to the
    PSK grid.  A system whose Gram loses rank marks the trial aborted.
    """

    RANK_RTOL = 1e-10

    def __init__(self, tables, constellation):
        self.tables = tables
        self.constellation = constellation
        self.bits_table = constellation.bits_table()
        n, t_len, l_len = tables.n_ports, tables.n_slots, tables.n_sym
        # Constant port -> (slot, symbol) maps, one per conjugation class.
        m_plain = np.zeros((n, t_len, l_len), dtype=float)
        m_conj = np.zeros((n, t_len, l_len), dtype=float)
        for port, slot, sym, sign, conj in tables.entries():
            (m_conj if conj else m_plain)[port, slot, sym] += sign
        self.m_plain = m_plain.reshape(n, t_len * l_len)
        self.m_conj = m_conj.reshape(n, t_len * l_len)

    def design_matrix(self, g):
        """Real 2T x 2L system matrices for a batch of channels."""
        n, t_len, l_len = (
            self.tables.n_ports,
            self.tables.n_slots,
            self.tables.n_sym,
        )
        p_plain = (g @ self.m_plain).reshape(-1, t_len, l_len)
        p_conj = (g @ self.m_conj).reshape(-1, t_len, l_len)
        a = np.zeros((g.shape[0], 2 * t_len, 2 * l_len))
        a[:, 0::2, 0::2] = p_plain.real + p_conj.real
        a[:, 0::2, 1::2] = -p_plain.imag + p_conj.imag
        a[:, 1::2, 0::2] = p_plain.imag + p_conj.imag
        a[:, 1::2, 1::2] = p_plain.real - p_conj.real
        return a

    def decode_batch(self, y, g):
        """Returns (bits, symbol indices, aborted mask)."""
        a = self.design_matrix(g)
        b, two_t, two_l = a.shape
        yr = np.empty((b, two_t))
        yr[:, 0::2] = y.real
        yr[:, 1::2] = y.imag
        gram = np.einsum("bki,bkj->bij", a, a)
        rhs = np.einsum("bki,bk->bi", a, yr)
        eigs = np.linalg.eigvalsh(gram)
        aborted = eigs[:, 0] <= self.RANK_RTOL * np.maximum(eigs[:, -1], 1e-300)
        safe = gram.copy()
        safe[aborted] = np.eye(two_l)
        sol = np.linalg.solve(safe, rhs[..., None])[..., 0]
        xhat = sol[:, 0::2] + 1j * sol[:, 1::2]
        idx = _slice_batch(xhat, self.constellation.points)
        bits = self.bits_table[idx].reshape(b, -1)
        return bits, idx, aborted

    def decode_bits(self, y, g):
        bits, _, aborted = self.decode_batch(y, g)
        return bits, aborted

    def decode(self, obs):
        bits, idx, aborted = self.decode_batch(
            np.atleast_2d(obs.y), np.atleast_2d(obs.g)
        )
        if aborted[0]:
            raise RankDeficientError("ZF design matrix has rank below 2L")
        return bits[0], self.constellation.points[idx[0]]


def ml_decode_single(obs, constellation):
    return SingleDecoder(constellation).decode(obs)


def ml_decode_ac(obs, constellation):
    return AcDecoder(constellation).decode(obs)


def ml_decode_ostbc(obs, rate):
    return OstbcDecoder(rate).decode(obs)


def ml_decode_qostbc(obs, rate):
    return QostbcDecoder(rate).decode(obs)


def ml_decode_ciod(obs, rate):
    return CiodDecoder(rate).decode(obs)


def zf_decode_nze(obs, code_params):
    """``code_params``: an NzeTables plus the PSK constellation, or a
    (tables, constellation) tuple."""
    if isinstance(code_params, NzeTables):
        tables, constellation = code_params, make_psk(2)
    else:
        tables, constellation = code_params
    return NzeZfDecoder(tables, constellation).decode(obs)
