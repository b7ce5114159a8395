"""The decoders for every code design.

Observation model: y_t = sum_n g_n X_{n,t} + z_t, where g is the
receiver-side effective channel, the row vector h^H W.

Every decoder is built from the code's own encoder, ``assemble`` (symbols
(B, n_symbols) -> codewords (B, N, T)), and the constellation of each
symbol position in payload order; no decoder writes a codeword formula
of its own.  The enumerable kinds share one exact-ML kernel that searches
each group of symbol positions that decouples in the metric; the NZE
kinds use widely-linear zero forcing on the real map that ``assemble``
probes out.

Every decoder has one call, ``decode_batch(y, g) -> (idx, aborted)``, over
a batch of trials: y is (B, T), g is (B, N), ``idx`` is (B, n_symbols)
symbol indices into the code's constellations in payload order, and
``aborted`` is a (B,) mask of trials whose channel row is all zero; their
indices mean nothing.  The registry's ``Code.decode`` maps the indices to
bits.  Ties in any candidate search resolve to the lowest candidate index.
"""

import numpy as np

__all__ = [
    "SingleDecoder",
    "AcDecoder",
    "OstbcDecoder",
    "QostbcDecoder",
    "CiodDecoder",
    "NzeZfDecoder",
]


def _zero_rows(g):
    """Trials whose effective channel is identically zero."""
    return ~np.any(g, axis=1)


class _GroupSearch:
    """Exact ML as one candidate search per decoupled group of symbols.

    ``groups`` partitions the symbol positions.  The split is exact ML when
    the codeword is the sum of its groups' parts, X = sum_a X_a, and every
    two parts satisfy X_a X_b^H + X_b X_a^H = 0: the cross terms of
    ||y - g X||^2 then vanish for every g, and the metric is a sum of one
    term per group.

    At construction each group's candidates, lowest index first, are
    encoded once with the other symbols at zero, giving the sub-codebook
    X_c (C, N, T), its ``book`` (N T, C) and ``gram`` = X_c X_c^H (N^2, C).
    A batch scores every candidate by
    Re(gg @ gram) - 2 Re(gy @ book) = ||y - g X_c||^2 - ||y||^2, with
    gg = g (x) conj(g) and gy = g (x) conj(y).  Since Re(a b) = Re a Re b -
    Im a Im b, that is one real product of the batch's features
    [Re gg, Im gg, Re gy, Im gy] with the group's constant ``weights``.
    A zero channel row scores every candidate 0.
    """

    groups = ()

    def __init__(self, assemble, constellations):
        points = [c.points for c in constellations]
        self.n_symbols = len(points)
        self.searches = []
        for group in self.groups:
            group = list(group)
            cand = np.indices([len(points[k]) for k in group]).reshape(len(group), -1).T
            x = np.zeros((len(cand), self.n_symbols), dtype=complex)
            for j, k in enumerate(group):
                x[:, k] = points[k][cand[:, j]]
            sub = assemble(x)
            n_cand, n_ports, _ = sub.shape
            book = sub.reshape(n_cand, -1).T
            gram = np.einsum("cnt,cmt->nmc", sub, sub.conj()).reshape(n_ports**2, n_cand)
            weights = np.concatenate([gram.real, -gram.imag, -2.0 * book.real, 2.0 * book.imag])
            self.searches.append((group, cand, weights))

    def decode_batch(self, y, g):
        b = len(g)
        gg = (g[:, :, None] * g.conj()[:, None, :]).reshape(b, -1)
        gy = (g[:, :, None] * y.conj()[:, None, :]).reshape(b, -1)
        features = np.concatenate([gg.real, gg.imag, gy.real, gy.imag], axis=1)
        idx = np.empty((b, self.n_symbols), dtype=np.intp)
        for group, cand, weights in self.searches:
            idx[:, group] = cand[np.argmin(features @ weights, axis=1)]
        return idx, _zero_rows(g)


class SingleDecoder(_GroupSearch):
    """Nearest-point detection of the one PSK symbol."""

    groups = ((0,),)


class AcDecoder(_GroupSearch):
    """Symbol-wise ML for the Alamouti code: the two symbols' parts are
    orthogonal, X_1 X_2^H + X_2 X_1^H = 0, so each is searched alone."""

    groups = ((0,), (1,))


class OstbcDecoder(_GroupSearch):
    """Joint ML for the rate-3/4 orthogonal design.

    The amplitude of x3 is |x1 + x2|, so x3's part depends on x1 and x2
    and the codeword is not a sum of per-symbol parts: all three symbols,
    2^(4R) candidates, are searched together.
    """

    groups = ((0, 1, 2),)


class QostbcDecoder(_GroupSearch):
    """Exact pair-wise ML for the TBH quasi-orthogonal design.

    The cross Gram of the (x1, x3) and (x2, x4) parts is skew-Hermitian
    for every payload, so two searches of L^2 candidates each reproduce
    full ML.  x1 and x2 are plain PSK, x3 and x4 the rotated set.
    """

    groups = ((0, 2), (1, 3))


class CiodDecoder(_GroupSearch):
    """Separate per-symbol ML for the coordinate-interleaved design.

    Through the interleaver s1 and s2 each fill one symbol of both
    Alamouti blocks, and their parts have a skew-Hermitian cross Gram, so
    each decodes by a 2^(2R)-point search over the rotated QAM set.
    """

    groups = ((0,), (1,))


class NzeZfDecoder:
    """Unregularized least squares over the real expansion of an NZE code.

    Conjugated entries make the map y = f(x) widely linear, so the 2T real
    observations are expressed against the 2L real symbol coordinates and
    solved by normal equations; each recovered symbol is then sliced to its
    constellation.  The real map is probed out of ``assemble`` once: the
    codewords of e_0, j e_0, e_1, j e_1, ... are its 2L columns per port,
    and a port's channel coefficient g_n = u + j v adds u times them and v
    times j times them.  So ``basis`` (2N, 2T 2L) holds the real and
    imaginary parts of both, slot by slot, and the design matrix is the
    batch's [Re g, Im g] times ``basis``.

    The system has full rank for every nonzero channel, so only an all-zero
    channel row aborts.  For NZE-TC this is exact: with p(z) = g(z) x(z),
    slot t carries p_t + p_{t+L} for t < N - 1, p_t - p_{t-L} for t >= L
    and p_t in between, an invertible map of p since L >= N - 1, and
    multiplication by a nonzero g(z) is injective.  For NZE-OAC a margin
    test over the shapes the tests and workloads use guards the claim.
    """

    def __init__(self, assemble, constellations):
        self.points = np.stack([c.points for c in constellations])
        l_len = len(self.points)
        probes = np.zeros((2 * l_len, l_len), dtype=complex)
        probes[0::2] = np.eye(l_len)
        probes[1::2] = 1j * np.eye(l_len)
        cols = assemble(probes).transpose(1, 2, 0)  # (N, T, 2L)
        self.n_slots = cols.shape[1]
        re_g = np.stack([cols.real, cols.imag], axis=2)  # (N, T, 2, 2L)
        im_g = np.stack([-cols.imag, cols.real], axis=2)
        self.basis = np.concatenate([re_g, im_g]).reshape(2 * len(cols), -1)  # (2N, 2T 2L)

    def design_matrix(self, g):
        """Real 2T x 2L system matrices for a batch of channels."""
        a = np.concatenate([g.real, g.imag], axis=1) @ self.basis
        return a.reshape(len(g), 2 * self.n_slots, -1)

    def decode_batch(self, y, g):
        a = self.design_matrix(g)
        b, two_t, two_l = a.shape
        yr = np.empty((b, two_t))
        yr[:, 0::2] = y.real
        yr[:, 1::2] = y.imag
        a_t = a.transpose(0, 2, 1)
        gram = a_t @ a
        rhs = (a_t @ yr[..., None])[..., 0]
        aborted = _zero_rows(g)
        gram[aborted] = np.eye(two_l)
        sol = np.linalg.solve(gram, rhs[..., None])[..., 0]
        xhat = sol[:, 0::2] + 1j * sol[:, 1::2]
        return np.argmin(np.abs(xhat[..., None] - self.points), axis=-1), aborted
