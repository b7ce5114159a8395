"""The decoders for every code design.

Observation model: y_t = sum_n g_n X_{n,t} + z_t, where g is the
receiver-side effective channel, the row vector h^H W.

Every decoder is built from the code's own encoder, ``assemble`` (symbols
(B, n_symbols) -> codewords (B, N, T)), and the constellation of each
symbol position in payload order; no decoder writes a codeword formula
of its own.  The enumerable kinds share one exact-ML kernel that searches
each group of symbol positions that decouples in the metric; the NZE
kinds use zero forcing, a complex least-squares solve after conjugating
the conjugated slots, on the map that ``assemble`` probes out.

Every decoder has one call, ``decode_batch(y, g) -> (idx, aborted)``, over
a batch of trials: y is (B, T), g is (B, N), ``idx`` is (B, n_symbols)
bit words, one per symbol in payload order (a constellation stores its
points in bit-word order, so an index into it is the word it carries), and
``aborted`` is a (B,) mask of trials whose channel row is all zero; their
words mean nothing.  The registry's ``Code.decode`` unpacks the words to
bits.  Ties in any candidate search resolve to the lowest word, in payload
order, as in an exhaustive search over the codebook.
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

# The most bytes one per-batch array may take.  The ML search scores a batch
# in blocks of metrics under it; config validation refuses an L whose batch
# ZF Gram, or an M whose set-up 2M x N FFT, would pass it.
MAX_BLOCK_BYTES = 1 << 26


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

    At construction each group's candidates, lowest word first, are
    encoded once with the other symbols at zero, giving the sub-codebook
    X_c (C, N, T), its ``book`` (N T, C) and ``gram`` = X_c X_c^H (N^2, C).
    A batch scores every candidate by
    Re(gg @ gram) - 2 Re(gy @ book) = ||y - g X_c||^2 - ||y||^2, with
    gg = g (x) conj(g) and gy = g (x) conj(y).  Since Re(a b) = Re a Re b -
    Im a Im b, that is one real product of the batch's features
    [Re gg, Im gg, Re gy, Im gy] with the group's constant ``weights``.
    A zero channel row scores every candidate 0.  The batch's rows are
    scored in blocks whose metrics take at most MAX_BLOCK_BYTES.
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
            rows = max(1, MAX_BLOCK_BYTES // (weights.itemsize * len(cand)))
            for lo in range(0, b, rows):
                block = features[lo : lo + rows] @ weights
                idx[lo : lo + rows, group] = cand[np.argmin(block, axis=1)]
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
    """Complex least squares after conjugating the conjugated slots.

    Every entry of an NZE codeword is +-x_k or +-conj(x_k), and each slot
    is all plain or all conjugated.  Conjugating y in the conjugated slots
    gives y' = H(g) x + z' with H complex T x L and z' still white and
    circular, so zero forcing solves (H^H H) x = H^H y' and slices each
    recovered symbol to its constellation.  This is the least-squares
    solution of the real 2T x 2L widely-linear system, at half its size per
    side.

    The map is probed out of ``assemble`` (A) once: entry (n, t) has the
    coefficient P_{k,n,t} = (A(e_k) - j A(j e_k)) / 2 of x_k and
    Q_{k,n,t} = (A(e_k) + j A(j e_k)) / 2 of conj(x_k).  A slot with a
    nonzero Q is conjugated (``conj_slots``); one with both a nonzero P and
    a nonzero Q is refused.  A plain slot's y_t has the x_k coefficient
    sum_n g_n P_{k,n,t} and a conjugated slot's conj(y_t) has
    sum_n conj(g_n) conj(Q_{k,n,t}), so H is [g, conj(g)] @ [P; conj(Q)].
    Only the rows of [P; conj(Q)] that are nonzero somewhere are kept, as
    ``coeffs``, with their indices ``rows`` into [g, conj(g)]: NZE-TC has
    no conjugates, so its N conj(Q) rows drop out of every product.

    H has full column rank for every nonzero channel, so only an all-zero
    channel row aborts.  NZE-TC and odd-N NZE-OAC wrap a zero-padded code
    whose slot sequence p has L + N - 1 = T terms: slot t carries
    p_t + p_{t+L} for t < N - 1, p_t - p_{t-L} for t >= L and p_t in
    between, an invertible map of p since L >= N - 1.  So H has full rank
    when x -> p (after the conjugation) is injective.
    - NZE-TC: p(z) = g(z) x(z), and multiplying by a nonzero g(z) is
      injective.
    - NZE-OAC, N = 2K + 1, after Shang & Xia (IEEE Trans. IT, 2008): with
      w = z^2, even symbols e(w), odd symbols o(w), a(w) = sum_i g_{2i+1}
      w^i and c(w) = sum_i conj(g_{2i}) w^i, the odd slots carry
      e a + o b and the conjugated even slots e c - w o d, where
      b = w^K conj(c(1/conj w)) and d = w^(K-1) conj(a(1/conj w)).  The
      determinant -(w a d + b c) equals -w^K (|a|^2 + |c|^2) on |w| = 1,
      which vanishes at finitely many points unless g = 0.  So it is a
      nonzero polynomial, and (e, o) -> p is injective.
    - NZE-OAC, even N: the (N + 1)-port code with g_0 = 0, whose p lies on
      its slots 1 .. L + N - 2, the ones kept.  There slots N - 1 and L
      carry p_{N-1} and p_L alone, and the rest pair up as above.
    The margin test checks the conditioning on the shapes in use.
    """

    def __init__(self, assemble, constellations):
        self.points = np.stack([c.points for c in constellations])
        unit = np.eye(len(self.points))
        re_probe, im_probe = assemble(unit), assemble(1j * unit)  # (L, N, T)
        plain = (re_probe - 1j * im_probe) / 2.0
        conj = (re_probe + 1j * im_probe) / 2.0
        has_plain, has_conj = plain.any(axis=(0, 1)), conj.any(axis=(0, 1))
        if np.any(has_plain & has_conj):
            raise ValueError("every slot must be all plain or all conjugated")
        self.conj_slots = has_conj
        tables = np.concatenate([plain, conj.conj()], axis=1)  # (L, 2N, T)
        coeffs = tables.transpose(1, 2, 0).reshape(tables.shape[1], -1)
        self.rows = np.flatnonzero(coeffs.any(axis=1))
        self.coeffs = coeffs[self.rows]

    def system(self, g):
        """Complex T x L system matrices H for a batch of channels (B, N)."""
        h = np.concatenate([g, g.conj()], axis=1)[:, self.rows] @ self.coeffs
        return h.reshape(len(g), len(self.conj_slots), -1)

    def decode_batch(self, y, g):
        h = self.system(g)
        h_adj = h.conj().transpose(0, 2, 1)
        gram = h_adj @ h
        rhs = h_adj @ np.where(self.conj_slots, y.conj(), y)[..., None]
        aborted = _zero_rows(g)
        gram[aborted] = np.eye(gram.shape[1])
        xhat = np.linalg.solve(gram, rhs)[..., 0]
        return np.argmin(np.abs(xhat[..., None] - self.points), axis=-1), aborted
