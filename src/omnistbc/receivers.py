"""The decoders for every code design.

Observation model: y_t = sum_n g_n X_{n,t} + z_t, where g is the
receiver-side effective channel, the row vector h^H W.

Every decoder is built from the code's own encoder, ``assemble`` (symbols
(B, n_symbols) -> codewords (B, N, T) through the kind's pre-map and
``GatherTable``, both in ``omnistbc.kinds``), and the constellation of
each symbol position in payload order; no decoder writes a codeword
formula of its own.  The enumerable kinds share one exact-ML kernel that searches
each group of symbol positions that decouples in the metric; the NZE
kinds use zero forcing after conjugating the conjugated slots, on the map
that ``assemble`` probes out: the Gram of that map is a band, and a band
LDL^H solves it for the whole batch at once.

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

# The most bytes one per-batch array may take.  The ML search and ZF take a
# batch in blocks of rows whose largest array fits under it.  Config
# validation refuses an N x T codeword whose full batch would pass it, and
# an M whose set-up 2M x N FFT would.
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


def _complex(parts):
    """Real parts stacked over imaginary parts, (2K, B), as one (K, B)
    complex array."""
    half = len(parts) // 2
    z = np.empty((half, parts.shape[1]), dtype=complex)
    z.real, z.imag = parts[:half], parts[half:]
    return z


def _real_weights(table):
    """A complex table (F, K) as the real (2K, F) weights whose product
    with real features (F, B) is the (2K, B) input of ``_complex``."""
    return np.concatenate([table.real.T, table.imag.T])


def _band_solve(band, rhs):
    """Solve Gram x = rhs for a batch of Hermitian positive definite band
    matrices by LDL^H, in place.

    ``band`` (p + 1, L, B) holds the upper band, band[d, k] = Gram[k, k + d]
    (entries past column L - 1 unused), and ``rhs`` is (L, B).  Step k
    divides row k by its pivot D_k, subtracts its outer product from the
    upper triangle of the trailing p x p block, one band row at a time,
    and carries the forward substitution of U^H z = rhs along; the back
    substitution U x = z / D follows.  The loops run over L and p, each
    operation over the whole batch.
    """
    width, n, _ = band.shape
    diag = np.empty(rhs.shape)
    for k in range(n):
        m = min(width - 1, n - 1 - k)
        diag[k] = band[0, k].real
        row = band[1 : m + 1, k]
        u = row / diag[k]
        row_conj = row.conj()
        for a in range(m):
            band[: m - a, k + 1 + a] -= row_conj[a] * u[a:]
        rhs[k + 1 : k + m + 1] -= u.conj() * rhs[k]
        row[...] = u
    x = rhs / diag
    for k in range(n - 2, -1, -1):
        m = min(width - 1, n - 1 - k)
        x[k] -= (band[1 : m + 1, k] * x[k + 1 : k + m + 1]).sum(axis=0)
    return x


class NzeZfDecoder:
    """Zero forcing on the banded Gram, after conjugating the conjugated slots.

    Every entry of an NZE codeword is +-x_k or +-conj(x_k), and each slot
    is all plain or all conjugated.  Conjugating y in the conjugated slots
    gives y' = H(g) x + z' with H complex T x L and z' still white and
    circular, so zero forcing solves (H^H H) x = H^H y' and slices each
    recovered symbol to its constellation.  This is the widely-linear
    least-squares estimate from the real 2T x 2L equations, at half their
    size per side.

    The map is probed out of ``assemble`` (A) once: entry (n, t) has the
    coefficient P_{k,n,t} = (A(e_k) - j A(j e_k)) / 2 of x_k and
    Q_{k,n,t} = (A(e_k) + j A(j e_k)) / 2 of conj(x_k).  A slot with a
    nonzero Q is conjugated (``conj_slots``); one with both a nonzero P and
    a nonzero Q is refused.  A plain slot's y_t has the x_k coefficient
    sum_n g_n P_{k,n,t} and a conjugated slot's conj(y_t) has
    sum_n conj(g_n) conj(Q_{k,n,t}).

    Neither H nor the dense Gram is formed.  Gram[k, l] is a fixed linear
    form in the Hermitian products conj(g_n) g_m, and (H^H y')_k one in the
    products conj(g_n) y_t and their conjugates.  Both tables are exact,
    since P and Q are +-1, +-j or 0, and both come from matrix products of
    the probes at build time.  Symbol k sits only in slots near slot k, so
    the Gram is a band: ``p``, the largest |k - l| of an entry that is not
    identically zero, is N - 1 for NZE-TC (the wrap corners cancel through
    the sign flip) and at most N - 1 for NZE-OAC (N - 2 at even N).  A
    batch costs, per trial:
    - the upper band (p + 1, L), from one real product of the N (N + 1)
      real and imaginary parts of conj(g_n) g_m, n <= m, with the table's
      U distinct columns: N (N + 1) x 2U multiply-adds;
    - H^H y', from one real product of the N T products conj(g_n) y_t:
      2 N T x 2 L multiply-adds;
    - a band LDL^H (``_band_solve``), about L p^2 / 2 complex
      multiply-adds and 2 L p more for the substitutions, against T L^2
      for the dense Gram and L^3 / 3 for its factorization;
    - nearest-point slicing, L x (points) distances.
    The rows of a batch go through in blocks whose largest array (the N T
    products, the band or the distances) fits in MAX_BLOCK_BYTES.

    H has full column rank for every nonzero channel, so only an all-zero
    channel row aborts; its band is set to the identity.  NZE-TC and odd-N
    NZE-OAC wrap a zero-padded code whose slot sequence p has
    L + N - 1 = T terms: slot t carries p_t + p_{t+L} for t < N - 1,
    p_t - p_{t-L} for t >= L and p_t in between, an invertible map of p
    since L >= N - 1.  So H has full rank when x -> p (after the
    conjugation) is injective.
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
        n_sym = len(self.points)
        unit = np.eye(n_sym)
        re_probe, im_probe = assemble(unit), assemble(1j * unit)  # (L, N, T)
        plain = (re_probe - 1j * im_probe) / 2.0
        conj = (re_probe + 1j * im_probe) / 2.0
        has_plain, has_conj = plain.any(axis=(0, 1)), conj.any(axis=(0, 1))
        if np.any(has_plain & has_conj):
            raise ValueError("every slot must be all plain or all conjugated")
        self.conj_slots = has_conj
        # H[t, k] = sum_n coef[n, k, t] times g_n in a plain slot and
        # conj(g_n) in a conjugated one.
        coef = (plain + conj.conj()).transpose(1, 0, 2)
        n_ports, _, n_slots = coef.shape

        # gram[n, m, k, l]: the coefficient of conj(g_n) g_m in Gram[k, l];
        # a conjugated slot pairs conj(g_m) g_n instead.
        shape = (n_ports, n_sym, n_ports, n_sym)
        a = np.where(has_conj, 0, coef).reshape(-1, n_slots)
        b = np.where(has_conj, coef, 0).reshape(-1, n_slots)
        gram = (a.conj() @ a.T).reshape(shape).transpose(0, 2, 1, 3)
        gram = gram + (b.conj() @ b.T).reshape(shape).transpose(2, 0, 1, 3)
        k = np.arange(n_sym)
        self.p = int(np.abs(np.subtract.outer(k, k))[gram.any(axis=(0, 1))].max())
        l = k + np.arange(self.p + 1)[:, None]
        band = gram[:, :, k, np.minimum(l, n_sym - 1)] * (l < n_sym)  # (N, N, p + 1, L)

        # With conj(g_m) g_n = conj(conj(g_n) g_m), the pair n < m enters
        # through the real part with band[n, m] + band[m, n] and the
        # imaginary part with j (band[n, m] - band[m, n]).
        self._pairs = n, m = np.triu_indices(n_ports)
        re_rows = band[n, m] + band[m, n] * (n != m)[:, None, None]
        im_rows = 1j * (band[n, m] - band[m, n])
        table = np.stack([re_rows, im_rows], axis=1).reshape(2 * len(n), -1)
        # Equal columns, as along a Toeplitz diagonal, are computed once.
        first = {}
        first_equal = [first.setdefault(c.tobytes(), j) for j, c in enumerate(table.T)]
        columns, self._band_index = np.unique(first_equal, return_inverse=True)
        self._gram_weights = _real_weights(table[:, columns])

        # (H^H y')_k sums conj(coef[n, k, t]) times conj(g_n) y_t in a plain
        # slot and times its conjugate in a conjugated one.
        im_sign = np.where(has_conj, -1j, 1j)
        mf = np.stack([coef.conj(), im_sign * coef.conj()], axis=-1)  # (N, L, T, 2)
        self._mf_weights = _real_weights(mf.transpose(0, 2, 3, 1).reshape(-1, n_sym))

        row_bytes = 16 * max(n_ports * n_slots, self.points.size, len(self._band_index))
        self._block_rows = max(1, MAX_BLOCK_BYTES // row_bytes)

    def band(self, g):
        """The upper band (p + 1, L, B) of the Gram H^H H for channels
        (B, N): band[d, k] = Gram[k, k + d], zero past column L - 1."""
        n, m = self._pairs
        products = (g.conj().take(n, axis=1) * g.take(m, axis=1)).view(float)
        band = _complex(self._gram_weights @ products.T)[self._band_index]
        return band.reshape(self.p + 1, -1, len(g))

    def decode_batch(self, y, g):
        g = np.asarray(g, dtype=complex)
        aborted = _zero_rows(g)
        idx = np.empty((len(g), len(self.points)), dtype=np.intp)
        step = self._block_rows
        for lo in range(0, len(g), step):
            rows = slice(lo, lo + step)
            idx[rows] = self._decode_block(y[rows], g[rows], aborted[rows])
        return idx, aborted

    def _matched_filter(self, y, g):
        """H^H y' (L, B) for observations (B, T) and channels (B, N)."""
        products = (g.conj()[:, :, None] * y[:, None, :]).reshape(len(g), -1).view(float)
        return _complex(self._mf_weights @ products.T)

    def _decode_block(self, y, g, aborted):
        rhs = self._matched_filter(y, g)
        band = self.band(g)
        band[0][:, aborted] = 1.0
        xhat = _band_solve(band, rhs).T
        return np.argmin(np.abs(xhat[..., None] - self.points), axis=-1)
