"""The decoders for every code design.

Observation model: y_t = sum_n g_n X_{n,t} + z_t, where g is the
receiver-side effective channel, the row vector h^H W.

Every decoder is built from its ``omnistbc.kinds.Code``: the encoder
``assemble`` (symbols (B, n_symbols) -> codewords (B, N, T) through the
kind's pre-map and ``GatherTable``) and the constellation of each symbol
position in payload order; no decoder writes a codeword formula of its
own.  The fixed-port kinds share one exact-ML kernel that searches each
group of symbol positions that decouples in the metric, over that
group's sub-codebook from ``Code.group_codebooks`` (the groups are
derived there, from the table and pre-map by the Hurwitz-Radon test, and
the coding gain reads the same sub-codebooks); the NZE
kinds use zero forcing after conjugating the conjugated slots, on the map
that ``assemble`` probes out: the Gram of that map is a band, and a band
LDL^H solves it for the whole batch at once.

Every decoder has one call, ``decode_batch(y, g, aborted) -> words``, over
a block of trials: y is (B, T), g is (B, N) complex, ``aborted`` the (B,)
mask of trials whose channel row is all zero, and ``words`` (B, n_symbols)
bit words, one per symbol in payload order (a constellation stores its
points in bit-word order, so an index into it is the word it carries); an
aborted trial's words mean nothing.  ``row_bytes`` is the bytes per trial
of its largest per-block array.  The registry's ``Code.decode`` computes
the mask, cuts a batch into blocks under MAX_BLOCK_BYTES and unpacks the
words to bits.  Ties in any candidate search resolve to the lowest word,
in payload order, as in an exhaustive search over the codebook.
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

# The most bytes one per-batch array may take.  ``Code.decode`` hands a
# decoder a batch in blocks of rows whose largest array fits under it.
# Config validation refuses an N x T codeword whose full batch would pass
# it, and an M whose set-up 2M x N FFT would.
MAX_BLOCK_BYTES = 1 << 26


class _GroupSearch:
    """Exact ML as one candidate search per decoupled group of symbols.

    The groups and their sub-codebooks are the code's ``Code.groups`` and
    ``Code.group_codebooks``: the codeword is the sum of its groups'
    parts, and the cross terms between parts vanish, so the cross terms of
    ||y - g X||^2 vanish for every g and the split is exact ML.

    At construction each group's sub-codebook X_c (C, N, T), candidates
    lowest word first, gives ``gram`` = X_c X_c^H (N, N, C).  A batch
    scores every candidate by Re(gg . gram) - 2 Re(gy . X_c) =
    ||y - g X_c||^2 - ||y||^2, with gg = g (x) conj(g) and
    gy = g (x) conj(y), that is Re(f . coef) for the trial's features
    f = g (x) conj([g, y]), (N, N + T), and the group's
    ``coef`` = [gram, -2 X_c] (N, N + T, C).  Since
    Re(a b) = Re a Re b - Im a Im b, that is one real product of f viewed
    as floats, the real then the imaginary part of each (n, j), with the
    constant ``weights``, whose rows are (Re coef, -Im coef) in that order.
    A zero channel row scores every candidate 0.  A block's largest array
    is either the features, 16 N (N + T) bytes per trial, or the metrics of
    the largest group, 8 bytes per candidate and trial.
    """

    def __init__(self, code):
        self.n_symbols = len(code.constellations)
        self.searches = []
        for group, cand, sub in code.group_codebooks():
            gram = np.einsum("cnt,cmt->nmc", sub, sub.conj())
            coef = np.concatenate([gram, -2.0 * sub.transpose(1, 2, 0)], axis=1)  # (N, N + T, C)
            weights = np.stack([coef.real, -coef.imag], axis=2).reshape(-1, len(cand))
            self.searches.append((group, cand, weights))
        features = 16 * code.n_ports * (code.n_ports + code.n_slots)
        self.row_bytes = max(features, 8 * max(len(cand) for _, cand, _ in self.searches))

    def decode_batch(self, y, g, aborted):
        row = np.concatenate([g, y], axis=1).conj()
        features = (g[:, :, None] * row[:, None, :]).view(float).reshape(len(g), -1)
        words = np.empty((len(g), self.n_symbols), dtype=np.intp)
        for group, cand, weights in self.searches:
            words[:, group] = cand[np.argmin(features @ weights, axis=1)]
        return words


# One name per ML kind, each the search above with nothing added, so that
# the benchmark harness can trace every kind's decode calls by class name.
class SingleDecoder(_GroupSearch):
    """ML for the single-port code."""


class AcDecoder(_GroupSearch):
    """ML for the Alamouti code."""


class OstbcDecoder(_GroupSearch):
    """ML for the rate-3/4 orthogonal design."""


class QostbcDecoder(_GroupSearch):
    """ML for the TBH quasi-orthogonal design."""


class CiodDecoder(_GroupSearch):
    """ML for the coordinate-interleaved design."""


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

    ``band`` (L, p + 1, B) holds the upper band by column, band[k, d] =
    Gram[k, k + d] (entries past column L - 1 unused), and ``rhs`` is
    (L, B).  Step k scales row k, band[k, 1 : m + 1], by 1 / D_k, subtracts
    its outer product from the upper triangle of the trailing block one
    row at a time, and carries the forward substitution of U^H z = rhs
    along; the back substitution U x = z / D follows.  The loops run over
    L and p, each operation over the whole batch.  By column, the row a
    step reads and each block it updates are one contiguous (m, B) block;
    by band row, (p + 1, L, B), each would be m rows L B 16 bytes apart,
    and one update of 7 x 1024 values takes about 31 us there against 16
    us contiguous (one core of a shared 2-vCPU host).  Scaling by 1 / D_k
    is bit-identical to dividing: NumPy's complex / real c multiplies by 1 / c.
    """
    n, width, _ = band.shape
    diag = np.empty(rhs.shape)
    for k in range(n):
        m = min(width - 1, n - 1 - k)
        diag[k] = band[k, 0].real
        row = band[k, 1 : m + 1]
        u = row * (1.0 / diag[k])
        row_conj = row.conj()
        for a in range(m):
            band[k + 1 + a, : m - a] -= row_conj[a] * u[a:]
        rhs[k + 1 : k + m + 1] -= u.conj() * rhs[k]
        row[...] = u
    x = rhs / diag
    for k in range(n - 2, -1, -1):
        m = min(width - 1, n - 1 - k)
        x[k] -= (band[k, 1 : m + 1] * x[k + 1 : k + m + 1]).sum(axis=0)
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
    - the upper band, stored by column as (L, p + 1) so that each step of
      the solve reads and updates contiguous blocks, from one real product
      of the N (N + 1) real and imaginary parts of conj(g_n) g_m, n <= m,
      with the table's U distinct columns: N (N + 1) x 2U multiply-adds;
    - H^H y', from one real product of the N T products conj(g_n) y_t:
      2 N T x 2 L multiply-adds;
    - a band LDL^H (``_band_solve``), about L p^2 / 2 complex
      multiply-adds and 2 L p more for the substitutions, against T L^2
      for the dense Gram and L^3 / 3 for its factorization;
    - slicing by projection: for points of one modulus, the nearest point
      to x_k is the one with the largest Re(x_k conj(p)) = Re x_k Re p +
      Im x_k Im p, the first on a tie, so the lowest word wins as in a
      nearest-point search.  The scores are one real product of each
      (Re x_k, Im x_k) with its points' (Re p, Im p) columns: 2 L x
      (points) multiply-adds, and no complex difference or modulus.
    ``row_bytes`` is the bytes per trial of a block's largest array: the
    N T products, the band or the scores.

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

    def __init__(self, code):
        points = np.stack([c.points for c in code.constellations])
        if not np.allclose(np.abs(points), 1.0):
            raise ValueError("slicing by projection needs unit-modulus points")
        self._axes = np.stack([points.real, points.imag], axis=1)  # (L, 2, points)
        n_sym = len(points)
        unit = np.eye(n_sym)
        re_probe, im_probe = code.assemble(unit), code.assemble(1j * unit)  # (L, N, T)
        plain = (re_probe - 1j * im_probe) / 2.0
        conj = (re_probe + 1j * im_probe) / 2.0
        has_plain, has_conj = plain.any(axis=(0, 1)), conj.any(axis=(0, 1))
        if np.any(has_plain & has_conj):
            raise ValueError("every slot must be all plain or all conjugated")
        self.conj_slots = has_conj
        # Each probe is zero in the other's slots.  H[t, k] = sum_n
        # coef[n, k, t] times g_n in a plain slot and conj(g_n) in a
        # conjugated one.
        a, b = plain, conj.conj()  # (L, N, T)
        coef = (a + b).transpose(1, 0, 2)
        n_ports, _, n_slots = coef.shape

        # Gram[k, k + d] is zero unless symbols k and k + d share a slot, so
        # only those diagonals are formed, and p is the largest d whose
        # diagonal does not cancel.  diagonals[d][k, n, m] is the coefficient
        # of conj(g_n) g_m in Gram[k, k + d]; a conjugated slot pairs
        # conj(g_m) g_n instead.
        occupied = coef.any(axis=0)  # (L, T)
        shared = occupied @ occupied.T  # (L, L)
        diagonals = {}
        for d in range(n_sym):
            if np.diagonal(shared, d).any():
                diagonals[d] = a[: n_sym - d].conj() @ a[d:].transpose(0, 2, 1)
                diagonals[d] += b[d:] @ b[: n_sym - d].conj().transpose(0, 2, 1)
        self.p = max(d for d, c in diagonals.items() if c.any())
        band = np.zeros((self.p + 1, n_sym, n_ports, n_ports), dtype=complex)
        for d, c in diagonals.items():
            if d <= self.p:
                band[d, : n_sym - d] = c
        band = band.transpose(2, 3, 0, 1)  # (N, N, p + 1, L)

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
        columns, index = np.unique(first_equal, return_inverse=True)
        self._band_index = index.reshape(self.p + 1, n_sym).T.ravel()  # (L, p + 1) order
        self._gram_weights = _real_weights(table[:, columns])

        # (H^H y')_k sums conj(coef[n, k, t]) times conj(g_n) y_t in a plain
        # slot and times its conjugate in a conjugated one.
        im_sign = np.where(has_conj, -1j, 1j)
        mf = np.stack([coef.conj(), im_sign * coef.conj()], axis=-1)  # (N, L, T, 2)
        self._mf_weights = _real_weights(mf.transpose(0, 2, 3, 1).reshape(-1, n_sym))

        # Per trial: the complex N T products and band, and the real scores.
        self.row_bytes = max(16 * n_ports * n_slots, 16 * len(self._band_index), 8 * points.size)

    def band(self, g):
        """The upper band (L, p + 1, B) of the Gram H^H H for channels
        (B, N): band[k, d] = Gram[k, k + d], zero past column L - 1."""
        n, m = self._pairs
        products = (g.conj().take(n, axis=1) * g.take(m, axis=1)).view(float)
        band = _complex(self._gram_weights @ products.T)[self._band_index]
        return band.reshape(-1, self.p + 1, len(g))

    def _matched_filter(self, y, g):
        """H^H y' (L, B) for observations (B, T) and channels (B, N)."""
        products = (g.conj()[:, :, None] * y[:, None, :]).reshape(len(g), -1).view(float)
        return _complex(self._mf_weights @ products.T)

    def decode_batch(self, y, g, aborted):
        rhs = self._matched_filter(y, g)
        band = self.band(g)
        band[:, 0, aborted] = 1.0
        xhat = _band_solve(band, rhs)  # (L, B)
        score = xhat.view(float).reshape(len(xhat), -1, 2) @ self._axes  # (L, B, points)
        return np.argmax(score, axis=-1).T
