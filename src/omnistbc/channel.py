"""One-ring spatially correlated Rayleigh channel for a uniform linear array.

The covariance is the integral of steering-vector outer products against a
truncated-Gaussian power azimuth spectrum on [-pi/2, pi/2].  Because the
(m, n) integrand depends only on m - n, the matrix R is Hermitian Toeplitz
and is fixed by its M lags.  One doubling ladder gives them, with either of
two rules, stopping when two successive rules agree.  When the PAS's live
support, where the Gaussian is above 2^-53 of its peak, lies strictly
inside (-pi/2, pi/2), the rule is the trapezoid rule in u = sin(theta) on
the grid u_j = j / (d P): one Gaussian sample per grid point, one bincount
that folds j mod P and one length-P real FFT, starting at the first P >= 2M
whose step resolves the PAS.  A support that reaches endfire, or a sin-grid
ladder with no agreeing pair within its budget of 2^20 samples and FFT
points, takes an adaptive composite Gauss-Legendre rule in theta, whose
lag sums over its nodes are one type-1 NUFFT, so a rule costs
O(nodes + M log M), not O(nodes x M).  Its panel count starts at the first
rule whose 16-node panels sample the fastest lag's phase at Nyquist, and
dead panels, under 2^-53 of the PAS weight, skip the NUFFT.  The NUFFT's
Gaussian spreading is Greengard & Lee's fast gridding: two real exps per
node, then one multiply and one bincount per grid offset onto an extended
grid of 2M + 31 points that one bincount folds onto the 2M-point circle.
Every factor is bounded independently of M, so nothing overflows.  The
effective covariance W^H R W comes from the lags by circulant embedding,
and the DFT-leakage diagnostic from one FFT of the folded lags.  R itself
is formed only by ``CovarianceModel.matrix``, which no library code calls;
its one reader is perfbench/tests/test_perfbench.py, and ROADMAP item 1
deletes it once that test reads ``project``.
``covariance_for`` takes the array size, spacing, mean angle and spread as
plain numbers and runs the quadrature on every call; the engine's
``_sweep_setup`` calls it once per distinct angle of a sweep.
"""

import math
from functools import cache, partial

import numpy as np

__all__ = [
    "CovarianceModel",
    "DEFAULT_SPACING_RATIO",
    "covariance_for",
    "dft_domain_leakage",
    "covariance_factor",
    "isotropy_deviation",
    "max_spacing_ratio",
]

DEFAULT_SPACING_RATIO = 1.0 / math.sqrt(3.0)

_QUAD_REL_TOL = 1e-8
_QUAD_ORDER = 16
_QUAD_START_PANELS = 8
_QUAD_MAX_PANELS = 1 << 16
# Nodes of the finest Gauss-Legendre rule, 2^20; each sin-grid rule takes at
# most as many samples and FFT points.
_QUAD_MAX_POINTS = _QUAD_MAX_PANELS * _QUAD_ORDER
# The Gaussian PAS falls below 2^-53 of its peak beyond this many spreads.
_PAS_REACH = math.sqrt(106.0 * math.log(2.0))
# Grid points that each quadrature node spreads onto, on either side, in the
# lag sum's NUFFT; the Gaussian's truncation error is exp(-3 pi/4 x spread).
# Against the direct sum, M up to 1024: 16 (and 14) agree to 3.5e-13, the
# phase roundoff of both sums, while 12 drifts to 1e-11.
_NUFFT_SPREAD = 16


class CovarianceModel:
    """M x M Hermitian Toeplitz channel covariance with trace M.

    Its state is the lag vector ``lags``, the first column of R.  ``project``
    forms W^H R W from it directly; ``matrix`` builds R on each access, as
    the dense reference that tests check the lag-domain paths against.
    """

    def __init__(self, lags):
        lags = np.array(lags, dtype=complex)
        if lags.ndim != 1:
            raise ValueError(f"covariance lags must be a 1-D vector, got shape {lags.shape}")
        lags.flags.writeable = False
        self.lags = lags

    @property
    def n_antennas(self):
        return self.lags.size

    @property
    def matrix(self):
        """R[i, j] = r_{i-j} on and below the diagonal, conj(r_{j-i}) above.

        Row i is [r_i, ..., r_1, r_0, conj(r_1), ..., conj(r_{M-1-i})], the
        window at M - 1 - i of [r_{M-1}, ..., r_1, r_0, conj(r_1), ...,
        conj(r_{M-1})]; the copy of the windows is a fresh read-only array.
        Kept only for perfbench/tests/test_perfbench.py, its one reader;
        ROADMAP item 1 deletes it once that test reads ``project``.
        """
        m_len = self.n_antennas
        line = np.concatenate([self.lags[:0:-1], self.lags[:1], self.lags[1:].conj()])
        r = np.lib.stride_tricks.sliding_window_view(line, m_len)[::-1].copy()
        r.flags.writeable = False
        return r

    def project(self, w):
        """W^H R W for an M x N matrix W, without forming R.

        R embeds in the 2M x 2M circulant whose first column is
        [r_0, ..., r_{M-1}, 0, conj(r_{M-1}), ..., conj(r_1)] (Gray, "Toeplitz
        and Circulant Matrices: A Review", 2006), so R W is the top half of a
        length-2M circular convolution: one FFT of that column and one of
        each column of W.
        """
        m_len = self.n_antennas
        column = np.concatenate([self.lags, [0.0], self.lags[:0:-1].conj()])
        spectrum = np.fft.fft(column)[:, None] * np.fft.fft(w, 2 * m_len, axis=0)
        return w.conj().T @ np.fft.ifft(spectrum, axis=0)[:m_len]


@cache
def _gauss_rule():
    """Nodes and weights of the _QUAD_ORDER-point Gauss-Legendre rule on
    [-1, 1].  Built on first use: only supports that reach endfire take
    this rule, and loading numpy.polynomial costs every process about 4 ms."""
    return np.polynomial.legendre.leggauss(_QUAD_ORDER)


def _composite_nodes(n_panels):
    """Composite Gauss-Legendre rule on [-pi/2, pi/2] with n_panels panels."""
    nodes, node_weights = _gauss_rule()
    edges = np.linspace(-math.pi / 2, math.pi / 2, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    theta = (centers[:, None] + half * nodes[None, :]).ravel()
    weights = np.tile(half * node_weights, n_panels)
    return theta, weights


def _interleaved(idx):
    """Indices (2 i, 2 i + 1) per entry of ``idx``, in the order of a complex
    array's float view, so one real bincount sums real and imaginary parts."""
    pairs = np.empty((idx.size, 2), dtype=np.int64)
    pairs[:, 0] = 2 * idx
    pairs[:, 1] = pairs[:, 0] + 1
    return pairs.ravel()


def _lag_sum(x, c, m_len):
    """r_k = sum_j c_j exp(-i k x_j) for k = 0..m_len-1, by a type-1 NUFFT.

    Gaussian gridding at oversampling 2 (Greengard & Lee, "Accelerating the
    nonuniform fast Fourier transform", SIAM Review 2004): each node spreads
    a periodized Gaussian onto the 2M-point grid of [0, 2 pi), one FFT takes
    the grid's Fourier coefficients, and dividing by the Gaussian's own
    coefficients e^{-q^2 tau} sqrt(tau/pi) leaves the sum.  Modulating the
    weights by exp(-i s x_j), s = M // 2, centres the modes at q = k - s.

    The spreading is their fast Gaussian gridding (section 3).  With grid
    step h, nearest grid point below n_j h and d_j = x_j - n_j h in [0, h),
    the kernel at grid point n_j + o factors as

        exp(-(d - o h)^2 / 4 tau) = exp(-d^2 / 4 tau) E^o exp(-(o h)^2 / 4 tau),

    E = exp(d h / 2 tau).  So a node costs two real exps, its value at the
    first offset and E, in place of one per offset; each further offset is
    one in-place multiply by E and one real bincount, and the node-free
    factor exp(-(o h)^2 / 4 tau) scales the binned sums.  Since
    h^2 / 4 tau = 3 pi / (4 x spread) for every M, the node values stay
    within e^{+-3 pi / 2} of c_j and E at most e^{3 pi / 32}: nothing
    overflows.  A node's bins are n_j mod 2M plus the offset's rank, an
    extended grid of 2M + 2 x spread - 1 points, which one bincount folds
    back onto the 2M-point circle at the end.
    """
    shift = m_len // 2
    c = c * np.exp(-1j * shift * x)
    n_grid = 2 * m_len
    step = 2.0 * np.pi / n_grid
    tau = np.pi * _NUFFT_SPREAD / (3.0 * m_len**2)  # oversampling R = 2
    near = np.floor(x / step)
    d = x - near * step
    first = 1 - _NUFFT_SPREAD
    cur = c * np.exp(d * (2.0 * first * step - d) / (4.0 * tau))
    ratio = np.exp(d * (step / (2.0 * tau)))
    pairs = _interleaved(near.astype(np.int64) % n_grid)
    n_ext = n_grid + 2 * _NUFFT_SPREAD - 1
    ext = np.zeros(2 * n_ext)
    for rank in range(2 * _NUFFT_SPREAD):
        if rank:
            np.multiply(cur, ratio, out=cur)
        scale = math.exp(-(((first + rank) * step) ** 2) / (4.0 * tau))
        ext[2 * rank : 2 * (rank + n_grid)] += scale * np.bincount(
            pairs, cur.view(float), 2 * n_grid
        )
    # Extended bin i is grid point (i + first) mod 2M.
    fold = _interleaved((np.arange(n_ext) + first) % n_grid)
    grid = np.bincount(fold, ext, 2 * n_grid).view(complex)
    q = np.arange(m_len) - shift
    coeffs = np.fft.fft(grid)[q % n_grid] / n_grid
    return np.sqrt(np.pi / tau) * np.exp(tau * q**2) * coeffs


def _lag_quadrature(n_antennas, spacing_ratio, theta0, sigma, n_panels):
    """Weighted lag integrals r_k, k = 0..M-1, on a composite Gauss rule,
    or None when every node misses the spread (zero total weight).

    Normalizing by the quadrature of the PAS itself makes r_0 = 1, hence
    trace(R) = M, up to the NUFFT's roundoff of about 1e-13.  Only the live
    panels, each holding at least 2^-53 / n_panels of that total, reach the
    NUFFT: the dead ones weigh under 2^-53 together, below one unit in the
    last place of r_0.
    """
    theta, weights = _composite_nodes(n_panels)
    # Far below the node spacing a node weighs zero (exponent overflow or zero
    # variance); far above pi the NumPy power overflows to inf: the flat PAS.
    with np.errstate(divide="ignore", over="ignore"):
        wp = weights * np.exp(-((theta - theta0) ** 2) / (2.0 * np.float64(sigma) ** 2))
    total = wp.sum()
    if total == 0.0:
        return None
    share = wp.reshape(n_panels, _QUAD_ORDER).sum(axis=1)
    live = np.repeat(share >= total * 2.0**-53 / n_panels, _QUAD_ORDER)
    x = 2.0 * np.pi * spacing_ratio * np.sin(theta[live])
    return _lag_sum(x, wp[live] / total, n_antennas)


def _lag_energy(lags):
    """||R||_F^2 of the Hermitian Toeplitz R with these lags."""
    m_len = lags.size
    weights = m_len - np.arange(m_len)
    weights[1:] *= 2  # each nonzero lag appears on two diagonals
    return float(np.sum(weights * np.abs(lags) ** 2))


def _converged(cur, prev):
    """Whether two successive rules agree to _QUAD_REL_TOL in the induced
    Frobenius norm."""
    return math.sqrt(_lag_energy(cur - prev)) <= _QUAD_REL_TOL * math.sqrt(_lag_energy(cur))


def _doubling_ladder(rule, level, top):
    """The later of the first two successive rules ``rule(level)``, level
    doubling up to ``top``, that agree, or None.  A None rule agrees with
    nothing, and a start level with no room for a second rule runs none."""
    if 2 * level > top:
        return None
    prev = None
    while level <= top:
        cur = rule(level)
        if cur is not None and prev is not None and _converged(cur, prev):
            return cur
        prev, level = cur, 2 * level
    return None


def _gauss_legendre_lags(n_antennas, spacing_ratio, theta0, sigma):
    """Lag vector by adaptive Gauss-Legendre quadrature on the doubling
    ladder, from the first panel count, 8 at least, whose 16-node panels
    sample the fastest lag's phase 2 pi d (M - 1) sin(theta) at Nyquist on
    the live support |theta - theta0| <= _PAS_REACH sigma; coarser rules
    alias."""
    reach = _PAS_REACH * sigma
    broadside = min(max(0.0, theta0 - reach), theta0 + reach)  # live angle nearest broadside
    rate = 2.0 * math.pi * spacing_ratio * (n_antennas - 1) * math.cos(broadside)
    n_panels = _QUAD_START_PANELS
    while n_panels < _QUAD_MAX_PANELS and n_panels * _QUAD_ORDER < rate:
        n_panels *= 2
    rule = partial(_lag_quadrature, n_antennas, spacing_ratio, theta0, sigma)
    lags = _doubling_ladder(rule, n_panels, _QUAD_MAX_PANELS)
    if lags is None:
        raise RuntimeError(
            f"covariance quadrature did not converge within {_QUAD_MAX_PANELS} panels"
        )
    return lags


def _sin_grid_samples(spacing_ratio, theta0, sigma, n_fft):
    """Indices j and samples f_j = p(arcsin u_j) / sqrt(1 - u_j^2) of the
    PAS's live support on the grid u_j = j / (d P), or None when they would
    number more than _QUAD_MAX_POINTS."""
    scale = spacing_ratio * n_fft
    reach = _PAS_REACH * sigma
    lo = math.ceil(scale * math.sin(theta0 - reach))
    hi = math.floor(scale * math.sin(theta0 + reach))
    if hi - lo >= _QUAD_MAX_POINTS:
        return None
    j = np.arange(lo, hi + 1)
    u = j / scale
    f = np.exp(-((np.arcsin(u) - theta0) ** 2) / (2.0 * sigma**2)) / np.sqrt((1.0 - u) * (1.0 + u))
    return j, f


def _sin_grid_rule(n_antennas, spacing_ratio, theta0, sigma, n_fft):
    """Lags r_k, k = 0..M-1, by the trapezoid rule in u = sin(theta) on the
    grid u_j = j / (d P), or None past the sample budget.

    There the phase 2 pi d k u_j is 2 pi k j / P, so the rule's sum
    sum_j f_j exp(-2 pi i k j / P) is one length-P DFT of the samples folded
    j mod P.  P >= 2M, so the real FFT's first M outputs are the lags.
    Normalizing by the k = 0 sum, the quadrature of the PAS itself, makes
    r_0 = 1.
    """
    samples = _sin_grid_samples(spacing_ratio, theta0, sigma, n_fft)
    if samples is None:
        return None
    j, f = samples
    spectrum = np.fft.rfft(np.bincount(j % n_fft, f, n_fft))[:n_antennas]
    return spectrum / spectrum[0].real


def _sin_grid_lags(n_antennas, spacing_ratio, theta0, sigma):
    """Lag vector by the trapezoid rule on a uniform sin(theta) grid on the
    doubling ladder, or None when no pair of rules within _QUAD_MAX_POINTS
    samples and FFT points agrees.  P starts at the first P >= 2M whose step
    1 / (d P) is at most an eighth of the PAS's width in u, sigma
    cos(theta), at the angle 4 sigma from theta0 farther from broadside."""
    width = sigma * math.cos(min(math.pi / 2, abs(theta0) + 4.0 * sigma))
    n_fft = 2 * n_antennas
    while n_fft <= _QUAD_MAX_POINTS and spacing_ratio * n_fft * width < 8.0:
        n_fft *= 2
    rule = partial(_sin_grid_rule, n_antennas, spacing_ratio, theta0, sigma)
    return _doubling_ladder(rule, n_fft, _QUAD_MAX_POINTS)


def _one_ring_lags(n_antennas, spacing_ratio, theta0, sigma):
    """Lag vector of the one-ring covariance, from the live support
    |theta - theta0| <= _PAS_REACH sigma outside which the PAS is below
    2^-53 of its peak.

    With u = sin(theta), r_k is the integral of f(u) exp(-i 2 pi d k u) du,
    f(u) = p(arcsin u) / sqrt(1 - u^2).  When the live support lies strictly
    inside (-pi/2, pi/2), f is smooth there and negligible beyond it, so the
    trapezoid rule in u converges exponentially (Trefethen & Weideman, "The
    exponentially convergent trapezoidal rule", SIAM Review 2014), and on a
    grid of step 1 / (d P) it is one FFT (``_sin_grid_lags``).  A support
    that reaches endfire puts f's 1 / sqrt(1 - u^2) singularity inside it;
    those, and rules past the FFT's budget, take the Gauss-Legendre ladder
    in theta, which raises RuntimeError when it does not converge.
    """
    if abs(theta0) + _PAS_REACH * sigma < math.pi / 2:
        lags = _sin_grid_lags(n_antennas, spacing_ratio, theta0, sigma)
        if lags is not None:
            return lags
    return _gauss_legendre_lags(n_antennas, spacing_ratio, theta0, sigma)


def max_spacing_ratio(n_antennas):
    """Largest antenna spacing, in wavelengths, whose lag phases double
    precision resolves for an M-antenna array.

    The phase of lag M - 1, 2 pi d (M - 1) sin(theta), is rounded to about
    2^-52 of its size, an error that reaches half a turn at d (M - 1) =
    2^51; past that every lag sum is noise.
    """
    return 2.0**51 / max(n_antennas - 1, 1)


def covariance_for(n_antennas, spacing_ratio, theta0, sigma):
    """The one-ring covariance of an M-antenna ULA with antenna spacing
    ``spacing_ratio`` wavelengths, under a truncated-Gaussian power azimuth
    spectrum of mean ``theta0`` and spread ``sigma`` (radians).

    Raises RuntimeError when the quadrature does not converge.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    limit = max_spacing_ratio(n_antennas)
    if not 0 < spacing_ratio <= limit:
        raise ValueError(f"antenna spacing must be positive and at most {limit:.6g}")
    if not sigma > 0:
        raise ValueError(f"angle spread must be positive, got {sigma}")
    if not -math.pi / 2 <= theta0 <= math.pi / 2:
        raise ValueError(f"mean angle {theta0} outside [-pi/2, pi/2]")
    return CovarianceModel(_one_ring_lags(int(n_antennas), spacing_ratio, theta0, sigma))


def dft_domain_leakage(model):
    """Off-diagonal share of the Frobenius energy of F_M R F_M^H.

    Tends to zero as the array grows, which is the computable form of the
    asymptotic DFT eigenstructure of Toeplitz covariances.  Both energies
    follow from the lags, without forming R: the unitary F keeps
    ||R||_F, and entry q of diag(F R F^H) sums R's diagonals d = i - j,
    each M - |d| long, against exp(-2 pi i q d / M).  Folding lag -k onto
    M - k makes that fft(a) / M, with a_0 = M r_0 and
    a_k = (M - k) r_k + k conj(r_{M-k}).
    """
    lags = model.lags
    total = _lag_energy(lags)
    if total == 0.0:
        return 0.0
    m_len = lags.size
    k = np.arange(m_len)
    folded = (m_len - k) * lags
    folded[1:] += k[1:] * lags[:0:-1].conj()
    diag = float(np.sum(np.abs(np.fft.fft(folded) / m_len) ** 2))
    return (total - diag) / total


def covariance_factor(r):
    """B with B B^H = r for a Hermitian matrix r, via its eigendecomposition.

    Tiny negative eigenvalues from quadrature roundoff are clipped at zero.
    """
    vals, vecs = np.linalg.eigh(r)
    floor = -1e-9 * max(1.0, float(vals.max()))
    if vals.min() < floor:
        raise np.linalg.LinAlgError(
            f"covariance has significantly negative eigenvalue {vals.min():.3e}"
        )
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def isotropy_deviation(w, model):
    """Frobenius distance of N (W^H R W) from the identity, for an M x N
    precoder ``w``.

    Vanishes as M grows for any fixed port count, making the effective
    channel asymptotically i.i.d. with per-port variance 1/N.  W^H R W is
    ``model.project``, the product the engine factors.
    """
    n_ports = w.shape[1]
    return float(np.linalg.norm(n_ports * model.project(w) - np.eye(n_ports)))
