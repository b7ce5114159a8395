"""One-ring spatially correlated Rayleigh channel for a uniform linear array.

The covariance is the integral of steering-vector outer products against a
truncated-Gaussian power azimuth spectrum on [-pi/2, pi/2].  Because the
(m, n) integrand depends only on m - n, the matrix R is Hermitian Toeplitz
and is fixed by its M lags.  An adaptive composite Gauss-Legendre rule gives
them, and each rule's lag sums over its nodes are one type-1 NUFFT, so a
rule costs O(nodes + M log M), not O(nodes x M).  The effective covariance
W^H R W comes from the lags by circulant embedding; R itself is formed only
by ``CovarianceModel.matrix``, for the DFT-leakage diagnostic and the tests.
``covariance_for`` takes the array size, spacing, mean angle and spread as
plain numbers and runs the quadrature on every call; the engine calls it
once per sweep point.
"""

import math

import numpy as np
from scipy.linalg import toeplitz

__all__ = [
    "CovarianceModel",
    "DEFAULT_SPACING_RATIO",
    "covariance_for",
    "dft_domain_leakage",
    "covariance_factor",
    "isotropy_deviation",
]

DEFAULT_SPACING_RATIO = 1.0 / math.sqrt(3.0)

_QUAD_REL_TOL = 1e-8
_QUAD_ORDER = 16
_QUAD_START_PANELS = 8
_QUAD_MAX_PANELS = 1 << 16
# Grid points that each quadrature node spreads onto, on either side, in the
# lag sum's NUFFT; the Gaussian's truncation error is exp(-3 pi/4 x spread).
# Against the direct sum, M up to 1024: 16 (and 14) agree to 3.5e-13, the
# phase roundoff of both sums, while 12 drifts to 1e-11.
_NUFFT_SPREAD = 16


class CovarianceModel:
    """M x M Hermitian Toeplitz channel covariance with trace M.

    Its state is the lag vector ``lags``, the first column of R.  ``project``
    forms W^H R W from it directly; ``matrix`` builds R on each access and
    serves the DFT-leakage diagnostic only.
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
        r = toeplitz(self.lags, self.lags.conj())
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


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(_QUAD_ORDER)


def _composite_nodes(n_panels):
    """Composite Gauss-Legendre rule on [-pi/2, pi/2] with n_panels panels."""
    edges = np.linspace(-math.pi / 2, math.pi / 2, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    theta = (centers[:, None] + half * _GAUSS_NODES[None, :]).ravel()
    weights = np.tile(half * _GAUSS_WEIGHTS, n_panels)
    return theta, weights


def _lag_sum(x, c, m_len):
    """r_k = sum_j c_j exp(-i k x_j) for k = 0..m_len-1, by a type-1 NUFFT.

    Gaussian gridding at oversampling 2 (Greengard & Lee, "Accelerating the
    nonuniform fast Fourier transform", SIAM Review 2004): each node spreads
    a periodized Gaussian onto the 2M-point grid of [0, 2 pi), one FFT takes
    the grid's Fourier coefficients, and dividing by the Gaussian's own
    coefficients e^{-q^2 tau} sqrt(tau/pi) leaves the sum.  Modulating the
    weights by exp(-i s x_j), s = M // 2, centres the modes at q = k - s.
    """
    shift = m_len // 2
    c = c * np.exp(-1j * shift * x)
    n_grid = 2 * m_len
    step = 2.0 * np.pi / n_grid
    tau = np.pi * _NUFFT_SPREAD / (3.0 * m_len**2)  # oversampling R = 2
    near = np.floor(x / step).astype(np.int64)
    grid = np.zeros(n_grid, dtype=complex)
    for offset in range(1 - _NUFFT_SPREAD, _NUFFT_SPREAD + 1):
        node = near + offset
        val = c * np.exp(-((node * step - x) ** 2) / (4.0 * tau))
        idx = node % n_grid
        grid += np.bincount(idx, val.real, n_grid) + 1j * np.bincount(idx, val.imag, n_grid)
    q = np.arange(m_len) - shift
    coeffs = np.fft.fft(grid)[q % n_grid] / n_grid
    return np.sqrt(np.pi / tau) * np.exp(tau * q**2) * coeffs


def _lag_quadrature(n_antennas, spacing_ratio, theta0, sigma, n_panels):
    """Weighted lag integrals r_k, k = 0..M-1, on a composite Gauss rule,
    or None when every node misses the spread (zero total weight).

    Normalizing by the quadrature of the PAS itself makes r_0 = 1, hence
    trace(R) = M, up to the NUFFT's roundoff of about 1e-13.
    """
    theta, weights = _composite_nodes(n_panels)
    # Far below the node spacing the exponent overflows, or the variance
    # underflows to zero: either way the node weighs zero.
    with np.errstate(divide="ignore", over="ignore"):
        wp = weights * np.exp(-((theta - theta0) ** 2) / (2.0 * sigma**2))
    total = wp.sum()
    if total == 0.0:
        return None
    return _lag_sum(2.0 * np.pi * spacing_ratio * np.sin(theta), wp / total, n_antennas)


def _lag_frobenius(lags):
    m_len = lags.size
    weights = m_len - np.arange(m_len)
    weights[1:] *= 2  # each nonzero lag appears on two diagonals
    return math.sqrt(float(np.sum(weights * np.abs(lags) ** 2)))


def _one_ring_lags(n_antennas, spacing_ratio, theta0, sigma):
    """Lag vector by adaptive quadrature, panel count doubling until two
    successive rules agree to 1e-8 in the induced Frobenius norm.  A rule
    with zero total weight has not converged."""
    prev = None
    n_panels = _QUAD_START_PANELS
    while n_panels <= _QUAD_MAX_PANELS:
        cur = _lag_quadrature(n_antennas, spacing_ratio, theta0, sigma, n_panels)
        if cur is not None and prev is not None:
            if _lag_frobenius(cur - prev) <= _QUAD_REL_TOL * _lag_frobenius(cur):
                return cur
        prev = cur
        n_panels *= 2
    raise RuntimeError(f"covariance quadrature did not converge within {_QUAD_MAX_PANELS} panels")


def covariance_for(n_antennas, spacing_ratio, theta0, sigma):
    """The one-ring covariance of an M-antenna ULA with antenna spacing
    ``spacing_ratio`` wavelengths, under a truncated-Gaussian power azimuth
    spectrum of mean ``theta0`` and spread ``sigma`` (radians).

    Raises RuntimeError when the quadrature does not converge.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if not spacing_ratio > 0:
        raise ValueError("antenna spacing must be positive")
    if not sigma > 0:
        raise ValueError(f"angle spread must be positive, got {sigma}")
    if not -math.pi / 2 <= theta0 <= math.pi / 2:
        raise ValueError(f"mean angle {theta0} outside [-pi/2, pi/2]")
    return CovarianceModel(_one_ring_lags(int(n_antennas), spacing_ratio, theta0, sigma))


def dft_domain_leakage(model):
    """Off-diagonal share of the Frobenius energy of F_M R F_M^H.

    Tends to zero as the array grows, which is the computable form of the
    asymptotic DFT eigenstructure of Toeplitz covariances.
    """
    r = model.matrix
    beam = np.fft.fft(np.fft.ifft(r, axis=1), axis=0)  # F R F^H, unitary pair
    total = float(np.sum(np.abs(beam) ** 2))
    if total == 0.0:
        return 0.0
    diag = float(np.sum(np.abs(np.diagonal(beam)) ** 2))
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


def isotropy_deviation(precoder, model):
    """Frobenius distance of N (W^H R W) from the identity.

    Vanishes as M grows for any fixed port count, making the effective
    channel asymptotically i.i.d. with per-port variance 1/N.  W^H R W is
    ``model.project``, the product the engine factors.
    """
    n_ports = precoder.n_ports
    return float(np.linalg.norm(n_ports * model.project(precoder.w_matrix) - np.eye(n_ports)))
