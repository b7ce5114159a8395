"""One-ring spatially correlated Rayleigh channel for a uniform linear array.

The covariance is the integral of steering-vector outer products against a
truncated-Gaussian power azimuth spectrum on [-pi/2, pi/2].  Because the
(m, n) integrand depends only on m - n, the matrix is Hermitian Toeplitz
and is computed lag by lag with an adaptive Gauss-Legendre rule.
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.linalg import toeplitz

__all__ = [
    "PasSpec",
    "ChannelSpec",
    "CovarianceModel",
    "DEFAULT_SPACING_RATIO",
    "steering_vector",
    "one_ring_covariance",
    "dft_domain_leakage",
    "covariance_factor",
    "isotropy_deviation",
]

DEFAULT_SPACING_RATIO = 1.0 / math.sqrt(3.0)
DEFAULT_SIGMA_RAD = math.radians(5.0)

_QUAD_REL_TOL = 1e-8
_QUAD_ORDER = 16
_QUAD_START_PANELS = 8
_QUAD_MAX_PANELS = 1 << 16


@dataclass(frozen=True)
class PasSpec:
    """Truncated-Gaussian power azimuth spectrum on [-pi/2, pi/2]."""

    theta0: float = 0.0
    sigma: float = DEFAULT_SIGMA_RAD

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError(f"angle spread must be positive, got {self.sigma}")
        if not -math.pi / 2 <= self.theta0 <= math.pi / 2:
            raise ValueError(f"mean angle {self.theta0} outside [-pi/2, pi/2]")

    def density(self, theta):
        return np.exp(-((theta - self.theta0) ** 2) / (2.0 * self.sigma**2))


@dataclass(frozen=True)
class ChannelSpec:
    n_antennas: int
    spacing_ratio: float = DEFAULT_SPACING_RATIO
    pas: PasSpec = PasSpec()

    def __post_init__(self):
        if self.n_antennas < 1:
            raise ValueError("need at least one antenna")
        if self.spacing_ratio <= 0:
            raise ValueError("antenna spacing must be positive")


class CovarianceModel:
    """M x M Hermitian Toeplitz channel covariance with trace M."""

    def __init__(self, matrix, lags=None):
        self.matrix = np.asarray(matrix, dtype=complex)
        self.lags = lags
        self.matrix.flags.writeable = False

    @property
    def n_antennas(self):
        return self.matrix.shape[0]


def steering_vector(n_antennas, spacing_ratio, theta):
    """ULA steering vector, element m = exp(-j 2 pi spacing m sin(theta))."""
    m = np.arange(int(n_antennas))
    return np.exp(-2j * np.pi * spacing_ratio * m * np.sin(theta))


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(_QUAD_ORDER)


def _composite_nodes(n_panels):
    """Composite Gauss-Legendre rule on [-pi/2, pi/2] with n_panels panels."""
    edges = np.linspace(-math.pi / 2, math.pi / 2, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    theta = (centers[:, None] + half * _GAUSS_NODES[None, :]).ravel()
    weights = np.tile(half * _GAUSS_WEIGHTS, n_panels)
    return theta, weights


def _lag_quadrature(spec, n_panels):
    """Weighted lag integrals r_k, k = 0..M-1, on a composite Gauss rule.

    Normalizing by the quadrature of the PAS itself makes r_0 = 1 exactly,
    hence trace(R) = M.
    """
    theta, weights = _composite_nodes(n_panels)
    wp = weights * spec.pas.density(theta)
    wp = wp / wp.sum()
    k = np.arange(spec.n_antennas)
    # phase matrix (lags x nodes), chunked to bound memory at large M
    lags = np.empty(spec.n_antennas, dtype=complex)
    sin_t = np.sin(theta)
    chunk = max(1, (1 << 22) // max(theta.size, 1))
    for start in range(0, spec.n_antennas, chunk):
        kk = k[start : start + chunk, None]
        lags[start : start + chunk] = np.exp(
            -2j * np.pi * spec.spacing_ratio * kk * sin_t[None, :]
        ) @ wp
    return lags


def _lag_frobenius(lags):
    m_len = lags.size
    weights = m_len - np.arange(m_len)
    weights[1:] *= 2  # each nonzero lag appears on two diagonals
    return math.sqrt(float(np.sum(weights * np.abs(lags) ** 2)))


def _one_ring_lags(spec):
    """Lag vector by adaptive quadrature, panel count doubling until it is
    stable to 1e-8 in the induced Frobenius norm."""
    n_panels = _QUAD_START_PANELS
    prev = _lag_quadrature(spec, n_panels)
    while True:
        n_panels *= 2
        if n_panels > _QUAD_MAX_PANELS:
            raise RuntimeError(
                f"covariance quadrature did not converge within {_QUAD_MAX_PANELS} panels"
            )
        cur = _lag_quadrature(spec, n_panels)
        err = _lag_frobenius(cur - prev)
        if err <= _QUAD_REL_TOL * _lag_frobenius(cur):
            break
        prev = cur
    return cur


def _toeplitz_model(lags):
    return CovarianceModel(toeplitz(lags, np.conjugate(lags)), lags=lags)


def one_ring_covariance(spec):
    """Hermitian Toeplitz covariance from the quadrature lag vector."""
    return _toeplitz_model(_one_ring_lags(spec))


# The memo keeps the length-M lag vectors, not the M x M matrices, so a
# process that sweeps many mean angles at large M does not grow by M^2 per
# angle; the Toeplitz matrix is rebuilt on each lookup.
@lru_cache(maxsize=64)
def _cached_lags(n_antennas, spacing_ratio, theta0, sigma):
    lags = _one_ring_lags(ChannelSpec(n_antennas, spacing_ratio, PasSpec(theta0, sigma)))
    lags.flags.writeable = False
    return lags


def covariance_for(n_antennas, spacing_ratio, theta0, sigma):
    """Covariance lookup used by sweeps and tests; the quadrature is memoized."""
    return _toeplitz_model(
        _cached_lags(int(n_antennas), float(spacing_ratio), float(theta0), float(sigma))
    )


def dft_domain_leakage(model):
    """Off-diagonal share of the Frobenius energy of F_M R F_M^H.

    Tends to zero as the array grows, which is the computable form of the
    asymptotic DFT eigenstructure of Toeplitz covariances.
    """
    r = model.matrix if isinstance(model, CovarianceModel) else np.asarray(model)
    m_len = r.shape[0]
    beam = np.fft.fft(np.fft.ifft(r, axis=1), axis=0)  # F R F^H, unitary pair
    total = float(np.sum(np.abs(beam) ** 2))
    if total == 0.0:
        return 0.0
    diag = float(np.sum(np.abs(np.diagonal(beam)) ** 2))
    return (total - diag) / total


def covariance_factor(model):
    """B with B B^H = R via Hermitian eigendecomposition.

    Tiny negative eigenvalues from quadrature roundoff are clipped at zero.
    """
    r = model.matrix if isinstance(model, CovarianceModel) else np.asarray(model)
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
    channel asymptotically i.i.d. with per-port variance 1/N.
    """
    r = model.matrix if isinstance(model, CovarianceModel) else np.asarray(model)
    w = precoder.w_matrix
    return float(
        np.linalg.norm(precoder.n_ports * (w.conj().T @ r @ w) - np.eye(precoder.n_ports))
    )
