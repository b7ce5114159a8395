"""Shared test utilities: payload enumeration, the exhaustive ML and
coding-gain oracles, the dense covariance built from its lags and the
exact BPSK BER over a correlated Rayleigh channel.

The ML oracle evaluates || y - g X ||^2 over a full codebook and is the
single reference every reduced-complexity decoder is checked against; the
coding-gain oracle takes the minimum determinant over every pair of a full
codebook, the reference for the gain enumerated over decoupled groups.
"""

import math

import numpy as np

from omnistbc.kinds import build_code, payloads  # noqa: F401  (payloads is shared with the tests)


def codebook(kind, rate):
    """[(bits, matrix)] in payload order for one enumerable code kind."""
    return list(zip(*build_code(kind, rate).codebook()))


def exhaustive_ml(y, g, book):
    """Bits of the codeword minimizing || y - g X ||^2 (first-wins ties)."""
    mats = np.stack([m for _, m in book])
    pred = np.einsum("n,knt->kt", g, mats)
    metrics = np.sum(np.abs(y[None, :] - pred) ** 2, axis=1)
    return book[int(np.argmin(metrics))][0]


def whole_codebook_gain(code):
    """min over distinct codeword pairs of det((X - X')(X - X')^H)^(1/T),
    by brute force over the whole codebook; 0 on a rank drop."""
    mats = code.codebook()[1]
    worst = np.inf
    for i in range(len(mats) - 1):
        diff = mats[i + 1 :] - mats[i]
        eig = np.linalg.eigvalsh(np.einsum("knt,kmt->knm", diff, diff.conj()))
        worst = min(worst, np.prod(np.clip(eig, 0.0, None), axis=1).min())
    return 0.0 if worst < 1e-12 else float(worst) ** (1.0 / code.n_slots)


def feed_x1_into_x2(x):
    """A pre-map for the AC table that sends (x1, x1 x2), coupling the two
    payload symbols."""
    return np.stack([x[:, 0], x[:, 0] * x[:, 1]], axis=1)


def min_sq_distance(constellation):
    """Minimum squared Euclidean distance over distinct point pairs."""
    pts = constellation.points
    if pts.size < 2:
        raise ValueError("need at least two points")
    diff = pts[:, None] - pts[None, :]
    d2 = np.abs(diff) ** 2
    d2[np.diag_indices_from(d2)] = np.inf
    return float(d2.min())


def random_effective_channel(rng, n_ports):
    """One draw of the asymptotic effective channel, row convention."""
    z = rng.standard_normal(2 * n_ports)
    return (z[:n_ports] + 1j * z[n_ports:]) / np.sqrt(2.0 * n_ports)


def hermitian_toeplitz(lags):
    """The M x M matrix R[i, j] = r_{i-j} for i >= j and conj(r_{j-i})
    above the diagonal: the dense covariance of a model's M lags."""
    lags = np.asarray(lags)
    lag = np.subtract.outer(np.arange(lags.size), np.arange(lags.size))  # i - j
    return np.where(lag >= 0, lags[np.abs(lag)], lags[np.abs(lag)].conj())


_CRAIG_NODES, _CRAIG_WEIGHTS = np.polynomial.legendre.leggauss(64)


def exact_bpsk_ber(eigs, snr_db):
    """Exact BER of BPSK with maximum-ratio combining over an effective
    channel with covariance eigenvalues ``eigs``, at noise variance
    10^(-snr_db/10): the Alamouti (and single-port) BER at rate 1.

    Craig's form Q(x) = (1/pi) int_0^{pi/2} exp(-x^2 / (2 sin^2 phi)) dphi
    turns the average over independent exponentials into a product of
    moment generating functions, integrated here by 64-point
    Gauss-Legendre: within 1e-10 of adaptive quadrature, relative, for
    eigenvalue ratios up to 2000 and SNRs from -10 to 30 dB.
    """
    phi = (_CRAIG_NODES + 1.0) * math.pi / 4.0
    s2 = np.sin(phi)[:, None] ** 2
    gam = np.clip(np.asarray(eigs, dtype=float), 0.0, None) * 10.0 ** (snr_db / 10.0)
    return float(_CRAIG_WEIGHTS @ np.prod(s2 / (s2 + gam), axis=1)) / 4.0
