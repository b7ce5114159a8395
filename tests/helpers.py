"""Shared test utilities: payload enumeration, the exhaustive ML oracle and
the dense covariance built from its lags.

The oracle evaluates || y - g X ||^2 over a full codebook and is the single
reference every reduced-complexity decoder is checked against.
"""

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
