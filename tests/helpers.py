"""Shared test utilities: payload enumeration, the exhaustive ML and
coding-gain oracles and the dense covariance built from its lags.

The ML oracle evaluates || y - g X ||^2 over a full codebook and is the
single reference every reduced-complexity decoder is checked against; the
coding-gain oracle takes the minimum determinant over every pair of a full
codebook, the reference for the gain enumerated over decoupled groups.
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
