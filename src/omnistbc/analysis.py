"""Coding gain, the pairwise-error upper bound, and curve diagnostics.

Coding gain (diversity product) is the minimum over distinct codeword
pairs of det((X - X')(X - X')^H)^(1/T).  Determinants come from the
eigenvalues of the Hermitian difference Gram, which is stable for the
4 x 4 designs, and pair enumeration is capped so constellation growth
cannot silently blow up a test run.  The closed-form gains, one per kind,
sit beside the kinds' builders in ``omnistbc.kinds``.
"""

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BerPoint",
    "check_pair_count",
    "coding_gain",
    "pep_upper_bound",
    "fit_diversity_order",
    "omni_flatness",
]

PAIR_CAP = 1 << 20
_RANK_TOL = 1e-12
MIN_FIT_ERRORS = 100


@dataclass
class BerPoint:
    """One Monte Carlo BER measurement plus the context needed for CSV."""

    snr_db: float
    ber: float
    trials: int
    bit_errors: int
    code: str = ""
    rate_bps: float = 0.0
    n_antennas: int = 0
    theta0_deg: float = 0.0
    seed: int = 0
    aborted: int = 0
    bits_sent: int = 0


def check_pair_count(n_codes):
    """Raise ValueError unless ``n_codes`` codewords can be enumerated in
    pairs: at least two, and at most PAIR_CAP ordered distinct pairs."""
    if n_codes < 2:
        raise ValueError("need at least two codewords")
    n_pairs = n_codes * (n_codes - 1)
    if n_pairs > PAIR_CAP:
        raise ValueError(f"{n_pairs} codeword pairs exceed the enumeration cap {PAIR_CAP}")


def _pair_gram_eigs(mats):
    """For each codeword X_i of an (n_codes, N, T) array, the ascending
    eigenvalues of (X_j - X_i)(X_j - X_i)^H for every j != i, as one
    (n_codes - 1, N) array in order of j."""
    check_pair_count(len(mats))
    for i in range(len(mats)):
        diff = np.delete(mats, i, axis=0) - mats[i]
        yield np.linalg.eigvalsh(np.einsum("knt,kmt->knm", diff, diff.conj()))


def coding_gain(codebook):
    """Minimum diversity product over a codebook of N x T arrays; 0 flags a
    rank drop."""
    mats = np.asarray(codebook, dtype=complex)
    worst = min(
        float(np.prod(np.clip(eig, 0.0, None), axis=1).min()) for eig in _pair_gram_eigs(mats)
    )
    if worst < _RANK_TOL:
        return 0.0
    return worst ** (1.0 / mats.shape[2])


def pep_upper_bound(codebook, n_ports, sigma_n2, n_users=1):
    """Union-style bound K (4 sigma^2)^N sum over pairs of prod 1/lambda_n,
    for a codebook of N x T arrays.

    The lambda_n are the eigenvalues of (1/N) (X - X')(X - X')^H, the
    large-array limit of the effective difference covariance.  Every pair
    must be full rank, otherwise the offending pair is reported.
    """
    if sigma_n2 <= 0:
        raise ValueError("noise variance must be positive")
    total = 0.0
    for i, eig in enumerate(_pair_gram_eigs(np.asarray(codebook, dtype=complex))):
        eig = eig / n_ports
        bad = np.nonzero(eig[:, 0] <= _RANK_TOL * np.maximum(eig[:, -1], 1.0))[0]
        if bad.size:
            j = bad[0] + (bad[0] >= i)
            raise ValueError(f"codeword pair ({i}, {j}) is rank deficient")
        total += float(np.sum(np.prod(1.0 / eig, axis=1)))
    return n_users * (4.0 * sigma_n2) ** n_ports * total


def fit_diversity_order(points, window):
    """Least-squares slope of log10(ber) against -snr_db/10 inside ``window``.

    Points with fewer than 100 accumulated bit errors are dropped to bound
    the estimator variance.
    """
    lo, hi = window
    usable = [
        p
        for p in points
        if lo <= p.snr_db <= hi and p.ber > 0 and p.bit_errors >= MIN_FIT_ERRORS
    ]
    if len(usable) < 2:
        raise ValueError("need at least two usable BER points inside the window")
    x = np.array([-p.snr_db / 10.0 for p in usable])
    y = np.log10([p.ber for p in usable])
    slope = np.polyfit(x, y, 1)[0]
    return float(slope)


def omni_flatness(points):
    """max(ber)/min(ber) over an angle grid of (theta0, ber) pairs."""
    bers = np.array([b for _, b in points], dtype=float)
    if bers.size == 0:
        raise ValueError("empty angle grid")
    if np.any(bers <= 0):
        raise ValueError("zero BER in the grid: not enough trials to compare angles")
    return float(bers.max() / bers.min())
