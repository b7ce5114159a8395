"""Reference BERs computed apart from the Monte Carlo engine.

None of this goes through ``omnistbc.engine``.  From the package it takes
only the precoder ``W`` (``precoder_for_code``), the per-codeword encoders
and the PSK points, which define the system being simulated.

* ``effective_covariance`` integrates ``W^H R W`` directly over the
  truncated-Gaussian power azimuth spectrum; it never forms the M x M
  covariance.
* ``exact_bpsk_ber`` is the exact Rayleigh BER of BPSK with maximum-ratio
  combining over the eigenvalues of ``W^H R W`` (single and Alamouti).
* ``ml_reference`` estimates the BER of an enumerable code with its own
  random stream: it draws the N-dimensional effective channel from
  ``CN(0, conj(W^H R W))`` and decodes by exhaustive ML over the codebook.
* ``zf_reference`` does the same for the no-zero-entry codes with a
  least-squares ZF receiver on the real-linear map ``x -> g X(x)``, built
  by evaluating the encoder on real and imaginary basis symbols.
* ``agreement`` decides whether an engine BER and a reference agree.
"""

import math

import numpy as np
from scipy import integrate

# Half-width of the agreement interval in standard deviations.  The
# variance used is an upper bound (below), so a false alarm is rarer than
# the normal tail at 5 sigma suggests.
Z_WIDTH = 5.0

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# The power azimuth spectrum beyond this many spreads weighs exp(-72).
_PAS_WINDOW_SIGMAS = 12.0


def _gauss_panels(lo, hi, n_panels):
    edges = np.linspace(lo, hi, n_panels + 1)
    half = (edges[1] - edges[0]) / 2.0
    centers = (edges[:-1] + edges[1:]) / 2.0
    nodes = (centers[:, None] + half * _GL_NODES[None, :]).ravel()
    return nodes, np.tile(half * _GL_WEIGHTS, n_panels)


def _effective_covariance_rule(w, spacing_ratio, theta0, sigma, lo, hi, n_panels):
    theta, weights = _gauss_panels(lo, hi, n_panels)
    dens = weights * np.exp(-((theta - theta0) ** 2) / (2.0 * sigma**2))
    dens /= dens.sum()
    # Steering entry m is z^m, so u = W^H a(theta) is a polynomial in z.
    z = np.exp(-2j * np.pi * spacing_ratio * np.sin(theta))
    wc = np.conjugate(w)
    u = np.zeros((w.shape[1], theta.size), dtype=complex)
    for m in range(w.shape[0] - 1, -1, -1):
        u *= z
        u += wc[m][:, None]
    return (u * dens) @ np.conjugate(u).T


def effective_covariance(w, spacing_ratio, theta0, sigma, rtol=1e-10):
    """``W^H R W`` for the one-ring channel, angles in radians.

    Integrates ``p(theta) (W^H a)(W^H a)^H`` on a composite Gauss-Legendre
    rule, doubling the panels until the result is stable to ``rtol``.
    """
    w = np.asarray(w, dtype=complex)
    lo = max(-math.pi / 2, theta0 - _PAS_WINDOW_SIGMAS * sigma)
    hi = min(math.pi / 2, theta0 + _PAS_WINDOW_SIGMAS * sigma)
    n_panels = 16
    prev = _effective_covariance_rule(w, spacing_ratio, theta0, sigma, lo, hi, n_panels)
    while n_panels < 1 << 16:
        n_panels *= 2
        cur = _effective_covariance_rule(w, spacing_ratio, theta0, sigma, lo, hi, n_panels)
        if np.max(np.abs(cur - prev)) <= rtol * np.max(np.abs(cur)):
            return cur
        prev = cur
    raise RuntimeError("effective covariance quadrature did not converge")


def exact_bpsk_ber(eigs, sigma_n2):
    """Average of Q(sqrt(2 |g|^2 / sigma_n2)) with |g|^2 = sum_i eig_i |u_i|^2.

    Craig's form Q(x) = (1/pi) int_0^{pi/2} exp(-x^2 / (2 sin^2 phi)) dphi
    turns the average over independent exponentials into a product of
    moment generating functions, which stays exact for equal or nearly
    equal eigenvalues.
    """
    gam = np.clip(np.asarray(eigs, dtype=float), 0.0, None) / sigma_n2

    def integrand(phi):
        s2 = math.sin(phi) ** 2
        return float(np.prod(s2 / (s2 + gam)))

    value, _ = integrate.quad(integrand, 0.0, math.pi / 2, epsabs=1e-15, epsrel=1e-12, limit=200)
    return value / math.pi


def _channel_factor(q):
    """B with B B^H = conj(q): rows g = z B^T are the effective channel h^H W."""
    vals, vecs = np.linalg.eigh(np.conjugate(q))
    return vecs * np.sqrt(np.clip(vals, 0.0, None))


def _draw_rows(rng, b, n):
    z = rng.standard_normal((n, b.shape[0])) + 1j * rng.standard_normal((n, b.shape[0]))
    return (z / math.sqrt(2.0)) @ b.T


def _noise(rng, sigma_n2, shape):
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * math.sqrt(
        sigma_n2 / 2.0
    )


def ml_reference(book, q, sigma_n2, n_trials, rng, chunk=2048):
    """(bit errors, bits sent) of exhaustive ML decoding.

    ``book[k]`` is the N x T codeword carrying payload word ``k``, bits
    most significant first.
    """
    book = np.asarray(book, dtype=complex)
    size = book.shape[0]
    nbits = size.bit_length() - 1
    popcount = np.array([bin(k).count("1") for k in range(size)])
    n_ports, t_len = book.shape[1:]
    flat = book.transpose(1, 0, 2).reshape(n_ports, size * t_len)
    b = _channel_factor(q)
    errors = 0
    for start in range(0, n_trials, chunk):
        n = min(chunk, n_trials - start)
        words = rng.integers(0, size, n)
        g = _draw_rows(rng, b, n)
        cand = (g @ flat).reshape(n, size, t_len)
        y = cand[np.arange(n), words] + _noise(rng, sigma_n2, (n, t_len))
        diff = y[:, None, :] - cand
        metric = np.sum(diff.real**2 + diff.imag**2, axis=2)
        errors += int(popcount[words ^ np.argmin(metric, axis=1)].sum())
    return errors, n_trials * nbits


def real_linear_basis(encode, n_sym):
    """Images X(e_k) and X(j e_k) of the real and imaginary unit symbols.

    The encoder rejects zero symbols, so each image is taken as a
    difference against the all-ones payload; that is exact because every
    codeword entry is +-x_k or +-conj(x_k).
    """
    ones = np.ones(n_sym, dtype=complex)
    base = encode(ones)
    eye = np.eye(n_sym)
    return np.stack(
        [encode(ones + eye[k]) - base for k in range(n_sym)]
        + [encode(ones + 1j * eye[k]) - base for k in range(n_sym)]
    )


def zf_reference(basis, points, q, sigma_n2, n_trials, rng, chunk=1024):
    """(bit errors, bits sent) of least-squares ZF for BPSK payloads.

    ``basis`` is ``real_linear_basis`` of the encoder: 2L matrices, N x T.
    The 2T real observations are solved against the 2L real symbol
    coordinates by a QR factorization of each trial's system.
    """
    points = np.asarray(points, dtype=complex)
    if points.size != 2:
        raise ValueError("the ZF reference counts one bit per symbol (BPSK)")
    n_sym = basis.shape[0] // 2
    b = _channel_factor(q)
    errors = 0
    for start in range(0, n_trials, chunk):
        n = min(chunk, n_trials - start)
        sym = rng.integers(0, 2, (n, n_sym))
        x = points[sym]
        g = _draw_rows(rng, b, n)
        cols = np.einsum("bn,knt->btk", g, basis)  # complex image of each coordinate
        a = np.concatenate([cols.real, cols.imag], axis=1)
        coords = np.concatenate([x.real, x.imag], axis=1)
        noise = _noise(rng, sigma_n2, (n, basis.shape[2]))
        y = np.einsum("bij,bj->bi", a, coords) + np.concatenate([noise.real, noise.imag], axis=1)
        qm, r = np.linalg.qr(a)
        sol = np.linalg.solve(r, np.einsum("bij,bi->bj", qm, y)[..., None])[..., 0]
        xhat = sol[:, :n_sym] + 1j * sol[:, n_sym:]
        est = np.argmin(np.abs(xhat[..., None] - points), axis=-1)
        errors += int(np.count_nonzero(est != sym))
    return errors, n_trials * n_sym


def agreement(ber, trials, ref_ber, ref_trials=None):
    """(agrees, half-width) for an engine BER against a reference.

    The per-trial error fraction lies in [0, 1] with mean p, so its
    variance is at most p(1 - p) whatever the correlation of bits within a
    codeword.  p is the pooled estimate, floored at Z^2/trials so that a
    handful of errors cannot look significant.  ``ref_trials=None`` marks
    an exact reference.
    """
    inv = 1.0 / trials
    pooled = ref_ber
    if ref_trials is not None:
        inv += 1.0 / ref_trials
        pooled = (ber * trials + ref_ber * ref_trials) / (trials + ref_trials)
    p = min(max(pooled, Z_WIDTH**2 / trials), 0.5)
    half = Z_WIDTH * math.sqrt(p * (1.0 - p) * inv)
    return abs(ber - ref_ber) <= half, half
