import math
import warnings

import numpy as np
import pytest

from omnistbc.channel import (
    DEFAULT_SPACING_RATIO,
    CovarianceModel,
    covariance_factor,
    covariance_for,
    dft_domain_leakage,
    isotropy_deviation,
)
from omnistbc.channel import _composite_nodes, _lag_quadrature
from omnistbc.precoding import precoder_for_code

SIGMA5 = math.radians(5.0)


def test_pas_spec_validation():
    with pytest.raises(ValueError, match="angle spread"):
        covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, 0.0)
    with pytest.raises(ValueError, match="mean angle"):
        covariance_for(8, DEFAULT_SPACING_RATIO, 2.0, SIGMA5)
    with pytest.raises(ValueError, match="antenna"):
        covariance_for(0, DEFAULT_SPACING_RATIO, 0.0, SIGMA5)
    with pytest.raises(ValueError, match="spacing"):
        covariance_for(8, 0.0, 0.0, SIGMA5)
    with pytest.raises(ValueError, match="spacing"):
        covariance_for(8, math.nan, 0.0, SIGMA5)
    with pytest.raises(ValueError, match="angle spread"):
        covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, math.nan)


@pytest.mark.parametrize("theta0_deg", np.linspace(-60, 60, 13))
@pytest.mark.parametrize("sigma_deg", [2.0, 5.0, 10.0])
def test_covariance_invariants_grid(theta0_deg, sigma_deg):
    model = covariance_for(32, 1 / math.sqrt(3), math.radians(theta0_deg), math.radians(sigma_deg))
    r = model.matrix
    assert np.abs(r - r.conj().T).max() < 1e-12
    assert np.abs(np.diagonal(r) - 1).max() < 1e-9
    assert abs(np.trace(r).real - 32) < 1e-9
    assert np.linalg.eigvalsh(r).min() > -1e-9
    # Toeplitz: constant along diagonals
    assert np.abs(r[1:, 1:] - r[:-1, :-1]).max() < 1e-9


def test_covariance_point_source_limit():
    r = covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, 1e-4).matrix
    assert np.abs(r - np.ones((8, 8))).max() < 1e-4


def test_narrow_spread_quadrature():
    """A rule whose nodes all miss the spread has not converged: a
    0.001-degree spread converges on finer rules without a floating-point
    warning on the way, and one far below the finest rule's node spacing
    raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, math.radians(1e-3)).matrix
        assert abs(np.trace(r).real - 8) < 1e-9
        with pytest.raises(RuntimeError, match="did not converge"):
            covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, math.radians(1e-300))


def test_leakage_identity_and_range():
    assert dft_domain_leakage(CovarianceModel(np.eye(16)[0])) == 0.0
    model = covariance_for(32, 1 / math.sqrt(3), 0.0, SIGMA5)
    leak = dft_domain_leakage(model)
    assert 0.0 <= leak <= 1.0


def test_leakage_decreases_with_array_size():
    leaks = [
        dft_domain_leakage(covariance_for(m, 1 / math.sqrt(3), 0.0, SIGMA5))
        for m in (16, 64, 256, 1024)
    ]
    for small, big in zip(leaks, leaks[1:]):
        assert big <= 1.1 * small  # monotone within quadrature slack


def test_isotropy_deviation_decreases_with_array_size():
    devs = []
    for m in (16, 64, 256, 1024):
        prec = precoder_for_code("qostbc", m)
        devs.append(isotropy_deviation(prec, covariance_for(m, 1 / math.sqrt(3), 0.0, SIGMA5)))
    for small, big in zip(devs, devs[1:]):
        assert big <= 1.1 * small
    assert devs[-1] <= 0.5 * devs[0]


def test_isotropy_identity_covariance_is_exact():
    for m in (16, 64, 256):
        prec = precoder_for_code("qostbc", m)
        assert isotropy_deviation(prec, CovarianceModel(np.eye(m)[0])) < 1e-10


def test_draw_channel_statistics():
    """A channel drawn as factor @ w, w i.i.d. unit circular Gaussian, has
    covariance factor @ factor^H, which must equal R."""
    model = covariance_for(8, 1 / math.sqrt(3), 0.2, SIGMA5)
    factor = covariance_factor(model.matrix)
    assert np.abs(factor @ factor.conj().T - model.matrix).max() < 1e-10


def test_effective_channel_energy_approaches_unit():
    rng = np.random.default_rng(5)
    energies = {}
    for m in (16, 256):
        prec = precoder_for_code("qostbc", m)
        model = covariance_for(m, 1 / math.sqrt(3), 0.0, SIGMA5)
        sigma = prec.w_matrix.conj().T @ model.matrix @ prec.w_matrix
        energies[m] = float(np.trace(sigma).real)
    assert abs(energies[256] - 1.0) < abs(energies[16] - 1.0) + 0.05
    assert energies[256] == pytest.approx(1.0, abs=0.1)


def _direct_lag_sums(n_antennas, n_panels, pas_specs):
    """Reference lags by the direct sum r_k = sum_j wp_j exp(-i 2 pi d k
    sin theta_j) on the composite rule, one column per (theta0, sigma) of
    the Gaussian PAS; the phase matrix is shared and built a block of lags
    at a time."""
    theta, weights = _composite_nodes(n_panels)
    wp = np.stack(
        [weights * np.exp(-((theta - t0) ** 2) / (2.0 * s**2)) for t0, s in pas_specs], axis=1
    )
    wp /= wp.sum(axis=0)
    k = np.arange(n_antennas)
    out = np.empty((n_antennas, len(pas_specs)), dtype=complex)
    for lo in range(0, n_antennas, 64):
        phase = np.outer(k[lo : lo + 64], np.sin(theta))
        out[lo : lo + 64] = np.exp(-2j * np.pi * DEFAULT_SPACING_RATIO * phase) @ wp
    return out


# 8 panels is below the bandwidth 2 pi d (M - 1) of every M here, 1024 is
# above it for M = 16 and 64 and below it for M = 1024.
@pytest.mark.parametrize("n_panels", [8, 1024])
@pytest.mark.parametrize("n_antennas", [16, 64, 1024])
def test_nufft_lags_match_direct_sum(n_antennas, n_panels):
    pas_specs = [
        (math.radians(theta0), math.radians(sigma))
        for theta0 in (-60, -45, 0, 30, 60)
        for sigma in (1, 5, 20)
    ]
    want = _direct_lag_sums(n_antennas, n_panels, pas_specs)
    for col, pas in enumerate(pas_specs):
        got = _lag_quadrature(n_antennas, DEFAULT_SPACING_RATIO, *pas, n_panels)
        assert np.abs(got - want[:, col]).max() <= 1e-12, pas


def test_projection_matches_dense_product():
    """``project`` against the dense W^H R W, on a random W and on the ZC
    precoders of N = 1, 2, 4 and 8 ports, and ``isotropy_deviation``,
    which goes through ``project``, against the dense ||N W^H R W - I||."""
    model = covariance_for(40, DEFAULT_SPACING_RATIO, -0.3, SIGMA5)
    w = np.random.default_rng(2).standard_normal((40, 3, 2)).view(complex)[..., 0]
    np.testing.assert_allclose(
        model.project(w), w.conj().T @ model.matrix @ w, rtol=0, atol=1e-13
    )
    for m in (64, 1024):
        model = covariance_for(m, DEFAULT_SPACING_RATIO, -0.3, SIGMA5)
        for kind, n_ports in (("single", None), ("ac", None), ("qostbc", None), ("nze_tc", 8)):
            prec = precoder_for_code(kind, m, n_ports=n_ports)
            w = prec.w_matrix
            dense = w.conj().T @ model.matrix @ w
            np.testing.assert_allclose(model.project(w), dense, rtol=0, atol=1e-12)
            want = np.linalg.norm(prec.n_ports * dense - np.eye(prec.n_ports))
            assert abs(isotropy_deviation(prec, model) - want) <= 1e-12, (kind, m)


def test_model_rejects_a_matrix():
    model = covariance_for(8, DEFAULT_SPACING_RATIO, 0.2, SIGMA5)
    with pytest.raises(ValueError):
        CovarianceModel(model.matrix)
    with pytest.raises(ValueError):
        CovarianceModel(np.diag(np.arange(1.0, 5.0)))
