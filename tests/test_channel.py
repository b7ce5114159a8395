import math
import tracemalloc
import warnings

import numpy as np
import pytest

from helpers import hermitian_toeplitz

from omnistbc import channel
from omnistbc.channel import (
    DEFAULT_SPACING_RATIO,
    CovarianceModel,
    covariance_factor,
    covariance_for,
    dft_domain_leakage,
    isotropy_deviation,
)
from omnistbc.channel import (
    _composite_nodes,
    _lag_energy,
    _lag_quadrature,
    _lag_sum,
    _sin_grid_rule,
)
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
    with pytest.raises(ValueError, match="spacing"):
        covariance_for(8, 1e300, 0.0, SIGMA5)
    with pytest.raises(ValueError, match="angle spread"):
        covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, math.nan)


@pytest.mark.parametrize("theta0_deg", np.linspace(-60, 60, 13))
@pytest.mark.parametrize("sigma_deg", [2.0, 5.0, 10.0])
def test_covariance_invariants_grid(theta0_deg, sigma_deg):
    model = covariance_for(32, 1 / math.sqrt(3), math.radians(theta0_deg), math.radians(sigma_deg))
    r = hermitian_toeplitz(model.lags)
    assert np.abs(r - r.conj().T).max() < 1e-12
    assert np.abs(np.diagonal(r) - 1).max() < 1e-9
    assert abs(np.trace(r).real - 32) < 1e-9
    assert np.linalg.eigvalsh(r).min() > -1e-9
    # Toeplitz: constant along diagonals
    assert np.abs(r[1:, 1:] - r[:-1, :-1]).max() < 1e-9


def test_covariance_point_source_limit():
    r = hermitian_toeplitz(covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, 1e-4).lags)
    assert np.abs(r - np.ones((8, 8))).max() < 1e-4


def test_narrow_spread_quadrature():
    """A rule whose nodes all miss the spread has not converged: a
    0.001-degree spread converges on finer rules without a floating-point
    warning on the way, and one far below the finest rule's node spacing
    raises."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, math.radians(1e-3))
        r = hermitian_toeplitz(model.lags)
        assert abs(np.trace(r).real - 8) < 1e-9
        with pytest.raises(RuntimeError, match="did not converge"):
            covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, math.radians(1e-300))


def test_leakage_identity_and_range():
    assert dft_domain_leakage(CovarianceModel(np.eye(16)[0])) == 0.0
    model = covariance_for(32, 1 / math.sqrt(3), 0.0, SIGMA5)
    leak = dft_domain_leakage(model)
    assert 0.0 <= leak <= 1.0


@pytest.mark.parametrize("m", [16, 64, 1024])
def test_leakage_matches_dense_beamspace(m):
    """The lag-domain leakage equals the off-diagonal share of F R F^H
    formed from the dense R."""
    model = covariance_for(m, DEFAULT_SPACING_RATIO, 0.3, SIGMA5)
    r = hermitian_toeplitz(model.lags)
    beam = np.fft.fft(np.fft.ifft(r, axis=1), axis=0)  # F R F^H, unitary pair
    total = float(np.sum(np.abs(beam) ** 2))
    dense = (total - float(np.sum(np.abs(np.diagonal(beam)) ** 2))) / total
    assert dft_domain_leakage(model) == pytest.approx(dense, rel=0, abs=1e-14)


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
        w = precoder_for_code("qostbc", m).w_matrix
        devs.append(isotropy_deviation(w, covariance_for(m, 1 / math.sqrt(3), 0.0, SIGMA5)))
    for small, big in zip(devs, devs[1:]):
        assert big <= 1.1 * small
    assert devs[-1] <= 0.5 * devs[0]


def test_isotropy_identity_covariance_is_exact():
    for m in (16, 64, 256):
        w = precoder_for_code("qostbc", m).w_matrix
        assert isotropy_deviation(w, CovarianceModel(np.eye(m)[0])) < 1e-10


def test_draw_channel_statistics():
    """A channel drawn as factor @ w, w i.i.d. unit circular Gaussian, has
    covariance factor @ factor^H, which must equal R."""
    model = covariance_for(8, 1 / math.sqrt(3), 0.2, SIGMA5)
    r = hermitian_toeplitz(model.lags)
    factor = covariance_factor(r)
    assert np.abs(factor @ factor.conj().T - r).max() < 1e-10


def test_effective_channel_energy_approaches_unit():
    rng = np.random.default_rng(5)
    energies = {}
    for m in (16, 256):
        prec = precoder_for_code("qostbc", m)
        model = covariance_for(m, 1 / math.sqrt(3), 0.0, SIGMA5)
        sigma = prec.w_matrix.conj().T @ hermitian_toeplitz(model.lags) @ prec.w_matrix
        energies[m] = float(np.trace(sigma).real)
    assert abs(energies[256] - 1.0) < abs(energies[16] - 1.0) + 0.05
    assert energies[256] == pytest.approx(1.0, abs=0.1)


def _direct_lag_sums(n_antennas, n_panels, spacing_ratio, pas_specs):
    """Reference lags by the direct sum r_k = sum_j wp_j exp(-i k x_j) on the
    composite rule's nodes x_j = 2 pi d sin theta_j, one column per
    (theta0, sigma) of the Gaussian PAS.

    Each phase k x_j is exact, so the sum is correct to roundoff at any M:
    x_j splits as hi + lo with hi on 39 bits, k hi is then an exact double
    for k < 2^13 that ``exp`` reduces correctly, and the rounding of k lo is
    far below 2^-52.  Rounding k x_j itself would err by 2^-53 |k x_j|, 1e-12
    at M = 4096, the size of what the test bounds.  The phase matrix is
    shared and built a block of lags at a time.
    """
    assert n_antennas <= 1 << 13
    theta, weights = _composite_nodes(n_panels)
    wp = np.stack(
        [weights * np.exp(-((theta - t0) ** 2) / (2.0 * s**2)) for t0, s in pas_specs], axis=1
    )
    wp /= wp.sum(axis=0)
    x = 2.0 * np.pi * spacing_ratio * np.sin(theta)
    mantissa, exponent = np.frexp(x)
    hi = np.ldexp(np.round(np.ldexp(mantissa, 39)), exponent - 39)
    lo = x - hi
    k = np.arange(n_antennas)
    out = np.empty((n_antennas, len(pas_specs)), dtype=complex)
    for lo_k in range(0, n_antennas, 64):
        block = k[lo_k : lo_k + 64]
        phase = np.exp(-1j * np.outer(block, hi)) * np.exp(-1j * np.outer(block, lo))
        out[lo_k : lo_k + 64] = phase @ wp
    return out


def _assert_lags_match_direct_sum(n_antennas, n_panels, spacing_ratio):
    pas_specs = [
        (math.radians(theta0), math.radians(sigma))
        for theta0 in (-60, -45, 0, 30, 60)
        for sigma in (1, 5, 20)
    ]
    want = _direct_lag_sums(n_antennas, n_panels, spacing_ratio, pas_specs)
    for col, pas in enumerate(pas_specs):
        got = _lag_quadrature(n_antennas, spacing_ratio, *pas, n_panels)
        assert np.abs(got - want[:, col]).max() <= 1e-12, pas


# 8 panels is below the bandwidth 2 pi d (M - 1) of every M here, 1024 is
# above it for M = 16 and 64 and below it for M = 1024.  At M <= 3 the
# NUFFT's extended grid of 2M + 31 points spans several 2M-point periods,
# so its fold adds many extended bins onto each grid point.
@pytest.mark.parametrize("n_panels", [8, 1024])
@pytest.mark.parametrize("n_antennas", [1, 2, 3, 16, 64, 1024])
def test_nufft_lags_match_direct_sum(n_antennas, n_panels):
    _assert_lags_match_direct_sum(n_antennas, n_panels, DEFAULT_SPACING_RATIO)


@pytest.mark.parametrize("n_panels", [8, 64])
def test_nufft_lags_match_direct_sum_massive_array(n_panels):
    """M = 4096, the paper's massive-array regime, where a few panels keep
    the direct sum cheap."""
    _assert_lags_match_direct_sum(4096, n_panels, DEFAULT_SPACING_RATIO)


@pytest.mark.parametrize("n_panels", [8, 1024])
@pytest.mark.parametrize("n_antennas", [1, 2, 3, 16, 64, 1024])
def test_nufft_lags_match_direct_sum_wrapping_nodes(n_antennas, n_panels):
    """At 2.5 wavelengths the nodes x = 5 pi sin(theta) span five periods of
    the 2 pi grid, so nodes far apart land on the same grid points."""
    _assert_lags_match_direct_sum(n_antennas, n_panels, 2.5)


def _full_ladder_lags(n_antennas, spacing_ratio, theta0, sigma):
    """Reference ladder: doubling from 8 panels, every node of every rule
    through the NUFFT, to the same 1e-8 agreement test."""
    prev = None
    n_panels = 8
    while n_panels <= 1 << 16:
        theta, weights = _composite_nodes(n_panels)
        with np.errstate(divide="ignore", over="ignore"):
            wp = weights * np.exp(-((theta - theta0) ** 2) / (2.0 * sigma**2))
        cur = None
        if wp.sum() > 0.0:
            x = 2.0 * np.pi * spacing_ratio * np.sin(theta)
            cur = _lag_sum(x, wp / wp.sum(), n_antennas)
        if cur is not None and prev is not None:
            if math.sqrt(_lag_energy(cur - prev)) <= 1e-8 * math.sqrt(_lag_energy(cur)):
                return cur
        prev = cur
        n_panels *= 2
    raise AssertionError("reference ladder did not converge")


WORKLOAD_SETUPS = [
    (m, math.radians(theta0), SIGMA5) for m in (64, 72, 1024) for theta0 in (-45, 0, 10, 30)
]
ENDFIRE_GRID = [
    (m, math.radians(theta0), math.radians(sigma))
    for m in (16, 256, 4096)
    for theta0 in (-89, -85, -75, 60, 80, 88, 89)
    for sigma in (0.5, 1.0, 5.0)
]


def _interior(theta0, sigma):
    """Whether the PAS's live support lies strictly inside (-pi/2, pi/2)."""
    return abs(theta0) + channel._PAS_REACH * sigma < math.pi / 2


@pytest.mark.parametrize("n_antennas", [64, 72, 1024])
def test_lags_match_full_ladder_at_workload_setups(n_antennas):
    """At the pinned CSVs' and the benchmark's set-ups the Gauss-Legendre
    ladder converges on the reference's own rule, and the dead panels move
    no lag by more than roundoff."""
    for theta0 in (-45, 0, 10, 30):
        pas = (math.radians(theta0), SIGMA5)
        got = channel._gauss_legendre_lags(n_antennas, DEFAULT_SPACING_RATIO, *pas)
        want = _full_ladder_lags(n_antennas, DEFAULT_SPACING_RATIO, *pas)
        assert np.abs(got - want).max() <= 1e-15, theta0


@pytest.mark.parametrize("n_antennas", [16, 256, 4096])
def test_lags_match_full_ladder_toward_endfire(n_antennas):
    """Toward endfire the live support turns slowly, so the ladder may start
    above the rule the reference converges on and stop on a finer one."""
    for theta0 in (-89, -85, -75, 60, 80, 88, 89):
        for sigma in (0.5, 1.0, 5.0):
            pas = (math.radians(theta0), math.radians(sigma))
            got = covariance_for(n_antennas, DEFAULT_SPACING_RATIO, *pas).lags
            want = _full_ladder_lags(n_antennas, DEFAULT_SPACING_RATIO, *pas)
            assert np.abs(got - want).max() <= 1e-12, pas


def test_ladder_starts_at_nyquist_and_spreads_live_panels(monkeypatch):
    """At M = 1024, d = 1/sqrt(3), 30 degrees and a 5-degree spread the
    fastest live phase asks for 256 panels, so the Gauss-Legendre ladder
    evaluates the 256-, 512- and 1024-panel rules only, and the last
    spreads at most 55% of its 16384 nodes."""
    rules, nodes = [], []

    def quadrature(*args):
        rules.append(args[-1])
        return _lag_quadrature(*args)

    def lag_sum(x, c, m_len):
        nodes.append(x.size)
        return _lag_sum(x, c, m_len)

    monkeypatch.setattr(channel, "_lag_quadrature", quadrature)
    monkeypatch.setattr(channel, "_lag_sum", lag_sum)
    channel._gauss_legendre_lags(1024, DEFAULT_SPACING_RATIO, math.radians(30.0), SIGMA5)
    assert rules == [256, 512, 1024]
    assert len(nodes) == 3
    assert nodes[-1] <= 0.55 * 1024 * 16


@pytest.mark.parametrize("n_antennas,theta0_deg", [(1 << 19, 0.0), (1 << 18, 60.0)])
def test_ladder_with_one_rule_in_budget_refuses_before_any_rule(n_antennas, theta0_deg, monkeypatch):
    """At the default spacing and spread, M = 2^19 at broadside and M = 2^18
    at 60 degrees (whose spread reaches endfire) start the Gauss-Legendre
    ladder at its finest rule, which leaves no second rule to check it: the
    ladder refuses without evaluating a rule."""
    rules = []

    def quadrature(*args):
        rules.append(args[-1])
        return _lag_quadrature(*args)

    monkeypatch.setattr(channel, "_lag_quadrature", quadrature)
    with pytest.raises(RuntimeError, match="did not converge within 65536 panels"):
        covariance_for(n_antennas, DEFAULT_SPACING_RATIO, math.radians(theta0_deg), SIGMA5)
    assert rules == []


def _no_gauss_legendre(monkeypatch):
    def refuse(*args):
        raise AssertionError("the Gauss-Legendre ladder ran")

    monkeypatch.setattr(channel, "_gauss_legendre_lags", refuse)
    monkeypatch.setattr(channel, "_lag_sum", refuse)


def test_sin_grid_lags_match_full_ladder(monkeypatch):
    """Every workload set-up and every interior case of the endfire grid
    takes the sin-grid FFT rule and lands within 1e-12 of the reference
    Gauss-Legendre ladder."""
    cases = WORKLOAD_SETUPS + [case for case in ENDFIRE_GRID if _interior(*case[1:])]
    assert len(cases) == 12 + 3 * 7
    wants = [_full_ladder_lags(m, DEFAULT_SPACING_RATIO, *pas) for m, *pas in cases]
    _no_gauss_legendre(monkeypatch)
    for (m, *pas), want in zip(cases, wants):
        got = covariance_for(m, DEFAULT_SPACING_RATIO, *pas).lags
        assert np.abs(got - want).max() <= 1e-12, (m, pas)


@pytest.mark.parametrize("theta0", [-60, 0, 60])
def test_sin_grid_rule_matches_exact_phase_sum(theta0):
    """One sin-grid rule at M = 4096 against the direct sum over its own
    samples, r_k = sum_j f_j exp(-2 pi i (k j mod P) / P) / sum_j f_j.  The
    phase is reduced exactly in integers and read from a table of the P
    roots of unity, so the sum is correct to roundoff; the FFT's error
    measures at most 1.0e-15 here."""
    m_len = 4096
    sigma = math.radians(2.0)
    n_fft = 4 * m_len
    j, f = channel._sin_grid_samples(DEFAULT_SPACING_RATIO, math.radians(theta0), sigma, n_fft)
    got = _sin_grid_rule(m_len, DEFAULT_SPACING_RATIO, math.radians(theta0), sigma, n_fft)
    roots = np.exp(-2j * np.pi * np.arange(n_fft) / n_fft)
    want = np.empty(m_len, dtype=complex)
    for lo in range(0, m_len, 256):
        k = np.arange(lo, lo + 256)
        want[lo : lo + 256] = roots[np.outer(k, j) % n_fft] @ f
    want /= f.sum()
    assert np.abs(got - want).max() <= 2e-15


def test_sin_grid_ladder_runs_two_rules(monkeypatch):
    """At M = 1024, d = 1/sqrt(3), 30 degrees and a 5-degree spread the
    sin-grid ladder starts at P = 2M, which already resolves the PAS, and
    stops on the next rule; the NUFFT never runs."""
    rules = []

    def rule(*args):
        rules.append(args[-1])
        return _sin_grid_rule(*args)

    _no_gauss_legendre(monkeypatch)
    monkeypatch.setattr(channel, "_sin_grid_rule", rule)
    covariance_for(1024, DEFAULT_SPACING_RATIO, math.radians(30.0), SIGMA5)
    assert rules == [2048, 4096]


def test_wide_spacing_at_broadside_decorrelates():
    """At 1000 wavelengths the fastest lag's phase, 2 pi d (M - 1) sin(theta),
    spans about 5e5 rad of the support, past the Gauss-Legendre ladder's
    finest rule.  The sin-grid ladder resolves it on grids of 174k and 348k
    samples: the PAS's transform at 2 pi d k is below roundoff for every
    k >= 1, so R is the identity."""
    lags = covariance_for(64, 1000.0, 0.0, SIGMA5).lags
    assert lags[0] == 1.0
    assert np.abs(lags[1:]).max() <= 1e-12
    with pytest.raises(RuntimeError, match="did not converge"):
        channel._gauss_legendre_lags(64, 1000.0, 0.0, SIGMA5)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        out = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_sin_grid_memory_is_bounded(monkeypatch):
    """The largest rule the budget allows is P = 2^20 FFT points: at M = 8,
    broadside and a 3e-5 rad spread the ladder runs P = 2^19 and 2^20 and
    peaks under 20 MiB of traced memory, the folded samples and their half
    spectrum at 8 MiB each.  Past the budget the ladder allocates no grid
    and covariance_for takes the Gauss-Legendre ladder: a 1e-5 rad spread
    would start at P = 2^21, and 1e5 wavelengths would take 2.2e6 samples,
    which the Gauss-Legendre ladder cannot resolve either."""
    rules = []

    def rule(*args):
        rules.append(args[-1])
        return _sin_grid_rule(*args)

    monkeypatch.setattr(channel, "_sin_grid_rule", rule)
    lags, peak = _traced_peak(channel._sin_grid_lags, 8, DEFAULT_SPACING_RATIO, 0.0, 3e-5)
    assert rules == [1 << 19, 1 << 20]
    assert lags is not None and peak < 20 << 20

    rules.clear()
    lags, peak = _traced_peak(channel._sin_grid_lags, 8, DEFAULT_SPACING_RATIO, 0.0, 1e-5)
    assert lags is None and rules == [] and peak < 1 << 20
    np.testing.assert_array_equal(
        covariance_for(8, DEFAULT_SPACING_RATIO, 0.0, 1e-5).lags,
        channel._gauss_legendre_lags(8, DEFAULT_SPACING_RATIO, 0.0, 1e-5),
    )

    lags, peak = _traced_peak(channel._sin_grid_lags, 8, 1e5, 0.0, SIGMA5)
    assert lags is None and peak < 1 << 20
    with pytest.raises(RuntimeError, match="did not converge"):
        covariance_for(8, 1e5, 0.0, SIGMA5)


def test_projection_matches_dense_product():
    """``project`` against the dense W^H R W, on a random W and on the ZC
    precoders of N = 1, 2, 4 and 8 ports, and ``isotropy_deviation``,
    which goes through ``project``, against the dense ||N W^H R W - I||."""
    model = covariance_for(40, DEFAULT_SPACING_RATIO, -0.3, SIGMA5)
    w = np.random.default_rng(2).standard_normal((40, 3, 2)).view(complex)[..., 0]
    np.testing.assert_allclose(
        model.project(w), w.conj().T @ hermitian_toeplitz(model.lags) @ w, rtol=0, atol=1e-13
    )
    for m in (64, 1024):
        model = covariance_for(m, DEFAULT_SPACING_RATIO, -0.3, SIGMA5)
        for kind, n_ports in (("single", None), ("ac", None), ("qostbc", None), ("nze_tc", 8)):
            w = precoder_for_code(kind, m, n_ports=n_ports).w_matrix
            dense = w.conj().T @ hermitian_toeplitz(model.lags) @ w
            np.testing.assert_allclose(model.project(w), dense, rtol=0, atol=1e-12)
            want = np.linalg.norm(w.shape[1] * dense - np.eye(w.shape[1]))
            assert abs(isotropy_deviation(w, model) - want) <= 1e-12, (kind, m)


@pytest.mark.parametrize("m", [1, 2, 7, 64])
def test_matrix_is_toeplitz_of_lags(m):
    """R[i, j] = r_{i-j} for i >= j and conj(r_{j-i}) above the diagonal,
    Hermitian when r_0 is real, read-only and a new array on each access."""
    rng = np.random.default_rng(m)
    lags = rng.standard_normal(m) + 1j * rng.standard_normal(m)
    np.testing.assert_array_equal(CovarianceModel(lags).matrix, hermitian_toeplitz(lags))

    lags[0] = lags[0].real
    model = CovarianceModel(lags)
    r = model.matrix
    np.testing.assert_array_equal(r, r.conj().T)
    assert not r.flags.writeable
    with pytest.raises(ValueError):
        r[0, 0] = 0.0
    again = model.matrix
    assert again is not r
    assert not np.shares_memory(again, r)
    assert not np.shares_memory(r, model.lags)


def test_model_rejects_a_matrix():
    model = covariance_for(8, DEFAULT_SPACING_RATIO, 0.2, SIGMA5)
    with pytest.raises(ValueError):
        CovarianceModel(hermitian_toeplitz(model.lags))
    with pytest.raises(ValueError):
        CovarianceModel(np.diag(np.arange(1.0, 5.0)))


def test_doubling_ladder_returns_first_agreeing_pair():
    """The ladder returns the later of the first two successive rules that
    agree, a rule that returns None agrees with nothing, and a start level
    that leaves no room for a second rule runs no rule."""
    v, w = np.ones(4, dtype=complex), np.full(4, 2.0 + 0j)
    for values, want, ran in [
        ({2: v, 4: w, 8: w, 16: w}, 8, [2, 4, 8]),
        ({2: v, 4: None, 8: v, 16: v}, 16, [2, 4, 8, 16]),
        ({2: None, 4: None, 8: None, 16: None}, None, [2, 4, 8, 16]),
    ]:
        calls = []

        def rule(level):
            calls.append(level)
            return None if values[level] is None else values[level].copy()

        got = channel._doubling_ladder(rule, 2, 16)
        assert calls == ran
        assert (got is None) if want is None else np.array_equal(got, values[want])
    calls.clear()
    assert channel._doubling_ladder(rule, 16, 16) is None and calls == []
