import math

import numpy as np
import pytest

from helpers import codebook, payloads

from omnistbc import codes
from omnistbc.analysis import (
    BerPoint,
    coding_gain,
    fit_diversity_order,
    omni_flatness,
    pep_upper_bound,
)
from omnistbc.constellations import make_psk
from omnistbc.kinds import spec_for


def mats(kind, rate):
    return [m for _, m in codebook(kind, rate)]


def test_coding_gain_reference_values():
    assert coding_gain(mats("qostbc", 1)) == pytest.approx(4.0, abs=1e-9)
    assert coding_gain(mats("ciod", 1)) == pytest.approx(8 / math.sqrt(5), abs=1e-9)
    assert coding_gain(mats("ostbc", 1)) == pytest.approx(4.0, abs=1e-9)
    assert coding_gain(mats("ostbc", 2)) == pytest.approx(4 / 21, abs=1e-9)


def test_coding_gain_ac_bpsk():
    psk = make_psk(2)
    book = [codes.AC_TABLE.build([a, b]) for a in psk.points for b in psk.points]
    assert coding_gain(book) == pytest.approx(4.0, abs=1e-12)


def test_coding_gain_unit_phase_invariance():
    book = mats("qostbc", 1)
    rotated = [np.exp(0.37j) * m for m in book]
    assert coding_gain(rotated) == pytest.approx(coding_gain(book), rel=1e-12)


def test_coding_gain_rank_deficient_returns_zero():
    # two codewords whose difference has rank 1
    a = np.zeros((2, 2), dtype=complex)
    b = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    assert coding_gain([a, b]) == 0.0


def test_coding_gain_input_validation():
    with pytest.raises(ValueError):
        coding_gain([np.eye(2)])


def test_coding_gain_pair_cap():
    book = [np.eye(2) * k for k in range(1, 1100)]
    with pytest.raises(ValueError):
        coding_gain(book)


def _qostbc_difference_sets(order):
    """Achievable pair differences for one jointly decoded symbol pair."""
    plain = np.exp(2j * np.pi * np.arange(order) / order)
    rotated = plain * np.exp(1j * math.pi / order)
    d_plain = (plain[:, None] - plain[None, :]).ravel()
    d_rot = (rotated[:, None] - rotated[None, :]).ravel()
    pairs = set()
    for da in d_plain:
        for db in d_rot:
            pairs.add((round(abs(da + db) ** 2, 12), round(abs(da - db) ** 2, 12)))
    return np.array(sorted(pairs))


def test_qostbc_closed_form_matches_difference_enumeration_l8():
    """L = 8 exceeds the full-pair cap; enumerate over the difference sets.

    The block structure factors the determinant into quadratic terms of
    (d1 + d3, d2 + d4) and (d1 - d3, d2 - d4), so the achievable set is the
    product of two independent per-pair difference sets.
    """
    dset = _qostbc_difference_sets(8)
    p = dset[:, 0][:, None] + dset[:, 0][None, :]
    r = dset[:, 1][:, None] + dset[:, 1][None, :]
    prod = p * r
    nz = prod[(dset[:, 0][:, None] + dset[:, 1][:, None] + dset[:, 0][None, :] + dset[:, 1][None, :]) > 1e-12]
    gain = math.sqrt(float(nz.min()))
    assert gain == pytest.approx(spec_for("qostbc").closed_form_gain(3), abs=1e-9)


def test_pep_bound_against_direct_enumeration():
    """Independent oracle: accumulate the bound pair by pair from scratch."""
    psk = make_psk(2)
    book = [codes.AC_TABLE.build([a, b]) for a in psk.points for b in psk.points]
    sigma_n2 = 0.1
    total = 0.0
    for i, xi in enumerate(book):
        for j, xj in enumerate(book):
            if i == j:
                continue
            delta = np.asarray(xi) - np.asarray(xj)
            lam = np.linalg.eigvalsh(delta @ delta.conj().T / 2)
            total += float(np.prod(1.0 / lam))
    expected = (4 * sigma_n2) ** 2 * total
    assert pep_upper_bound(book, 2, sigma_n2, 1) == pytest.approx(expected, rel=1e-12)


def test_pep_bound_rank_deficient_pair_named():
    a = np.zeros((2, 2), dtype=complex)
    b = np.diag([1.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
        pep_upper_bound([a, b], 2, 0.1)


def _points(snrs, bers, errors=1000):
    return [
        BerPoint(snr_db=s, ber=b, trials=10**6, bit_errors=errors) for s, b in zip(snrs, bers)
    ]


def test_fit_diversity_order_power_laws():
    snrs = [10.0, 14.0, 18.0, 22.0]
    lin = [10 ** (s / 10) for s in snrs]
    assert fit_diversity_order(_points(snrs, [0.3 / r**2 for r in lin]), (10, 22)) == pytest.approx(2.0, abs=1e-6)
    assert fit_diversity_order(_points(snrs, [0.3 / r for r in lin]), (10, 22)) == pytest.approx(1.0, abs=1e-6)
    assert fit_diversity_order(_points(snrs, [0.01] * 4), (10, 22)) == pytest.approx(0.0, abs=1e-9)


def test_fit_diversity_order_filters():
    pts = _points([10.0, 14.0], [1e-2, 1e-3])
    with pytest.raises(ValueError):
        fit_diversity_order(pts, (0, 5))  # nothing inside the window
    starved = _points([10.0, 14.0], [1e-2, 1e-3], errors=10)
    with pytest.raises(ValueError):
        fit_diversity_order(starved, (10, 14))  # too few accumulated errors


def test_omni_flatness():
    assert omni_flatness([(0, 1e-3), (10, 1e-3)]) == pytest.approx(1.0)
    assert omni_flatness([(0, 1e-3), (10, 2e-3), (20, 1e-3)]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        omni_flatness([(0, 0.0), (10, 1e-3)])
