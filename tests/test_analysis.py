import math

import numpy as np
import pytest

from helpers import feed_x1_into_x2, whole_codebook_gain

from omnistbc import kinds
from omnistbc.analysis import (
    BerPoint,
    coding_gain,
    fit_diversity_order,
    omni_flatness,
    pep_upper_bound,
)
from omnistbc.constellations import Constellation, make_psk
from omnistbc.kinds import REGISTRY, Code, build_code, spec_for
from omnistbc.receivers import AcDecoder, QostbcDecoder, SingleDecoder


def test_coding_gain_reference_values():
    assert coding_gain(build_code("qostbc", 1)) == pytest.approx(4.0, abs=1e-9)
    assert coding_gain(build_code("ciod", 1)) == pytest.approx(8 / math.sqrt(5), abs=1e-9)
    assert coding_gain(build_code("ostbc", 1)) == pytest.approx(4.0, abs=1e-9)
    assert coding_gain(build_code("ostbc", 2)) == pytest.approx(4 / 21, abs=1e-9)


def test_coding_gain_ac_bpsk():
    code = Code([(make_psk(2), 2)], kinds.AC_TABLE, AcDecoder)
    assert coding_gain(code) == pytest.approx(4.0, abs=1e-12)


def test_coding_gain_unit_phase_invariance():
    """Rotating every QOSTBC symbol by one phase multiplies each slot of a
    difference by a unit phase (conjugated slots by its inverse), which
    leaves every difference Gram unchanged."""
    code = build_code("qostbc", 1)
    turn = np.exp(0.37j)
    rotated = [(Constellation(c.points * turn), 1) for c in code.constellations]
    rotated_code = Code(rotated, kinds.QOSTBC_TABLE, QostbcDecoder)
    assert coding_gain(rotated_code) == pytest.approx(coding_gain(code), rel=1e-12)


def _rank_one_code():
    """A BPSK symbol on one port and one slot of a 2 x 2 codeword: its two
    codewords differ by a rank-1 matrix."""
    return Code([(make_psk(2), 1)], kinds._table("x1 0", " 0 0"), SingleDecoder)


def test_coding_gain_rank_deficient_returns_zero():
    assert coding_gain(_rank_one_code()) == 0.0


def test_coding_gain_pair_cap():
    # One group of 2048 candidates: 2048 x 2047 ordered pairs.
    with pytest.raises(ValueError):
        coding_gain(build_code("single", 11))


def _oracle_cases():
    """Every fixed-port kind at each rate whose codebook has at most 1024
    codewords."""
    for kind, spec in REGISTRY.items():
        if spec.n_ports is None:
            continue
        rate = 1
        while build_code(kind, rate).nbits <= 10:
            yield pytest.param(kind, rate, id=f"{kind}-R{rate}")
            rate += 1


@pytest.mark.parametrize("kind,rate", list(_oracle_cases()))
def test_coding_gain_equals_whole_codebook_oracle(kind, rate):
    """The gain over the decoupled groups equals the minimum over every
    pair of the whole codebook."""
    code = build_code(kind, rate)
    assert coding_gain(code) == pytest.approx(whole_codebook_gain(code), rel=1e-12, abs=1e-12)


def test_coding_gain_coupling_premap_equals_whole_codebook_oracle():
    """A pre-map that couples both AC symbols into one group: the gain over
    that one joint sub-codebook is the whole codebook's."""
    code = Code([(make_psk(4), 2)], kinds.AC_TABLE, AcDecoder, feed_x1_into_x2)
    assert code.groups == ((0, 1),)
    assert coding_gain(code) == pytest.approx(whole_codebook_gain(code), rel=1e-12, abs=1e-12)


def test_qostbc_ciod_gains_cross_past_4_bps_by_enumeration():
    """The abstract's crossing, enumerated: QOSTBC's gain is at least
    CIOD's at 4 bps/Hz and below it at 5, and at R = 5 (1024 candidates
    per group) each equals its closed form."""
    at = {(k, r): coding_gain(build_code(k, r)) for k in ("qostbc", "ciod") for r in (4, 5)}
    for kind in ("qostbc", "ciod"):
        assert at[kind, 5] == pytest.approx(spec_for(kind).closed_form_gain(5), rel=0, abs=1e-9)
    assert at["qostbc", 4] >= at["ciod", 4]
    assert at["ciod", 5] > at["qostbc", 5]


def test_pep_bound_against_direct_enumeration():
    """Independent oracle: accumulate the bound pair by pair from scratch."""
    code = Code([(make_psk(2), 2)], kinds.AC_TABLE, AcDecoder)
    book = code.codebook()[1]
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
    assert pep_upper_bound(code, sigma_n2, 1) == pytest.approx(expected, rel=1e-12)


def test_pep_bound_rank_deficient_pair_named():
    with pytest.raises(ValueError, match=r"pair \(0, 1\)"):
        pep_upper_bound(_rank_one_code(), 0.1)
    for sigma_n2 in (0.0, -0.1):
        with pytest.raises(ValueError, match="noise variance must be positive"):
            pep_upper_bound(build_code("ac", 1), sigma_n2)


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
    with pytest.raises(ValueError, match="empty angle grid"):
        omni_flatness([])
