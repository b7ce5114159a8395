import math

import numpy as np
import pytest

from omnistbc.sequences import (
    is_cazac,
    is_constant_amplitude,
    lift,
    periodic_autocorr,
    unitary_dft,
    zc_generate,
)


def test_zc_even_length_example():
    seq = zc_generate(4, 1)
    expected = 0.5 * np.array([1, np.exp(1j * np.pi / 4), -1, np.exp(1j * np.pi / 4)])
    np.testing.assert_allclose(seq, expected, atol=1e-15)


def test_zc_odd_length_example():
    seq = zc_generate(3, 1)
    expected = np.array([1, np.exp(2j * np.pi / 3), 1]) / np.sqrt(3)
    np.testing.assert_allclose(seq, expected, atol=1e-15)


def test_zc_rejects_bad_roots():
    with pytest.raises(ValueError, match="not coprime"):
        zc_generate(4, 2)  # gcd(2, 4) = 2
    with pytest.raises(ValueError, match="outside"):
        zc_generate(8, 0)
    with pytest.raises(ValueError, match="outside"):
        zc_generate(8, 8)


def test_autocorr_all_ones():
    v = np.ones(4) / 2.0
    assert periodic_autocorr(v, 1) == pytest.approx(1.0)


def test_autocorr_shift_range():
    v = zc_generate(8, 3)
    with pytest.raises(ValueError):
        periodic_autocorr(v, 8)
    with pytest.raises(ValueError):
        periodic_autocorr(v, -1)


def test_unitary_dft_impulse_and_constant():
    np.testing.assert_allclose(unitary_dft([1, 0, 0, 0]), 0.5 * np.ones(4), atol=1e-15)
    np.testing.assert_allclose(unitary_dft([1, 1, 1, 1]), [2, 0, 0, 0], atol=1e-14)


def test_unitary_dft_zc_magnitudes():
    spectrum = unitary_dft(zc_generate(4, 1))
    np.testing.assert_allclose(np.abs(spectrum), 0.5, atol=1e-12)


def test_unitary_dft_parseval_and_roundtrip():
    rng = np.random.default_rng(3)
    for _ in range(20):
        v = rng.standard_normal(17) + 1j * rng.standard_normal(17)
        f = unitary_dft(v)
        assert np.linalg.norm(f) == pytest.approx(np.linalg.norm(v), abs=1e-12)
        np.testing.assert_allclose(unitary_dft(np.fft.ifft(v) * math.sqrt(v.size)), v, atol=1e-12)


def test_unitary_dft_empty_errors():
    with pytest.raises(ValueError):
        unitary_dft([])


def test_is_constant_amplitude():
    assert is_constant_amplitude([1, 1j, -1])
    assert not is_constant_amplitude([1, 0])
    assert is_constant_amplitude(zc_generate(16, 1))
    assert not is_constant_amplitude([0, 0, 0])


def test_is_cazac():
    assert is_cazac(zc_generate(16, 1))
    assert not is_cazac([1, 0, 0, 0])  # flat spectrum but impulsive in time
    assert not is_cazac([1, 1, 1, 1])  # impulsive spectrum


def test_lift_examples():
    c4 = zc_generate(4, 1)
    assert is_cazac(lift(c4, [1, -1]))
    assert not is_cazac(lift(c4, [1, 0]))
    c16 = zc_generate(16, 1)
    assert is_cazac(lift(c16, [1, 1j, -1, -1j]))


def test_lift_divisibility():
    with pytest.raises(ValueError):
        lift(zc_generate(8, 1), [1, 1, 1])  # 8 is not a multiple of 9
    with pytest.raises(ValueError):
        lift(zc_generate(8, 1), [1, -1, 1, -1])  # 8 is not a multiple of 16
