import numpy as np
import pytest

from omnistbc import codes
from omnistbc.constellations import make_psk
from omnistbc.precoding import (
    avg_receive_power,
    build_precoder,
    check_requirements,
    precoder_for_code,
    transmit,
)
from omnistbc.kinds import spec_for
from omnistbc.sequences import hadamard2, lift, zc_generate


def test_preset_shapes():
    assert spec_for("single").preset_v().shape == (1, 1)
    np.testing.assert_allclose(spec_for("ac").preset_v(), np.eye(2))
    np.testing.assert_allclose(spec_for("qostbc").preset_v(), np.eye(4))
    np.testing.assert_allclose(spec_for("ostbc").preset_v(), np.kron(np.eye(2), hadamard2()))
    np.testing.assert_allclose(spec_for("ciod").preset_v(), np.kron(hadamard2(), hadamard2()))
    np.testing.assert_allclose(spec_for("nze_tc").preset_v(8), np.eye(8))
    with pytest.raises(ValueError):
        spec_for("huffman").preset_v()
    with pytest.raises(ValueError):
        spec_for("nze_oac").preset_v()  # port count required


def test_build_precoder_structure():
    v = np.eye(2, dtype=complex)
    prec = build_precoder(4, 1, v)
    c = zc_generate(4, 1)
    for m in range(4):
        expected = np.zeros(2, dtype=complex)
        expected[m % 2] = c[m]
        np.testing.assert_allclose(prec.w_matrix[m], expected, atol=1e-15)


def test_build_precoder_single_stream_is_zc():
    prec = precoder_for_code("single", 8)
    np.testing.assert_allclose(prec.w_matrix[:, 0], zc_generate(8, 1))


def test_build_precoder_errors():
    with pytest.raises(ValueError):
        build_precoder(6, 1, np.eye(2))  # 6 not a multiple of 4
    with pytest.raises(ValueError):
        build_precoder(4, 1, np.array([[1, 1], [0, 1]], dtype=complex))
    with pytest.raises(ValueError, match="square"):
        build_precoder(4, 1, np.eye(2)[:, :1])


def test_transmit_dimension_check():
    prec = precoder_for_code("ac", 4)
    with pytest.raises(ValueError):
        transmit(prec, codes.encode_qostbc(np.zeros(4, dtype=int), 1).matrix)
    np.testing.assert_allclose(transmit(prec, np.zeros((2, 2))), np.zeros((4, 2)))


def test_transmit_identity_lift_columns():
    prec = precoder_for_code("ac", 8)
    cw = codes.AC_TABLE.build([1j, -1])
    signal = transmit(prec, cw)
    c = zc_generate(8, 1)
    for t in range(2):
        np.testing.assert_allclose(signal[:, t], lift(c, cw[:, t]), atol=1e-12)


def test_raw_ostbc_fails_per_antenna():
    prec = build_precoder(16, 1, np.eye(4))
    signal = transmit(prec, codes.encode_ostbc(np.array([0, 1, 1, 0]), 1).matrix)
    omni, per_antenna = check_requirements(signal)
    assert not per_antenna


def test_avg_receive_power_invariance():
    prec = precoder_for_code("ac", 16)
    psk = make_psk(4)
    x = np.array([psk.points[1], psk.points[2]])
    lam_eye = np.ones(16)
    assert avg_receive_power(prec, x, lam_eye) == pytest.approx(1.0, abs=1e-12)
    rng = np.random.default_rng(8)
    values = []
    for _ in range(100):
        lam = rng.random(16)
        lam *= 16 / lam.sum()
        values.append(avg_receive_power(prec, x, lam))
    assert max(values) - min(values) < 1e-9

    # a non-constant-amplitude input reacts to the direction weighting
    bad = np.array([1.0 + 0j, 0.0])
    lam1 = np.zeros(16)
    lam1[0] = 16
    lam2 = np.zeros(16)
    lam2[1] = 16
    assert abs(
        avg_receive_power(prec, bad, lam1) - avg_receive_power(prec, bad, lam2)
    ) > 1e-6


def test_avg_receive_power_validation():
    prec = precoder_for_code("ac", 16)
    x = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        avg_receive_power(prec, x, -np.ones(16))
    with pytest.raises(ValueError):
        avg_receive_power(prec, x, np.ones(16) * 2)
