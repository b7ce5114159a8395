import math

import numpy as np
import pytest

from omnistbc.constellations import (
    ciod_rotation,
    make_pam,
    make_psk,
    make_rotated_qam,
    min_sq_distance,
    qostbc_rotation,
)


def test_psk_points():
    bpsk = make_psk(2)
    np.testing.assert_allclose(bpsk.points, [1, -1], atol=1e-15)
    qpsk = make_psk(4)
    np.testing.assert_allclose(qpsk.points, [1, 1j, -1, -1j], atol=1e-15)
    psk8 = make_psk(8)
    assert psk8.points[0] == pytest.approx(1.0)
    np.testing.assert_allclose(np.abs(psk8.points), 1.0, atol=1e-15)
    with pytest.raises(ValueError):
        make_psk(1)


def test_pam_normalization():
    bpsk_like = make_pam(1)
    np.testing.assert_allclose(sorted(bpsk_like.points.real), [-1, 1])
    assert bpsk_like.scale == pytest.approx(1.0)
    assert make_pam(2).scale == pytest.approx(1 / math.sqrt(5))
    pam8 = make_pam(4)
    assert pam8.scale == pytest.approx(1 / math.sqrt(21))
    assert min_sq_distance(pam8) == pytest.approx(4 / 21)
    assert np.mean(np.abs(pam8.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_rotated_qam():
    qpsk = make_rotated_qam(4, 0.0)
    assert qpsk.scale == pytest.approx(1 / math.sqrt(2))
    assert sorted(np.round(p, 6) for p in np.abs(qpsk.points)) == [1.0] * 4
    rot = make_rotated_qam(4, math.atan(2) / 2)
    np.testing.assert_allclose(np.abs(rot.points), np.abs(qpsk.points), atol=1e-12)
    qam16 = make_rotated_qam(16)
    assert qam16.scale == pytest.approx(1 / math.sqrt(10))
    assert np.mean(np.abs(qam16.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        make_rotated_qam(8)  # not a square constellation


def test_rotation_rules():
    assert qostbc_rotation(2) == pytest.approx(math.pi / 2)
    assert qostbc_rotation(4) == pytest.approx(math.pi / 4)
    assert qostbc_rotation(3) == pytest.approx(math.pi / 6)
    theta = ciod_rotation()
    assert theta == pytest.approx(math.atan(2) / 2)
    assert math.sin(2 * theta) == pytest.approx(2 / math.sqrt(5))
    assert math.cos(2 * theta) == pytest.approx(1 / math.sqrt(5))


def test_min_sq_distance():
    assert min_sq_distance(make_psk(2)) == pytest.approx(4.0)
    assert min_sq_distance(make_psk(4)) == pytest.approx(2.0)


@pytest.mark.parametrize(
    "constellation",
    [make_psk(2), make_psk(4), make_psk(8), make_pam(2), make_pam(4), make_rotated_qam(16, 0.3)],
)
def test_bits_round_trip(constellation):
    for i in range(constellation.order):
        bits = constellation.bits_of_index(i)
        assert constellation.index_of_bits(bits) == i


def test_gray_adjacency_pam_psk():
    for c in (make_pam(2), make_pam(4)):
        labels = [c.bits_of_index(i) for i in range(c.order)]
        for a, b in zip(labels, labels[1:]):
            assert int(np.sum(a != b)) == 1
    for c in (make_psk(4), make_psk(8)):
        labels = [c.bits_of_index(i) for i in range(c.order)]
        for k in range(c.order):
            assert int(np.sum(labels[k] != labels[(k + 1) % c.order])) == 1


def test_qam_per_axis_gray():
    qam = make_rotated_qam(16, 0.0)
    # stepping one level along either axis flips exactly one bit
    for i in range(16):
        for j in range(16):
            delta = qam.points[i] - qam.points[j]
            step = 2 * qam.scale
            if abs(abs(delta) - step) < 1e-12 and (
                abs(delta.real) < 1e-12 or abs(delta.imag) < 1e-12
            ):
                flips = int(np.sum(qam.bits_of_index(i) != qam.bits_of_index(j)))
                assert flips == 1


def test_all_points_distinct():
    for c in (make_psk(8), make_pam(4), make_rotated_qam(16, 0.1)):
        pts = np.round(c.points, 12)
        assert len(set(zip(pts.real, pts.imag))) == c.order


def test_ostbc_distance_balance():
    """The PAM set and the smallest slaved QPSK ring share one minimum distance."""
    from omnistbc.codes import ostbc_constellations
    from omnistbc.constellations import Constellation

    for rate in (1, 2):
        pam, qpsk = ostbc_constellations(rate)
        d_pam = min_sq_distance(pam)
        amp = np.abs(pam.points[:, None] + 1j * pam.points[None, :]).min()
        ring = Constellation("PSK", 4, amp * qpsk.points)
        assert min_sq_distance(ring) == pytest.approx(d_pam, rel=1e-12)
