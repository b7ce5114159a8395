import math

import numpy as np
import pytest

from omnistbc.constellations import (
    Constellation,
    make_pam,
    make_psk,
    make_rotated_qam,
    min_sq_distance,
)
from omnistbc.kinds import REGISTRY, build_code


def test_psk_points():
    """The PSK set is the phase-ordered e^{j 2 pi l / order}, and word b sits
    at phase index l = rank(b), the inverse Gray code of b."""
    bpsk = make_psk(2)
    np.testing.assert_allclose(bpsk.points, [1, -1], atol=1e-15)
    qpsk = make_psk(4)
    np.testing.assert_allclose(qpsk.points, [1, 1j, -1j, -1], atol=1e-15)
    psk8 = make_psk(8)
    assert psk8.points[0] == pytest.approx(1.0)
    np.testing.assert_allclose(np.abs(psk8.points), 1.0, atol=1e-15)
    by_phase = psk8.points[np.argsort(np.angle(psk8.points) % (2 * np.pi))]
    np.testing.assert_allclose(by_phase, np.exp(2j * np.pi * np.arange(8) / 8), atol=1e-15)
    rank = [0, 1, 3, 2, 7, 6, 4, 5]
    np.testing.assert_allclose(psk8.points, np.exp(2j * np.pi * np.array(rank) / 8), atol=1e-15)
    with pytest.raises(ValueError):
        make_psk(1)
    with pytest.raises(ValueError):
        make_psk(3)  # no integral bit labels


def test_pam_normalization():
    bpsk_like = make_pam(1)
    np.testing.assert_allclose(sorted(bpsk_like.points.real), [-1, 1])
    assert min_sq_distance(bpsk_like) == pytest.approx(4.0)
    assert min_sq_distance(make_pam(2)) == pytest.approx(4 / 5)
    pam8 = make_pam(4)
    assert min_sq_distance(pam8) == pytest.approx(4 / 21)
    assert np.mean(np.abs(pam8.points) ** 2) == pytest.approx(1.0, abs=1e-12)


def test_rotated_qam():
    qpsk = make_rotated_qam(4, 0.0)
    assert min_sq_distance(qpsk) == pytest.approx(2.0)
    assert sorted(np.round(p, 6) for p in np.abs(qpsk.points)) == [1.0] * 4
    rot = make_rotated_qam(4, math.atan(2) / 2)
    np.testing.assert_allclose(np.abs(rot.points), np.abs(qpsk.points), atol=1e-12)
    qam16 = make_rotated_qam(16)
    assert min_sq_distance(qam16) == pytest.approx(4 / 10)
    assert np.mean(np.abs(qam16.points) ** 2) == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        make_rotated_qam(8)  # not a square constellation


def test_rotation_rules():
    """QOSTBC rotates the second symbol of each pair by pi / 2^R, and CIOD
    rotates its QAM by theta = atan(2)/2, where sin(2 theta) = 2/sqrt(5)."""
    for rate, angle in ((1, math.pi / 2), (2, math.pi / 4)):
        plain, _, rotated, _ = build_code("qostbc", rate).constellations
        np.testing.assert_allclose(rotated.points, plain.points * np.exp(1j * angle), atol=1e-15)
    qam = build_code("ciod", 1).constellations[0]
    turns = qam.points / make_rotated_qam(4, 0.0).points
    np.testing.assert_allclose(np.abs(turns), 1.0, atol=1e-12)
    theta = float(np.angle(turns[0]))
    np.testing.assert_allclose(np.angle(turns), theta, atol=1e-12)
    assert theta == pytest.approx(math.atan(2) / 2)
    assert math.sin(2 * theta) == pytest.approx(2 / math.sqrt(5))
    assert math.cos(2 * theta) == pytest.approx(1 / math.sqrt(5))


def test_min_sq_distance():
    assert min_sq_distance(make_psk(2)) == pytest.approx(4.0)
    assert min_sq_distance(make_psk(4)) == pytest.approx(2.0)


def _flips(a, b):
    return bin(int(a) ^ int(b)).count("1")


def test_gray_adjacency_pam_psk():
    for c in (make_pam(2), make_pam(4)):
        words = np.argsort(c.points.real)  # ascending levels
        for a, b in zip(words, words[1:]):
            assert _flips(a, b) == 1
    for c in (make_psk(4), make_psk(8)):
        words = np.argsort(np.angle(c.points) % (2 * np.pi))  # ascending phases
        for k in range(len(words)):
            assert _flips(words[k], words[(k + 1) % len(words)]) == 1


def test_qam_per_axis_gray():
    qam = make_rotated_qam(16, 0.0)
    # stepping one level along either axis flips exactly one bit
    step = math.sqrt(min_sq_distance(qam))
    for i in range(16):
        for j in range(16):
            delta = qam.points[i] - qam.points[j]
            if abs(abs(delta) - step) < 1e-12 and (
                abs(delta.real) < 1e-12 or abs(delta.imag) < 1e-12
            ):
                assert _flips(i, j) == 1


def test_all_points_distinct():
    for c in (make_psk(8), make_pam(4), make_rotated_qam(16, 0.1)):
        pts = np.round(c.points, 12)
        assert len(set(zip(pts.real, pts.imag))) == 2**c.bit_width


def _registry_alphabets():
    """Every distinct alphabet the registry builds at rates 1 to 3."""
    seen = {}
    for kind, spec in REGISTRY.items():
        for rate in (1, 2, 3):
            code = build_code(kind, rate, 6, 3) if spec.n_ports is None else build_code(kind, rate)
            for c in code.constellations:
                seen.setdefault(c.points.tobytes(), pytest.param(c, id=f"{kind}-R{rate}"))
    return list(seen.values())


@pytest.mark.parametrize("constellation", _registry_alphabets())
def test_gray_neighbours(constellation):
    """Geometric neighbours carry words that differ in exactly one bit:
    adjacent PAM levels, adjacent PSK phases and QAM neighbours along one
    axis are the point pairs at the minimum distance."""
    pts = constellation.points
    d2 = np.abs(pts[:, None] - pts[None, :]) ** 2
    near = np.argwhere(np.triu(np.isclose(d2, min_sq_distance(constellation), rtol=1e-9), 1))
    assert len(near) >= len(pts) - 1
    for a, b in near:
        assert _flips(a, b) == 1, (a, b)


def test_ostbc_distance_balance():
    """The PAM set and the smallest slaved QPSK ring share one minimum distance."""
    for rate in (1, 2):
        pam, _, qpsk = build_code("ostbc", rate).constellations
        d_pam = min_sq_distance(pam)
        amp = np.abs(pam.points[:, None] + 1j * pam.points[None, :]).min()
        ring = Constellation(amp * qpsk.points)
        assert min_sq_distance(ring) == pytest.approx(d_pam, rel=1e-12)
