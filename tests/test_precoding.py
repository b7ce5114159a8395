import numpy as np
import pytest

from omnistbc.kinds import REGISTRY, build_code, spec_for
from omnistbc.precoding import check_requirements, prbs_phase_vector, precoder_for_code
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
    """W[m, j] = c[m] V[m mod N, j] exactly, for every kind, on ZC phases
    of two roots and sizes and on a pseudo-random phase vector."""
    cases = [(64, 7, None), (1024, 1, None), (64, 1, prbs_phase_vector(64, 5))]
    for kind in REGISTRY:
        v = spec_for(kind).preset_v(4)
        for m_len, gamma, phase in cases:
            w = precoder_for_code(kind, m_len, gamma, n_ports=4, phase_vector=phase).w_matrix
            c = zc_generate(m_len, gamma) if phase is None else phase
            rows = v[np.arange(m_len) % v.shape[0]]
            assert np.array_equal(w, c[:, None] * rows), (kind, m_len, gamma, phase is None)


def test_build_precoder_single_stream_is_zc():
    prec = precoder_for_code("single", 8)
    np.testing.assert_allclose(prec.w_matrix[:, 0], zc_generate(8, 1))


def test_build_precoder_errors():
    with pytest.raises(ValueError, match="multiple of N\\^2 = 4"):
        precoder_for_code("ac", 6)
    with pytest.raises(ValueError, match="phase vector length"):
        precoder_for_code("ac", 8, phase_vector=prbs_phase_vector(4, 5))


def test_transmit_identity_lift_columns():
    """W X = lift(c, V X): precoding lifts the ports' signal onto c."""
    c = zc_generate(64, 1)
    for kind in ("ac", "ciod"):
        w = precoder_for_code(kind, 64).w_matrix
        v = spec_for(kind).preset_v()
        for x in build_code(kind, 1).codebook()[1]:
            np.testing.assert_allclose(w @ x, lift(c, v @ x), rtol=0, atol=1e-15)


def test_raw_ostbc_fails_per_antenna():
    w = precoder_for_code("qostbc", 16).w_matrix  # V = I, no OSTBC pre-map
    signal = w @ build_code("ostbc", 1).encode(np.array([[0, 1, 1, 0]]))[0]
    omni, per_antenna = check_requirements(signal)
    assert not per_antenna
