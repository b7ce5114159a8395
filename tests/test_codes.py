import pickle

import numpy as np
import pytest

from helpers import payloads

from omnistbc import codes, kinds
from omnistbc.config import ConfigError, SimConfig
from omnistbc.constellations import make_psk
from omnistbc.kinds import REGISTRY, build_code, spec_for
from omnistbc.sequences import hadamard2


def test_ac_examples():
    np.testing.assert_allclose(kinds.AC_TABLE.build([1, 1]), [[1, 1], [1, -1]])
    np.testing.assert_allclose(kinds.AC_TABLE.build([1, 1j]), [[1, -1j], [1j, -1]])


def test_ostbc_example():
    np.testing.assert_allclose(
        kinds.OSTBC_TABLE.build([1j, 2, 3j]),
        [[1j, 2, -3j, 0], [2, 1j, 0, -3j], [3j, 0, 1j, -2], [0, 3j, -2, 1j]],
    )


def test_qostbc_example():
    np.testing.assert_allclose(
        kinds.QOSTBC_TABLE.build([1, 1j, 2, 2j]),
        [[1, -1j, 2, -2j], [1j, -1, 2j, -2], [2, -2j, 1, -1j], [2j, -2, 1j, -1]],
    )


def test_ciod_example():
    np.testing.assert_allclose(
        kinds.CIOD_TABLE.build([1, 1j, 2, 2j]),
        [[1, -1j, 0, 0], [1j, -1, 0, 0], [0, 0, 2, -2j], [0, 0, 2j, -2]],
    )


def test_ac_orthogonality():
    psk = make_psk(4)
    for a in psk.points:
        for b in psk.points:
            x = kinds.AC_TABLE.build([a, b])
            np.testing.assert_allclose(x @ x.conj().T, 2 * np.eye(2), atol=1e-12)


def test_ostbc_example_r1():
    # payload with x1 = 1, x2 = j, x3' = 1 exists; check the Gram identity
    code = build_code("ostbc", 1)
    for x in code.encode(payloads(4)):
        np.testing.assert_allclose(x @ x.conj().T, 4 * np.eye(4), atol=1e-12)
    assert code.n_slots == 4 and code.nbits == 4  # 1 bps/Hz at R=1


@pytest.mark.parametrize("rate", [1, 2])
def test_ostbc_amplitude_constraint(rate):
    for m in build_code("ostbc", rate).encode(payloads(4 * rate)):
        x1, x2, x3 = m[0, 0], m[1, 0], m[2, 0]
        a = abs(x3)
        for v in (x1 + x2, x1 - x2, np.conj(x1) + x2, np.conj(x1) - x2):
            assert abs(v) == pytest.approx(a, abs=1e-12)
        energy = abs(x1) ** 2 + abs(x2) ** 2 + abs(x3) ** 2
        np.testing.assert_allclose(m @ m.conj().T, energy * np.eye(4), atol=1e-12)


def test_ostbc_bit_length_error():
    with pytest.raises(ValueError):
        codes.encode_ostbc(np.zeros(5, dtype=int), 1)


def test_legacy_encoder_refuses_non_integral_rate():
    """The payload encoders pass the rate on unchanged, so ``build_code``
    refuses 2.7 rather than truncating it to the R = 2 code."""
    with pytest.raises(ValueError, match="^rate: must be a positive integer, got 2.7"):
        codes.encode_qostbc(np.zeros(8, dtype=int), 2.7)


@pytest.mark.parametrize("rate", [1, 2])
def test_qostbc_structure(rate):
    for m in build_code("qostbc", rate).encode(payloads(4 * rate)):
        np.testing.assert_allclose(np.abs(m), 1.0, atol=1e-12)
        # rows 3,4 repeat rows 1,2 with the symbol pairs swapped
        np.testing.assert_allclose(m[2:, :2], m[:2, 2:], atol=1e-12)
        np.testing.assert_allclose(m[2:, 2:], m[:2, :2], atol=1e-12)


def test_qostbc_r1_constellations():
    seen1, seen3 = set(), set()
    for m in build_code("qostbc", 1).encode(payloads(4)):
        seen1.add(complex(np.round(m[0, 0], 9)))
        seen3.add(complex(np.round(m[2, 0], 9)))
    assert seen1 == {1 + 0j, -1 + 0j}
    assert seen3 == {1j, -1j}  # rotated partner of the jointly decoded pair


@pytest.mark.parametrize("rate", [1, 2])
def test_ciod_modulus_conditions(rate):
    for m in build_code("ciod", rate).encode(payloads(4 * rate)):
        x1, x2 = m[0, 0], m[1, 0]
        x3, x4 = m[2, 2], m[3, 2]
        assert abs(x1 + x2) == pytest.approx(abs(x1 - x2), abs=1e-12)
        assert abs(x3 + x4) == pytest.approx(abs(x3 - x4), abs=1e-12)


def test_ciod_interleave_example():
    x1, x2, x3, x4 = build_code("ciod", 1).premap(np.array([1.0 + 0.5j, 1.0 - 0.25j]))
    assert x1 == pytest.approx(np.sqrt(2) * (1 + 1j))
    assert x2 == pytest.approx(np.sqrt(2) * (1 - 1j))
    assert abs(x1 + x2) == pytest.approx(abs(x1 - x2))


def test_ciod_precoded_form_has_no_zeros():
    v = np.kron(hadamard2(), hadamard2())
    for m in build_code("ciod", 1).encode(payloads(4)):
        assert np.min(np.abs(v @ m)) > 0.1


def test_nze_tc_small_example():
    x = np.array([1.0 + 0j, 1j])
    cw = kinds.nze_tc_tables(2, 2).build(x)
    # tall (time x ports) columns: [x1, x2, -x1] and [x2, x1, x2]
    np.testing.assert_allclose(cw.T[:, 0], [1, 1j, -1])
    np.testing.assert_allclose(cw.T[:, 1], [1j, 1, 1j])


def test_nze_tc_dimensions_and_rate():
    rng = np.random.default_rng(0)
    x = np.exp(2j * np.pi * rng.random(30))
    cw = kinds.nze_tc_tables(30, 8).build(x)
    assert cw.shape == (8, 37)
    assert np.all(np.abs(cw) > 1 - 1e-9)


def test_nze_oac_dimensions_and_rate():
    rng = np.random.default_rng(1)
    x = np.exp(2j * np.pi * rng.random(30))
    cw = kinds.nze_oac_tables(30, 8).build(x)
    assert cw.shape == (8, 36)
    assert np.all(np.abs(cw) > 1 - 1e-9)


def test_nze_oac_small_no_zero_entries():
    rng = np.random.default_rng(2)
    x = np.exp(2j * np.pi * rng.random(2))
    cw = kinds.nze_oac_tables(2, 3).build(x)
    assert cw.shape == (3, 4)
    assert np.all(np.abs(cw) > 1 - 1e-9)


def test_nze_errors():
    with pytest.raises(ValueError):
        kinds.nze_tc_tables(2, 3)  # L < N
    with pytest.raises(ValueError):
        kinds.nze_oac_tables(3, 3)  # odd L
    with pytest.raises(ValueError):
        codes.encode_nze_tc(np.array([1.0, 0.0]), 2, 2)  # zero-amplitude symbol


@pytest.mark.parametrize("kind", ["nze_tc", "nze_oac"])
def test_nze_rules_accept_exactly_what_builds(kind):
    """Config validation and the code builder state one shape rule: on the
    grid L <= 32, N <= 12, inside every size bound, validation accepts
    (L, N) exactly when the code builds."""
    for nze_l in range(33):
        for nze_n in range(13):
            cfg = SimConfig(code=kind, nze_l=nze_l, nze_n=nze_n, m=4 * max(nze_n, 1) ** 2)
            try:
                build_code(kind, 1, nze_l, nze_n)
            except ValueError:
                built = False
            else:
                built = True
            try:
                cfg.validate()
            except ConfigError:
                accepted = False
            else:
                accepted = True
            assert accepted == built, (nze_l, nze_n)


def _layered_nze(kind, n_sym, n_ports):
    """Reference NZE construction as masked layers (valid, idx, sign, conj),
    each ports x time, whose entries are summed: NZE-TC is one Toeplitz
    layer.  Odd-port NZE-OAC reads the odd-position symbols (even index)
    through the Toeplitz columns, conjugating even columns, and the
    even-position symbols through the reversed columns with alternating
    negation and conjugation; the even-port code is carved out of the
    (N + 1)-port one by dropping its first column and first and last rows."""
    n_tall = n_ports + (kind == "nze_oac" and n_ports % 2 == 0)
    m = np.arange(n_sym + n_tall - 1)[:, None]
    n = np.arange(n_tall)[None, :]
    idx = (m - n) % n_sym
    sign = np.where(m >= n + n_sym, -1.0, 1.0)
    if kind == "nze_tc":
        layers = [(np.ones(idx.shape, bool), idx, sign, np.zeros(idx.shape, bool))]
    else:
        cols = np.arange(n_tall)
        src = n_tall - 1 - cols
        idx_e = idx[:, src]
        layers = [
            (idx % 2 == 0, idx, sign, np.broadcast_to(cols % 2 == 0, idx.shape)),
            (
                idx_e % 2 == 1,
                idx_e,
                sign[:, src] * np.where(cols % 2 == 0, 1.0, -1.0),
                np.broadcast_to(cols % 2 == 1, idx.shape),
            ),
        ]
        if n_tall != n_ports:
            layers = [tuple(a[1:-1, 1:] for a in layer) for layer in layers]
    return [tuple(a.T for a in layer) for layer in layers]


def _layered_build(layers, x):
    out = np.zeros(x.shape[:-1] + layers[0][0].shape, dtype=complex)
    for valid, idx, sign, conj in layers:
        vals = x[..., idx]
        vals = np.where(conj, np.conjugate(vals), vals)
        out += np.where(valid, sign * vals, 0.0)
    return out


@pytest.mark.parametrize("kind,n_shapes", [("nze_tc", 414), ("nze_oac", 215)])
def test_nze_tables_match_layered_reference(kind, n_shapes):
    """On every buildable shape with L <= 40, N <= 12, exactly one reference
    layer is active at each entry, and the gather table gives the layered
    codewords bit for bit at R = 1 and 2."""
    make_tables = getattr(kinds, f"{kind}_tables")
    rng = np.random.default_rng(11)
    shapes = 0
    for nze_l in range(41):
        for nze_n in range(13):
            try:
                tables = make_tables(nze_l, nze_n)
            except ValueError:
                continue
            layers = _layered_nze(kind, nze_l, nze_n)
            assert (sum(valid.astype(int) for valid, *_ in layers) == 1).all(), (nze_l, nze_n)
            for rate in (1, 2):
                x = make_psk(2**rate).points[rng.integers(0, 2**rate, (8, nze_l))]
                got, want = tables.build(x), _layered_build(layers, x)
                assert got.shape == want.shape, (nze_l, nze_n)
                assert got.tobytes() == want.tobytes(), (nze_l, nze_n, rate)
            shapes += 1
    assert shapes == n_shapes


# Every registered kind; single and ac at R = 2 (QPSK), the others at R = 1.
ENERGY_RATES = {"single": 2, "ac": 2}
NZE_8_4 = {"nze_l": 8, "nze_n": 4}


REGISTRY_CASES = [
    (kind, ENERGY_RATES.get(kind, 1), {} if spec.n_ports else NZE_8_4)
    for kind, spec in REGISTRY.items()
]


@pytest.mark.parametrize("kind,rate,extra", REGISTRY_CASES)
def test_code_pickles(kind, rate, extra):
    """Pool workers get the Code by pickle; the copy must encode and decode
    a random batch exactly as the original does."""
    code = build_code(kind, rate, **extra)
    copy = pickle.loads(pickle.dumps(code))
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2, (256, code.nbits))
    x = code.encode(bits)
    np.testing.assert_array_equal(copy.encode(bits), x)
    g = rng.standard_normal((256, code.n_ports)) + 1j * rng.standard_normal((256, code.n_ports))
    y = np.einsum("bn,bnt->bt", g, x) + 0.5 * rng.standard_normal(x.shape[::2])
    want_bits, want_aborted = code.decode(y, g)
    got_bits, got_aborted = copy.decode(y, g)
    np.testing.assert_array_equal(got_bits, want_bits)
    np.testing.assert_array_equal(got_aborted, want_aborted)


def _symbol(constellation, bits):
    """The point that carries ``bits``: its bit word, read MSB first, is its index."""
    return complex(constellation.points[int("".join(str(int(b)) for b in bits), 2)])


def _symbols(constellation, bits, width):
    return [_symbol(constellation, bits[k : k + width]) for k in range(0, len(bits), width)]


def _psk_symbols(bits, rate):
    return _symbols(make_psk(2**rate), bits, rate)


def _scalar_ostbc(bits, rate):
    pam, _, qpsk = build_code("ostbc", rate).constellations
    k = 2 * rate - 1
    x1 = _symbol(pam, bits[:k])
    x2 = 1j * _symbol(pam, bits[k : 2 * k])
    x3 = abs(x1 + x2) * _symbol(qpsk, bits[2 * k :])
    return kinds.OSTBC_TABLE.build([x1, x2, x3])


def _scalar_qostbc(bits, rate):
    psk, _, rotated, _ = build_code("qostbc", rate).constellations
    half = 2 * rate
    return kinds.QOSTBC_TABLE.build(
        _symbols(psk, bits[:half], rate) + _symbols(rotated, bits[half:], rate)
    )


def _scalar_ciod(bits, rate):
    qam = build_code("ciod", rate).constellations[0]
    s1, s2 = _symbols(qam, bits, 2 * rate)
    # The coordinate interleaver, restated so the reference stays independent.
    r = np.sqrt(2.0)
    x = [r * (1 + 1j) * s1.real, r * (1 - 1j) * s2.real]
    x += [r * (1 + 1j) * s1.imag, r * (1j - 1) * s2.imag]
    return kinds.CIOD_TABLE.build(x)


# Symbol-by-symbol encoders (bits, R, L, N) -> X that look each symbol up by its
# bit word: the reference for the registry's batched encoders.
SCALAR_ENCODERS = {
    "single": lambda b, r, l, n: np.array([_psk_symbols(b, r)]),
    "ac": lambda b, r, l, n: kinds.AC_TABLE.build(_psk_symbols(b, r)),
    "ostbc": lambda b, r, l, n: _scalar_ostbc(b, r),
    "qostbc": lambda b, r, l, n: _scalar_qostbc(b, r),
    "ciod": lambda b, r, l, n: _scalar_ciod(b, r),
    "nze_tc": lambda b, r, l, n: kinds.nze_tc_tables(l, n).build(_psk_symbols(b, r)),
    "nze_oac": lambda b, r, l, n: kinds.nze_oac_tables(l, n).build(_psk_symbols(b, r)),
}


def test_batch_encoders_match_scalar():
    rng = np.random.default_rng(5)
    for kind in REGISTRY:
        for rate, nze_l, nze_n in ((1, 6, 3), (2, 8, 4)):
            code = build_code(kind, rate, nze_l, nze_n)
            bits = rng.integers(0, 2, (32, code.nbits))
            batch = code.encode(bits)
            for row, payload in zip(batch, bits):
                expected = SCALAR_ENCODERS[kind](payload, rate, nze_l, nze_n)
                np.testing.assert_allclose(row, expected, atol=1e-12)


@pytest.mark.parametrize(
    "kind,rate,nze_l,nze_n,nbits,n_slots,rate_bps",
    [
        ("single", 1, 0, 0, 1, 1, 1.0),
        ("single", 3, 0, 0, 3, 1, 3.0),
        ("ac", 1, 0, 0, 2, 2, 1.0),
        ("ac", 2, 0, 0, 4, 2, 2.0),
        ("ostbc", 1, 0, 0, 4, 4, 1.0),
        ("ostbc", 2, 0, 0, 8, 4, 2.0),
        ("qostbc", 3, 0, 0, 12, 4, 3.0),
        ("ciod", 2, 0, 0, 8, 4, 2.0),
        ("nze_tc", 1, 30, 8, 30, 37, 30 / 37),
        ("nze_tc", 2, 12, 4, 24, 15, 24 / 15),
        ("nze_oac", 1, 30, 8, 30, 36, 30 / 36),
        ("nze_oac", 1, 4, 3, 4, 6, 4 / 6),
        ("nze_oac", 1, 4, 4, 4, 6, 4 / 6),
        ("nze_oac", 2, 12, 4, 24, 14, 24 / 14),
    ],
)
def test_code_shapes(kind, rate, nze_l, nze_n, nbits, n_slots, rate_bps):
    """Bits per codeword and slots feed the CSV's rate_bps and the RNG draws."""
    code = build_code(kind, rate, nze_l, nze_n)
    assert (code.nbits, code.n_slots) == (nbits, n_slots)
    assert code.rate_bps == pytest.approx(rate_bps)
    assert spec_for(kind).ports(nze_n) == code.n_ports


@pytest.mark.parametrize(
    "kind,rate,message",
    [
        ("ostbc", 5, "rate: 5 is above 4,"),
        ("ac", 0, "rate: must be a positive integer, got 0"),
        ("qostbc", 2.7, "rate: must be a positive integer, got 2.7"),
        ("ac", True, "rate: must be a positive integer, got True"),
    ],
)
def test_build_code_enforces_rate_rule(kind, rate, message):
    """A rate the kind refuses fails in ``build_code`` itself, with the
    message of ``rate_problem``, before a 2^20-candidate OSTBC search or
    any other array is allocated.  A non-integral rate is refused, not
    truncated to a smaller code."""
    with pytest.raises(ValueError, match=f"^{message}"):
        build_code(kind, rate)


def test_build_code_takes_numpy_integer_rate():
    """Any integral rate but a bool builds: a NumPy integer gives the code
    of the equal int."""
    code = build_code("qostbc", np.int64(2))
    assert (code.nbits, code.rate_bps) == (8, 2.0)
