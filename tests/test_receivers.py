import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import codebook, exhaustive_ml, feed_x1_into_x2, payloads

from omnistbc import kinds, receivers
from omnistbc.constellations import make_psk, make_rotated_qam
from omnistbc.kinds import REGISTRY, Code, GatherTable, build_code
from omnistbc.receivers import (
    AcDecoder,
    CiodDecoder,
    NzeZfDecoder,
    OstbcDecoder,
    QostbcDecoder,
    SingleDecoder,
)

ENUMERABLE = [kind for kind, spec in REGISTRY.items() if spec.n_ports is not None]


def channels(rng, n_trials, n_ports):
    """A batch of draws of the asymptotic effective channel, row convention."""
    z = rng.standard_normal((n_trials, 2, n_ports))
    return (z[:, 0] + 1j * z[:, 1]) / np.sqrt(2.0 * n_ports)


def observe(matrices, g, sigma_n2=0.0, rng=None):
    """Observations y = g X (+ noise) for codewords (B, N, T), channels (B, N)."""
    y = np.einsum("bn,bnt->bt", g, matrices)
    if sigma_n2 > 0:
        w = rng.standard_normal((2,) + y.shape)
        y = y + (w[0] + 1j * w[1]) * np.sqrt(sigma_n2 / 2.0)
    return y


def test_single_decoder_roundtrip():
    psk = make_psk(4)
    rng = np.random.default_rng(2)
    code = build_code("single", 2)
    bits = np.repeat(payloads(2), 20, axis=0)
    x = code.encode(bits)
    g = channels(rng, len(bits), 1)
    y = observe(x, g)
    _, aborted = code.decode(y[None], g)
    idx = SingleDecoder(code).decode_batch(y[None], g)[0]
    assert not aborted.any()
    np.testing.assert_allclose(psk.points[idx[:, 0]], x[:, 0, 0])
    np.testing.assert_array_equal(code.decode(y[None], g)[0][0], bits)


def test_ac_matched_filter_identity_channel():
    psk = make_psk(4)
    cw = kinds.AC_TABLE.build(psk.points[[1, 3]])
    g = np.array([[1.0 + 0j, 0.0]])
    code = build_code("ac", 2)
    _, aborted = code.decode((g @ cw)[None], g)
    idx = AcDecoder(code).decode_batch((g @ cw)[None], g)[0]
    np.testing.assert_array_equal(idx, [[1, 3]])
    assert not aborted.any()


@pytest.mark.parametrize("rate", [1, 2])
@pytest.mark.parametrize("kind", ENUMERABLE)
def test_decoder_returns_payload_words(kind, rate):
    """Noiseless, every decoder returns each symbol's own bit word: the
    payload's bits for that symbol, read MSB first."""
    code = build_code(kind, rate)
    rng = np.random.default_rng(29)
    bits = payloads(code.nbits)
    g = channels(rng, len(bits), code.n_ports)
    y = observe(code.encode(bits), g)
    _, aborted = code.decode(y[None], g)
    idx = code.decoder.decode_batch(y[None], g)[0]
    assert not aborted.any()
    start = 0
    for k, c in enumerate(code.constellations):
        chunk = bits[:, start : start + c.bit_width]
        words = [int("".join(map(str, row)), 2) for row in chunk]
        np.testing.assert_array_equal(idx[:, k], words)
        start += c.bit_width
    assert start == code.nbits


@pytest.mark.parametrize("rate", [1, 2])
@pytest.mark.parametrize("kind", ENUMERABLE)
@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2**64 - 1), snr_db=st.floats(-3.0, 12.0))
def test_decode_matches_exhaustive_ml(kind, rate, seed, snr_db):
    """Every fast decoder equals brute-force ML over the whole codebook on
    noisy batches, trial by trial."""
    code = build_code(kind, rate)
    book = codebook(kind, rate)
    rng = np.random.default_rng(seed)
    bits = rng.integers(0, 2, (100, code.nbits))
    g = channels(rng, len(bits), code.n_ports)
    y = observe(code.encode(bits), g, 10 ** (-snr_db / 10), rng)
    decoded, aborted = code.decode(y[None], g)
    assert not aborted.any()
    for row, y_row, g_row in zip(decoded[0], y, g):
        np.testing.assert_array_equal(row, exhaustive_ml(y_row, g_row, book))


@pytest.mark.parametrize("kind", REGISTRY)
def test_zero_channel_aborts(kind):
    """An all-zero channel row is aborted, without a warning, and leaves the
    other rows of the batch alone."""
    code = build_code(kind, 1, *(() if REGISTRY[kind].n_ports else (8, 4)))
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, (8, code.nbits))
    g = channels(rng, len(bits), code.n_ports)
    g[3] = 0.0
    y = observe(code.encode(bits), g)
    y[3] = 1.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        decoded, aborted = code.decode(y[None], g)
    np.testing.assert_array_equal(aborted, np.arange(8) == 3)
    np.testing.assert_array_equal(decoded[0][~aborted], bits[~aborted])


# Candidates searched per decoupled group: OSTBC is one joint search,
# QOSTBC and CIOD two pair-sized ones, AC and single symbol-wise.
CANDIDATE_BUDGET = {
    "single": lambda r: [2**r],
    "ac": lambda r: [2**r] * 2,
    "ostbc": lambda r: [2 ** (4 * r)],
    "qostbc": lambda r: [2 ** (2 * r)] * 2,
    "ciod": lambda r: [2 ** (2 * r)] * 2,
}


def _assert_budget(kind):
    """The derived groups' candidate counts, whose largest is the
    2^(search_bits R) that ``rate_problem`` bounds."""
    for rate in (1, 2, 3):
        sizes = [len(cand) for _, cand, _ in build_code(kind, rate).decoder.searches]
        assert sizes == CANDIDATE_BUDGET[kind](rate), (kind, rate)
        assert max(sizes) == 2 ** (REGISTRY[kind].search_bits * rate), (kind, rate)


def test_candidate_budget():
    assert sorted(CANDIDATE_BUDGET) == sorted(ENUMERABLE)
    _assert_budget("single")
    _assert_budget("ac")


def test_ostbc_candidate_budget():
    _assert_budget("ostbc")


def test_qostbc_ciod_candidate_budget():
    _assert_budget("qostbc")
    _assert_budget("ciod")


def _group_codebook(code, group):
    """Every symbol vector that is zero outside ``group`` (lowest index
    first) and its codeword, over the whole constellation of each member."""
    points = [code.constellations[k].points for k in group]
    cand = np.indices([len(p) for p in points]).reshape(len(group), -1).T
    x = np.zeros((len(cand), len(code.constellations)), dtype=complex)
    for j, k in enumerate(group):
        x[:, k] = points[j][cand[:, j]]
    return x, code.assemble(x)


# The groups each kind's Code derives from its table and pre-map.
EXPECTED_GROUPS = {
    "single": ((0,),),
    "ac": ((0,), (1,)),
    "ostbc": ((0, 1, 2),),
    "qostbc": ((0, 2), (1, 3)),
    "ciod": ((0,), (1,)),
}


@pytest.mark.parametrize("rate", [1, 2, 3])
@pytest.mark.parametrize(
    "kind,groups", [pytest.param(k, g, id=k) for k, g in EXPECTED_GROUPS.items()]
)
def test_decoder_groups_decouple(kind, groups, rate):
    """The Code derives the expected groups, and they make per-group
    search exact ML for every g: each codeword is the sum of its groups'
    parts, and any two parts X_a, X_b of different groups have
    X_a X_b^H + X_b X_a^H = 0, so the cross terms of ||y - g X||^2
    vanish.  Checked over the whole codebook."""
    assert sorted(EXPECTED_GROUPS) == sorted(ENUMERABLE)
    code = build_code(kind, rate)
    assert code.groups == groups
    n_sym = len(code.constellations)
    assert sorted(itertools.chain(*groups)) == list(range(n_sym))
    everything, matrices = _group_codebook(code, range(n_sym))
    parts = 0
    for group in groups:
        masked = np.zeros_like(everything)
        masked[:, group] = everything[:, group]
        parts = parts + code.assemble(masked)
    np.testing.assert_allclose(parts, matrices, rtol=0, atol=1e-12)
    for ga, gb in itertools.combinations(groups, 2):
        xa, xb = _group_codebook(code, ga)[1], _group_codebook(code, gb)[1]
        cross = np.einsum("ant,bmt->abnm", xa, xb.conj())
        np.testing.assert_allclose(cross + cross.conj().swapaxes(2, 3), 0, atol=1e-12)


def test_premap_couples_what_it_mixes():
    """On the AC table, a pre-map that mixes x1 into the second table
    symbol puts both payload symbols in one group, whose joint search
    equals brute-force ML on noisy trials; without it they split."""
    psk = make_psk(4)
    assert Code([(psk, 2)], kinds.AC_TABLE, AcDecoder).groups == ((0,), (1,))
    code = Code([(psk, 2)], kinds.AC_TABLE, AcDecoder, feed_x1_into_x2)
    assert code.groups == ((0, 1),)
    book = list(zip(*code.codebook()))
    rng = np.random.default_rng(31)
    bits = rng.integers(0, 2, (200, code.nbits))
    g = channels(rng, len(bits), code.n_ports)
    y = observe(code.encode(bits), g, 0.5, rng)
    decoded, aborted = code.decode(y[None], g)
    assert not aborted.any()
    for row, y_row, g_row in zip(decoded[0], y, g):
        np.testing.assert_array_equal(row, exhaustive_ml(y_row, g_row, book))


def test_zf_kinds_do_not_derive_groups():
    """Only the ML search reads a Code's groups, so a ZF kind's set-up
    never derives them, even once its decoder is built."""
    codes = build_code("nze_tc", 1, 8, 4), build_code("qostbc", 1)
    for code in codes:
        assert code.decoder is not None
    assert "groups" not in vars(codes[0])
    assert "groups" in vars(codes[1])


def test_ml_decoder_classes_only_name_their_kind():
    """Each ML kind's class adds nothing to the shared search: the groups
    come from the derivation alone."""
    # Python's own class attributes; pickling an instance caches __slotnames__.
    allowed = {"__module__", "__doc__", "__qualname__", "__slotnames__"}
    allowed |= {"__firstlineno__", "__static_attributes__"}
    for cls in (SingleDecoder, AcDecoder, OstbcDecoder, QostbcDecoder, CiodDecoder):
        assert cls.__bases__ == (receivers._GroupSearch,), cls
        assert set(vars(cls)) <= allowed, (cls, set(vars(cls)) - allowed)


def test_ml_phase_rotation_invariance():
    """A common phase on (y, g) leaves every ML decision unchanged."""
    rng = np.random.default_rng(7)
    code = build_code("qostbc", 1)
    bits = rng.integers(0, 2, (50, code.nbits))
    g = channels(rng, len(bits), 4)
    y = observe(code.encode(bits), g, 0.3, rng)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi, (len(bits), 1)))
    np.testing.assert_array_equal(
        code.decode(y[None], g)[0], code.decode((y * phase)[None], g * phase)[0]
    )


def test_deterministic_tie_break():
    # zero observation with a unit channel: +1 and -1 are equidistant from 0
    code = build_code("single", 1)
    decoder = SingleDecoder(code)
    y, g = np.zeros((1, 1, 1)), np.ones((1, 1), dtype=complex)
    _, aborted = code.decode(y, g)
    idx = decoder.decode_batch(y, g)[0]
    np.testing.assert_array_equal(idx, [[0]])  # lowest index wins
    assert not aborted.any()


def _count_blocks(code, monkeypatch):
    """Wrap the code's ``decode_batch``; returns the list of block sizes."""
    sizes, decode_batch = [], code.decoder.decode_batch

    def counted(y, g):
        sizes.append(len(g))
        return decode_batch(y, g)

    monkeypatch.setattr(code.decoder, "decode_batch", counted)
    return sizes


@pytest.mark.parametrize(
    "kind,l_sym,n_ports",
    [("ostbc", 0, 0), ("qostbc", 0, 0), ("nze_tc", 12, 4)],
    ids=["ostbc", "qostbc", "nze_tc_12_4"],
)
def test_blocked_search_matches_one_block(kind, l_sym, n_ports, monkeypatch):
    """Under a cap that makes ``Code.decode`` split a noisy batch into four
    blocks, the decoder returns the same words as in one block."""
    code = build_code(kind, 2, l_sym, n_ports)
    rng = np.random.default_rng(11)
    bits = rng.integers(0, 2, (1000, code.nbits))
    g = channels(rng, len(bits), code.n_ports)
    y = observe(code.encode(bits), g, 0.3, rng)
    sizes = _count_blocks(code, monkeypatch)
    whole, _ = code.decode(y[None], g)
    monkeypatch.setattr(kinds, "MAX_BLOCK_BYTES", code.decoder.row_bytes * 300)
    blocked, _ = code.decode(y[None], g)
    assert sizes == [1000, 300, 300, 300, 100]
    np.testing.assert_array_equal(blocked, whole)


STACK_CASES = [(kind, rate, 0, 0) for kind in ENUMERABLE for rate in (1, 2)] + [
    (kind, rate, l_sym, n_ports)
    for kind in ("nze_tc", "nze_oac")
    for l_sym, n_ports in ((4, 2), (12, 4), (30, 8))
    for rate in (1, 2)
]


@pytest.mark.parametrize(
    "kind,rate,l_sym,n_ports",
    STACK_CASES,
    ids=[f"{k}_{l}_{n}-r{r}" if l else f"{k}-r{r}" for k, r, l, n in STACK_CASES],
)
def test_stacked_decode_equals_separate_decodes(kind, rate, l_sym, n_ports, monkeypatch):
    """``Code.decode`` of three noisy observations through the same channels
    returns exactly the bits of three one-observation calls, in one block
    and in several under a smaller cap, with two planted all-zero channel
    rows that abort alike in every call."""
    code = build_code(kind, rate, l_sym, n_ports)
    rng = np.random.default_rng(19)
    bits = rng.integers(0, 2, (200, code.nbits))
    g = channels(rng, len(bits), code.n_ports)
    g[[3, 150]] = 0.0
    codewords = code.encode(bits)
    ys = np.stack([observe(codewords, g, sigma_n2, rng) for sigma_n2 in (0.5, 0.2, 0.05)])
    separate = [code.decode(y[None], g) for y in ys]
    planted = np.isin(np.arange(len(bits)), [3, 150])
    for _, aborted in separate:
        np.testing.assert_array_equal(aborted, planted)
    want = np.concatenate([words for words, _ in separate])
    sizes = _count_blocks(code, monkeypatch)
    for cap in (kinds.MAX_BLOCK_BYTES, code.decoder.row_bytes * 70):
        monkeypatch.setattr(kinds, "MAX_BLOCK_BYTES", cap)
        got, aborted = code.decode(ys, g)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(aborted, planted)
    assert sizes == [200, 70, 70, 60]


@pytest.mark.parametrize(
    "kind,l_sym,n_ports",
    [(kind, 0, 0) for kind in ENUMERABLE] + [("nze_tc", 8, 4), ("nze_oac", 8, 4)],
)
def test_noiseless_roundtrip_at_the_largest_rate(kind, l_sym, n_ports):
    """At the largest rate that ``rate_problem`` accepts, where a symbol
    word or an ML candidate group reaches 2^16 points, 32 random payloads
    over random channels decode to their own bits with no abort."""
    spec = REGISTRY[kind]
    rate = 1
    while spec.rate_problem(rate + 1) is None:
        rate += 1
    code = build_code(kind, rate, l_sym, n_ports)
    rng = np.random.default_rng(16)
    bits = rng.integers(0, 2, (32, code.nbits))
    g = channels(rng, len(bits), code.n_ports)
    decoded, aborted = code.decode(observe(code.encode(bits), g)[None], g)
    assert not aborted.any()
    np.testing.assert_array_equal(decoded[0], bits)


@pytest.mark.parametrize("kind,l_sym,n_ports", [("nze_tc", 4, 2), ("nze_tc", 12, 4), ("nze_oac", 4, 3), ("nze_oac", 12, 4)])
def test_zf_noiseless_roundtrip(kind, l_sym, n_ports):
    code = build_code(kind, 2, l_sym, n_ports)
    rng = np.random.default_rng(8)
    bits = rng.integers(0, 2, (50, l_sym * 2))
    g = channels(rng, len(bits), n_ports)
    decoded, aborted = code.decode(observe(code.encode(bits), g)[None], g)
    assert not aborted.any()
    np.testing.assert_array_equal(decoded[0], bits)


@pytest.mark.parametrize("kind,l_sym,n_ports", [("nze_tc", 4, 2), ("nze_oac", 4, 3)])
def test_zf_noiseless_exhaustive_payloads(kind, l_sym, n_ports):
    """All QPSK payloads recover exactly over 50 random channels each."""
    psk = make_psk(4)
    make = kinds.nze_tc_tables if kind == "nze_tc" else kinds.nze_oac_tables
    tables = make(l_sym, n_ports)
    code = build_code(kind, 2, l_sym, n_ports)
    decoder = NzeZfDecoder(code)
    idx = np.indices((4,) * l_sym).reshape(l_sym, -1).T  # 256 payloads
    matrices = tables.build(psk.points[idx])
    rng = np.random.default_rng(10)
    for g in channels(rng, 50, n_ports):
        g = np.broadcast_to(g, (len(idx), n_ports))
        y = observe(matrices, g)
        _, aborted = code.decode(y[None], g)
        got = decoder.decode_batch(y[None], g)[0]
        assert not aborted.any()
        np.testing.assert_array_equal(got, idx)


def test_zf_scale_invariance():
    code = build_code("nze_tc", 2, 4, 2)
    rng = np.random.default_rng(9)
    bits = rng.integers(0, 2, (1, 8))
    g = channels(rng, 1, 2)
    y = observe(code.encode(bits), g, 0.4, rng)
    for scale in (2.0, -0.3 + 1.7j):
        np.testing.assert_array_equal(
            code.decode(y[None], g)[0], code.decode((y * scale)[None], g * scale)[0]
        )


# Every NZE shape a test, an acceptance criterion or a benchmark workload uses.
NZE_SHAPES = [
    ("nze_tc", 4, 2),
    ("nze_tc", 6, 3),
    ("nze_tc", 8, 4),
    ("nze_tc", 8, 8),
    ("nze_tc", 12, 4),
    ("nze_tc", 30, 8),
    ("nze_tc", 32, 4),
    ("nze_oac", 4, 3),
    ("nze_oac", 4, 4),
    ("nze_oac", 4, 5),
    ("nze_oac", 6, 3),
    ("nze_oac", 8, 4),
    ("nze_oac", 8, 8),
    ("nze_oac", 12, 4),
    ("nze_oac", 30, 8),
]


def _system(code, g):
    """The complex T x L systems H(g) (B, T, L) of y' = H x, built here from
    the code's codewords of the unit symbol vectors: a plain slot's x_k
    coefficient is sum_n g_n P_{k,n,t}, a conjugated slot's
    sum_n conj(g_n) conj(Q_{k,n,t})."""
    unit = np.eye(len(code.constellations))
    re, im = code.assemble(unit), code.assemble(1j * unit)  # (L, N, T)
    plain = np.einsum("bn,knt->btk", g, (re - 1j * im) / 2.0)
    conj = np.einsum("bn,knt->btk", g.conj(), (re + 1j * im).conj() / 2.0)
    return plain + conj


def _gram_ratio(decoder, g):
    """lambda_min / lambda_max of the decoder's ZF Gram, read from its
    upper band, for each channel row."""
    band = decoder.band(g)
    n_sym, width, _ = band.shape
    gram = np.zeros((len(g), n_sym, n_sym), dtype=complex)
    for d in range(width):
        k = np.arange(n_sym - d)
        gram[:, k, k + d] = band[: n_sym - d, d].T
    eigs = np.linalg.eigvalsh(gram, UPLO="U")
    return eigs[:, 0] / eigs[:, -1]


@pytest.mark.parametrize(
    "kind,l_sym,n_ports", NZE_SHAPES, ids=[f"{k}_{l}_{n}" for k, l, n in NZE_SHAPES]
)
def test_zf_gram_full_rank_margin(kind, l_sym, n_ports):
    """The ZF Gram keeps full rank, with margin, on every nonzero channel
    tried: 20k seeded Gaussian ones, each unit vector e_k and each
    e_i + p e_j with p in {1, -1, j, -j}.  This is what lets the decoder
    abort on an all-zero channel only."""
    decoder = build_code(kind, 1, l_sym, n_ports).decoder
    rng = np.random.default_rng(12)
    worst = min(_gram_ratio(decoder, channels(rng, 2000, n_ports)).min() for _ in range(10))
    eye = np.eye(n_ports)
    structured = [eye[k] for k in range(n_ports)] + [
        eye[i] + p * eye[j]
        for i in range(n_ports)
        for j in range(n_ports)
        if i != j
        for p in (1, -1, 1j, -1j)
    ]
    worst = min(worst, _gram_ratio(decoder, np.array(structured, dtype=complex)).min())
    assert worst >= 1e-8


@pytest.mark.parametrize(
    "kind,l_sym,n_ports", NZE_SHAPES, ids=[f"{k}_{l}_{n}" for k, l, n in NZE_SHAPES]
)
def test_zf_system_reproduces_observation(kind, l_sym, n_ports):
    """H(g), built here from the code's probes, gives the noiseless
    observation g X(x) with the decoder's conjugated slots conjugated, for
    complex x off the constellation.  The decoder's band is the band of
    H^H H, zero past column L - 1; H^H H is exactly zero outside it on
    Gaussian-integer channels, where every product is exact, and reaches
    its edge p, which is N - 1 for NZE-TC."""
    code = build_code(kind, 1, l_sym, n_ports)
    decoder = code.decoder
    rng = np.random.default_rng(14)
    x = rng.standard_normal((16, l_sym)) + 1j * rng.standard_normal((16, l_sym))
    g = channels(rng, len(x), n_ports)
    y = np.einsum("bn,bnt->bt", g, code.assemble(x))
    h = _system(code, g)
    got = (h @ x[..., None])[..., 0]
    np.testing.assert_allclose(got, np.where(decoder.conj_slots, y.conj(), y), rtol=0, atol=1e-12)

    p = decoder.p
    band = decoder.band(g)
    gram = h.conj().transpose(0, 2, 1) @ h
    for d in range(p + 1):
        diagonal = np.diagonal(gram, d, axis1=1, axis2=2)
        np.testing.assert_allclose(band[: l_sym - d, d].T, diagonal, rtol=0, atol=1e-12)
        assert not band[l_sym - d :, d].any()

    h = _system(code, rng.integers(-3, 4, (64, n_ports)) + 1j * rng.integers(-3, 4, (64, n_ports)))
    gram = h.conj().transpose(0, 2, 1) @ h
    lag = np.abs(np.subtract.outer(np.arange(l_sym), np.arange(l_sym)))
    assert not gram[:, lag > p].any()
    assert gram[:, lag == p].any()
    if kind == "nze_tc":
        assert p == n_ports - 1


def _dense_zf_tables(code):
    """The ZF decoder's p, band index, Gram weights and matched-filter
    weights, built here from the whole (N L)^2 product of the Gram
    coefficients and cut down to its p + 1 diagonals."""
    n_sym = len(code.constellations)
    unit = np.eye(n_sym)
    re, im = code.assemble(unit), code.assemble(1j * unit)  # (L, N, T)
    plain, conj = (re - 1j * im) / 2.0, (re + 1j * im) / 2.0
    has_conj = conj.any(axis=(0, 1))
    coef = (plain + conj.conj()).transpose(1, 0, 2)
    n_ports, _, n_slots = coef.shape
    shape = (n_ports, n_sym, n_ports, n_sym)
    a = np.where(has_conj, 0, coef).reshape(-1, n_slots)
    b = np.where(has_conj, coef, 0).reshape(-1, n_slots)
    gram = (a.conj() @ a.T).reshape(shape).transpose(0, 2, 1, 3)
    gram = gram + (b.conj() @ b.T).reshape(shape).transpose(2, 0, 1, 3)
    k = np.arange(n_sym)
    p = int(np.abs(np.subtract.outer(k, k))[gram.any(axis=(0, 1))].max())
    l = k[:, None] + np.arange(p + 1)
    band = gram[:, :, k[:, None], np.minimum(l, n_sym - 1)] * (l < n_sym)
    n, m = np.triu_indices(n_ports)
    re_rows = band[n, m] + band[m, n] * (n != m)[:, None, None]
    im_rows = 1j * (band[n, m] - band[m, n])
    table = np.stack([re_rows, im_rows], axis=1).reshape(2 * len(n), -1)
    first = {}
    first_equal = [first.setdefault(c.tobytes(), j) for j, c in enumerate(table.T)]
    columns, band_index = np.unique(first_equal, return_inverse=True)
    mf = np.stack([coef.conj(), np.where(has_conj, -1j, 1j) * coef.conj()], axis=-1)
    mf_weights = receivers._real_weights(mf.transpose(0, 2, 3, 1).reshape(-1, n_sym))
    return p, band_index, receivers._real_weights(table[:, columns]), mf_weights


@pytest.mark.parametrize(
    "kind,l_sym,n_ports",
    NZE_SHAPES + [("nze_tc", 32, 32), ("nze_oac", 32, 33)],
    ids=[f"{k}_{l}_{n}" for k, l, n in NZE_SHAPES] + ["nze_tc_32_32", "nze_oac_32_33"],
)
def test_zf_band_tables_match_dense_build(kind, l_sym, n_ports):
    """The decoder forms only the Gram diagonals whose symbols share a slot,
    yet its p and tables equal those cut from the whole dense product.  The
    weights of each band entry are equal; the dense build can hold a zero
    column twice, as +0 and -0, where the decoder holds it once."""
    code = build_code(kind, 1, l_sym, n_ports)
    decoder = code.decoder
    p, band_index, gram_weights, mf_weights = _dense_zf_tables(code)
    assert decoder.p == p

    def per_entry(weights, index):
        """The real and imaginary weight rows of each band entry."""
        half = len(weights) // 2
        return np.stack([weights[:half][index], weights[half:][index]])

    np.testing.assert_array_equal(
        per_entry(decoder._gram_weights, decoder._band_index), per_entry(gram_weights, band_index)
    )
    assert decoder._band_index.max() <= band_index.max()
    np.testing.assert_array_equal(decoder._mf_weights, mf_weights)


def _row_major_band_solve(band, rhs):
    """The band LDL^H solve of ``receivers._band_factor`` and
    ``receivers._band_substitute`` on the row-major layout
    (p + 1, L, B), band[d, k] = Gram[k, k + d], dividing by each pivot: the
    reference that the column-major solve must equal bit for bit."""
    width, n, _ = band.shape
    diag = np.empty(rhs.shape)
    for k in range(n):
        m = min(width - 1, n - 1 - k)
        diag[k] = band[0, k].real
        row = band[1 : m + 1, k]
        u = row / diag[k]
        row_conj = row.conj()
        for a in range(m):
            band[: m - a, k + 1 + a] -= row_conj[a] * u[a:]
        rhs[k + 1 : k + m + 1] -= u.conj() * rhs[k]
        row[...] = u
    x = rhs / diag
    for k in range(n - 2, -1, -1):
        m = min(width - 1, n - 1 - k)
        x[k] -= (band[1 : m + 1, k] * x[k + 1 : k + m + 1]).sum(axis=0)
    return x


BAND_SHAPES = NZE_SHAPES + [("nze_tc", 32, 32), ("nze_oac", 32, 33)]


@pytest.mark.parametrize(
    "kind,l_sym,n_ports", BAND_SHAPES, ids=[f"{k}_{l}_{n}" for k, l, n in BAND_SHAPES]
)
def test_band_solve_matches_row_major_reference(kind, l_sym, n_ports):
    """At the decoder's (L, p), on random Hermitian positive definite band
    Grams R^H R + I (R upper triangular with p superdiagonals), the solve
    equals the row-major reference exactly, for 1, 7 and 4096 trials, and
    both equal the dense solve to 1e-10 in the relative norm of each
    trial."""
    p = build_code(kind, 1, l_sym, n_ports).decoder.p
    rng = np.random.default_rng(17)
    k, d = np.arange(l_sym)[:, None], np.arange(p + 1)
    for n_trials in (1, 7, 4096):
        r = rng.standard_normal((n_trials, l_sym, l_sym, 2)).view(complex)[..., 0]
        r *= (k.T - k >= 0) & (k.T - k <= p)
        gram = r.conj().transpose(0, 2, 1) @ r + np.eye(l_sym)
        band = gram[:, k, np.minimum(k + d, l_sym - 1)] * (k + d < l_sym)  # (B, L, p + 1)
        rhs = rng.standard_normal((l_sym, n_trials, 2)).view(complex)[..., 0]
        factored = band.transpose(1, 2, 0).copy()
        x = receivers._band_substitute(factored, receivers._band_factor(factored), rhs.copy())
        want = _row_major_band_solve(band.transpose(2, 1, 0).copy(), rhs.copy())
        assert np.array_equal(x, want)
        dense = np.linalg.solve(gram, rhs.T[..., None])[..., 0].T
        assert (np.linalg.norm(x - dense, axis=0) <= 1e-10 * np.linalg.norm(dense, axis=0)).all()


def _fused_band_solve(band, rhs):
    """The band LDL^H solve with the forward substitution fused into the
    factor's loop, on the column layout (L, p + 1, B), in place: the
    reference that ``_band_factor`` then ``_band_substitute`` must equal
    bit for bit.  Returns (D, x)."""
    n, width, _ = band.shape
    diag = np.empty(rhs.shape)
    for k in range(n):
        m = min(width - 1, n - 1 - k)
        diag[k] = band[k, 0].real
        row = band[k, 1 : m + 1]
        u = row * (1.0 / diag[k])
        row_conj = row.conj()
        for a in range(m):
            band[k + 1 + a, : m - a] -= row_conj[a] * u[a:]
        rhs[k + 1 : k + m + 1] -= u.conj() * rhs[k]
        row[...] = u
    x = rhs / diag
    for k in range(n - 2, -1, -1):
        m = min(width - 1, n - 1 - k)
        x[k] -= (band[k, 1 : m + 1] * x[k + 1 : k + m + 1]).sum(axis=0)
    return diag, x


@pytest.mark.parametrize(
    "kind,l_sym,n_ports", BAND_SHAPES, ids=[f"{k}_{l}_{n}" for k, l, n in BAND_SHAPES]
)
def test_split_band_solve_matches_fused(kind, l_sym, n_ports):
    """On the decoder's own bands and matched filters of 512 noisy trials,
    two of them with the all-ones channel, the factor step leaves the band
    and D of the fused solve and the substitution returns its x, bit for
    bit; a second substitution on the same factor repeats the first."""
    code = build_code(kind, 1, l_sym, n_ports)
    decoder = code.decoder
    rng = np.random.default_rng(20)
    g = channels(rng, 512, n_ports)
    g[[0, 7]] = 1.0
    y = observe(code.encode(rng.integers(0, 2, (len(g), code.nbits))), g, 0.3, rng)
    rhs = decoder._matched_filter(y, g)
    band = decoder.band(g)
    fused = band.copy()
    want_diag, want_x = _fused_band_solve(fused, rhs.copy())
    diag = receivers._band_factor(band)
    assert np.array_equal(band, fused)
    assert np.array_equal(diag, want_diag)
    for _ in range(2):
        assert np.array_equal(receivers._band_substitute(band, diag, rhs.copy()), want_x)


@pytest.mark.parametrize(
    "kind,l_sym,n_ports", NZE_SHAPES, ids=[f"{k}_{l}_{n}" for k, l, n in NZE_SHAPES]
)
def test_zf_words_match_row_major_reference(kind, l_sym, n_ports):
    """On 1024 noisy QPSK trials, four of them with the all-ones channel
    that ``Code.decode`` hands a decoder for an all-zero one,
    ``decode_batch`` returns the words of the same matched filter, band and
    slicing solved on the row-major band by the reference above."""
    code = build_code(kind, 2, l_sym, n_ports)
    decoder = code.decoder
    rng = np.random.default_rng(18)
    g = channels(rng, 1024, n_ports)
    g[[0, 5, 511, 1023]] = 1.0
    y = observe(code.encode(rng.integers(0, 2, (len(g), code.nbits))), g, 0.3, rng)

    band = decoder.band(g).transpose(1, 0, 2).copy()  # (p + 1, L, B)
    xhat = _row_major_band_solve(band, decoder._matched_filter(y, g))
    score = xhat.view(float).reshape(l_sym, -1, 2) @ decoder._axes
    np.testing.assert_array_equal(decoder.decode_batch(y[None], g)[0], np.argmax(score, axis=-1).T)


LEAST_SQUARES_SHAPES = {
    "nze_tc": ("nze_tc", 12, 4),
    "nze_oac": ("nze_oac", 12, 4),
    "nze_tc_30_8": ("nze_tc", 30, 8),
    "nze_oac_30_8": ("nze_oac", 30, 8),
    "nze_tc_8_8": ("nze_tc", 8, 8),
    "nze_tc_32_4": ("nze_tc", 32, 4),
    "nze_oac_4_5": ("nze_oac", 4, 5),
}


@pytest.mark.parametrize(
    "kind,l_sym,n_ports,rate",
    [
        pytest.param(*shape, rate, id=name if rate == 2 else f"{name}-r{rate}")
        for name, shape in LEAST_SQUARES_SHAPES.items()
        for rate in (1, 2, 3)
    ],
)
def test_zf_matches_least_squares(kind, l_sym, n_ports, rate):
    """ZF equals a per-trial least-squares solve of the real 2T x 2L system,
    built here from the code's codewords of the unit symbol vectors, sliced
    to the nearest point of BPSK, QPSK or 8-PSK; only the planted zero
    channel aborts, and the decoder sees what ``Code.decode`` hands it in
    its place, a row of ones.  The shapes span the narrowest band (p = 2)
    to the widest (p = L - 1 at N = L)."""
    code = build_code(kind, rate, l_sym, n_ports)
    rng = np.random.default_rng(13)
    bits = rng.integers(0, 2, (64, code.nbits))
    g = channels(rng, len(bits), n_ports)
    g[5] = 0.0
    y = observe(code.encode(bits), g, 0.2, rng)
    _, aborted = code.decode(y[None], g)
    idx = code.decoder.decode_batch(y[None], np.where(aborted[:, None], 1.0, g))[0]
    np.testing.assert_array_equal(aborted, np.arange(len(bits)) == 5)

    n_sym = len(code.constellations)
    unit = np.eye(n_sym)
    basis = code.assemble(np.concatenate([unit, 1j * unit]))  # (2L, N, T)
    points = code.constellations[0].points
    for k in np.flatnonzero(~aborted):
        cols = np.einsum("n,knt->tk", g[k], basis)
        a = np.vstack([cols.real, cols.imag])
        sol = np.linalg.lstsq(a, np.concatenate([y[k].real, y[k].imag]), rcond=None)[0]
        xhat = sol[:n_sym] + 1j * sol[n_sym:]
        np.testing.assert_array_equal(idx[k], np.argmin(np.abs(xhat[:, None] - points), axis=1))


@pytest.mark.parametrize(
    "kind,rate,l_sym,n_ports,n_trials,n_blocks",
    [
        ("nze_tc", 12, 32, 4, 64, 1),
        ("nze_tc", 1, 32, 32, 4096, 2),
        ("nze_oac", 1, 32, 33, 4096, 3),
    ],
    ids=["nze_tc_r12_32_4", "nze_tc_32_32", "nze_oac_32_33"],
)
def test_zf_batch_memory_is_capped(kind, rate, l_sym, n_ports, n_trials, n_blocks, monkeypatch):
    """One ZF batch at the largest L config validation allows peaks under
    2 x MAX_BLOCK_BYTES of traced memory: ``Code.decode`` hands the decoder
    ``n_blocks`` blocks of rows whose largest array fits in the cap.  At
    R = 12 that array is the slicing's L x 4096 real scores per trial
    (1 MiB); at N = L = 32 and at N = 33, shapes past validation's N x T
    bound that the decoder still takes, it is the N T products
    conj(g_n) y_t, 138 MiB for a whole 4096-trial batch at N = 33."""
    code = build_code(kind, rate, l_sym, n_ports)
    rng = np.random.default_rng(15)
    g = channels(rng, n_trials, n_ports)
    y = observe(code.encode(rng.integers(0, 2, (n_trials, code.nbits))), g, 0.2, rng)
    sizes = _count_blocks(code, monkeypatch)
    tracemalloc.start()
    try:
        code.decode(y[None], g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * kinds.MAX_BLOCK_BYTES
    assert len(sizes) == n_blocks
    assert max(sizes) * code.decoder.row_bytes <= kinds.MAX_BLOCK_BYTES


@pytest.mark.parametrize("kind,rate", [(kind, rate) for kind in ENUMERABLE for rate in (1, 2)])
def test_ml_batch_memory_is_capped(kind, rate, monkeypatch):
    """Under a 1 MiB cap, each block that ``Code.decode`` hands an ML
    decoder out of a 4096-trial batch peaks under 2 x MAX_BLOCK_BYTES of
    traced memory.  A block's largest array is the features
    g (x) conj([g, y]), 16 N (N + T) bytes per trial (512 for the four-port
    codes, so 2 MiB for a whole batch), or a group's metrics, 8 bytes per
    candidate (2048 for OSTBC at R = 2)."""
    monkeypatch.setattr(kinds, "MAX_BLOCK_BYTES", 1 << 20)
    code = build_code(kind, rate)
    rng = np.random.default_rng(16)
    g = channels(rng, 4096, code.n_ports)
    y = observe(code.encode(rng.integers(0, 2, (len(g), code.nbits))), g, 0.2, rng)
    peaks, decode_batch = [], code.decoder.decode_batch

    def traced(y, g):
        tracemalloc.start()
        try:
            words = decode_batch(y, g)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        return words

    monkeypatch.setattr(code.decoder, "decode_batch", traced)
    code.decode(y[None], g)
    assert max(peaks) < 2 * kinds.MAX_BLOCK_BYTES


def test_zf_refuses_mixed_slot():
    """A slot that carries x_0 and conj(x_1) has no complex form: refused."""
    table = GatherTable(
        idx=np.array([[0, 1], [1, 0]]),
        sign=np.ones((2, 2)),
        conj=np.array([[False, False], [True, False]]),
    )
    with pytest.raises(ValueError, match="slot"):
        Code([(make_psk(4), 2)], table, NzeZfDecoder).decoder


def test_zf_refuses_points_of_two_moduli():
    """Slicing by projection finds the nearest point only among points of
    one modulus, so 16-QAM is refused."""
    with pytest.raises(ValueError, match="unit-modulus"):
        Code([(make_rotated_qam(16), 4)], kinds.nze_tc_tables(4, 2), NzeZfDecoder).decoder


@pytest.mark.parametrize(
    "kind,l_sym,n_ports", NZE_SHAPES, ids=[f"{k}_{l}_{n}" for k, l, n in NZE_SHAPES]
)
def test_zf_conjugated_slots_follow_table(kind, l_sym, n_ports):
    """Each slot of the gather table is all plain or all conjugated, and the
    decoder's probed slot flags equal that column of the table."""
    make = kinds.nze_tc_tables if kind == "nze_tc" else kinds.nze_oac_tables
    conj = make(l_sym, n_ports).conj
    assert np.all(conj.all(axis=0) | ~conj.any(axis=0))
    decoder = build_code(kind, 1, l_sym, n_ports).decoder
    np.testing.assert_array_equal(decoder.conj_slots, conj[0])
