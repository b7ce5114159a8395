import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from omnistbc import kinds
from omnistbc.config import TRIALS_PER_BATCH, ConfigError, SimConfig, parse_config
from omnistbc.kinds import MAX_BLOCK_BYTES

GOOD = """
# minimal Alamouti sweep
code = ac   # Alamouti
rate = 1
m = 64
gamma = 1
spacing_ratio = 0.5773502692
pas.theta0_deg = 0
pas.sigma_deg = 5
snr_db = 0, 4, 8  # dB
max_trials = 1000
min_bit_errors = 50
master_seed = 42
workers = 2
"""


def test_parse_good_config():
    cfg = parse_config(GOOD)
    assert cfg.code == "ac"
    assert cfg.snr_db == (0.0, 4.0, 8.0)
    assert cfg.master_seed == 42
    assert cfg.workers == 2
    assert cfg.sigma_deg == 5.0


def test_defaults():
    cfg = parse_config("code = ac\nsnr_db = 10\n")
    assert cfg.m == 64
    assert cfg.gamma == 1
    assert cfg.spacing_ratio == pytest.approx(1 / math.sqrt(3))
    assert cfg.sigma_deg == 5.0
    assert cfg.precoder_override == "zc"


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigError, match="snr_list"):
        parse_config("code = ac\nsnr_list = 1,2\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("code = ac\ncode = ciod\n")
    with pytest.raises(ConfigError, match="^nze.l: duplicate key$"):
        parse_config("code = nze_tc\nnze.n = 4\nnze.l = 8\nnze.l = 12\n")


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="max_trials"):
        parse_config("code = ac\nmax_trials = soon\n")


def test_unknown_code_kind():
    with pytest.raises(ConfigError, match="code"):
        parse_config("code = turbo\n")


def test_divisibility_check():
    with pytest.raises(ConfigError, match="multiple of N"):
        parse_config("code = qostbc\nm = 100\n")
    parse_config("code = qostbc\nm = 112\n")  # 112 = 16 * 7


def test_gamma_check():
    with pytest.raises(ConfigError, match="gamma"):
        parse_config("code = ac\nm = 64\ngamma = 2\n")
    parse_config("code = ac\nm = 64\ngamma = 63\n")


def test_single_port_m_1_is_refused_under_m():
    """At m = 1 no ZC root 1 <= gamma < m exists, so no gamma can fix the
    config: the refusal names m."""
    with pytest.raises(ConfigError, match="^m: 1 leaves no ZC root"):
        parse_config("code = single\nm = 1\n")
    assert parse_config("code = single\nm = 2\n").m == 2


def test_nze_requirements():
    with pytest.raises(ConfigError, match="nze"):
        parse_config("code = nze_tc\nm = 64\n")
    with pytest.raises(ConfigError, match="nze.l"):
        parse_config("code = nze_tc\nm = 64\nnze.l = 4\nnze.n = 8\n")
    with pytest.raises(ConfigError, match="even"):
        parse_config("code = nze_oac\nm = 64\nnze.l = 9\nnze.n = 8\n")
    parse_config("code = nze_oac\nm = 64\nnze.l = 30\nnze.n = 8\n")


@pytest.mark.parametrize("key", ["nze.l", "nze.n"])
@pytest.mark.parametrize("kind", [k for k, spec in kinds.REGISTRY.items() if spec.n_ports])
def test_nze_keys_refused_on_fixed_port_kinds(kind, key):
    """A kind whose port count is fixed refuses a nonzero NZE key, naming
    it, instead of ignoring it."""
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}: {kind} has "):
        parse_config(f"code = {kind}\n{key} = 8\nsnr_db = 1\n")
    assert parse_config(f"code = {kind}\n{key} = 0\n").code == kind


@pytest.mark.parametrize(
    ("nze_n", "rule"),
    [(10000000000000, "nze.l >= nze.n for even"), (11, "nze.l >= nze.n - 1 for odd")],
)
def test_nze_oac_port_rule_names_nze_n(nze_n, rule):
    """Too many ports for L blames both keys and states the rule in nze.n:
    an even-N code is carved out of an (N + 1)-port one, so it needs L >= N,
    an odd-N code L >= N - 1."""
    with pytest.raises(ConfigError, match=r"nze\.n") as err:
        parse_config(f"code = nze_oac\nm = 64\nnze.l = 8\nnze.n = {nze_n}\n")
    assert rule in str(err.value)
    parse_config("code = nze_oac\nm = 968\nnze.l = 10\nnze.n = 11\n")


def test_precoder_override_values():
    assert parse_config("code = ac\nprecoder_override = prbs\n").precoder_override == "prbs"
    with pytest.raises(ConfigError, match="precoder_override"):
        parse_config("code = ac\nprecoder_override = walsh\n")


def test_overrides_win():
    cfg = parse_config(GOOD, master_seed=7, workers=1)
    assert cfg.master_seed == 7
    assert cfg.workers == 1


def test_digest_tracks_content():
    a = parse_config(GOOD)
    b = parse_config(GOOD, master_seed=43)
    assert a.digest() != b.digest()
    assert a.digest() == parse_config(GOOD).digest()


@pytest.mark.parametrize(
    "line,key",
    [
        ("snr_db = 0, nan", "snr_db"),
        ("snr_db = inf", "snr_db"),
        ("theta0_deg_list = 0, nan", "theta0_deg_list"),
        ("theta0_deg_list = 0, 75", "theta0_deg_list"),
        ("pas.theta0_deg = 100", "pas.theta0_deg"),
        ("pas.theta0_deg = nan", "pas.theta0_deg"),
        ("pas.sigma_deg = nan", "pas.sigma_deg"),
        ("spacing_ratio = nan", "spacing_ratio"),
        ("spacing_ratio = inf", "spacing_ratio"),
        ("spacing_ratio = 1e300", "spacing_ratio"),
        ("min_bit_errors = 0", "min_bit_errors"),
        ("master_seed = -1", "master_seed"),
        ("master_seed = 18446744073709551616", "master_seed"),
        ("k = 7", "k"),
        ("snr_db 10", "line 2"),
    ],
)
def test_bad_value_fails_validation(line, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}:"):
        parse_config(f"code = ac\n{line}\n")


def test_readme_config_example_parses():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")
    with open(path, encoding="utf-8") as fh:
        blocks = re.findall(r"^```ini\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    cfg = parse_config(blocks[0])
    assert (cfg.code, cfg.rate, cfg.m, cfg.snr_db) == ("qostbc", 1, 64, (8.0, 10.0, 12.0, 14.0))
    assert len(cfg.theta0_deg_list) == 13


def test_angle_limits_are_inclusive():
    cfg = parse_config("code = ac\npas.theta0_deg = -90\ntheta0_deg_list = -60, 60\n")
    assert cfg.theta0_deg == -90.0
    assert parse_config("code = ac\npas.theta0_deg = 90\n").theta0_deg == 90.0


def test_validate_direct():
    with pytest.raises(ConfigError):
        SimConfig(code="ac", workers=0).validate()
    with pytest.raises(ConfigError):
        SimConfig(code="ac", max_trials=0).validate()


@pytest.mark.parametrize("rate", [2.7, 2.0, True])
def test_validate_refuses_non_integral_rate(rate):
    """A config built in Python with a rate that is not an integer fails
    validation, naming the key, rather than running a truncated code."""
    with pytest.raises(ConfigError, match=f"^rate: must be a positive integer, got {rate!r}$"):
        SimConfig(code="qostbc", rate=rate).validate()


# The largest rate at which each kind's largest alphabet or ML candidate group
# stays within 2^16 points: 2^R points for single, ac and the NZE kinds,
# 2^(2R) for qostbc pairs and ciod QAM, 2^(4R) for the joint ostbc search.
LARGEST_RATE = {
    "single": 16, "ac": 16, "nze_tc": 16, "nze_oac": 16, "qostbc": 8, "ciod": 8, "ostbc": 4
}


@pytest.mark.parametrize("kind,largest", sorted(LARGEST_RATE.items()))
def test_rate_bound(kind, largest):
    """Validation accepts a kind's largest rate and refuses the next one,
    naming the key; it builds no code, so neither rate allocates a search."""
    nze = dict(nze_l=8, nze_n=4) if kinds.REGISTRY[kind].n_ports is None else {}
    shape = SimConfig(code=kind, **nze)
    assert replace(shape, rate=largest).validate().rate == largest
    with pytest.raises(ConfigError, match=f"^rate: {largest + 1} is above {largest},"):
        replace(shape, rate=largest + 1).validate()


@pytest.mark.parametrize(
    "kind,largest_accepted,first_refused",
    [("nze_tc", (32, 20, 1020), (29, 21)), ("nze_oac", (26, 22, 1012), (30, 21))],
    ids=["nze_tc", "nze_oac"],
)
def test_nze_codeword_batch_fits_block_cap(kind, largest_accepted, first_refused):
    """Validation refuses exactly the NZE shapes, L <= 32 and N <= 33, whose
    N x T codeword has more than the 1024 complex entries per trial that a
    full batch may hold in MAX_BLOCK_BYTES, naming both keys.  At the largest
    accepted shape a full batch of codewords, sized from an encoded pair,
    fits in MAX_BLOCK_BYTES."""
    entries = MAX_BLOCK_BYTES // (16 * TRIALS_PER_BATCH)
    assert entries == 1024
    make = getattr(kinds, f"{kind}_tables")
    accepted, refused = [], []
    for nze_n in range(1, 34):
        for nze_l in range(1, 33):
            try:
                n_ports, n_slots = make(nze_l, nze_n).idx.shape
            except ValueError:
                continue
            cfg = SimConfig(code=kind, nze_l=nze_l, nze_n=nze_n, m=4 * nze_n**2)
            if n_ports * n_slots <= entries:
                cfg.validate()
                accepted.append((n_ports * n_slots, nze_l, nze_n))
                continue
            with pytest.raises(ConfigError, match=r"^nze\.l, nze\.n: ") as err:
                cfg.validate()
            assert f"{n_ports * n_slots} entries, above {entries}" in str(err.value)
            refused.append((nze_l, nze_n))
    assert refused[0] == first_refused
    assert (32, 32) in refused and (kind != "nze_oac" or (32, 33) in refused)
    size, nze_l, nze_n = max(accepted)
    assert (nze_l, nze_n, size) == largest_accepted
    code = kinds.build_code(kind, 1, nze_l, nze_n)
    pair = code.encode(np.zeros((2, code.nbits), dtype=np.int64))
    assert pair.nbytes // 2 * TRIALS_PER_BATCH <= MAX_BLOCK_BYTES


@pytest.mark.parametrize(
    "kind,nze_l,nze_n", [("nze_tc", 32, 20), ("nze_oac", 26, 22)], ids=["nze_tc", "nze_oac"]
)
def test_nze_encode_peak_is_one_batch(kind, nze_l, nze_n):
    """At the largest accepted shape, encoding a full batch peaks under
    1.25 codeword batches of traced memory: the encoder writes the batch
    once and signs it in place, with no second copy."""
    code = kinds.build_code(kind, 1, nze_l, nze_n)
    bits = np.random.default_rng(3).integers(0, 2, (TRIALS_PER_BATCH, code.nbits))
    tracemalloc.start()
    try:
        batch = code.encode(bits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * batch.nbytes
