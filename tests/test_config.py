import math
import re

import pytest

from omnistbc.config import ConfigError, SimConfig, parse_config

GOOD = """
# minimal Alamouti sweep
code = ac
rate = 1
m = 64
gamma = 1
spacing_ratio = 0.5773502692
pas.theta0_deg = 0
pas.sigma_deg = 5
snr_db = 0, 4, 8
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


def test_nze_requirements():
    with pytest.raises(ConfigError, match="nze"):
        parse_config("code = nze_tc\nm = 64\n")
    with pytest.raises(ConfigError, match="nze.l"):
        parse_config("code = nze_tc\nm = 64\nnze.l = 4\nnze.n = 8\n")
    with pytest.raises(ConfigError, match="even"):
        parse_config("code = nze_oac\nm = 64\nnze.l = 9\nnze.n = 8\n")
    cfg = parse_config("code = nze_oac\nm = 64\nnze.l = 30\nnze.n = 8\n")
    assert cfg.n_ports() == 8


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
        ("min_bit_errors = 0", "min_bit_errors"),
        ("k = 7", "k"),
    ],
)
def test_bad_value_fails_validation(line, key):
    with pytest.raises(ConfigError, match=f"^{re.escape(key)}:"):
        parse_config(f"code = ac\n{line}\n")


def test_angle_limits_are_inclusive():
    cfg = parse_config("code = ac\npas.theta0_deg = -90\ntheta0_deg_list = -60, 60\n")
    assert cfg.theta0_deg == -90.0
    assert parse_config("code = ac\npas.theta0_deg = 90\n").theta0_deg == 90.0


def test_validate_direct():
    with pytest.raises(ConfigError):
        SimConfig(code="ac", workers=0).validate()
    with pytest.raises(ConfigError):
        SimConfig(code="ac", max_trials=0).validate()
