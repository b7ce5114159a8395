"""Flat key = value simulation configs; everything from a # is a comment.

Dotted keys express nesting (pas.sigma_deg, nze.l).  Unknown keys are hard
errors: a silently ignored typo corrupts an experiment.  Angles are given
in degrees, matching the CSV output columns.
"""

import math
from dataclasses import dataclass, fields, replace

from .channel import DEFAULT_SPACING_RATIO, max_spacing_ratio
from .kinds import REGISTRY
from .receivers import MAX_BLOCK_BYTES

__all__ = ["SimConfig", "ConfigError", "parse_config", "load_config", "snr_problem"]

# Trials per engine batch.  Every per-batch array holds one row per trial,
# so validation bounds each trial's share of MAX_BLOCK_BYTES by it.
TRIALS_PER_BATCH = 4096


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def snr_problem(snr_db):
    """Why ``snr_db`` is no usable SNR in dB, or None; the caller names its key.

    300 dB either way is far past any physical link, and keeps the noise
    scale 10^(-snr/20) and the PEP bound's 10^(-snr/10) finite and nonzero,
    and the SNR in micro-units an exact integer.
    """
    if not abs(snr_db) <= 300.0:
        return f"must be a finite number in [-300, 300] dB, got {snr_db}"
    return None


@dataclass(frozen=True)
class SimConfig:
    code: str = "ac"
    rate: int = 1
    m: int = 64
    gamma: int = 1
    spacing_ratio: float = DEFAULT_SPACING_RATIO
    theta0_deg: float = 0.0
    sigma_deg: float = 5.0
    snr_db: tuple = ()
    theta0_deg_list: tuple = ()
    max_trials: int = 1_000_000
    min_bit_errors: int = 200
    master_seed: int = 1
    workers: int = 1
    nze_l: int = 0
    nze_n: int = 0
    precoder_override: str = "zc"

    def validate(self):
        spec = REGISTRY.get(self.code)
        if spec is None:
            raise ConfigError(f"code: unknown kind {self.code!r}")
        problem = spec.rate_problem(self.rate)
        if problem:
            raise ConfigError(f"rate: {problem}")
        cap = f"{MAX_BLOCK_BYTES >> 20} MiB"
        # The complex entries per trial that fit a batch in the cap: 1024.
        entries = MAX_BLOCK_BYTES // (16 * TRIALS_PER_BATCH)
        largest = math.isqrt(entries)
        if self.nze_l > largest:
            raise ConfigError(
                f"nze.l: {self.nze_l} is above {largest}, the largest L with L x L "
                f"within the {entries} complex entries per trial that a "
                f"{TRIALS_PER_BATCH}-trial batch may hold in {cap}"
            )
        try:
            n, slots = spec.table(self.nze_l, self.nze_n).idx.shape
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if n * slots > entries:
            raise ConfigError(
                f"nze.l, nze.n: the {n} x {slots} codeword has {n * slots} entries, above "
                f"{entries}, the most whose {TRIALS_PER_BATCH}-trial batch fits in {cap}"
            )
        largest = MAX_BLOCK_BYTES // (32 * n)
        if not 0 < self.m <= largest:
            raise ConfigError(
                f"m: must be positive and at most {largest} for N = {n}, so that the "
                f"set-up's 2M x N complex FFT fits in {cap}"
            )
        if self.m % (n * n) != 0:
            raise ConfigError(f"m: {self.m} is not a multiple of N^2 = {n * n}")
        if self.m < 2:
            raise ConfigError(f"m: {self.m} leaves no ZC root, which needs 1 <= gamma < m")
        if not 1 <= self.gamma < self.m or math.gcd(self.gamma, self.m) != 1:
            raise ConfigError(f"gamma: {self.gamma} is not a valid ZC root for m = {self.m}")
        limit = max_spacing_ratio(self.m)
        if not 0 < self.spacing_ratio <= limit:
            raise ConfigError(
                f"spacing_ratio: must be positive and at most {limit:.6g} for m = {self.m}"
            )
        if not self.sigma_deg > 0:
            raise ConfigError("pas.sigma_deg: must be positive")
        if not -90.0 <= self.theta0_deg <= 90.0:
            raise ConfigError(f"pas.theta0_deg: {self.theta0_deg} outside [-90, 90] degrees")
        for snr in self.snr_db:
            problem = snr_problem(snr)
            if problem:
                raise ConfigError(f"snr_db: {problem}")
        for theta in self.theta0_deg_list:
            if not -60.0 - 1e-9 <= theta <= 60.0 + 1e-9:
                raise ConfigError(f"theta0_deg_list: {theta} outside [-60, 60] degrees")
        for key, values in (("snr_db", self.snr_db), ("theta0_deg_list", self.theta0_deg_list)):
            # Each value is finite and at most 300 in size by now, so its
            # micro-unit is an exact integer.
            seen = {}
            for value in values:
                micro = round(value * 1e6)
                if micro in seen:
                    raise ConfigError(
                        f"{key}: {value} repeats {seen[micro]} to a millionth, "
                        "so one point would be counted twice"
                    )
                seen[micro] = value
        if self.max_trials < 1:
            raise ConfigError("max_trials: must be at least 1")
        if self.min_bit_errors < 1:
            raise ConfigError("min_bit_errors: must be at least 1")
        if self.workers < 1:
            raise ConfigError("workers: must be at least 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError(f"master_seed: must be in [0, 2^64), got {self.master_seed}")
        if self.precoder_override not in ("zc", "prbs"):
            raise ConfigError(
                f"precoder_override: expected zc or prbs, got {self.precoder_override!r}"
            )
        return self

    def digest(self):
        import hashlib  # here, not at the top: it loads OpenSSL, about 3 ms a process

        text = ",".join(f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
        return hashlib.sha256(text.encode()).hexdigest()[:12]


# Config keys that are not their field's name; every other field is read
# under its own name.
_DOTTED = {
    "theta0_deg": "pas.theta0_deg",
    "sigma_deg": "pas.sigma_deg",
    "nze_l": "nze.l",
    "nze_n": "nze.n",
}
_FIELDS = {_DOTTED.get(f.name, f.name): f for f in fields(SimConfig)}


def _convert(key, default, raw):
    """``raw`` parsed by the type of the field's ``default``; a tuple is a
    comma-separated list of floats."""
    try:
        if isinstance(default, tuple):
            items = [p.strip() for p in raw.split(",")]
            if "" in items:
                raise ValueError("empty list" if items == [""] else "empty list item")
            return tuple(float(s) for s in items)
        return type(default)(raw)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse value {raw!r} ({exc})") from None


def parse_config(text, **overrides):
    """Parse config text; keyword overrides replace parsed fields."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.partition("#")[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ConfigError(f"{key}: unknown configuration key")
        field = _FIELDS[key]
        if field.name in values:
            raise ConfigError(f"{key}: duplicate key")
        values[field.name] = _convert(key, field.default, raw.strip())
    cfg = SimConfig(**values)
    if overrides:
        cfg = replace(cfg, **overrides)
    return cfg.validate()


def load_config(path, **overrides):
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    # A leading byte order mark is no part of the first key.  "utf-8-sig"
    # would drop it too, but would count a bad byte's offset from after it.
    return parse_config(text.removeprefix("\ufeff"), **overrides)
