"""Workload definitions: the sweeps each benchmark workload runs.

Every point runs to a fixed trial cap with the error budget out of reach,
so the work per point is the same on every commit, including one that
changes the random streams.  The seed reaches the program only as
``master_seed``.
"""

from dataclasses import dataclass

# Out of reach of any trial cap used here, so no point stops early.
UNREACHABLE_ERRORS = 10**15

ANGLE_THETAS = (-45.0, 30.0)
ANGLE_SNR_DB = 5.0
ANGLE_M = 1024
# Two full engine batches per angle, so each of two workers gets one.
ANGLE_CAP = 8192


@dataclass(frozen=True)
class Sweep:
    """One call into the engine: a BER-vs-SNR or an angle sweep."""

    code: str
    rate: int
    m: int
    cap: int
    snr_db: tuple
    theta0_deg: tuple = (0.0,)
    angle: bool = False
    workers: int = 1
    nze: tuple = None  # (L, N) for the Toeplitz-family codes

    def config_text(self, seed, cap=None):
        lines = [
            f"code = {self.code}",
            f"rate = {self.rate}",
            f"m = {self.m}",
            f"max_trials = {self.cap if cap is None else cap}",
            f"min_bit_errors = {UNREACHABLE_ERRORS}",
            f"master_seed = {seed}",
            f"workers = {self.workers}",
        ]
        if self.angle:
            lines.append("theta0_deg_list = " + ", ".join(map(repr, self.theta0_deg)))
        else:
            lines.append("snr_db = " + ", ".join(map(repr, self.snr_db)))
            lines.append(f"pas.theta0_deg = {self.theta0_deg[0]!r}")
        if self.nze is not None:
            lines += [f"nze.l = {self.nze[0]}", f"nze.n = {self.nze[1]}"]
        return "\n".join(lines) + "\n"

    def points(self):
        """(snr_db, theta0_deg) of each CSV row, in row order."""
        if self.angle:
            return [(self.snr_db[0], t) for t in self.theta0_deg]
        return [(s, self.theta0_deg[0]) for s in self.snr_db]

    def bits_per_codeword(self):
        if self.code == "single":
            return self.rate
        if self.code == "ac":
            return 2 * self.rate
        if self.code in ("ostbc", "qostbc", "ciod"):
            return 4 * self.rate
        return self.nze[0] * self.rate


@dataclass(frozen=True)
class Workload:
    name: str
    sweeps: tuple
    # Name of a workload whose CSV must match this one's byte for byte.
    same_csv_as: str = None
    # How closely this workload's wall time follows the calibration
    # kernel's: times are scaled by the kernel's speed factor to this power
    # (README, "Calibrated times").
    speed_exponent: float = 1.0


_BER_SNR = (0.0, 4.0, 8.0)
_ZF_SNR = (2.0, 8.0)


def _angle_sweep(workers):
    return Sweep(
        "ac", 1, ANGLE_M, ANGLE_CAP, (ANGLE_SNR_DB,), ANGLE_THETAS, angle=True, workers=workers
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ber-m64",
            tuple(
                Sweep(code, rate, 64, 4096, _BER_SNR)
                for code, rate in (
                    ("single", 1),
                    ("ac", 1),
                    ("ostbc", 1),
                    ("qostbc", 1),
                    ("ciod", 1),
                    ("ostbc", 2),
                    ("qostbc", 2),
                    ("ciod", 2),
                )
            ),
        ),
        Workload(
            "zf-nze",
            tuple(
                Sweep(code, 1, 64, cap, _ZF_SNR, nze=ln)
                for ln, cap in (((12, 4), 4096), ((30, 8), 1024))
                for code in ("nze_tc", "nze_oac")
            ),
            speed_exponent=0.75,
        ),
        Workload("angle-m1024", (_angle_sweep(1),), speed_exponent=0.5),
        Workload(
            "angle-m1024-w2", (_angle_sweep(2),), same_csv_as="angle-m1024", speed_exponent=0.5
        ),
    )
}
