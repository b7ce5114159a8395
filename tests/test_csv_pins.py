"""Byte pins on the CSVs of the 36-CSV gate.

The gate is 18 frozen configs on GATE_BASE, each run as ``ber-sweep`` and
as ``angle-sweep --snr-db 5``.  The configs cover every kind and the ways
a sweep can be set up: several rates, the pseudo-random precoder override
(``ac_prbs``), two pool workers (``ac_w2``, whose CSVs must equal
``ac_r1``'s) and the NZE shapes; ``nze_oac_6_3`` needs M = 72, since 64
is not a multiple of N^2 = 9.  Every pure refactor must leave all 36
byte-identical.  A deliberate change of the random streams or of the
trial arithmetic (as when trials moved to an N-dimensional channel draw,
and when every point of a sweep came to read one Philox stream keyed by
the seed) changes them: such a change must update the pins here and
report the old and new digests in CHANGES.md.
"""

import hashlib

import pytest

from omnistbc.cli import cli

GATE_BASE = """
snr_db = 0, 6
pas.theta0_deg = 10
master_seed = 7
max_trials = 5000
min_bit_errors = 1000000000000000
theta0_deg_list = -45, 30
"""


def _code(kind, rate, extra="", m=64):
    return f"m = {m}\ncode = {kind}\nrate = {rate}\n" + (extra + "\n" if extra else "")


def _nze(kind, l_sym, n_ports, m=64):
    return _code(kind, 1, f"nze.l = {l_sym}\nnze.n = {n_ports}", m)


# name -> (config lines, ber-sweep digest, angle-sweep digest)
GATE = {
    "ac_prbs": (
        _code("ac", 1, "precoder_override = prbs"),
        "c191c3dc96e922043983037975b1a3eafde65b80a85f1515884a38b699af1e16",
        "ad39955dc9024193f9cede7aeb194508673595edd2f4cd3d5cef6ee6e0b05b45",
    ),
    "ac_r1": (
        _code("ac", 1),
        "8a029766d8ee9e933b3160e5dba525de544cce2522979d74e8b4548d3f45f40f",
        "64eddc215b48f1a46dc6a69ad9e4b8c51b54d1fd9c7045209ea9d3048da982b4",
    ),
    "ac_r2": (
        _code("ac", 2),
        "240d84a2208d92b998972529d490583ae6982938f86b5ae15917e6a8294c7cd4",
        "1b894422f61f1fff9c780004161b7ca108587b4904f6059ed59b0c53fb3d15f5",
    ),
    "ac_w2": (
        _code("ac", 1, "workers = 2"),
        "8a029766d8ee9e933b3160e5dba525de544cce2522979d74e8b4548d3f45f40f",
        "64eddc215b48f1a46dc6a69ad9e4b8c51b54d1fd9c7045209ea9d3048da982b4",
    ),
    "ciod_r1": (
        _code("ciod", 1),
        "9f45463aa50b356a7e9ef1c4ae163a17798f082f479fc042dc6bbfa12ee467ea",
        "77c87b815e46eaedfe60309d73c480759fe08a993b0f9bc5680d502c1306149e",
    ),
    "ciod_r2": (
        _code("ciod", 2),
        "6b3266234a091a140ec3f0186413bedc9f5581f61dd73ca54e399647f02fdf68",
        "c228c243b99867161fed2f1c40b9ac98534765514529054ea005dad1a64dc10e",
    ),
    "nze_oac_12_4": (
        _nze("nze_oac", 12, 4),
        "7db90588e56ca998b9dc9064f7e42aa957057598b0bd062ef26f96518b4fa4f2",
        "6f504d0f3e2af50030fc66be0f168038c2bd1048b579edb1bd21419df544250c",
    ),
    "nze_oac_30_8": (
        _nze("nze_oac", 30, 8),
        "4c3b6c0aaede423e3c0e116b33ac507af8d3adc68474271de6053e1e35f54629",
        "b6b62617feac53cc6a9c4fc29fe1c7e60ef4f42e790a696bfa9b38dc14185e8e",
    ),
    "nze_oac_6_3": (
        _nze("nze_oac", 6, 3, m=72),
        "608f2af3890daf5dec8399d3607895cc08b9f338f705259471ae95d80c129edd",
        "f59ced1f77de74d3e75d3d9edf4853f2ae2d96d0ea6599bf1f284af8f8462f4c",
    ),
    "nze_tc_12_4": (
        _nze("nze_tc", 12, 4),
        "b88714134eb143cae6e7c91cd3872b6f565846e69f4ecb3026e24c62ddc7913f",
        "0bd7b1863b96896cc509992a33bd65c99c511193046675f09b05484a706ff078",
    ),
    "nze_tc_30_8": (
        _nze("nze_tc", 30, 8),
        "dcc5912d566580accbf06329ed0f1ae7cb21bf451675d9f12caa7ccaf208976e",
        "87dd217a5e0edc65aed784543833e869b21a95881f3d6822abf5dac949b87e5d",
    ),
    "ostbc_r1": (
        _code("ostbc", 1),
        "76dc69a17001900d67ef1fde19b0652a38d4da223e32e5db73f2a6c12efd3532",
        "28618eaa24811a680c24df9f30ac9193144ebbc54c594b6ec7275e4aa1956fcc",
    ),
    "ostbc_r2": (
        _code("ostbc", 2),
        "4ac0a4bc509cf8f9f2b913883f228ba2f331e4cf60310a9a64c7dc196972a052",
        "30abe2030f2412ee0b17cc715daf23bbfe26760da82ff1aa45eadbf210342119",
    ),
    "qostbc_r1": (
        _code("qostbc", 1),
        "5d6b44fdc15cfa8ffa7e65ca42faafa3730cdff6f2f8c5d8233c5156d5a2684e",
        "25fbbdfeb2c4b2c0469544fffe4879e0812dc0f384b8d1fa793dda34a63606a8",
    ),
    "qostbc_r2": (
        _code("qostbc", 2),
        "3bdbc5a1cffdc5bb123308e3507ddae3ab97014f443243e6dc3bbd115ab80fba",
        "78ed3e396249955c51babb9e6f6fb0781f45146fe9f05ca5ec80395683701a46",
    ),
    "qostbc_r3": (
        _code("qostbc", 3),
        "cd73f815d728ae7a4fb7b0d521e277aecb1df8b7530a9c16bcb829e095bec8d9",
        "c88ca9d761a004327caad99b79c05d90e9f7497b1ad416f1ad72d96803c543f3",
    ),
    "single_r1": (
        _code("single", 1),
        "e19922e8ec4d24acd558f87c78aa50bfbe6580a800f57c3cb2aff1d89ae03e2d",
        "20a406bff86b5835c86066b22bedc25f14ea64d0fb76961327db858811d3220b",
    ),
    "single_r2": (
        _code("single", 2),
        "777bc9279f97172f43e46d061496c3c73916dd4ebc58085426c6d2edbd60c5b1",
        "aa6e6b2e7d32ae571097dd68ce225e073bfb4d406d3b9c9345ebf34bcd984ba4",
    ),
}

PINS = [
    (f"{name}.{sweep}", extra, digest)
    for name, (extra, ber, angle) in GATE.items()
    for sweep, digest in (("ber", ber), ("angle", angle))
]


@pytest.mark.parametrize("name,extra,digest", PINS, ids=[p[0] for p in PINS])
def test_csv_bytes_are_pinned(tmp_path, name, extra, digest):
    cfg = tmp_path / "gate.cfg"
    cfg.write_text(GATE_BASE + extra)
    out = tmp_path / f"{name}.csv"
    if name.endswith(".angle"):
        argv = ["angle-sweep", "--snr-db", "5"]
    else:
        argv = ["ber-sweep"]
    assert cli(argv + ["--config", str(cfg), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
