"""Byte pins on the CSVs of the 36-CSV gate.

The gate is 18 frozen configs on GATE_BASE, each run as ``ber-sweep`` and
as ``angle-sweep --snr-db 5``.  The configs cover every kind and the ways
a sweep can be set up: several rates, the pseudo-random precoder override
(``ac_prbs``), two pool workers (``ac_w2``, whose CSVs must equal
``ac_r1``'s) and the NZE shapes; ``nze_oac_6_3`` needs M = 72, since 64
is not a multiple of N^2 = 9.  Every pure refactor must leave all 36
byte-identical.  A deliberate change of the random streams or of the
trial arithmetic (as when trials moved to one Philox stream per point and
an N-dimensional channel draw) changes them: such a change must update the
pins here and report the old and new digests in CHANGES.md.
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
        "2e027e82d933caf816521a6a87fbf7e5db6655d7eff98625fc538e410c4e926d",
        "e7ec4cad4854aec465c1d5422863f999fb9f6ae9e9f3379259d6a9330496f235",
    ),
    "ac_r1": (
        _code("ac", 1),
        "2e87975f31b6298c23f6bff94dee429fd63489ee2277ef967ab4994e426cad01",
        "169d27b20640aeff090f28cd3ac65b15e43d6fc9268cb64e4767af67a5b7a08b",
    ),
    "ac_r2": (
        _code("ac", 2),
        "add4dc4cecb822fe79e4c6c18e7ed13b93a2ae3b39d2ebef450428fb10f945ef",
        "99208f2d620132cbf22be51de93aa61160462ed73cda43afd0c24abddc75e817",
    ),
    "ac_w2": (
        _code("ac", 1, "workers = 2"),
        "2e87975f31b6298c23f6bff94dee429fd63489ee2277ef967ab4994e426cad01",
        "169d27b20640aeff090f28cd3ac65b15e43d6fc9268cb64e4767af67a5b7a08b",
    ),
    "ciod_r1": (
        _code("ciod", 1),
        "76894b9cab57893e6c495c68def3ee234ac17acab13817c181ec401e4a6aff77",
        "43732bb93af9a09fa30adee507733684796dac1a216ce5dc9dfb488885fa179b",
    ),
    "ciod_r2": (
        _code("ciod", 2),
        "068c2b9589470662084cffbfb7e3a56fdcc101186647545921bb26727c5f2c5e",
        "7a4488825702941d6c2af43a1b4396f27131ccb201608e5c7194c51deb70b6f8",
    ),
    "nze_oac_12_4": (
        _nze("nze_oac", 12, 4),
        "dbeda20e0eb5ac54bbe3d8cb2c7c459775dbe8594ac5d656f37973b0d0da741a",
        "90f1a5494e0a042f34d638d268bf49f59702e1d79bf09cec7fa0d25d390432e8",
    ),
    "nze_oac_30_8": (
        _nze("nze_oac", 30, 8),
        "e67a7e1bab860572af6bc38e40fcbf1f2b196a8048a8e39f622c0259f777db4f",
        "26329d97da7d56b33fcc1f06183bed85930fc2f92e8fbdb8567be80c340a9662",
    ),
    "nze_oac_6_3": (
        _nze("nze_oac", 6, 3, m=72),
        "611b9f54d4e04e48a2d506b44e70295014b1cd13fc04b21120de8ecf067b65f9",
        "505685b7419d28a05dc242c0df83c2def41ba01c88fb91ac86f03642af1a048a",
    ),
    "nze_tc_12_4": (
        _nze("nze_tc", 12, 4),
        "5c521403b8b11d5c8c8331efeaa817b54dd8747191e17f81dab9789a0fd664d2",
        "2303e9216ef5cd74a15d2528596d3abc833ea00cdc3722a775214737b9c6413a",
    ),
    "nze_tc_30_8": (
        _nze("nze_tc", 30, 8),
        "d556d720fcc195497877fc62ffe5646b8e4fb632173719838add1b9422a76555",
        "33df67f89169ebc57e35ed3769459cccc96f28a6249ba9ccce88bce71c24fe04",
    ),
    "ostbc_r1": (
        _code("ostbc", 1),
        "80846f6e7837434e24faf289a482baab1d72b5d33d3784137830d9559beda05e",
        "0b329a9d824d3879bc0a7fb191069b4eff13206004008639e409a6232e5d4158",
    ),
    "ostbc_r2": (
        _code("ostbc", 2),
        "c07a9653f7e8f8076a0567a711387c7a356a3ab3aa21781da70085c772868e43",
        "58e1140505a30f974b1718be369e32ed94b11b2c9c2f75d2054bb5f6d20f8e4a",
    ),
    "qostbc_r1": (
        _code("qostbc", 1),
        "9403e82b529579a2a4cd66b9f9c9bb1049376948bf6900d71bc7db76d9374b7e",
        "dc492880ce2e1f7576bf5c57b6fccd5218d7812671f3fa1159d23966e6803522",
    ),
    "qostbc_r2": (
        _code("qostbc", 2),
        "3cf79b4940e271664851c90993e2e17b8dbfd76f98ea54d3e40ca151c8446548",
        "56d2e570bf065baae651cf650a16ddaf748260ee619adfb3695cbf199db72af7",
    ),
    "qostbc_r3": (
        _code("qostbc", 3),
        "25ba68bc948f2bac307e896f8551e1280c0038febf37c4d0c8b9d3f138b2efd9",
        "fbe87200c8c2a1da13cda8e92a7424043840541b738bed02b42ece3c424266da",
    ),
    "single_r1": (
        _code("single", 1),
        "50fb5800bf6f64e7117e19f9b697870b17fdc6bb7c984aea6b935c113cb1b152",
        "605634acc5aa5ab894adca7cf3da41f72a951242efb1f107ef235ec0cb77f8b8",
    ),
    "single_r2": (
        _code("single", 2),
        "3e5aa43912b3716461d7b625f357703b759842b0cfdefa63869fa73edc7d8e10",
        "c00290b1e0ec7c81d4053f952a461b6aa1fd18b18bff198573ab6ca17bd7fb8a",
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
