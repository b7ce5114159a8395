"""Byte pins on the CSVs of a few frozen configs.

The sha256 digests below are those of the 36-CSV gate recorded in
CHANGES.md, which every pure refactor must leave byte-identical.  A
deliberate change of the random streams or of the trial arithmetic (as
when trials moved to one Philox stream per point and an N-dimensional
channel draw, ROADMAP item 3) changes them: such a change must update the
pins here and report the old and new digests in CHANGES.md.
"""

import hashlib

import pytest

from omnistbc.cli import cli

GATE_BASE = """
m = 64
snr_db = 0, 6
pas.theta0_deg = 10
master_seed = 7
max_trials = 5000
min_bit_errors = 1000000000000000
theta0_deg_list = -45, 30
"""

PINS = [
    (
        "ac_r1.ber",
        "code = ac\nrate = 1\n",
        "2e87975f31b6298c23f6bff94dee429fd63489ee2277ef967ab4994e426cad01",
    ),
    (
        "qostbc_r1.ber",
        "code = qostbc\nrate = 1\n",
        "9403e82b529579a2a4cd66b9f9c9bb1049376948bf6900d71bc7db76d9374b7e",
    ),
    (
        "nze_tc_12_4.ber",
        "code = nze_tc\nrate = 1\nnze.l = 12\nnze.n = 4\n",
        "5c521403b8b11d5c8c8331efeaa817b54dd8747191e17f81dab9789a0fd664d2",
    ),
    (
        "nze_oac_12_4.ber",
        "code = nze_oac\nrate = 1\nnze.l = 12\nnze.n = 4\n",
        "dbeda20e0eb5ac54bbe3d8cb2c7c459775dbe8594ac5d656f37973b0d0da741a",
    ),
    (
        "ac_w2.angle",
        "code = ac\nrate = 1\nworkers = 2\n",
        "169d27b20640aeff090f28cd3ac65b15e43d6fc9268cb64e4767af67a5b7a08b",
    ),
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
