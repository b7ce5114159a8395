"""Byte pins on the CSVs of a few frozen configs.

The sha256 digests below are those of the 36-CSV gate recorded in
CHANGES.md, which every pure refactor must leave byte-identical.  A
deliberate change of the random streams or of the trial arithmetic (for
example drawing the N-dimensional effective channel directly, ROADMAP
item 3) changes them: such a change must update the pins here and report
the old and new digests in CHANGES.md.
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
        "9328862827c1827c08ff1bda5855977811ce1bb4942c4c0db1878db6d8593c77",
    ),
    (
        "qostbc_r1.ber",
        "code = qostbc\nrate = 1\n",
        "d0b74b5c413ba95f1311a1be911b8783d995b646295b980b644fe360c468ade3",
    ),
    (
        "nze_tc_12_4.ber",
        "code = nze_tc\nrate = 1\nnze.l = 12\nnze.n = 4\n",
        "cb0aa136e111216bc47baf9e080c916d52a489ce2295464a6e3bf6327cf1b02d",
    ),
    (
        "ac_w2.angle",
        "code = ac\nrate = 1\nworkers = 2\n",
        "2252874854a136f848451e875e7853d83f0fe35fde158d92d767c8a1a0f3cdbd",
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
