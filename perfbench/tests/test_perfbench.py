"""Tests for the benchmark's own code: references, checks, spans, workloads.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate, special

import reference
import run
from spans import layer_totals
from workloads import WORKLOADS, Sweep, Workload

from omnistbc.channel import covariance_for
from omnistbc.config import parse_config
from omnistbc.engine import run_ber_sweep
from omnistbc.precoding import precoder_for_code


def _direct_average(density, sigma_n2):
    """E[Q(sqrt(2 x / sigma_n2))] by quadrature over the density of x = |g|^2."""
    value, _ = integrate.quad(
        lambda x: 0.5 * special.erfc(math.sqrt(x / sigma_n2)) * density(x),
        0.0,
        np.inf,
        epsabs=1e-14,
        limit=400,
    )
    return value


@pytest.mark.parametrize("sigma_n2", [1.0, 0.2, 0.03])
def test_exact_ber_single_eigenvalue(sigma_n2):
    lam = 0.75
    gam = lam / sigma_n2
    closed = 0.5 * (1.0 - math.sqrt(gam / (1.0 + gam)))
    direct = _direct_average(lambda x: math.exp(-x / lam) / lam, sigma_n2)
    assert reference.exact_bpsk_ber([lam], sigma_n2) == pytest.approx(closed, rel=1e-9)
    assert reference.exact_bpsk_ber([lam], sigma_n2) == pytest.approx(direct, rel=1e-7)


@pytest.mark.parametrize("eigs", [(0.3, 0.7), (0.5, 0.5), (0.5, 0.5 + 1e-9)])
@pytest.mark.parametrize("sigma_n2", [0.5, 0.05])
def test_exact_ber_two_eigenvalues(eigs, sigma_n2):
    a, b = eigs
    if abs(a - b) < 1e-6:  # Gamma(2, a): equal eigenvalues
        density = lambda x: x * math.exp(-x / a) / a**2  # noqa: E731
    else:  # hypoexponential
        density = lambda x: (math.exp(-x / b) - math.exp(-x / a)) / (b - a)  # noqa: E731
    assert reference.exact_bpsk_ber(eigs, sigma_n2) == pytest.approx(
        _direct_average(density, sigma_n2), rel=1e-7
    )


@pytest.mark.parametrize("code,m,theta", [("single", 64, 0.0), ("ac", 64, -45.0), ("ciod", 256, 30.0)])
def test_effective_covariance_matches_program(code, m, theta):
    w = precoder_for_code(code, m, 1).w_matrix
    spacing, th, sigma = 1.0 / math.sqrt(3.0), math.radians(theta), math.radians(5.0)
    program = w.conj().T @ covariance_for(m, spacing, th, sigma).matrix @ w
    ours = reference.effective_covariance(w, spacing, th, sigma)
    assert np.max(np.abs(ours - program)) < 1e-9


def test_agreement_interval():
    ok, half = reference.agreement(0.05, 10000, 0.05)
    assert ok and half > 0
    assert not reference.agreement(0.05 + 3 * half, 10000, 0.05)[0]
    assert not reference.agreement(0.05 - 3 * half, 10000, 0.05)[0]
    # A handful of errors against an exact zero is not significant.
    assert reference.agreement(3 / 10000, 10000, 0.0)[0]


def _engine_point(sweep, seed):
    cfg = parse_config(sweep.config_text(seed))
    return run_ber_sweep(cfg)[0]


def _row(point):
    return {
        "code": point.code,
        "M": str(point.n_antennas),
        "seed": str(point.seed),
        "snr_db": repr(point.snr_db),
        "theta0_deg": repr(point.theta0_deg),
        "trials": str(point.trials),
        "bit_errors": str(point.bit_errors),
        "ber": repr(point.ber),
    }


@pytest.mark.parametrize(
    "sweep",
    [
        Sweep("ac", 1, 64, 4096, (0.0,)),  # exact reference
        Sweep("qostbc", 1, 64, 4096, (0.0,)),  # exhaustive-ML reference
        Sweep("nze_oac", 1, 64, 4096, (0.0,), nze=(12, 4)),  # least-squares ZF reference
    ],
    ids=lambda s: s.code,
)
def test_reference_check_accepts_engine_and_rejects_moved_ber(sweep):
    seed = 7
    ref = run._references(Workload("one", (sweep,)), seed)[0][0]
    point = _engine_point(sweep, seed)
    expect = sweep.points()[0]

    def check(bit_errors):
        row = _row(point)
        row["bit_errors"] = str(bit_errors)
        row["ber"] = repr(bit_errors / point.bits_sent)
        return run._check_point(sweep, seed, expect, row, point.aborted, point.bits_sent, ref)

    assert check(point.bit_errors) == []
    _, half = reference.agreement(point.ber, point.trials, *ref[1:])
    for direction in (+1, -1):
        moved = round((point.ber + direction * 2 * half) * point.bits_sent)
        assert moved >= 0
        assert any("reference" in reason for reason in check(moved))


def test_count_checks_reject_short_point():
    sweep = Sweep("ac", 1, 64, 4096, (4.0,))
    point = _engine_point(dataclasses.replace(sweep, cap=4000), 3)
    ref = ("exact", point.ber)
    bad = run._check_point(sweep, 3, sweep.points()[0], _row(point), 0, point.bits_sent, ref)
    assert any("cap" in reason for reason in bad)
    bad = run._check_point(sweep, 3, sweep.points()[0], _row(point), 96, point.bits_sent + 1, ref)
    assert any("bits_sent" in reason for reason in bad)


def test_layer_totals_self_time():
    spans = [
        {"layer": "channel.factor", "start": 0.0, "end": 1.0, "depth": 0, "pid": 1},
        {"layer": "codes.encode", "start": 1.0, "end": 1.5, "depth": 0, "pid": 1},
        {"layer": "codes.encode", "start": 1.1, "end": 1.2, "depth": 1, "pid": 1},
        {"layer": "channel.factor", "start": 0.0, "end": 2.0, "depth": 0, "pid": 2},
    ]
    totals = layer_totals(4.0, spans, owner=1)
    assert totals["engine.self_s"] == pytest.approx(2.5)
    assert totals["channel.factor_s"] == pytest.approx(3.0)
    assert totals["channel.factor_calls"] == 2
    assert totals["codes.encode_calls"] == 2


@pytest.fixture
def tiny_workloads(monkeypatch):
    """Every workload with an eight-trial cap and a single set-up process."""
    tiny = {
        name: dataclasses.replace(w, sweeps=tuple(dataclasses.replace(s, cap=8) for s in w.sweeps))
        for name, w in WORKLOADS.items()
    }
    monkeypatch.setattr(run, "WORKLOADS", tiny)
    monkeypatch.setattr(run, "SETUP_REPS", 1)
    return tiny


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_finishes_on_a_tiny_cap(tiny_workloads, name):
    res = run.run(name, 5, 0.0, False)
    n_points = sum(len(s.points()) for s in tiny_workloads[name].sweeps)
    assert (res["correct"], res["attempted"], res["failed"], res["problems"]) == (True, n_points, 0, [])
    assert set(res["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in res["metrics"].values())


def test_traced_pool_run_counts_worker_spans(tiny_workloads):
    res = run.run("angle-m1024-w2", 5, 0.0, True)
    assert res["correct"] and res["failed"] == 0
    metrics = res["metrics"]
    assert set(metrics) == set(run.PER_LAYER)
    n_angles = len(tiny_workloads["angle-m1024-w2"].sweeps[0].points())
    # The parent builds each angle's set-up.  Workers fork at the first
    # submit and inherit the first angle's; the worker that runs a later
    # angle's batch builds that angle's again.
    assert metrics["channel.factor_calls"]["value"] == 2 * n_angles - 1
    assert metrics["receivers.decode_calls"]["value"] == n_angles


def test_fails_without_the_program(tmp_path):
    shutil.copytree(os.path.dirname(run.__file__), tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "ber-m64", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
