"""Sweep benchmark for omnistbc.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One run of a workload:

1. warms up: one fresh process imports the package from ``src`` (and
   fails the run if it cannot);
2. untraced only: runs the workload ``SETUP_REPS`` times with every point
   capped at one trial, each in a fresh process, and times each process
   from start to exit (``setup_s``);
3. runs whole rounds of the workload, each in a fresh process so caches
   start cold, until S seconds have passed;
4. checks every point of every round against references computed apart
   from the engine (``reference.py``), and for a workload with
   ``same_csv_as`` runs that workload once more and compares CSV bytes;
5. prints a readable summary and, as the last line, one JSON object.

With ``--trace 1`` the rounds run with spans around the engine's layers
and the JSON carries the per-layer metrics instead of the end-to-end ones.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# One BLAS thread per process: with two pool workers the process count
# alone fills both cores, and one thread everywhere keeps the workloads
# comparable and the timings steady.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402  (after the thread settings)

import calibrate  # noqa: E402
import reference  # noqa: E402
from spans import layer_totals  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPS = 2
RUN_BUDGET_S = 170.0
# Reference Monte Carlo trials per engine trial, for the ML codes.
ML_REF_FACTOR = 2
_U64 = (1 << 64) - 1
_REF_TAG = 0x52454642

CSV_FIELDS = ("code", "rate_bps", "M", "snr_db", "theta0_deg", "trials", "bit_errors", "ber", "seed")

END_TO_END = {
    "sweep_s": "s",
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}

PER_LAYER = (
    "engine.sweep_s",
    "engine.self_s",
    "channel.covariance_s",
    "channel.covariance_calls",
    "channel.factor_s",
    "channel.factor_calls",
    "precoding.precoder_s",
    "codes.encode_s",
    "codes.encode_calls",
    "receivers.decode_s",
    "receivers.decode_calls",
    "receivers.aborted_trials",
    "cli.csv_s",
)


class RunError(RuntimeError):
    """The run cannot produce a result (program missing, process killed)."""


class Runner:
    def __init__(self, work_dir, deadline):
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0

    def child(self, sweeps, seed, trace=False, cap=None):
        """Run sweeps in a fresh process; returns its report (``sweep.py``)."""
        self.count += 1
        out_dir = os.path.join(self.work_dir, f"p{self.count}")
        os.makedirs(out_dir)
        spec = {
            "root": ROOT,
            "trace": trace,
            "sweeps": [
                {
                    "config": s.config_text(seed, cap),
                    "angle_snr_db": s.snr_db[0] if s.angle else None,
                }
                for s in sweeps
            ],
        }
        spec_path = os.path.join(out_dir, "spec.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        cmd = [sys.executable, os.path.join(HERE, "sweep.py"), spec_path, out_dir]
        spawned_at = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=sys.stderr, start_new_session=True)
        # A blocking wait returns the moment the process ends (a wait with a
        # timeout polls, which would quantize the times); the timer enforces
        # the run's budget.
        overran = threading.Event()

        def kill():
            overran.set()
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass

        watchdog = threading.Timer(max(1.0, self.deadline - time.monotonic()), kill)
        watchdog.start()
        try:
            code = proc.wait()
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if overran.is_set():
            raise RunError("a workload process overran the run's time budget")
        if code != 0:
            raise RunError(f"workload process exited with code {code}")
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        report["spawned_at"] = spawned_at
        return report


def _speed_factor(report):
    """Reference kernel time over the kernel times measured in a process."""
    return calibrate.REFERENCE_S / statistics.mean(report["calibration_s"])


def _setup_seconds(report, exponent):
    """Calibrated seconds from spawning a process until its sweeps were done."""
    wall = report["done_at"] - report["spawned_at"] - report["calibrated_before_done_s"]
    return wall * _speed_factor(report) ** exponent


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _parse_csv(data):
    lines = data.decode("utf-8").split("\n")
    if lines[0] != ",".join(CSV_FIELDS) or lines[-1] != "":
        return None
    return [dict(zip(CSV_FIELDS, line.split(","))) for line in lines[1:-1]]


def _references(workload, seed):
    """Per sweep, per point: ("exact", ber) or ("mc", ber, trials)."""
    from omnistbc import codes
    from omnistbc.constellations import make_psk
    from omnistbc.precoding import precoder_for_code

    spacing = 1.0 / math.sqrt(3.0)  # the config default the workloads use
    sigma = math.radians(5.0)
    out = []
    for si, sweep in enumerate(workload.sweeps):
        n_ports = sweep.nze[1] if sweep.nze else None
        w = precoder_for_code(sweep.code, sweep.m, 1, n_ports=n_ports).w_matrix
        if sweep.code in ("ostbc", "qostbc", "ciod"):
            encode = getattr(codes, f"encode_{sweep.code}")
            nbits = sweep.bits_per_codeword()
            book = [
                encode(np.array([(k >> (nbits - 1 - i)) & 1 for i in range(nbits)]), sweep.rate).matrix
                for k in range(2**nbits)
            ]
        elif sweep.nze:
            enc = getattr(codes, f"encode_{sweep.code}")
            basis = reference.real_linear_basis(lambda x: enc(x, *sweep.nze).matrix, sweep.nze[0])
        refs = []
        for pi, (snr, theta) in enumerate(sweep.points()):
            q = reference.effective_covariance(w, spacing, math.radians(theta), sigma)
            sigma_n2 = 10.0 ** (-snr / 10.0)
            rng = np.random.default_rng([_REF_TAG, seed & _U64, si, pi])
            if sweep.code in ("single", "ac"):
                if sweep.rate != 1:
                    raise ValueError("the exact reference covers BPSK only")
                refs.append(("exact", reference.exact_bpsk_ber(np.linalg.eigvalsh(q), sigma_n2)))
            elif sweep.nze:
                n = sweep.cap
                err, bits = reference.zf_reference(basis, make_psk(2).points, q, sigma_n2, n, rng)
                refs.append(("mc", err / bits, n))
            else:
                n = ML_REF_FACTOR * sweep.cap
                err, bits = reference.ml_reference(book, q, sigma_n2, n, rng)
                refs.append(("mc", err / bits, n))
        out.append(refs)
    return out


def _check_point(sweep, seed, expect, row, aborted, bits_sent, ref):
    """Reasons a point fails its checks (empty when it passes)."""
    bad = []
    snr, theta = expect
    trials, errors = int(row["trials"]), int(row["bit_errors"])
    if (row["code"], int(row["M"]), int(row["seed"])) != (sweep.code, sweep.m, seed):
        bad.append("code, M or seed column wrong")
    if not (math.isclose(float(row["snr_db"]), snr) and math.isclose(float(row["theta0_deg"]), theta)):
        bad.append("snr_db or theta0_deg column wrong")
    if trials + aborted != sweep.cap:
        bad.append(f"trials {trials} + aborted {aborted} != cap {sweep.cap}")
    if bits_sent != trials * sweep.bits_per_codeword():
        bad.append(f"bits_sent {bits_sent} != trials x {sweep.bits_per_codeword()}")
    if trials == 0:
        bad.append("no completed trials")
        return bad
    ber = errors / (trials * sweep.bits_per_codeword())
    if not math.isclose(float(row["ber"]), ber, rel_tol=1e-9, abs_tol=1e-300):
        bad.append("ber column != bit_errors / bits_sent")
    ok, half = reference.agreement(ber, trials, *ref[1:])
    if not ok:
        bad.append(f"ber {ber:.6g} vs reference {ref[1]:.6g} (half-width {half:.3g})")
    return bad


def run(workload_name, seed, seconds, trace):
    workload = WORKLOADS[workload_name]
    work_dir = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}-{time.time_ns()}")
    os.makedirs(work_dir)
    runner = Runner(work_dir, time.monotonic() + RUN_BUDGET_S)
    try:
        runner.child((), seed)  # warm-up: the program imports, bytecode is compiled
        sys.path.insert(0, os.path.join(ROOT, "src"))

        setup_times = []
        if not trace:
            for _ in range(SETUP_REPS):
                report = runner.child(workload.sweeps, seed, cap=1)
                setup_times.append(_setup_seconds(report, workload.speed_exponent))

        rounds = []
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < seconds:
            rounds.append(runner.child(workload.sweeps, seed, trace=trace))

        peer_csv = None
        if workload.same_csv_as:
            peer = runner.child(WORKLOADS[workload.same_csv_as].sweeps, seed)
            peer_csv = [_read(s["csv"]) if s["error"] is None else None for s in peer["sweeps"]]

        refs = _references(workload, seed)
        return _summarize(workload, seed, trace, setup_times, rounds, refs, peer_csv)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _summarize(workload, seed, trace, setup_times, rounds, refs, peer_csv):
    """Check every point of every round; returns the run's result as a dict.

    A point fails when its sweep raised or it fails a check; ``correct``
    is false when any point failed a check, so a wrong BER fails the run.
    """
    attempted = failed = 0
    problems = []
    checks_failed = False
    first_rows = {}
    per_round = []
    for ri, report in enumerate(rounds):
        sweep_s = trials = 0
        for si, (sweep, entry) in enumerate(zip(workload.sweeps, report["sweeps"])):
            expect = sweep.points()
            attempted += len(expect)
            sweep_s += entry["seconds"]
            rows = None if entry["error"] else _parse_csv(_read(entry["csv"]))
            if rows is None or len(rows) != len(expect):
                failed += len(expect)
                checks_failed |= entry["error"] is None
                problems.append(f"round {ri} sweep {si}: {entry['error'] or 'malformed CSV'}")
                continue
            base_rows = first_rows.setdefault(si, rows)
            peer_rows = None
            if peer_csv is not None:
                peer_rows = (_parse_csv(peer_csv[si]) if peer_csv[si] else None) or []
            for pi, row in enumerate(rows):
                trials += int(row["trials"])
                bad = _check_point(
                    sweep, seed, expect[pi], row, entry["aborted"][pi], entry["bits_sent"][pi], refs[si][pi]
                )
                if row != base_rows[pi]:
                    bad.append("row differs from the first round's (same inputs)")
                if peer_rows is not None and (pi >= len(peer_rows) or row != peer_rows[pi]):
                    bad.append(f"row differs from {workload.same_csv_as}'s for the same inputs")
                if bad:
                    failed += 1
                    checks_failed = True
                    problems.append(f"round {ri} sweep {si} point {pi}: " + "; ".join(bad))
        per_round.append((sweep_s, trials, report))

    if trace:
        metrics = _layer_metrics(per_round)
    else:
        metrics = _end_to_end(workload, setup_times, per_round)
    return {
        "correct": not checks_failed,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "problems": problems,
        "round_s": [r[0] for r in per_round],
        "speed_factors": [_speed_factor(r[2]) for r in per_round],
        "setup_s": setup_times,
    }


def _end_to_end(workload, setup_times, per_round):
    """The run's end-to-end metrics: medians over its rounds and set-ups.

    Times are calibrated: each process's wall seconds are scaled by its
    speed factor (``_speed_factor``) to the workload's ``speed_exponent``,
    which cancels most of the machine's speed drift.
    """
    workers = max(s.workers for s in workload.sweeps)
    # getrusage gives the largest reaped worker's peak; pool workers run the
    # same set-up and batches, so the largest times the worker count stands
    # for their sum.
    rss = [
        (r["self_rss_kb"] + (r["children_rss_kb"] * workers if workers > 1 else 0)) / 1024.0
        for _, _, r in per_round
    ]
    calibrated = [(s * _speed_factor(r) ** workload.speed_exponent, t) for s, t, r in per_round]
    values = {
        "sweep_s": statistics.median(s for s, _ in calibrated),
        "trials_per_s": statistics.median(t / s for s, t in calibrated),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": statistics.median(rss),
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def _layer_metrics(per_round):
    samples = []
    for sweep_s, _, report in per_round:
        totals = layer_totals(sweep_s, report["spans"], report["pid"])
        totals["receivers.aborted_trials"] = sum(
            sum(s["aborted"]) for s in report["sweeps"] if s["error"] is None
        )
        samples.append(totals)
    metrics = {}
    for name in PER_LAYER:
        unit = "count" if name.endswith(("_calls", "_trials")) else "s"
        metrics[name] = {"value": statistics.median(s[name] for s in samples), "unit": unit}
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        res = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RunError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in res["problems"]:
        print(f"FAIL {line}")
    print(
        f"workload {args.workload} seed {args.seed}: "
        f"{res['attempted']} points attempted, {res['failed']} failed"
    )
    print("  rounds, wall sweep seconds: " + " ".join(f"{t:.3f}" for t in res["round_s"]))
    print(
        f"  rounds, kernel speed factor (applied to the power {WORKLOADS[args.workload].speed_exponent}): "
        + " ".join(f"{f:.3f}" for f in res["speed_factors"])
    )
    if res["setup_s"]:
        print("  set-up processes, calibrated seconds: " + " ".join(f"{t:.3f}" for t in res["setup_s"]))
    for name, m in res["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
