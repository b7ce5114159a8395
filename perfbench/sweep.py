"""One round of a workload in a fresh process: the sweeps, their CSVs and a report.

Usage: python3 perfbench/sweep.py SPEC.json OUT_DIR

SPEC.json holds the checkout root, the config text of each sweep, the
fixed SNR of angle sweeps and whether to trace.  Each sweep calls
``run_ber_sweep`` or ``run_angle_sweep`` and then ``emit_csv``, the
program's public entry points; its time runs from the call into the sweep
until the CSV is written.  The calibration kernel runs before each sweep
and after the last one, outside those times.  OUT_DIR receives
``sweep<i>.csv`` and ``report.json``.
"""

import json
import math
import os
import resource
import sys
import time

from calibrate import kernel_seconds

# Calibration passes per round, spread over the gaps around the sweeps.
CALIBRATION_PASSES = 8


def _import_program(root):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import omnistbc

    where = os.path.realpath(os.path.dirname(omnistbc.__file__))
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise SystemExit(f"omnistbc imported from {where}, not from {src}")


def main(spec_path, out_dir):
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    _import_program(spec["root"])
    tracer = None
    if spec["trace"]:
        from spans import Tracer

        tracer = Tracer(out_dir)
        tracer.install()
    from omnistbc import engine
    from omnistbc.config import parse_config

    passes = math.ceil(CALIBRATION_PASSES / (len(spec["sweeps"]) + 1))
    calibration = []

    def calibrate():
        calibration.extend(kernel_seconds() for _ in range(passes))

    sweeps = []
    for i, sweep in enumerate(spec["sweeps"]):
        cfg = parse_config(sweep["config"])
        calibrate()
        path = os.path.join(out_dir, f"sweep{i}.csv")
        entry = {"csv": path, "error": None}
        start = time.perf_counter()
        try:
            if sweep["angle_snr_db"] is None:
                points = engine.run_ber_sweep(cfg)
            else:
                points = [p for _, p in engine.run_angle_sweep(cfg, sweep["angle_snr_db"])]
            engine.emit_csv(points, path)
        except Exception as exc:  # a failing sweep fails its points, not the round
            entry["error"] = f"{type(exc).__name__}: {exc}"
        else:
            entry["aborted"] = [p.aborted for p in points]
            entry["bits_sent"] = [p.bits_sent for p in points]
        entry["seconds"] = time.perf_counter() - start
        sweeps.append(entry)

    done_at = time.monotonic()
    calibrated_before_done = sum(calibration)
    calibrate()
    report = {
        "pid": os.getpid(),
        "sweeps": sweeps,
        "done_at": done_at,
        "calibration_s": calibration,
        "calibrated_before_done_s": calibrated_before_done,
        "self_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "children_rss_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }
    if tracer is not None:
        report["spans"] = tracer.spans + tracer.worker_spans()
    with open(os.path.join(out_dir, "report.json"), "w", encoding="utf-8") as fh:
        json.dump(report, fh)


if __name__ == "__main__":
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    main(sys.argv[1], sys.argv[2])
