"""Spans around the public functions that ``omnistbc.engine`` calls.

Tracing wraps module and class attributes from outside the program; no
file of the package changes.  Each span records its layer, start, end,
nesting depth and process.  The sweep process keeps its spans in memory;
a forked pool worker has no exit hook, so it appends each span to its own
``spans-<pid>.jsonl`` file as the span closes.
"""

import functools
import importlib
import json
import os
import time
from collections import defaultdict

LAYERS = {
    "channel.covariance": [("omnistbc.engine", "covariance_for")],
    "channel.factor": [("omnistbc.engine", "covariance_factor")],
    "precoding.precoder": [
        ("omnistbc.engine", "precoder_for_code"),
        ("omnistbc.engine", "prbs_phase_vector"),
    ],
    "codes.encode": [
        ("omnistbc.engine", "ac_matrix"),
        ("omnistbc.engine", "ostbc_matrix"),
        ("omnistbc.engine", "qostbc_matrix"),
        ("omnistbc.engine", "ciod_matrix"),
        ("omnistbc.codes", "NzeTables.build"),
    ],
    "receivers.decode": [
        ("omnistbc.receivers", f"{cls}.decode_batch")
        for cls in (
            "SingleDecoder",
            "AcDecoder",
            "OstbcDecoder",
            "QostbcDecoder",
            "CiodDecoder",
            "NzeZfDecoder",
        )
    ],
    "cli.csv": [("omnistbc.engine", "emit_csv")],
}


class Tracer:
    def __init__(self, out_dir):
        self.out_dir = out_dir
        self.owner = os.getpid()
        self.spans = []
        self._depth = 0

    def record(self, layer, start, end, depth):
        span = {"layer": layer, "start": start, "end": end, "depth": depth, "pid": os.getpid()}
        if span["pid"] == self.owner:
            self.spans.append(span)
        else:
            path = os.path.join(self.out_dir, f"spans-{span['pid']}.jsonl")
            with open(path, "a", encoding="utf-8") as fh:
                fh.write(json.dumps(span) + "\n")

    def wrap(self, layer, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            depth = self._depth
            self._depth += 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._depth = depth
                self.record(layer, start, end, depth)

        return traced

    def install(self):
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = importlib.import_module(module_name)
                *outer, name = attr.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                setattr(owner, name, self.wrap(layer, getattr(owner, name)))

    def worker_spans(self):
        out = []
        for name in sorted(os.listdir(self.out_dir)):
            if name.startswith("spans-") and name.endswith(".jsonl"):
                with open(os.path.join(self.out_dir, name), encoding="utf-8") as fh:
                    out += [json.loads(line) for line in fh if line.strip()]
        return out


def layer_totals(sweep_seconds, spans, owner):
    """Per-layer seconds and calls, and the engine's self time.

    ``engine.self`` is the sweep time of the owning process minus the time
    its outermost layer spans cover.  Spans from pool workers add to their
    layers but not to that subtraction: while they run, the sweep process
    is waiting on them, and that wait is engine time.
    """
    seconds = defaultdict(float)
    calls = defaultdict(int)
    covered = 0.0
    for span in spans:
        dur = span["end"] - span["start"]
        seconds[span["layer"]] += dur
        calls[span["layer"]] += 1
        if span["pid"] == owner and span["depth"] == 0:
            covered += dur
    totals = {"engine.self_s": sweep_seconds - covered, "engine.sweep_s": sweep_seconds}
    for layer in LAYERS:
        totals[f"{layer}_s"] = seconds[layer]
        totals[f"{layer}_calls"] = calls[layer]
    return totals
