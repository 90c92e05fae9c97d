"""Spans around the package's public entry points, for the traced run only.

Tracer.install() rebinds each traced function, wherever a cohfreeze module
or the package namespace holds it, to a wrapper that records one span:
(name, start, end, parent span, operation id) plus two sizes taken from the
call (Kraus operator count and dimension, or table rows). The package's own
numpy.linalg.eigvalsh/eigh calls are traced by giving each cohfreeze module
a copy of the numpy module whose linalg holds wrapped functions. Spans stay
in memory; layer self times and the computed counts are derived from them
afterwards. The untraced run never imports this module.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
import types
from collections import defaultdict

import numpy

import cohfreeze
from cohfreeze import channels, cli, coherence, experiments, recovery, specs, states

FIELDS = ("name", "start", "end", "parent", "op", "size_a", "size_b")
NAME, START, END, PARENT, OP, SIZE_A, SIZE_B = range(len(FIELDS))


def _kraus_size(channel):
    return len(channel.operators), channel.dim


def _rows(result):
    table = getattr(result, "table", result)
    return len(getattr(table, "rows", ())), 0


# (module, attribute, span name, size of the call from (args, result))
TRACED = (
    (cli, "main", "cli.main", None),
    (specs, "parse_state_spec", "specs.parse", None),
    (specs, "parse_channel_spec", "specs.parse", None),
    (specs, "parse_sweep_file", "specs.parse", None),
    (experiments, "reproduce_pure_family", "experiments.report", lambda a, r: _rows(r)),
    (experiments, "reproduce_mixed_family", "experiments.report", lambda a, r: _rows(r)),
    (experiments, "bromley_report", "experiments.report", lambda a, r: _rows(r)),
    (experiments, "run_sweep", "experiments.report", lambda a, r: _rows(r)),
    (experiments, "detect_freezing", "experiments.report", None),
    (recovery, "certify_freezing", "recovery.certify", None),
    (recovery, "petz_recovery", "recovery.petz", lambda a, r: _kraus_size(r)),
    (channels, "local_channel", "channels.build", lambda a, r: _kraus_size(r)),
    (channels, "tensor", "channels.build", lambda a, r: _kraus_size(r)),
    (channels, "apply_channel", "channels.apply", lambda a, r: _kraus_size(a[0])),
    (channels, "classify", "channels.classify", lambda a, r: _kraus_size(a[0])),
    (coherence, "c_l1", "coherence", None),
    (coherence, "c_rel_ent", "coherence", None),
    (coherence, "measure_panel", "coherence", None),
)
VALIDATE = "states.validate"
EIG = "linalg.eig"
SPAN_NAMES = tuple(dict.fromkeys([t[2] for t in TRACED] + [VALIDATE, EIG]))

# Counts that depend only on the inputs; two traced runs on one seed must
# give them bit for bit.
COMPUTED_COUNTS = (
    "channels.kraus_ops_built",
    "channels.kraus_bytes_built",
    "channels.apply_calls",
    "channels.apply_kraus_ops",
    "channels.apply_gflop",
    "recovery.recovery_ops",
    "states.validate_calls",
    "states.validate_per_op",
    "linalg.eig_calls",
    "linalg.eig_per_op",
    "coherence.calls",
    "experiments.points",
    "experiments.apply_per_point",
)

# Every per-layer metric the traced run prints, with its unit. Times are
# self seconds per pass; counts are per pass.
LAYER_UNITS = {
    "channels.build_s": "s",
    "channels.kraus_ops_built": "count",
    "channels.kraus_bytes_built": "bytes",
    "channels.apply_s": "s",
    "channels.apply_calls": "count",
    "channels.apply_kraus_ops": "count",
    "channels.apply_gflop": "GFLOP",
    "channels.classify_s": "s",
    "recovery.petz_s": "s",
    "recovery.recovery_ops": "count",
    "recovery.certify_self_s": "s",
    "states.validate_s": "s",
    "states.validate_calls": "count",
    "states.validate_per_op": "calls/cert",
    "linalg.eig_s": "s",
    "linalg.eig_calls": "count",
    "linalg.eig_per_op": "calls/cert",
    "coherence.self_s": "s",
    "coherence.calls": "count",
    "experiments.self_s": "s",
    "experiments.points": "count",
    "experiments.apply_per_point": "calls/point",
    "specs.parse_s": "s",
    "cli.self_s": "s",
    "cli.csv_bytes": "bytes",
    "cli.stdout_bytes": "bytes",
    "trace.overhead_frac": "frac",
    "failed_frac": "frac",
}

# complex128 entries; a complex multiply-add is 8 real flops.
BYTES_PER_ENTRY = 16
FLOPS_PER_COMPLEX_MAC = 8


def _package_modules():
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "cohfreeze" or name.startswith("cohfreeze.")) and module is not None
    ]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack = [-1]
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def begin_op(self) -> None:
        self.op += 1

    def wrap(self, name: str, fn, size=None):
        name_index = SPAN_NAMES.index(name)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name_index, 0.0, 0.0, stack[-1], self.op, 0, 0]
            spans.append(record)
            stack.append(len(spans) - 1)
            record[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = time.perf_counter()
                stack.pop()
            if size is not None:
                record[SIZE_A], record[SIZE_B] = size(args, result)
            return result

        return traced

    def _rebind(self, owner, attribute: str, value) -> None:
        self._undo.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, value)

    def install(self) -> None:
        modules = _package_modules()
        for module, attribute, name, size in TRACED:
            original = getattr(module, attribute)
            wrapper = self.wrap(name, original, size)
            for owner in modules:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._rebind(owner, key, wrapper)
        self._rebind(
            states.DensityMatrix,
            "__post_init__",
            self.wrap(VALIDATE, states.DensityMatrix.__post_init__),
        )
        linalg = types.ModuleType("numpy.linalg")
        linalg.__dict__.update(vars(numpy.linalg))
        linalg.eigvalsh = self.wrap(EIG, numpy.linalg.eigvalsh)
        linalg.eigh = self.wrap(EIG, numpy.linalg.eigh)
        proxy = types.ModuleType("numpy")
        proxy.__dict__.update(vars(numpy))
        proxy.linalg = linalg
        for owner in modules:
            if vars(owner).get("np") is numpy:
                self._rebind(owner, "np", proxy)

    def uninstall(self) -> None:
        while self._undo:
            owner, attribute, value = self._undo.pop()
            setattr(owner, attribute, value)

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and one row each."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump({"names": SPAN_NAMES, "fields": FIELDS, "spans": self.spans}, handle)


def layer_metrics(spans, first: int, last: int) -> dict[str, float]:
    """Self times and computed counts of spans[first:last], one pass.

    A span's self time is its duration minus its direct children's.
    """
    durations = [s[END] - s[START] for s in spans[first:last]]
    child_time = [0.0] * len(durations)
    in_experiments = [False] * len(durations)
    inside_build = [False] * len(durations)
    exp = SPAN_NAMES.index("experiments.report")
    build = SPAN_NAMES.index("channels.build")
    for i, span in enumerate(spans[first:last]):
        parent = span[PARENT] - first
        if parent >= 0:
            child_time[parent] += durations[i]
            in_experiments[i] = in_experiments[parent] or spans[first + parent][NAME] == exp
            inside_build[i] = inside_build[parent] or spans[first + parent][NAME] == build
    self_time = defaultdict(float)
    calls = defaultdict(int)
    kraus_built = bytes_built = apply_ops = apply_flops = recovery_ops = 0
    points = apply_in_experiments = 0
    for i, span in enumerate(spans[first:last]):
        name = SPAN_NAMES[span[NAME]]
        self_time[name] += durations[i] - child_time[i]
        calls[name] += 1
        ops, dim = span[SIZE_A], span[SIZE_B]
        if name == "channels.build" and not inside_build[i]:
            kraus_built += ops
            bytes_built += ops * dim * dim * BYTES_PER_ENTRY
        elif name == "channels.apply":
            apply_ops += ops
            apply_flops += 2 * FLOPS_PER_COMPLEX_MAC * ops * dim**3
            apply_in_experiments += in_experiments[i]
        elif name == "recovery.petz":
            recovery_ops += ops
        elif name == "experiments.report" and not in_experiments[i]:
            points += ops
    certs = calls["recovery.certify"]
    return {
        "channels.build_s": self_time["channels.build"],
        "channels.kraus_ops_built": kraus_built,
        "channels.kraus_bytes_built": bytes_built,
        "channels.apply_s": self_time["channels.apply"],
        "channels.apply_calls": calls["channels.apply"],
        "channels.apply_kraus_ops": apply_ops,
        "channels.apply_gflop": apply_flops / 1e9,
        "channels.classify_s": self_time["channels.classify"],
        "recovery.petz_s": self_time["recovery.petz"],
        "recovery.recovery_ops": recovery_ops,
        "recovery.certify_self_s": self_time["recovery.certify"],
        "states.validate_s": self_time[VALIDATE],
        "states.validate_calls": calls[VALIDATE],
        "states.validate_per_op": calls[VALIDATE] / certs if certs else 0.0,
        "linalg.eig_s": self_time[EIG],
        "linalg.eig_calls": calls[EIG],
        "linalg.eig_per_op": calls[EIG] / certs if certs else 0.0,
        "coherence.self_s": self_time["coherence"],
        "coherence.calls": calls["coherence"],
        "experiments.self_s": self_time["experiments.report"],
        "experiments.points": points,
        "experiments.apply_per_point": apply_in_experiments / points if points else 0.0,
        "specs.parse_s": self_time["specs.parse"],
        "cli.self_s": self_time["cli.main"],
    }
