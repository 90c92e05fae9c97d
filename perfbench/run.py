"""cohfreeze benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Run from the repository root. The package is imported from ./src, so the
benchmark measures the checkout it sits in. One caller, closed loop: each
operation starts when the previous one has returned and been checked.

--trace 0 prints the end-to-end metrics (no tracing code is imported). Their
times are stated at the reference host speed of speed.py: the passes run a
fixed calibration kernel between their cases, for CALIBRATION_SHARE of the
case time, and every case time is scaled by the kernel's reference time over
its mean time in the run. Each set-up time is scaled by the kernel run right
after that set-up.
--trace 1 alternates untraced and traced passes of the same case list, two
of each, and prints the per-layer metrics; the spans go to perfbench/.work/.
The tracing overhead compares the per-case best times of the untraced and the
traced passes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"

# BLAS and OpenMP pools pinned to one thread (<= nproc on any machine), set
# before numpy is imported.
BLAS_THREADS = 1
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = 4  # extra fresh processes; setup_s is the median of 1 + 4
# After set-up each process runs the calibration kernel for this share of its
# set-up time, and states its set-up time at reference speed with it.
SETUP_CALIBRATION_SHARE = 0.25
# Every case is timed in at least this many passes and scored by its mean
# time over them.
MIN_PASSES = 3
# After each case the calibration kernel runs until its time adds up to this
# share of the case time, so its samples are spread over the run like the
# cases are.
CALIBRATION_SHARE = 0.05
TRACED_PASSES = 2
P50, P90 = 0.5, 0.9


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=["reproduce", "certify-local", "certify-dense"]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_package():
    """Import cohfreeze from this checkout's src/, and nothing else."""
    src = ROOT / "src"
    if not (src / "cohfreeze" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no package source at {src}/cohfreeze")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import cohfreeze

    if Path(cohfreeze.__file__).resolve().parent != (src / "cohfreeze").resolve():
        raise SystemExit(f"perfbench: imported cohfreeze from {cohfreeze.__file__}")
    import workloads

    return workloads


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "git_sha": git_sha(),
    }


def setup_kernel_s(speed, setup_raw_s: float) -> float:
    """Mean kernel time right after set-up: the host's neighbours come and go
    within a second, so each set-up is scaled by its own calibration."""
    kernel = [speed.kernel()]
    while sum(kernel) < SETUP_CALIBRATION_SHARE * setup_raw_s or len(kernel) < 5:
        kernel.append(speed.kernel())
    return statistics.fmean(kernel)


def probe_setup(args) -> dict:
    """Set-up time of a fresh process (import, inputs, one warm-up), at
    reference speed and raw."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", "0", "--setup-probe",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_pass(workload, tracer=None):
    outcomes = []
    for case in workload.cases:
        if tracer is not None:
            tracer.begin_op()
        outcomes.append(workload.run(case))
    return outcomes


@dataclass
class Pass:
    """One untraced pass: its outcomes, the calibration kernel times taken
    during it and its wall time, calibration included."""

    outcomes: list
    kernel_s: list[float]
    wall_s: float


def calibrated_pass(workload, speed) -> Pass:
    started = time.perf_counter()
    outcomes, kernel, owed = [], [], 0.0
    for case in workload.cases:
        outcomes.append(workload.run(case))
        owed += CALIBRATION_SHARE * outcomes[-1].seconds
        while owed > 0.0:
            kernel.append(speed.kernel())
            owed -= kernel[-1]
    return Pass(outcomes, kernel, time.perf_counter() - started)


def measure(workload, speed, seconds: float) -> list[Pass]:
    """Whole passes, at least MIN_PASSES, and more while one more pass of
    the mean length so far still ends within `seconds`."""
    passes, spent = [], 0.0
    while len(passes) < MIN_PASSES or spent * (1 + 1 / len(passes)) <= seconds:
        passes.append(calibrated_pass(workload, speed))
        spent += passes[-1].wall_s
    return passes


def run_kernel_s(passes: list[Pass]) -> float:
    """The mean calibration kernel time over the whole run. The host's
    neighbours slow it in bursts of a fraction of a second to minutes; the
    mean follows the share of the run they take, as the mean case time does."""
    return statistics.fmean(k for p in passes for k in p.kernel_s)


def case_seconds(speed, passes: list[Pass]) -> list[float]:
    """Each case's mean time over the passes, at reference speed."""
    kernel_s = run_kernel_s(passes)
    return [
        speed.at_reference(statistics.fmean(o.seconds for o in runs), kernel_s)
        for runs in zip(*(p.outcomes for p in passes))
    ]


def class_medians(labels, seconds) -> dict[str, float]:
    """Median latency in ms of each case class, slowest first."""
    by_class: dict[str, list[float]] = {}
    for label, s in zip(labels, seconds):
        by_class.setdefault(label, []).append(s * 1e3)
    medians = {label: statistics.median(v) for label, v in by_class.items()}
    return dict(sorted(medians.items(), key=lambda item: -item[1]))


def best_pass_seconds(passes) -> float:
    """Sum over the cases of each one's best latency over the passes."""
    return sum(min(o.seconds for o in runs) for runs in zip(*passes))


def end_to_end(workloads, speed, passes: list[Pass], setup_samples) -> dict:
    """Times at reference speed. The percentiles, the pass time and the
    throughput are taken over the cases' mean times."""
    case_s = case_seconds(speed, passes)
    case_ms = [s * 1e3 for s in case_s]
    certs_per_pass = sum(o.certs for p in passes for o in p.outcomes) / len(passes)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "pass_s": (sum(case_s), "s"),
        "op_p50_ms": (workloads.nearest_rank(case_ms, P50), "ms"),
        "op_p90_ms": (workloads.nearest_rank(case_ms, P90), "ms"),
        "certs_per_s": (certs_per_pass / sum(case_s), "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def traced_run(tracing, workload, args):
    """Alternate untraced and traced passes; per-layer metrics per pass."""
    tracer = tracing.Tracer()
    untraced, traced, bounds = [], [], []
    for _ in range(TRACED_PASSES):
        untraced.append(run_pass(workload))
        tracer.install()
        try:
            first = len(tracer.spans)
            traced.append(run_pass(workload, tracer))
            bounds.append((first, len(tracer.spans)))
        finally:
            tracer.uninstall()
    tracer.write(WORK_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz")
    per_pass = [tracing.layer_metrics(tracer.spans, a, b) for a, b in bounds]
    repeat_errors = [
        f"{name}: {per_pass[0][name]!r} then {m[name]!r}"
        for m in per_pass[1:]
        for name in tracing.COMPUTED_COUNTS
        if m[name] != per_pass[0][name]
    ]
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update({name: per_pass[0][name] for name in tracing.COMPUTED_COUNTS})
    metrics["cli.csv_bytes"] = sum(o.csv_bytes for o in traced[0])
    metrics["cli.stdout_bytes"] = sum(o.stdout_bytes for o in traced[0])
    base, with_spans = best_pass_seconds(untraced), best_pass_seconds(traced)
    metrics["trace.overhead_frac"] = (with_spans - base) / base
    return untraced + traced, metrics, repeat_errors


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.perf_counter()
    for name in THREAD_ENV:
        os.environ[name] = str(BLAS_THREADS)
    workloads = import_package()
    import speed

    workdir = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        warm_up = workload.run(workload.warm_up_case)
        setup_raw_s = time.perf_counter() - started
        setup_s = speed.at_reference(setup_raw_s, setup_kernel_s(speed, setup_raw_s))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0
        if args.trace:
            import tracing

            runs, layer, repeat_errors = traced_run(tracing, workload, args)
        else:
            setups = [{"setup_s": setup_s, "setup_raw_s": setup_raw_s}]
            setups += [probe_setup(args) for _ in range(SETUP_PROBES)]
            setup_samples = [probe["setup_s"] for probe in setups]
            passes = measure(workload, speed, args.seconds)
            runs, repeat_errors = [p.outcomes for p in passes], []
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [warm_up] + [o for run in runs for o in run]
    errors = [o.error for o in outcomes if o.error is not None]
    attempted, failed = len(outcomes), len(errors)
    if args.trace:
        layer["failed_frac"] = failed / attempted
        metrics = {
            name: {"value": layer[name], "unit": unit}
            for name, unit in tracing.LAYER_UNITS.items()
        }
        info = {
            "computed_counts": list(tracing.COMPUTED_COUNTS),
            "repeat_errors": repeat_errors,
        }
    else:
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in end_to_end(
                workloads, speed, passes, setup_samples
            ).items()
        }
        info = {
            "samples": {
                "setup_s": len(setup_samples),
                "passes": len(passes),
                "cases": len(workload.cases),
                "timed_calls": attempted - 1,
            },
            "reference_kernel_s": speed.REFERENCE_S,
            "run_kernel_s": run_kernel_s(passes),
            "setup_raw_s": [probe["setup_raw_s"] for probe in setups],
            "pass_kernel_s": [statistics.fmean(p.kernel_s) for p in passes],
            "pass_raw_s": [sum(o.seconds for o in p.outcomes) for p in passes],
            "class_p50_ms": class_medians(
                [o.label for o in passes[0].outcomes], case_seconds(speed, passes)
            ),
        }
    for error in errors[:10]:
        print(f"perfbench: failed: {error}", file=sys.stderr)
    info.update(workload=args.workload, seed=args.seed, environment=environment())
    print(json.dumps(info))
    print(json.dumps({
        "correct": failed == 0 and not repeat_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
