"""The benchmark's own checks: wrong expectations count as failures, the
computed counts repeat, and the result line matches BENCHMARK.json.

    python3 -m pytest perfbench -q
"""

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _result_lines(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    info, result = out.getvalue().strip().splitlines()[-2:]
    return json.loads(info), json.loads(result)


def test_wrong_expected_exit_code_is_a_failure():
    workload = workloads.CertifyLocal(1, None)
    case = next(c for c in workload.cases if c.num_qubits == 4)
    assert workload.run(case).error is None
    wrong = dataclasses.replace(case, expected_exit=1 - case.expected_exit)
    assert "exit code" in workload.run(wrong).error


def test_exit_code_table():
    assert [workloads.expected_local_exit("bitflip", n) for n in (4, 5, 6)] == [0, 0, 0]
    assert [workloads.expected_local_exit("bitphaseflip", n) for n in (4, 5, 6)] == [0, 1, 0]
    assert workloads.expected_local_exit("amplitudedamping", 4) == 1


def test_wrong_expected_verdict_is_a_failure():
    workload = workloads.CertifyDense(1, None)
    for variant, verdict in (("sio/1", "Frozen"), ("sio/4", "NotFrozen")):
        case = next(c for c in workload.cases if c.variant == variant and c.dim == 5)
        assert workload.run(case).error is None
        assert case.expected == verdict
        case.expected = "NotFrozen" if verdict == "Frozen" else "Frozen"
        assert "check says" in workload.run(case).error


def test_wrong_expected_verdict_raises_failed_frac(monkeypatch):
    always_frozen = staticmethod(lambda case: "Frozen")
    monkeypatch.setattr(workloads.CertifyDense, "expected_verdict", always_frozen)
    monkeypatch.setattr(run, "SETUP_PROBES", 0)
    _, result = _result_lines(["--workload", "certify-dense", "--seed", "1", "--seconds", "0"])
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_reference_csv_check():
    reference = "q,verdict\n0.1,Frozen\n0.2,Frozen\n"
    assert workloads.compare_csv("q,verdict\n0.1000000005,Frozen\n0.2,Frozen\n", reference) is None
    assert workloads.compare_csv("q,verdict\n0.100000002,Frozen\n0.2,Frozen\n", reference)
    assert workloads.compare_csv("q,verdict\n0.1,Frozen\n0.2,NotFrozen\n", reference)
    assert workloads.compare_csv("q,verdict\n0.1,Frozen\n", reference)


def test_wrong_reference_verdict_is_a_failure(tmp_path):
    workload = workloads.Reproduce(1, tmp_path)
    assert workload.run("bromley").error is None
    assert workload.run("bromley").error is None  # same bytes on a second pass
    workload = workloads.Reproduce(1, tmp_path)
    reference = workload.reference["bromley.csv"]
    workload.reference["bromley.csv"] = reference.replace(",Frozen,", ",NotFrozen,", 1)
    assert "bromley.csv" in workload.run("bromley").error


def _traced_counts(workload, cases):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for case in cases:
            tracer.begin_op()
            assert workload.run(case).error is None
    finally:
        tracer.uninstall()
    return tracing.layer_metrics(tracer.spans, 0, len(tracer.spans))


@pytest.mark.parametrize(
    "make, pick",
    [
        (lambda: workloads.CertifyDense(3, None), lambda w: w.cases[::4]),
        (
            lambda: workloads.CertifyLocal(3, None),
            lambda w: [c for c in w.cases if c.num_qubits == 4],
        ),
    ],
)
def test_computed_counts_repeat_and_bypassed_layers_stay_zero(make, pick):
    first, second = (_traced_counts(w, pick(w)) for w in (make(), make()))
    for name in tracing.COMPUTED_COUNTS:
        assert first[name] == second[name], name
    assert first["experiments.self_s"] == 0.0
    assert first["linalg.eig_calls"] > 0 and first["states.validate_calls"] > 0


def test_certify_dense_builds_no_channel():
    workload = workloads.CertifyDense(3, None)
    metrics = _traced_counts(workload, workload.cases[:40])
    assert metrics["channels.build_s"] == 0.0
    assert metrics["channels.kraus_ops_built"] == 0
    assert metrics["channels.apply_calls"] == 5 * 40


def test_reproduce_counts_grid_points(tmp_path):
    workload = workloads.Reproduce(1, tmp_path)
    metrics = _traced_counts(workload, ["bromley"])
    assert metrics["experiments.points"] == workload.certs["bromley"] == 99
    assert metrics["experiments.apply_per_point"] > 1


def test_tracing_is_removed_after_uninstall():
    def bindings():
        package = workloads.cohfreeze
        return (
            workloads.cli.main,
            package.certify_freezing,
            package.DensityMatrix.__post_init__,
            package.states.np,
        )

    originals = bindings()
    tracer = tracing.Tracer()
    tracer.install()
    assert all(a is not b for a, b in zip(bindings(), originals))
    tracer.uninstall()
    assert bindings() == originals


def test_benchmark_json_names_every_printed_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_UNITS
    assert spec["paths"] == ["perfbench"]
    assert spec["command"] == ["python3", "perfbench/run.py"]
    one_pass = run.Pass([workloads.Outcome("x", 0.5, 1, None)], [speed.REFERENCE_S], 0.6)
    e2e = run.end_to_end(workloads, speed, [one_pass], [1.0])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == {k: u for k, (_, u) in e2e.items()}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_times_are_stated_at_reference_speed():
    outcome = workloads.Outcome("x", 0.5, 1, None)

    def times(kernel_s):
        one_pass = run.Pass([outcome], [kernel_s], 0.6)
        e2e = run.end_to_end(workloads, speed, [one_pass, one_pass, one_pass], [0.2])
        return e2e["pass_s"][0], e2e["op_p90_ms"][0], e2e["certs_per_s"][0]

    assert times(speed.REFERENCE_S) == pytest.approx((0.5, 500.0, 2.0))
    # A host on which the kernel takes twice its reference time is half as fast.
    assert times(2 * speed.REFERENCE_S) == pytest.approx((0.25, 250.0, 4.0))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=ignore)
    args = ["--workload", "reproduce", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
