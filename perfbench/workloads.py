"""The three benchmark workloads: inputs drawn from a seed, one timed call per
operation, and the check each operation's output must pass.

Every workload is a fixed list of case classes; the seed only fills in the
random content of each case. A pass runs the whole case list once, so the
share of each case class, and with it the percentile a class lands on, is
the same in every run.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import cohfreeze
from cohfreeze import cli

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# reproduce ---------------------------------------------------------------

PRESETS = ("pure-family", "mixed-family", "bromley")
PRESET_FILES = {
    "pure-family": ("pure-family-N2.csv", "pure-family-N3.csv"),
    "mixed-family": ("mixed-family-N2.csv", "mixed-family-N3.csv"),
    "bromley": ("bromley.csv",),
}
REFERENCE_ABS_TOL = 1e-9

# certify-local ------------------------------------------------------------

LOCAL_KINDS = {
    "bitflip": "q",
    "phaseflip": "q",
    "bitphaseflip": "q",
    "depolarizing": "q",
    "phasedamping": "l",
    "amplitudedamping": "g",
}
LOCAL_QUBITS = (4, 5, 6)
# N=6 depolarizing builds 4,096 dense 64x64 operators (about 7 s per call).
LOCAL_EXCLUDED = {(6, "depolarizing")}
LOCAL_DRAWS = 3
LOCAL_PARAM_RANGE = (0.05, 0.95)

# certify-dense ------------------------------------------------------------

DENSE_DIMS = (2, 3, 5, 8, 12, 17, 24, 32, 45, 64)
# (family, operator count); "sio-compose" composes two 4-operator channels.
DENSE_VARIANTS = (
    ("sio", 1),
    ("sio", 2),
    ("sio", 4),
    ("sio", 8),
    ("sio", 16),
    ("sio-compose", 16),
    ("io", 1),
    ("io", 8),
)
DENSE_DRAWS = 5
# |dCr| inside this band around the tolerance cannot be decided reliably by
# the loop-based check; such a case counts as failed instead of guessed.
ORACLE_BAND = (1e-10, 1e-6)


@dataclass
class Outcome:
    """One operation: its case class, its timed call, the certificates it
    completed and the reason it failed (None when it passed its check)."""

    label: str
    seconds: float
    certs: int
    error: str | None
    stdout_bytes: int = 0
    csv_bytes: int = 0


def _call_cli(argv):
    """Run cli.main in process, timing the call alone. An exception that
    escapes the CLI is a failed operation, reported as exit code None."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            code = None
            print(f"raised {exc!r}", file=err)
        seconds = time.perf_counter() - start
    return seconds, code, out.getvalue(), err.getvalue()


def compare_csv(text: str, reference: str, abs_tol: float = REFERENCE_ABS_TOL):
    """First difference between a CSV and its reference, or None.

    Numeric cells may differ by abs_tol; every other cell, the verdict column
    included, must match exactly.
    """
    rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(reference)))
    if len(rows) != len(ref_rows):
        return f"{len(rows)} rows, reference has {len(ref_rows)}"
    for lineno, (row, ref) in enumerate(zip(rows, ref_rows), start=1):
        if len(row) != len(ref):
            return f"line {lineno}: {len(row)} cells, reference has {len(ref)}"
        for cell, ref_cell in zip(row, ref):
            if cell == ref_cell:
                continue
            try:
                value, ref_value = float(cell), float(ref_cell)
            except ValueError:
                return f"line {lineno}: {cell!r} != {ref_cell!r}"
            if not abs(value - ref_value) <= abs_tol:
                return f"line {lineno}: {cell} differs from {ref_cell}"
    return None


class Reproduce:
    """The three paper presets through the CLI, in process."""

    name = "reproduce"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        self.cases = [PRESETS[i] for i in rng.permutation(len(PRESETS))]
        self.warm_up_case = "bromley"
        self.outdir = workdir / "reproduce"
        self.reference = {
            name: (REFERENCE_DIR / name).read_text()
            for files in PRESET_FILES.values()
            for name in files
        }
        self.certs = {
            preset: sum(
                len(self.reference[name].splitlines()) - 1 for name in files
            )
            for preset, files in PRESET_FILES.items()
        }
        self.first_bytes: dict[str, bytes] = {}

    def run(self, preset: str) -> Outcome:
        argv = ["reproduce", preset, "--no-timestamp", "--out", str(self.outdir)]
        seconds, code, out, err = _call_cli(argv)
        outcome = Outcome(preset, seconds, 0, None, stdout_bytes=len(out.encode()))
        if code != 0:
            outcome.error = f"{preset}: exit code {code}: {err.strip()}"
            return outcome
        # One PASS line per CSV file the preset writes.
        passes = [ln for ln in out.splitlines() if ln.startswith(f"PASS {preset}")]
        if len(passes) != len(PRESET_FILES[preset]):
            outcome.error = f"{preset}: expected PASS lines, got {out!r}"
            return outcome
        for name in PRESET_FILES[preset]:
            data = (self.outdir / name).read_bytes()
            outcome.csv_bytes += len(data)
            if name in self.first_bytes:
                if data != self.first_bytes[name]:
                    outcome.error = f"{name}: bytes differ from the first pass"
                    return outcome
                continue
            diff = compare_csv(data.decode(), self.reference[name])
            if diff is not None:
                outcome.error = f"{name}: {diff}"
                return outcome
            self.first_bytes[name] = data
        outcome.certs = self.certs[preset]
        return outcome


@dataclass(frozen=True)
class LocalCase:
    num_qubits: int
    kind: str
    state: str
    channel: str
    expected_exit: int


def expected_local_exit(kind: str, num_qubits: int) -> int:
    """Bit flip freezes every phi state; bit-phase flip only on even N."""
    if kind == "bitflip" or (kind == "bitphaseflip" and num_qubits % 2 == 0):
        return 0
    return 1


class CertifyLocal:
    """`cohfreeze certify` on phi states under heterogeneous local noise."""

    name = "certify-local"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        canonical = []
        for n in LOCAL_QUBITS:
            for kind, key in LOCAL_KINDS.items():
                if (n, kind) in LOCAL_EXCLUDED:
                    continue
                for _ in range(LOCAL_DRAWS):
                    bits = "0" + "".join(str(b) for b in rng.integers(0, 2, n - 1))
                    sign = "+" if rng.integers(0, 2) else "-"
                    params = rng.uniform(*LOCAL_PARAM_RANGE, size=n)
                    factors = ", ".join(f"{kind} {key}={float(p)!r}" for p in params)
                    canonical.append(
                        LocalCase(
                            n,
                            kind,
                            f"phi N={n} l={bits} sign={sign}",
                            f"local [{factors}]",
                            expected_local_exit(kind, n),
                        )
                    )
        self.warm_up_case = canonical[0]
        self.cases = [canonical[i] for i in rng.permutation(len(canonical))]

    def run(self, case: LocalCase) -> Outcome:
        argv = ["certify", "--state", case.state, "--channel", case.channel]
        seconds, code, out, err = _call_cli(argv)
        label = f"N={case.num_qubits} {case.kind}"
        outcome = Outcome(label, seconds, 0, None, stdout_bytes=len(out.encode()))
        if code != case.expected_exit:
            outcome.error = (
                f"{label}: exit code {code}, expected {case.expected_exit} "
                + err.strip()
            )
            return outcome
        verdict = "Frozen" if code == 0 else "NotFrozen"
        if not out.startswith(f"verdict = {verdict}\n"):
            outcome.error = f"{label}: exit code {code} but output {out[:40]!r}"
            return outcome
        outcome.certs = 1
        return outcome


def _entropy(probabilities) -> float:
    p = np.asarray(probabilities, dtype=np.float64)
    p = p[p > 0.0]
    return float(-np.sum(p * np.log2(p)))


def _rel_ent_coherence(matrix) -> float:
    return _entropy(np.diag(matrix).real) - _entropy(np.linalg.eigvalsh(matrix))


def oracle_delta_cr(operators, matrix) -> float:
    """|dCr| from a loop-based sum K rho K^dag and numpy's eigvalsh."""
    evolved = np.zeros_like(matrix)
    for op in operators:
        evolved += op @ matrix @ op.conj().T
    return abs(_rel_ent_coherence(evolved) - _rel_ent_coherence(matrix))


@dataclass
class DenseCase:
    dim: int
    variant: str
    channel: object
    state: object
    strict: bool
    expected: str | None = None  # filled by the oracle on first use


def _random_support_state(rng, dim: int):
    """A random-rank state on a random subset of basis vectors, so that its
    dephased image usually has zeros and the recovery needs its kernel
    projector."""
    support = int(rng.integers(2, dim + 1))
    rank = int(rng.integers(1, support + 1))
    inner = cohfreeze.random_density(support, rank, int(rng.integers(2**31)))
    index = np.sort(rng.choice(dim, support, replace=False))
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    matrix[np.ix_(index, index)] = inner.matrix
    return cohfreeze.DensityMatrix(matrix)


def _dense_channel(rng, dim: int, family: str, count: int):
    if family == "sio":
        return cohfreeze.random_sio_channel(dim, count, int(rng.integers(2**31)))
    if family == "sio-compose":
        first = cohfreeze.random_sio_channel(dim, 4, int(rng.integers(2**31)))
        second = cohfreeze.random_sio_channel(dim, 4, int(rng.integers(2**31)))
        return cohfreeze.compose(second, first)
    return cohfreeze.random_incoherent_channel(dim, count, int(rng.integers(2**31)))


class CertifyDense:
    """certify_freezing on pre-built raw channels at dimensions 2..64."""

    name = "certify-dense"

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        canonical = []
        for dim in DENSE_DIMS:
            for family, count in DENSE_VARIANTS:
                for _ in range(DENSE_DRAWS):
                    canonical.append(
                        DenseCase(
                            dim,
                            f"{family}/{count}",
                            _dense_channel(rng, dim, family, count),
                            _random_support_state(rng, dim),
                            strict=family != "io",
                        )
                    )
        self.warm_up_case = canonical[0]
        self.cases = [canonical[i] for i in rng.permutation(len(canonical))]

    def run(self, case: DenseCase) -> Outcome:
        label = f"d={case.dim} {case.variant}"
        start = time.perf_counter()
        try:
            certificate = cohfreeze.certify_freezing(
                case.channel, case.state, enforce_hypothesis=case.strict
            )
        except Exception as exc:  # noqa: BLE001 - counted, the run goes on
            seconds = time.perf_counter() - start
            return Outcome(label, seconds, 0, f"{label}: raised {exc!r}")
        outcome = Outcome(label, time.perf_counter() - start, 0, None)
        if case.expected is None:
            case.expected = self.expected_verdict(case)
        if certificate.verdict != case.expected:
            outcome.error = (
                f"{label}: verdict {certificate.verdict}, check says {case.expected}"
            )
            return outcome
        outcome.certs = 1
        return outcome

    @staticmethod
    def expected_verdict(case: DenseCase) -> str:
        delta = oracle_delta_cr(case.channel.operators, np.array(case.state.matrix))
        if delta < ORACLE_BAND[0]:
            return "Frozen"
        if delta > ORACLE_BAND[1]:
            return "NotFrozen"
        return f"undecided (|dCr| = {delta:.3e})"


WORKLOADS = {w.name: w for w in (Reproduce, CertifyLocal, CertifyDense)}


def nearest_rank(values, fraction: float) -> float:
    """The smallest value with at least `fraction` of the values at or below
    it, so that a percentile is always one measured sample."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]
