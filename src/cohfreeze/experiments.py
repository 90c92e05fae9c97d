"""Parameter sweeps, a sweep's verdict, and the closed-form reproductions.

Channels are swept over parameter grids instead of an explicit time axis:
every reachable channel corresponds to some grid point, and "frozen forever"
becomes "frozen at every grid point". Each point's certificate decides every
coherence measure at once, so a sweep's verdict is the conjunction of its
certificates.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, fields
from typing import Mapping

import numpy as np

from .channels import channel_factory, tensor
from .errors import NumericalInconsistencyError, ValidationError
from .linalg import (
    binary_entropy,
    check_dimension,
    check_qubits,
    check_tolerance,
    check_unit_interval,
    max_abs,
)
from .records import format_number
from .recovery import CERTIFICATE_TOL, _initial, certify_freezing
from .states import (
    DensityMatrix,
    MixedFamilySpec,
    _check_weight,
    _mixed_family_matrix,
    _random_weights,
    bromley_spec,
    canonical_bitstrings,
    check_bits,
    mixed_family,
    phi_spec,
)

MAX_GRID_POINTS = 10_000
DEFAULT_GRID_POINTS = 11
FAMILY_TOL = 1e-9  # a reproduction's measures against their closed forms
TRANSFER_TOL = 1e-10  # evolved family state against its analytic mixture
# The certificate's errors, of which a sweep's summary reports the largest.
_ERROR_COLUMNS = ("cr_deviation", "recovery_residual_state", "recovery_residual_diag")


def _point_count(points) -> int:
    """A grid's number of points, refused unless a non-negative integer."""
    if not isinstance(points, (int, np.integer)) or points < 0:
        raise ValidationError(
            f"grid point count must be a non-negative integer, got {points!r}"
        )
    return points


def default_heterogeneous_grids(
    num_qubits: int, points: int = 6
) -> tuple[tuple[float, ...], ...]:
    """Per-qubit grids in [0, 1], deliberately distinct between qubits."""
    if _point_count(points) < 2:
        raise ValidationError("need at least two grid points")
    return tuple(
        tuple(np.linspace(0.03 * i, 1.0 - 0.02 * i, points))
        for i in range(num_qubits)
    )


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: an initial state and a per-qubit channel family with grids.

    factors are CHANNEL_FACTORIES kind names, one per qubit. With
    tie_parameters=True a single grid drives all factors with a shared
    parameter; otherwise each factor gets its own grid and the sweep runs
    over the cartesian product.
    """

    state: DensityMatrix
    factors: tuple[str, ...]
    grids: tuple[tuple[float, ...], ...]
    tie_parameters: bool = False
    certificate_tol: float = CERTIFICATE_TOL
    state_label: str = ""

    def __post_init__(self):
        if not self.factors:
            raise ValidationError("need at least one channel factor")
        for kind in self.factors:
            channel_factory(kind)
        dim = 2 ** len(self.factors)
        check_dimension(dim)
        if self.state.dim != dim:
            raise ValidationError(
                f"state dim {self.state.dim} does not match "
                f"{len(self.factors)} qubit factors"
            )
        expected = 1 if self.tie_parameters else len(self.factors)
        if len(self.grids) != expected:
            raise ValidationError(
                f"expected {expected} grid(s), got {len(self.grids)}"
            )
        total = 1
        for grid in self.grids:
            if len(grid) == 0:
                raise ValidationError("grids must not be empty")
            for value in grid:
                check_unit_interval("grid value", value)
            total *= len(grid)
        if total > MAX_GRID_POINTS:
            raise ValidationError(
                f"grid has {total} points, maximum is {MAX_GRID_POINTS}"
            )
        check_tolerance("certificate_tol", self.certificate_tol)
        object.__setattr__(self, "grids", tuple(tuple(g) for g in self.grids))
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def parameter_names(self) -> tuple[str, ...]:
        if self.tie_parameters:
            return ("q",)
        return tuple(f"q{i + 1}" for i in range(len(self.factors)))

    def _per_factor(self, values: tuple) -> tuple:
        """A grid point, index or grid tuple spread to one entry per factor."""
        return values * len(self.factors) if self.tie_parameters else values

    def channels(self):
        """Yield (point, channel) at every point of itertools.product(*grids),
        building each factor channel once per grid value instead of once per
        point. The channel is the dense tensor product, not local_channel:
        the sweep and preset CSVs are pinned byte for byte, and
        factor-by-factor arithmetic moves their last digits."""
        built = [
            [channel_factory(kind)(q) for q in grid]
            for kind, grid in zip(self.factors, self._per_factor(self.grids))
        ]
        indices = itertools.product(*(range(len(g)) for g in self.grids))
        for point, index in zip(itertools.product(*self.grids), indices):
            yield point, tensor(
                [column[i] for column, i in zip(built, self._per_factor(index))]
            )


@dataclass(frozen=True)
class TrajectoryRow:
    params: tuple[float, ...]
    c_l1: float
    c_rel_ent: float
    verdict: str
    cr_deviation: float
    recovery_residual_state: float
    recovery_residual_diag: float


# A table's columns after its parameters: the measures, which one certificate
# decides at once, the verdict and the certificate's errors.
_CSV_COLUMNS = tuple(f.name for f in fields(TrajectoryRow) if f.name != "params")


@dataclass(frozen=True)
class TrajectoryTable:
    parameter_names: tuple[str, ...]
    rows: tuple[TrajectoryRow, ...]
    metadata: tuple[tuple[str, str], ...] = ()

    def to_csv(self) -> str:
        """Metadata as leading # comments, then header and one row per point."""
        lines = [f"# {key} = {value}" for key, value in self.metadata]
        lines += _header_and_rows(self)
        return "\n".join(lines) + "\n"


def _header_and_rows(table: TrajectoryTable) -> list[str]:
    """The CSV header line followed by one line per row, without metadata."""
    lines = [",".join((*table.parameter_names, *_CSV_COLUMNS))]
    for row in table.rows:
        cells = [format_number(v) for v in row.params]
        for name in _CSV_COLUMNS:
            value = getattr(row, name)
            cells.append(value if isinstance(value, str) else format_number(value))
        lines.append(",".join(cells))
    return lines


def _labelled_csv(tables: list[tuple[str, TrajectoryTable]]) -> str:
    """Several labelled tables as one CSV: a leading case column, one header
    and no metadata."""
    lines = []
    for label, table in tables:
        header, *rows = _header_and_rows(table)
        if not lines:
            lines.append("case," + header)
        lines.extend(f"{label},{row}" for row in rows)
    return "\n".join(lines) + "\n"


def _evaluate_grid(spec: SweepSpec):
    """Yield (point, certificate, table row) per grid point; the row's
    measures are the certificate's values for its evolved state. The initial
    state's half of every certificate is prepared once, for the whole sweep."""
    initial = _initial(spec.state)
    for point, channel in spec.channels():
        certificate = certify_freezing(channel, initial, tol=spec.certificate_tol)
        row = TrajectoryRow(
            params=tuple(float(v) for v in point),
            c_l1=certificate.c_l1_final,
            c_rel_ent=certificate.cr_final,
            verdict=certificate.verdict,
            cr_deviation=certificate.cr_deviation,
            recovery_residual_state=certificate.recovery_residual_state,
            recovery_residual_diag=certificate.recovery_residual_diag,
        )
        yield point, certificate, row


def _metadata(spec: SweepSpec):
    return (
        ("state", spec.state_label or f"dim={spec.state.dim}"),
        ("channel", " x ".join(spec.factors)),
        ("tie_parameters", "true" if spec.tie_parameters else "false"),
        ("certificate_tol", format_number(spec.certificate_tol)),
    )


def _table(spec: SweepSpec, rows) -> TrajectoryTable:
    return TrajectoryTable(
        parameter_names=spec.parameter_names,
        rows=tuple(rows),
        metadata=_metadata(spec),
    )


def run_sweep(spec: SweepSpec) -> TrajectoryTable:
    """Evaluate measures and the freezing certificate at every grid point."""
    return _table(spec, (row for _, _, row in _evaluate_grid(spec)))


@dataclass(frozen=True)
class FreezingSummary:
    frozen: bool
    not_frozen_points: int
    # error column -> (largest value, parameters of the first row printed as it)
    maxima: dict[str, tuple[float, tuple[float, ...]]]


def detect_freezing(table: TrajectoryTable) -> FreezingSummary:
    """A sweep's one verdict, read from its rows: Frozen iff every grid
    point's certificate is, with the number of NotFrozen points and, for
    each certificate error column, its largest value and the parameters of
    the first row whose value equals it at format_number's 12 significant
    digits, so a last-bit difference renames no point. No threshold of its
    own: each certificate already decides every coherence measure."""
    if not table.rows:
        raise ValidationError("table has no rows")
    maxima = {}
    for name in _ERROR_COLUMNS:
        values = [getattr(row, name) for row in table.rows]
        largest = max(values)
        shown = format_number(largest)
        first = next(
            row for row, v in zip(table.rows, values) if format_number(v) == shown
        )
        maxima[name] = (largest, first.params)
    not_frozen = sum(row.verdict != "Frozen" for row in table.rows)
    return FreezingSummary(not_frozen == 0, not_frozen, maxima)


def bitflip_transfer_weights(weights: Mapping[str, float], qs) -> dict[str, float]:
    """Mixture weights over canonical bit strings after local bit flips.

    The weights go on a list over all 2^N strings (the first qubit most
    significant), and the bit-flip channel acts on that list one qubit at a
    time: qubit i keeps w[x] with probability 1 - q_i and moves in
    w[x ^ 2^(N-1-i)] with probability q_i. Canonical target m then
    receives the weight of its +/- pair, m and its complement -1 - m.
    """
    if not weights:
        raise ValidationError("weights must not be empty")
    if any(len(check_bits(bits)) != len(qs) for bits in weights):
        raise ValidationError("need one flip probability per qubit")
    qs = [check_unit_interval("q", q) for q in qs]
    w = [0.0] * 2 ** len(qs)
    for bits, weight in weights.items():
        w[int(bits, 2)] = _check_weight(bits, weight)
    for i, q in enumerate(qs):
        bit = 1 << (len(qs) - 1 - i)
        w = [(1.0 - q) * v + q * w[x ^ bit] for x, v in enumerate(w)]
    return {
        target: w[m] + w[-1 - m]
        for m, target in enumerate(canonical_bitstrings(len(qs)))
    }


@dataclass(frozen=True)
class FamilyReport:
    """Summary of one family reproduction run; every grid point passed."""

    expected_c_rel_ent: float
    max_cr_deviation: float
    max_cl1_deviation: float
    max_transfer_residual: float
    table: TrajectoryTable


def reproduce_pure_family(
    bits: str,
    sign,
    grids: tuple[tuple[float, ...], ...] | None = None,
    *,
    tol: float = FAMILY_TOL,
) -> FamilyReport:
    """Check that both panel measures stay at 1 for (|l> +/- |l~>)/sqrt(2),
    the mixed family's one-weight case with p = 1 or 0, under heterogeneous
    local bit flips on len(bits) qubits."""
    family = phi_spec(bits, sign)
    label = f"phi N={family.num_qubits} l={bits} sign={'+' if family.p else '-'}"
    return _reproduce(family, grids, label, tol)


def reproduce_mixed_family(
    p: float,
    weights: dict[str, float],
    grids: tuple[tuple[float, ...], ...] | None = None,
    *,
    tol: float = FAMILY_TOL,
) -> FamilyReport:
    """Check that c_rel_ent stays at 1 - H(p) for the +/- mixture family
    under heterogeneous local bit flips, one qubit per bit of the weight keys."""
    family = MixedFamilySpec(p=p, weights=weights)
    return _reproduce(family, grids, f"mixed N={family.num_qubits} p={p:g}", tol)


def bromley_report(
    c1: float,
    c3: float,
    *,
    grid_points: int = DEFAULT_GRID_POINTS,
    tol: float = FAMILY_TOL,
) -> FamilyReport:
    """The two-qubit Bromley-Cianciaruso-Adesso state under identical local
    bit flips (tied q)."""
    grids = (tuple(np.linspace(0.0, 1.0, _point_count(grid_points))),)
    label = f"bromley N=2 c1={c1:g} c3={c3:g}"
    return _reproduce(bromley_spec(2, c1, c3), grids, label, tol, tie_parameters=True)


def _reproduce(
    family: MixedFamilySpec,
    grids: tuple[tuple[float, ...], ...] | None,
    label: str,
    tol: float,
    *,
    tie_parameters: bool = False,
) -> FamilyReport:
    """Sweep mixed_family(family) under local bit flips, asserting at every
    grid point that c_rel_ent == 1 - H(family.p), c_l1 is unchanged, the
    certificate is Frozen and its evolved state is the family's analytic
    transferred mixture. grids=None means default_heterogeneous_grids."""
    num_qubits = family.num_qubits
    check_qubits(num_qubits)
    if grids is None:
        grids = default_heterogeneous_grids(num_qubits)
    spec = SweepSpec(
        state=mixed_family(family),
        factors=("bitflip",) * num_qubits,
        grids=grids,
        tie_parameters=tie_parameters,
        state_label=label,
    )
    expected = 1.0 - binary_entropy(family.p)
    rows = []
    max_cr = max_l1 = max_transfer = 0.0
    for point, certificate, row in _evaluate_grid(spec):
        weights = bitflip_transfer_weights(family.weights, spec._per_factor(point))
        analytic = _mixed_family_matrix(family.p, weights)
        cr_error = abs(row.c_rel_ent - expected)
        l1_error = certificate.c_l1_deviation
        residual = max_abs(certificate.final_state.matrix - analytic)
        max_cr = max(max_cr, cr_error)
        max_l1 = max(max_l1, l1_error)
        max_transfer = max(max_transfer, residual)
        for name, error, bound in (
            ("c_rel_ent", cr_error, tol),
            ("c_l1", l1_error, tol),
            ("analytic mixture", residual, TRANSFER_TOL),
        ):
            if error > bound:
                raise NumericalInconsistencyError(
                    f"{label}: {name} off by {error:.3e} at grid point {point}"
                )
        if not certificate.frozen:
            raise NumericalInconsistencyError(
                f"{label}: certificate NotFrozen at grid point {point} "
                f"({','.join(certificate.failed_checks)})"
            )
        rows.append(row)
    return FamilyReport(expected, max_cr, max_l1, max_transfer, _table(spec, rows))


# Fixed draw seeds of the mixed-family preset, named in each case label.
_MIXED_PRESET_SEEDS = (11, 12, 13, 14, 15)
# The Bromley-Cianciaruso-Adesso states (PRL 114, 210401 (2015)) of the
# bromley preset.
_BROMLEY_C1 = (-0.8, 0.0, 0.6)
_BROMLEY_C3 = (-0.5, 0.0, 0.9)
PRESETS = ("pure-family", "mixed-family", "bromley")


def preset_files(name: str):
    """Yield (title, file name, [(case label, FamilyReport)]) for each CSV
    file of the named paper preset, running its reproductions when the file
    is reached."""
    if name not in PRESETS:
        raise ValidationError(f"unknown preset {name!r}")
    if name == "bromley":
        cases = [
            (f"c1={c1:g} c3={c3:g}", bromley_report(c1, c3))
            for c1 in _BROMLEY_C1
            for c3 in _BROMLEY_C3
        ]
        yield "bromley", "bromley.csv", cases
        return
    for n in (2, 3):
        if name == "pure-family":
            cases = [
                (f"l={bits} sign={sign}", reproduce_pure_family(bits, sign))
                for bits in canonical_bitstrings(n)
                for sign in ("+", "-")
            ]
        else:
            grids = default_heterogeneous_grids(n, points=4)
            cases = []
            for seed in _MIXED_PRESET_SEEDS:
                rng = np.random.default_rng(seed)
                p = float(rng.uniform(0.0, 1.0))
                report = reproduce_mixed_family(p, _random_weights(n, rng), grids)
                cases.append((f"seed={seed} p={p:.6g}", report))
        yield f"{name} N={n}", f"{name}-N{n}.csv", cases
