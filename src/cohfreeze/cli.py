"""Command-line front end.

Exit codes are stable: 0 success (or Frozen), 1 NotFrozen, 2 parse error,
3 validation/hypothesis error, 4 internal numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .channels import ZERO_TOL, classify
from .coherence import measure_panel
from .errors import CohfreezeError, SpecParseError, ValidationError
from .experiments import (
    _labelled_csv,
    bromley_report,
    default_heterogeneous_grids,
    detect_freezing,
    reproduce_mixed_family,
    reproduce_pure_family,
    run_sweep,
)
from .records import render
from .recovery import CERTIFICATE_TOL, certify_freezing
from .specs import parse_channel_spec, parse_state_spec, parse_sweep_file
from .states import _random_weights, canonical_bitstrings

EXIT_OK = 0
EXIT_NOT_FROZEN = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4

OUTDIR_ENV = "COHFREEZE_OUTDIR"

# Fixed draw seeds for the mixed-family preset; each row's case label names
# its seed.
_MIXED_PRESET_SEEDS = (11, 12, 13, 14, 15)
_BROMLEY_C1 = (-0.8, 0.0, 0.6)
_BROMLEY_C3 = (-0.5, 0.0, 0.9)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cohfreeze",
        description="Simulate Kraus channels and certify coherence freezing.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_measure = sub.add_parser("measure", help="print the coherence panel of a state")
    p_measure.add_argument("--state", required=True, help="inline state spec")

    p_classify = sub.add_parser("classify", help="classify a channel's Kraus representation")
    p_classify.add_argument("--channel", required=True, help="inline channel spec")
    p_classify.add_argument(
        "--zero-tol",
        type=float,
        default=ZERO_TOL,
        help="entry modulus below which a Kraus entry counts as zero",
    )

    p_certify = sub.add_parser("certify", help="run the freezing certificate")
    p_certify.add_argument("--state", required=True)
    p_certify.add_argument("--channel", required=True)
    p_certify.add_argument("--tol", type=float, default=CERTIFICATE_TOL)
    p_certify.add_argument(
        "--allow-non-strict",
        action="store_true",
        help="accept channels that are incoherent but not strictly incoherent",
    )

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p_sweep.add_argument("--spec", required=True, help="path to the sweep spec file")
    p_sweep.add_argument("--out", help="CSV output path (overrides output.path)")
    p_sweep.add_argument("--no-timestamp", action="store_true")

    p_repro = sub.add_parser("reproduce", help="run a named preset and report pass/fail")
    p_repro.add_argument(
        "name", choices=["pure-family", "mixed-family", "bromley"]
    )
    p_repro.add_argument("--out", help="output directory for preset CSV files")
    p_repro.add_argument("--no-timestamp", action="store_true")

    return parser


def _out_dir(explicit: str | None) -> Path:
    if explicit:
        return Path(explicit)
    return Path(os.environ.get(OUTDIR_ENV, "."))


def _write_csv(path: Path, csv: str, timestamp: bool) -> None:
    """Write a CSV, led by a `# generated_at` line unless timestamp is off.

    A path that cannot be written is reported like an unreadable spec file.
    """
    prefix = ""
    if timestamp:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        prefix = f"# generated_at = {stamp}\n"
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(prefix + csv)
    except OSError as exc:
        raise SpecParseError(f"cannot write {path}: {exc}") from None


def cmd_measure(args) -> int:
    state = parse_state_spec(args.state)
    report = measure_panel(state)
    print(render((f.name, getattr(report, f.name)) for f in fields(report)))
    return EXIT_OK


def cmd_classify(args) -> int:
    channel = parse_channel_spec(args.channel)
    result = classify(channel, zero_tol=args.zero_tol)
    print(render([("class", result.channel_class.value), ("witness", result.witness)]))
    return EXIT_OK


def cmd_certify(args) -> int:
    state = parse_state_spec(args.state)
    channel = parse_channel_spec(args.channel)
    certificate = certify_freezing(
        channel,
        state,
        tol=args.tol,
        enforce_hypothesis=not args.allow_non_strict,
    )
    print(certificate.to_text())
    return EXIT_OK if certificate.frozen else EXIT_NOT_FROZEN


def cmd_sweep(args) -> int:
    try:
        text = Path(args.spec).read_text()
    except OSError as exc:
        raise SpecParseError(f"cannot read spec file: {exc}") from None
    spec, output_path = parse_sweep_file(text)
    table = run_sweep(spec)
    target = Path(args.out) if args.out else None
    if target is None:
        target = _out_dir(None) / (output_path or "sweep.csv")
    _write_csv(target, table.to_csv(), not args.no_timestamp)
    summary = detect_freezing(table, spec.freezing_tol)
    for name, verdict in sorted(summary.items()):
        status = "Frozen" if verdict.frozen else "NotFrozen"
        print(f"{name}: {status} (max deviation {verdict.max_deviation:.3e})")
    print(f"wrote {target}")
    return EXIT_OK


def _write_preset(path: Path, cases, timestamp: bool) -> tuple[float, float]:
    """Write a preset's (case label, FamilyReport) pairs as one labelled CSV
    and return the worst c_rel_ent and c_l1 deviations over its cases."""
    _write_csv(path, _labelled_csv([(label, r.table) for label, r in cases]), timestamp)
    return (
        max(r.max_cr_deviation for _, r in cases),
        max(r.max_cl1_deviation for _, r in cases),
    )


def _preset_pure(out_dir: Path, timestamp: bool) -> list[str]:
    lines = []
    for n in (2, 3):
        cases = [
            (f"l={bits} sign={sign}", reproduce_pure_family(n, bits, sign))
            for bits in canonical_bitstrings(n)
            for sign in ("+", "-")
        ]
        path = out_dir / f"pure-family-N{n}.csv"
        worst_cr, worst_l1 = _write_preset(path, cases, timestamp)
        lines.append(
            f"PASS pure-family N={n}: max |c_rel_ent - 1| {worst_cr:.3e}, "
            f"max |c_l1 - 1| {worst_l1:.3e} -> {path}"
        )
    return lines


def _preset_mixed(out_dir: Path, timestamp: bool) -> list[str]:
    lines = []
    for n in (2, 3):
        grids = default_heterogeneous_grids(n, points=4)
        cases = []
        for seed in _MIXED_PRESET_SEEDS:
            rng = np.random.default_rng(seed)
            p = float(rng.uniform(0.0, 1.0))
            report = reproduce_mixed_family(n, p, _random_weights(n, rng), grids)
            cases.append((f"seed={seed} p={p:.6g}", report))
        path = out_dir / f"mixed-family-N{n}.csv"
        worst, _ = _write_preset(path, cases, timestamp)
        lines.append(
            f"PASS mixed-family N={n}: max |c_rel_ent - (1 - H(p))| {worst:.3e} "
            f"-> {path}"
        )
    return lines


def _preset_bromley(out_dir: Path, timestamp: bool) -> list[str]:
    cases = [
        (f"c1={c1:g} c3={c3:g}", bromley_report(c1, c3))
        for c1 in _BROMLEY_C1
        for c3 in _BROMLEY_C3
    ]
    path = out_dir / "bromley.csv"
    worst, _ = _write_preset(path, cases, timestamp)
    return [
        f"PASS bromley: max |c_rel_ent - (1 - H(p))| {worst:.3e} -> {path}"
    ]


def cmd_reproduce(args) -> int:
    out_dir = _out_dir(args.out)
    timestamp = not args.no_timestamp
    if args.name == "pure-family":
        lines = _preset_pure(out_dir, timestamp)
    elif args.name == "mixed-family":
        lines = _preset_mixed(out_dir, timestamp)
    else:
        lines = _preset_bromley(out_dir, timestamp)
    for line in lines:
        print(line)
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad usage, which matches the parse-error code
        return EXIT_PARSE if exc.code else EXIT_OK
    dispatch = {
        "measure": cmd_measure,
        "classify": cmd_classify,
        "certify": cmd_certify,
        "sweep": cmd_sweep,
        "reproduce": cmd_reproduce,
    }
    try:
        return dispatch[args.command](args)
    except SpecParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except CohfreezeError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
