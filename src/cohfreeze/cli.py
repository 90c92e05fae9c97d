"""Command-line front end.

Exit codes are stable: 0 success (certify and sweep: Frozen), 1 NotFrozen
(a sweep: at any grid point), 2 parse error, 3 validation/hypothesis error,
4 internal numerical failure, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from .channels import ZERO_TOL, classify
from .coherence import measure_panel
from .errors import CohfreezeError, SpecParseError, ValidationError
from .experiments import (
    PRESETS,
    _labelled_csv,
    detect_freezing,
    preset_files,
    run_sweep,
)
from .records import format_number, render
from .recovery import CERTIFICATE_TOL, certify_freezing
from .specs import parse_channel_spec, parse_state_spec, parse_sweep_file

EXIT_OK = 0
EXIT_NOT_FROZEN = 1
EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_NUMERICAL = 4
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, as a shell reports a closed pipe

OUTDIR_ENV = "COHFREEZE_OUTDIR"


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
    p_repro.add_argument("name", choices=PRESETS)
    p_repro.add_argument("--out", help="output directory for preset CSV files")
    p_repro.add_argument("--no-timestamp", action="store_true")

    return parser


_PARSER = _build_parser()  # parse_args returns a new Namespace per call


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


def _located(value: float, names: tuple[str, ...], point: tuple[float, ...]) -> str:
    """`<value> at <name>=<parameter>,...`, a sweep summary's maximum."""
    where = ",".join(f"{n}={format_number(v)}" for n, v in zip(names, point))
    return f"{format_number(value)} at {where}"


def cmd_sweep(args) -> int:
    try:
        text = Path(args.spec).read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        raise SpecParseError(f"cannot read spec file: {exc}") from None
    spec, output_path = parse_sweep_file(text)
    table = run_sweep(spec)
    target = Path(args.out or _out_dir(None) / (output_path or "sweep.csv"))
    _write_csv(target, table.to_csv(), not args.no_timestamp)
    summary = detect_freezing(table)
    print(render([
        ("verdict", "Frozen" if summary.frozen else "NotFrozen"),
        ("not_frozen_points", f"{summary.not_frozen_points} of {len(table.rows)}"),
        *(
            (f"max_{name}", _located(value, table.parameter_names, point))
            for name, (value, point) in summary.maxima.items()
        ),
    ]))
    print(f"wrote {target}")
    return EXIT_OK if summary.frozen else EXIT_NOT_FROZEN


def cmd_reproduce(args) -> int:
    out_dir = _out_dir(args.out)
    for title, name, cases in preset_files(args.name):
        path = out_dir / name
        csv = _labelled_csv([(label, report.table) for label, report in cases])
        _write_csv(path, csv, not args.no_timestamp)
        worst_cr = max(report.max_cr_deviation for _, report in cases)
        worst_l1 = max(report.max_cl1_deviation for _, report in cases)
        print(
            f"PASS {title}: max |c_rel_ent - (1 - H(p))| {worst_cr:.3e}, "
            f"max |c_l1 - c_l1(rho0)| {worst_l1:.3e} -> {path}"
        )
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
    """Run main and exit with its code. A reader that closes stdout early
    (cohfreeze ... | head) ends the run quietly with EXIT_BROKEN_PIPE,
    whether print or the final flush meets the closed pipe."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
