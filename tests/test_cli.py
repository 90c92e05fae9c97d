import hashlib
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cohfreeze
from cohfreeze import cli, coherence, recovery
from cohfreeze.cli import main

EQ16_SPEC = """\
state.spec = phi N=2 l=00 sign=+
channel.factors = [bitflip, bitflip]
sweep.q1 = [0, 0.1, 0.2, 0.3, 0.4, 0.5]
sweep.q2 = [0, 0.25, 0.5]
output.path = eq16.csv
"""

EQ18_SPEC = """\
state.spec = mixed N=2 p=0.8 weights=[00:0.6,01:0.4]
channel.factors = [bitflip, bitflip]
sweep.q1 = [0, 0.2, 0.4]
sweep.q2 = [0.1, 0.3]
output.path = eq18.csv
"""

# A Bell pair under tied phase flips: both grid points are NotFrozen.
PHASE_FLIP_SPEC = """\
state.spec = phi N=2 l=00 sign=+
channel.factors = [phaseflip, phaseflip]
sweep.q = [0.3, 0.7]
"""
PHASE_FLIP_SUMMARY = (
    "verdict = NotFrozen\n"
    "not_frozen_points = 2 of 2\n"
    "max_cr_deviation = 0.981453895034 at q=0.3\n"
    "max_recovery_residual_state = 0.4872 at q=0.3\n"
    "max_recovery_residual_diag = 2.22044604925e-16 at q=0.7\n"
)


# The committed --no-timestamp preset outputs; the CSV bytes are a contract.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

# The directory that holds the cohfreeze package, for subprocesses.
PACKAGE_ROOT = str(Path(cohfreeze.__file__).resolve().parents[1])

EQ16_CSV_SHA256 = "95b92eb3f9a9f34c251a087c0d25fedd2bef75027f29b325ffd4b42d307df3da"


def assert_matches_reference(out_dir, name):
    assert (out_dir / name).read_bytes() == (REFERENCE_DIR / name).read_bytes()


def run_cli(*argv):
    return main(list(argv))


class TestMeasure:
    def test_bell_state(self, capsys):
        assert run_cli("measure", "--state", "phi N=2 l=00 sign=+") == 0
        out = capsys.readouterr().out
        assert "c_l1 = 1" in out
        assert "c_rel_ent = 1" in out

    def test_basis_state_zeros(self, capsys):
        assert run_cli("measure", "--state", "basis N=1 i=0") == 0
        out = capsys.readouterr().out
        assert "c_l1 = 0" in out
        assert "c_rel_ent = 0" in out

    def test_malformed_spec_exits_2(self, capsys):
        assert run_cli("measure", "--state", "phi N=2 l=00 sign") == 2
        assert "parse error" in capsys.readouterr().err

    def test_invalid_state_exits_3(self, capsys):
        assert run_cli("measure", "--state", "raw dim=2 entries=[1,0,0,1]") == 3
        assert "validation error" in capsys.readouterr().err

    def test_one_spectrum_per_state(self, monkeypatch, capsys):
        # The state's validation decomposes it once, and the cross-check
        # reads that spectrum; the dephased reference is exactly diagonal,
        # so it needs no eigh.
        calls = {"eigvalsh": 0, "eigh": 0}
        for name in calls:
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        spec = "mixed N=3 p=0.8 weights=random seed=4"
        assert run_cli("measure", "--state", spec) == 0
        assert calls == {"eigvalsh": 1, "eigh": 0}
        assert "c_rel_ent = 0.278071905113" in capsys.readouterr().out

    def test_cross_check_mismatch_exits_4(self, monkeypatch, capsys):
        monkeypatch.setattr(coherence, "c_rel_ent", lambda rho: 0.5)
        with pytest.raises(cohfreeze.NumericalInconsistencyError) as excinfo:
            coherence.measure_panel(cohfreeze.phi_state("00", "+"))
        assert excinfo.type is cohfreeze.NumericalInconsistencyError
        message = "closed-form vs definitional mismatch: 5.000e-01"
        assert str(excinfo.value) == message
        assert run_cli("measure", "--state", "phi N=2 l=00 sign=+") == 4
        assert capsys.readouterr().err == f"numerical failure: {message}\n"

    @pytest.mark.parametrize("amps", ["[1e-170,1e-170]", "[1e200,1e200]"])
    def test_tiny_or_huge_amplitudes_normalize_to_plus(self, amps, capsys):
        assert run_cli("measure", "--state", f"pure amps={amps} normalize=true") == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("c_l1 = 1\nc_rel_ent = 1\n")
        assert captured.err == ""

    def test_huge_unnormalized_amplitudes_name_a_finite_norm(self, capsys):
        assert run_cli("measure", "--state", "pure amps=[1e200,1e200]") == 3
        err = capsys.readouterr().err
        norm = re.search(r"vector norm (\S+) is not 1", err).group(1)
        assert float(norm) == pytest.approx(2**0.5 * 1e200, rel=1e-15)

    @pytest.mark.parametrize("normalize", ["true", "false"])
    def test_infinite_amplitude_exits_3(self, normalize, capsys):
        spec = f"pure amps=[inf,1] normalize={normalize}"
        assert run_cli("measure", "--state", spec) == 3
        assert capsys.readouterr().err == (
            "validation error: matrix entries must be finite\n"
        )

    @pytest.mark.parametrize(
        "weights, named", [("[00:nan]", "'00'"), ("[00:1,01:nan]", "'01'")]
    )
    def test_nan_weight_exits_3_naming_it(self, weights, named, capsys):
        spec = f"mixed N=2 p=0.5 weights={weights}"
        assert run_cli("measure", "--state", spec) == 3
        err = capsys.readouterr().err
        assert f"weight for {named} must be >= 0, got nan" in err

    def test_negative_seed_exits_3(self, capsys):
        spec = "mixed N=2 p=0.5 weights=random seed=-1"
        assert run_cli("measure", "--state", spec) == 3
        assert "seed must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "weights", ["[00:1,00:1]", "[00:0.3,01:0.7,00:0.3]"]
    )
    def test_duplicate_weight_key_exits_2(self, weights, capsys):
        spec = f"mixed N=2 p=0.9 weights={weights}"
        assert run_cli("measure", "--state", spec) == 2
        assert "duplicate weight key '00'" in capsys.readouterr().err


class TestDimensionCap:
    @pytest.mark.parametrize(
        "argv",
        [
            ("measure", "--state", "basis N=40 i=0"),
            ("measure", "--state", "mixed N=40 p=0.5 weights=random seed=1"),
            ("classify", "--channel", "identity dim=65"),
            ("classify", "--channel", "local [" + ", ".join(["bitflip q=0.1"] * 7) + "]"),
            ("classify", "--channel", "local [identity dim=16, identity dim=8]"),
            # the seventh factor passes the cap: the eighth, unknown, is never parsed
            ("classify", "--channel",
             "local [" + ", ".join(["bitflip q=0.1"] * 7 + ["warp q=1"]) + "]"),
        ],
    )
    def test_checked_before_building_exits_3(self, argv, capsys):
        assert run_cli(*argv) == 3
        assert "exceeds the supported maximum 64" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "spec",
        [
            "local [" + ", ".join(["identity dim=1"] * 7) + "]",
            "local [local [" + ", ".join(["identity dim=1"] * 4) + "], "
            "local [" + ", ".join(["identity dim=1"] * 4) + "]]",
        ],
    )
    def test_counts_dimension_not_factors(self, spec, capsys):
        # seven dimension-1 factors make dimension 1, flat or nested
        assert run_cli("classify", "--channel", spec) == 0
        assert capsys.readouterr().out == (
            "class = StrictlyIncoherent\nwitness = none\n"
        )


class TestClassify:
    def test_bitflip(self, capsys):
        assert run_cli("classify", "--channel", "bitflip q=0.3") == 0
        assert "class = StrictlyIncoherent" in capsys.readouterr().out

    def test_hadamard_witness(self, capsys):
        h = "0.7071067811865476"
        assert (
            run_cli("classify", "--channel", f"raw dim=2 ops=[[{h},{h},{h},-{h}]]")
            == 0
        )
        out = capsys.readouterr().out
        assert "class = NotIncoherent" in out
        assert "column 0" in out

    def test_local_mixed(self, capsys):
        spec = "local [bitflip q=0.1, amplitudedamping g=0.4]"
        assert run_cli("classify", "--channel", spec) == 0
        assert "StrictlyIncoherent" in capsys.readouterr().out

    def test_zero_tol_flag(self, capsys):
        # a rotation by 1e-9: unitary, off-diagonal entries at 1e-9
        spec = "raw dim=2 ops=[[1,-1e-9,1e-9,1]]"
        assert run_cli("classify", "--channel", spec) == 0
        assert "NotIncoherent" in capsys.readouterr().out
        assert run_cli("classify", "--channel", spec, "--zero-tol", "1e-6") == 0
        assert "StrictlyIncoherent" in capsys.readouterr().out

    @pytest.mark.parametrize("zero_tol", ["nan", "inf", "-1"])
    def test_bad_zero_tol_exits_3(self, zero_tol, capsys):
        h = "0.7071067811865476"
        for spec in (f"raw dim=2 ops=[[{h},{h},{h},-{h}]]", "bitflip q=0.3"):
            assert run_cli(
                "classify", "--channel", spec, "--zero-tol", zero_tol
            ) == 3
            assert "zero_tol" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ops", ["[[1e200,1e200,1e200,1e200i]]", "[[1e200,0,0,1]]"]
    )
    def test_overflowing_completeness_exits_3(self, ops, capsys):
        assert run_cli("classify", "--channel", f"raw dim=2 ops={ops}") == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("validation error: completeness fails: ")

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("phasedamping l=1.5", "l must be in [0, 1], got 1.5"),
            ("amplitudedamping g=2", "g must be in [0, 1], got 2.0"),
            (
                "local [bitflip q=0.1, depolarizing q=-1]",
                "q must be in [0, 1], got -1.0",
            ),
        ],
    )
    def test_out_of_range_parameter_is_named_by_its_key(self, spec, message, capsys):
        assert run_cli("classify", "--channel", spec) == 3
        assert capsys.readouterr().err == f"validation error: {message}\n"

    def test_zero_tol_zero_still_classifies(self, capsys):
        assert run_cli("classify", "--channel", "bitflip q=0.3", "--zero-tol", "0") == 0
        assert "class = StrictlyIncoherent" in capsys.readouterr().out


class TestCertify:
    def test_bell_frozen_exit_0(self, capsys):
        code = run_cli(
            "certify",
            "--state", "phi N=2 l=00 sign=+",
            "--channel", "local [bitflip q=0.2, bitflip q=0.7]",
        )
        assert code == 0
        assert "verdict = Frozen" in capsys.readouterr().out

    def test_amplitude_damping_exit_1(self, capsys):
        code = run_cli(
            "certify",
            "--state", "phi N=1 l=0 sign=+",
            "--channel", "amplitudedamping g=0.5",
        )
        assert code == 1
        assert "verdict = NotFrozen" in capsys.readouterr().out

    def test_non_sio_channel_exit_3(self, capsys):
        h = "0.7071067811865476"
        code = run_cli(
            "certify",
            "--state", "phi N=1 l=0 sign=+",
            "--channel", f"raw dim=2 ops=[[{h},{h},{h},-{h}],[{h},{h},-{h},{h}]]",
        )
        assert code == 3
        assert "validation error" in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    def test_non_finite_or_non_positive_tol_exits_3(self, tol, capsys):
        code = run_cli(
            "certify",
            "--state", "phi N=2 l=00 sign=+",
            "--channel", "local [bitflip q=0.2, bitflip q=0.7]",
            "--tol", tol,
        )
        assert code == 3
        assert "finite and positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "state, channel",
        [
            # A 1e-13 rotation: (d0/dt)^(1/2) ~ 3e5 would scale it up.
            (
                "raw dim=2 entries=[0.99999999999,0,0,1e-11]",
                "raw dim=2 ops=[[1,-1e-13,1e-13,1]]",
            ),
            # 1e-12 entries: channel(delta0) is off-diagonal by 2e-12.
            (
                "raw dim=2 entries=[0.5,0.2,0.2,0.5]",
                "raw dim=2 ops=[" + ",".join(["[0.5,1e-12,1e-12,0.5]"] * 4) + "]",
            ),
        ],
    )
    def test_near_strict_channel_gets_a_verdict(self, state, channel, capsys):
        # Entries at or below ZERO_TOL classify as zero, and the recovery is
        # built from that same judged stack.
        assert run_cli("certify", "--state", state, "--channel", channel) == 0
        out = capsys.readouterr().out
        assert out.startswith("verdict = Frozen\n")
        assert "recovery_witness = none\n" in out

    @pytest.mark.parametrize(
        "channel", ["raw dim=2 ops=[[1,0,0,1]]", "local [bitflip q=0]"]
    )
    def test_identity_keeps_a_coherence_beside_a_small_population(
        self, channel, capsys
    ):
        # Only a weight that is not a normal float is in the recovery's kernel.
        state = "raw dim=2 entries=[1,1e-7,1e-7,1e-14]"
        assert run_cli("certify", "--state", state, "--channel", channel) == 0
        assert capsys.readouterr().out.startswith("verdict = Frozen\n")

    def test_io_only_with_override(self, capsys):
        h = "0.7071067811865476"
        spec = f"raw dim=2 ops=[[{h},{h},0,0],[{h},-{h},0,0]]"
        assert run_cli("certify", "--state", "basis N=1 i=0",
                       "--channel", spec) == 3
        code = run_cli(
            "certify", "--state", "basis N=1 i=0",
            "--channel", spec, "--allow-non-strict",
        )
        capsys.readouterr()
        assert code in (0, 1)


class TestSweep:
    def test_eq16_style_sweep(self, tmp_path, capsys):
        spec_file = tmp_path / "eq16.spec"
        spec_file.write_text(EQ16_SPEC)
        out_file = tmp_path / "out.csv"
        code = run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(out_file),
            "--no-timestamp",
        )
        assert code == 0
        assert capsys.readouterr().out.startswith(
            "verdict = Frozen\nnot_frozen_points = 0 of 18\n"
        )
        lines = out_file.read_text().strip().splitlines()
        header = next(line for line in lines if not line.startswith("#"))
        idx = header.split(",").index("c_rel_ent")
        data = [line for line in lines if not line.startswith("#")][1:]
        assert len(data) == 18
        for line in data:
            assert float(line.split(",")[idx]) == pytest.approx(1.0, abs=1e-12)

    def test_eq18_style_sweep(self, tmp_path, capsys):
        spec_file = tmp_path / "eq18.spec"
        spec_file.write_text(EQ18_SPEC)
        out_file = tmp_path / "out.csv"
        assert run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(out_file),
            "--no-timestamp",
        ) == 0
        lines = [
            line
            for line in out_file.read_text().strip().splitlines()
            if not line.startswith("#")
        ]
        idx = lines[0].split(",").index("c_rel_ent")
        for line in lines[1:]:
            assert float(line.split(",")[idx]) == pytest.approx(
                0.2780719051126377, abs=1e-9
            )

    def test_eq16_csv_bytes(self, tmp_path, capsys):
        spec_file = tmp_path / "eq16.spec"
        spec_file.write_text(EQ16_SPEC)
        out_file = tmp_path / "out.csv"
        assert run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(out_file),
            "--no-timestamp",
        ) == 0
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == EQ16_CSV_SHA256

    def test_a_leading_byte_order_mark_is_ignored(self, tmp_path, capsys):
        # the same CSV bytes as the plain spec's, EQ16_CSV_SHA256
        spec_file = tmp_path / "bom.spec"
        spec_file.write_bytes(b"\xef\xbb\xbf" + EQ16_SPEC.encode())
        out_file = tmp_path / "out.csv"
        assert run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(out_file),
            "--no-timestamp",
        ) == 0
        digest = hashlib.sha256(out_file.read_bytes()).hexdigest()
        assert digest == EQ16_CSV_SHA256

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "eq16.spec"
        spec_file.write_text(EQ16_SPEC)
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(blocker / "x.csv")
        ) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_empty_grid_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "bad.spec"
        spec_file.write_text(EQ16_SPEC.replace("[0, 0.25, 0.5]", "[]"))
        assert run_cli("sweep", "--spec", str(spec_file)) == 2

    def test_freezing_tolerance_key_is_refused(self, tmp_path, capsys):
        spec_file = tmp_path / "freezing.spec"
        spec_file.write_text(EQ16_SPEC + "tolerances.freezing = 1e-8\n")
        assert run_cli("sweep", "--spec", str(spec_file)) == 2
        assert capsys.readouterr().err == (
            "parse error: line 6: unknown key 'tolerances.freezing'\n"
        )

    def test_not_frozen_sweep_exits_1(self, tmp_path, capsys):
        spec_file = tmp_path / "phase.spec"
        spec_file.write_text(PHASE_FLIP_SPEC)
        out_file = tmp_path / "out.csv"
        assert run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(out_file),
            "--no-timestamp",
        ) == 1
        assert capsys.readouterr().out == PHASE_FLIP_SUMMARY + f"wrote {out_file}\n"

    @pytest.mark.parametrize(
        "text", [EQ16_SPEC, PHASE_FLIP_SPEC], ids=["eq16", "phaseflip"]
    )
    def test_summary_reads_the_csv_columns(self, text, tmp_path, capsys):
        # Each printed maximum is its CSV column's, at the first row with it.
        spec_file = tmp_path / "sweep.spec"
        spec_file.write_text(text)
        out_file = tmp_path / "out.csv"
        code = run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(out_file),
            "--no-timestamp",
        )
        header, *rows = [
            line.split(",")
            for line in out_file.read_text().splitlines()
            if not line.startswith("#")
        ]
        names = header[: header.index("c_l1")]
        not_frozen = [row[header.index("verdict")] for row in rows].count("NotFrozen")
        expected = [
            f"verdict = {'NotFrozen' if not_frozen else 'Frozen'}",
            f"not_frozen_points = {not_frozen} of {len(rows)}",
        ]
        for column in header[header.index("cr_deviation"):]:
            cells = [row[header.index(column)] for row in rows]
            first = max(range(len(rows)), key=lambda i: float(cells[i]))
            point = ",".join(f"{n}={v}" for n, v in zip(names, rows[first]))
            expected.append(f"max_{column} = {cells[first]} at {point}")
        assert capsys.readouterr().out.splitlines()[:-1] == expected
        assert code == (1 if not_frozen else 0)

    @pytest.mark.parametrize(
        "lines, message",
        [
            (
                "channel.factors = [bitflip, bitflip, bitflip]\nsweep.q = [0.1]\n",
                "state dim 4 does not match 3 qubit factors",
            ),
            (
                "channel.factors = [" + ", ".join(["bitflip"] * 7) + "]\n"
                "sweep.q = [0.1]\n",
                "dimension 128 exceeds the supported maximum 64",
            ),
            (
                "channel.factors = [bitflip, bitflip]\n"
                + "".join(
                    f"sweep.q{i} = [{', '.join(str(k / 100) for k in range(101))}]\n"
                    for i in (1, 2)
                ),
                "grid has 10201 points, maximum is 10000",
            ),
        ],
        ids=["three-factors", "seven-factors", "points"],
    )
    def test_invalid_sweep_exits_2(self, lines, message, tmp_path, capsys):
        # Every line parses; SweepSpec refuses the whole.
        spec_file = tmp_path / "invalid.spec"
        spec_file.write_text("state.spec = phi N=2 l=00 sign=+\n" + lines)
        out_file = tmp_path / "out.csv"
        assert run_cli("sweep", "--spec", str(spec_file), "--out", str(out_file)) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "",
            f"parse error: invalid sweep: {message}\n",
        )
        assert not out_file.exists()

    def test_negative_seed_in_state_spec_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "seed.spec"
        spec_file.write_text(
            EQ16_SPEC.replace(
                "phi N=2 l=00 sign=+", "mixed N=2 p=0.5 weights=random seed=-1"
            )
        )
        assert run_cli("sweep", "--spec", str(spec_file)) == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert run_cli("sweep", "--spec", "/nonexistent/path.spec") == 2

    def test_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "latin.spec"
        spec_file.write_bytes(b"# comment\n\xff\xfe\n")
        assert run_cli("sweep", "--spec", str(spec_file)) == 2
        err = capsys.readouterr().err
        assert err.startswith("parse error: cannot read spec file: 'utf-8' codec")

    def test_output_dir_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COHFREEZE_OUTDIR", str(tmp_path))
        spec_file = tmp_path / "eq16.spec"
        spec_file.write_text(EQ16_SPEC)
        assert run_cli("sweep", "--spec", str(spec_file), "--no-timestamp") == 0
        assert (tmp_path / "eq16.csv").exists()

    def test_identical_spec_gives_identical_csv(self, tmp_path, capsys):
        spec_file = tmp_path / "eq16.spec"
        spec_file.write_text(EQ16_SPEC)
        outputs = []
        for name in ("one.csv", "two.csv"):
            assert run_cli(
                "sweep", "--spec", str(spec_file),
                "--out", str(tmp_path / name), "--no-timestamp",
            ) == 0
            outputs.append((tmp_path / name).read_bytes())
        assert outputs[0] == outputs[1]

    def test_timestamp_is_only_difference(self, tmp_path, capsys):
        spec_file = tmp_path / "eq16.spec"
        spec_file.write_text(EQ16_SPEC)
        assert run_cli(
            "sweep", "--spec", str(spec_file), "--out", str(tmp_path / "ts.csv")
        ) == 0
        lines = (tmp_path / "ts.csv").read_text().splitlines()
        assert lines[0].startswith("# generated_at = ")
        assert run_cli(
            "sweep", "--spec", str(spec_file),
            "--out", str(tmp_path / "plain.csv"), "--no-timestamp",
        ) == 0
        plain = (tmp_path / "plain.csv").read_text().splitlines()
        assert lines[1:] == plain


def assert_pass_lines(out, preset, out_dir):
    """One PASS line per N in the one format every preset prints."""
    lines = out.splitlines()
    assert len(lines) == 2
    number = r"\d\.\d{3}e[+-]\d\d"
    for n, line in zip((2, 3), lines):
        path = re.escape(str(out_dir / f"{preset}-N{n}.csv"))
        assert re.fullmatch(
            rf"PASS {preset} N={n}: max \|c_rel_ent - \(1 - H\(p\)\)\| {number}, "
            rf"max \|c_l1 - c_l1\(rho0\)\| {number} -> {path}",
            line,
        ), line


class TestReproduce:
    def test_bromley(self, tmp_path, capsys):
        code = run_cli("reproduce", "bromley", "--out", str(tmp_path),
                       "--no-timestamp")
        assert code == 0
        # The figures come from the same arithmetic as the pinned CSV bytes.
        assert capsys.readouterr().out == (
            "PASS bromley: max |c_rel_ent - (1 - H(p))| 6.661e-16, "
            f"max |c_l1 - c_l1(rho0)| 4.441e-16 -> {tmp_path / 'bromley.csv'}\n"
        )
        assert_matches_reference(tmp_path, "bromley.csv")

    def test_pure_family(self, tmp_path, capsys):
        code = run_cli("reproduce", "pure-family", "--out", str(tmp_path),
                       "--no-timestamp")
        assert code == 0
        assert_pass_lines(capsys.readouterr().out, "pure-family", tmp_path)
        assert_matches_reference(tmp_path, "pure-family-N2.csv")
        assert_matches_reference(tmp_path, "pure-family-N3.csv")

    def test_mixed_family(self, tmp_path, capsys):
        code = run_cli("reproduce", "mixed-family", "--out", str(tmp_path),
                       "--no-timestamp")
        assert code == 0
        assert_pass_lines(capsys.readouterr().out, "mixed-family", tmp_path)
        assert_matches_reference(tmp_path, "mixed-family-N2.csv")
        assert_matches_reference(tmp_path, "mixed-family-N3.csv")

    def test_unwritable_out_exits_2(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run_cli("reproduce", "bromley", "--out", str(blocker / "sub")) == 2
        assert "cannot write" in capsys.readouterr().err

    def test_bromley_determinism(self, tmp_path, capsys):
        for sub in ("a", "b"):
            assert run_cli(
                "reproduce", "bromley", "--out", str(tmp_path / sub),
                "--no-timestamp",
            ) == 0
        capsys.readouterr()
        a = (tmp_path / "a" / "bromley.csv").read_bytes()
        b = (tmp_path / "b" / "bromley.csv").read_bytes()
        assert a == b

    def test_timestamp_suppression(self, tmp_path, capsys):
        assert run_cli("reproduce", "bromley", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        with_stamp = (tmp_path / "bromley.csv").read_text()
        assert "generated_at" in with_stamp
        assert run_cli(
            "reproduce", "bromley", "--out", str(tmp_path), "--no-timestamp"
        ) == 0
        capsys.readouterr()
        assert "generated_at" not in (tmp_path / "bromley.csv").read_text()


RAW_IO = "raw dim=2 ops=[[0.6,0.8,0,0],[0,0,0.8,-0.6]]"
STRICTNESS_REFUSAL = (
    "validation error: channel classifies IncoherentOnly "
    "(operator 0, row 0, columns (0, 1)); "
    "pass enforce_hypothesis=False (cohfreeze certify --allow-non-strict) "
    "to explore anyway\n"
)
H = "0.7071067811865476"
IO_ONLY = f"raw dim=2 ops=[[{H},{H},0,0],[{H},-{H},0,0]]"
# Strictly incoherent at the default zero_tol, not entry by entry.
NEAR_STRICT = "local [raw dim=2 ops=[[1,-1e-13,1e-13,1]], bitflip q=0.2]"


def certificate_text(verdict, failed, values, incoherent, witness):
    """The certify stdout for the given record; values lists the eight
    numeric fields from cr_initial to recovery_residual_diag."""
    names = (
        "cr_initial", "cr_final", "cr_deviation",
        "c_l1_initial", "c_l1_final", "c_l1_deviation",
        "recovery_residual_state", "recovery_residual_diag",
    )
    lines = [f"verdict = {verdict}", f"failed_checks = {failed}"]
    lines += [f"{name} = {value}" for name, value in zip(names, values)]
    lines += [
        f"recovery_incoherent = {incoherent}",
        f"recovery_witness = {witness}",
        "tol = 1e-08",
    ]
    return "\n".join(lines) + "\n"


class TestGoldenStdout:
    """Exact stdout and exit code of commands whose every printed number is
    exact."""

    @pytest.mark.parametrize(
        "argv, code, expected",
        [
            (
                ("certify", "--state", "phi N=1 l=0 sign=+",
                 "--channel", "phasedamping l=1"),
                1,
                certificate_text(
                    "NotFrozen", "cr_deviation,recovery_residual_state",
                    ("1", "0", "1", "1", "0", "1", "0.5", "0"), "true", "none",
                ),
            ),
            (
                ("certify", "--state", "mixed N=1 p=0.5 weights=[0:1]",
                 "--channel", RAW_IO, "--allow-non-strict"),
                1,
                certificate_text(
                    "NotFrozen", "recovery_incoherent", ("0",) * 8, "false",
                    "operator 0, column 0, rows (0, 1)",
                ),
            ),
            (
                ("certify", "--state", "basis N=1 i=0",
                 "--channel", RAW_IO, "--allow-non-strict"),
                0,
                certificate_text("Frozen", "none", ("0",) * 8, "true", "none"),
            ),
            (
                ("measure", "--state", "phi N=2 l=00 sign=+"),
                0,
                "c_l1 = 1\nc_rel_ent = 1\ncross_check_residual = 0\n",
            ),
            (
                ("classify", "--channel", RAW_IO),
                0,
                "class = IncoherentOnly\n"
                "witness = operator 0, row 0, columns (0, 1)\n",
            ),
            (
                ("classify", "--channel", NEAR_STRICT, "--zero-tol", "1e-12"),
                0,
                "class = StrictlyIncoherent\nwitness = none\n",
            ),
            (
                ("classify", "--channel", NEAR_STRICT, "--zero-tol", "0"),
                0,
                "class = NotIncoherent\n"
                "witness = operator 0, column 0, rows (0, 2)\n",
            ),
            (
                ("classify", "--channel", f"local [bitflip q=0.5, {RAW_IO}]"),
                0,
                "class = IncoherentOnly\n"
                "witness = operator 0, row 0, columns (0, 1)\n",
            ),
            (
                ("certify", "--state", "phi N=2 l=00 sign=+",
                 "--channel", f"local [local [bitflip q=0.2], {IO_ONLY}]",
                 "--allow-non-strict"),
                1,
                certificate_text(
                    "NotFrozen", "cr_deviation,recovery_residual_state",
                    ("1", "0", "1", "1", "0", "1", "0.5", "0"), "true", "none",
                ),
            ),
        ],
        ids=["certify-not-frozen", "certify-witness", "certify-frozen",
             "measure", "classify", "classify-local-near-strict",
             "classify-local-near-strict-zero-tol-0", "classify-local-io",
             "certify-local-nested-io"],
    )
    def test_exact_stdout(self, capsys, argv, code, expected):
        assert run_cli(*argv) == code
        assert capsys.readouterr().out == expected

    def test_local_io_refusal_stderr(self, capsys):
        argv = ("certify", "--state", "basis N=2 i=1",
                "--channel", f"local [bitflip q=0.5, {RAW_IO}]")
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == STRICTNESS_REFUSAL

    def test_strictness_refusal_names_the_cli_switch(self, capsys):
        argv = ("certify", "--state", "phi N=1 l=0 sign=+", "--channel", RAW_IO)
        assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == STRICTNESS_REFUSAL


class TestEntryPoint:
    @pytest.mark.parametrize("argv, code", [([], 2), (["frobnicate"], 2), (["--help"], 0)])
    def test_argparse_exits(self, argv, code, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert ("usage: cohfreeze" in captured.out) == (code == 0)
        assert ("usage: cohfreeze" in captured.err) == (code == 2)

    def test_main_parses_with_the_parser_built_at_import(self, monkeypatch, capsys):
        def refuse():
            raise AssertionError("argument parser built again")

        monkeypatch.setattr(cli, "_build_parser", refuse)
        assert main(["measure", "--state", "phi N=1 l=0 sign=+"]) == 0
        assert main(["frobnicate"]) == 2
        assert capsys.readouterr().out == (
            "c_l1 = 1\nc_rel_ent = 1\ncross_check_residual = 0\n"
        )

    def test_numerical_failure_exits_4(self, monkeypatch, capsys):
        # c_l1 shifted by 0.5 on every state but the first it measures, the
        # initial one: past the round-trip bound of a Frozen verdict
        original = coherence.c_l1
        initial = {}

        def shifted(rho):
            initial.setdefault("rho", rho)
            return original(rho) + (0.0 if rho is initial["rho"] else 0.5)

        monkeypatch.setattr(recovery, "c_l1", shifted)
        code = run_cli(
            "certify", "--state", "phi N=2 l=00 sign=+", "--channel", "identity dim=4"
        )
        assert code == 4
        assert capsys.readouterr().err.startswith(
            "numerical failure: frozen verdict but l1 deviation"
        )

    def test_entry_exits_with_main_status(self, monkeypatch, capsys):
        # python -m cohfreeze runs __main__.py, which calls cli.entry
        argv = ["cohfreeze", "certify", "--state", "phi N=1 l=0 sign=+",
                "--channel", "amplitudedamping g=0.5"]
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.delitem(sys.modules, "cohfreeze.__main__", raising=False)
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("cohfreeze", run_name="__main__")
        assert exited.value.code == 1
        assert "verdict = NotFrozen" in capsys.readouterr().out

    def test_cli_module_exits_with_main_status(self, monkeypatch, capsys):
        # python -m cohfreeze.cli runs cli.py as __main__, which calls entry
        argv = ["cohfreeze", "measure", "--state", "phi N=1 l=0 sign=+"]
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.delitem(sys.modules, "cohfreeze.cli")
        with pytest.raises(SystemExit) as exited:
            runpy.run_module("cohfreeze.cli", run_name="__main__")
        assert exited.value.code == 0
        assert capsys.readouterr().out == (
            "c_l1 = 1\nc_rel_ent = 1\ncross_check_residual = 0\n"
        )

    def test_module_certify_exit_status(self):
        result = subprocess.run(
            [sys.executable, "-m", "cohfreeze", "certify",
             "--state", "phi N=1 l=0 sign=+", "--channel", "amplitudedamping g=0.5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
        assert result.returncode == 1
        assert "verdict = NotFrozen" in result.stdout

    def test_closed_stdout_exits_141_quietly(self):
        # the reader is gone before the child starts, so its stdout is a
        # pipe with no read end: the final flush meets the closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "cohfreeze", "certify",
                 "--state", "phi N=1 l=0 sign=+", "--channel", RAW_IO,
                 "--allow-non-strict"],
                stdout=write_end,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
            )
        finally:
            os.close(write_end)
        assert result.returncode == cli.EXIT_BROKEN_PIPE == 141
        assert result.stderr == ""

    def test_closed_stdout_in_print_exits_141(self, monkeypatch):
        # a line-buffered stdout makes print itself meet the closed pipe
        read_end, write_end = os.pipe()
        os.close(read_end)
        stdout = os.fdopen(write_end, "w", buffering=1)
        argv = ["cohfreeze", "measure", "--state", "phi N=1 l=0 sign=+"]
        monkeypatch.setattr(sys, "argv", argv)
        monkeypatch.setattr(sys, "stdout", stdout)
        try:
            with pytest.raises(SystemExit) as exited:
                cli.entry()
        finally:
            stdout.close()  # its fd now points at os.devnull
        assert exited.value.code == cli.EXIT_BROKEN_PIPE

    def test_module_sweep_exit_status(self, tmp_path):
        spec_file = tmp_path / "phase.spec"
        spec_file.write_text(PHASE_FLIP_SPEC)
        result = subprocess.run(
            [sys.executable, "-m", "cohfreeze", "sweep", "--spec", str(spec_file),
             "--out", str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
        assert result.returncode == 1
        assert result.stdout.startswith(PHASE_FLIP_SUMMARY)

    def test_module_invocation(self):
        result = subprocess.run(
            [sys.executable, "-m", "cohfreeze", "measure",
             "--state", "phi N=2 l=00 sign=+"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert "c_rel_ent = 1" in result.stdout

    def test_usage_error_exits_2(self):
        result = subprocess.run(
            [sys.executable, "-m", "cohfreeze", "frobnicate"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 2
