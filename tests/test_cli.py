import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

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


# The committed --no-timestamp preset outputs; the CSV bytes are a contract.
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"

EQ16_CSV_SHA256 = "60376d62f8369b7b3f796241cc0d679976b2715a0fa2d57461ac3da728811c2b"


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
        ],
    )
    def test_checked_before_building_exits_3(self, argv, capsys):
        assert run_cli(*argv) == 3
        assert "exceeds the supported maximum 64" in capsys.readouterr().err


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

    def test_nan_freezing_tolerance_exits_2(self, tmp_path, capsys):
        spec_file = tmp_path / "nan.spec"
        spec_file.write_text(EQ16_SPEC + "tolerances.freezing = nan\n")
        assert run_cli("sweep", "--spec", str(spec_file)) == 2
        assert "freezing_tol" in capsys.readouterr().err

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


class TestReproduce:
    def test_bromley(self, tmp_path, capsys):
        code = run_cli("reproduce", "bromley", "--out", str(tmp_path),
                       "--no-timestamp")
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("PASS bromley")
        assert_matches_reference(tmp_path, "bromley.csv")

    def test_pure_family(self, tmp_path, capsys):
        code = run_cli("reproduce", "pure-family", "--out", str(tmp_path),
                       "--no-timestamp")
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS pure-family N=2" in out
        assert "PASS pure-family N=3" in out
        assert_matches_reference(tmp_path, "pure-family-N2.csv")
        assert_matches_reference(tmp_path, "pure-family-N3.csv")

    def test_mixed_family(self, tmp_path, capsys):
        code = run_cli("reproduce", "mixed-family", "--out", str(tmp_path),
                       "--no-timestamp")
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS mixed-family N=2" in out
        assert "PASS mixed-family N=3" in out
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
        ],
        ids=["certify-not-frozen", "certify-witness", "certify-frozen",
             "measure", "classify"],
    )
    def test_exact_stdout(self, capsys, argv, code, expected):
        assert run_cli(*argv) == code
        assert capsys.readouterr().out == expected


class TestEntryPoint:
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
