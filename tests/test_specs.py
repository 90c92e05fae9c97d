import ast
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from cohfreeze import (
    ChannelClass,
    InvalidCanonicalFormError,
    NotNormalizedError,
    OutOfRangeError,
    SpecParseError,
    ValidationError,
    classify,
    phi_state,
)
from cohfreeze import specs
from cohfreeze.cli import main
from cohfreeze.specs import (
    parse_channel_spec,
    parse_complex,
    parse_state_spec,
    parse_sweep_file,
)

SWEEP_TEXT = """\
# comment line
state.spec = phi N=2 l=00 sign=+
channel.factors = [bitflip, bitflip]
sweep.q1 = [0, 0.1, 0.2]
sweep.q2 = [0, 0.5]
tolerances.freezing = 1e-8
tolerances.certificate = 1e-8
output.path = out.csv
"""


class TestComplexNumbers:
    @pytest.mark.parametrize(
        "text,value",
        [
            ("1", 1 + 0j),
            ("-0.5", -0.5 + 0j),
            ("0.5+0.5i", 0.5 + 0.5j),
            ("1-2i", 1 - 2j),
            ("0.5i", 0.5j),
            ("2e-3+1e-3i", 0.002 + 0.001j),
        ],
    )
    def test_parse(self, text, value):
        assert parse_complex(text) == value

    def test_round_trip(self):
        for z in (0.25 - 0.75j, 1 + 0j, -3.5 + 2j):
            assert parse_complex(f"{z.real:.12g}{z.imag:+.12g}i") == z

    @pytest.mark.parametrize("text", ["", "abc", "1+2", "1++2i"])
    def test_rejects_garbage(self, text):
        with pytest.raises(SpecParseError):
            parse_complex(text)


class TestStateSpecs:
    def test_phi(self):
        state = parse_state_spec("phi N=2 l=00 sign=+")
        np.testing.assert_array_equal(state.matrix, phi_state("00", "+").matrix)

    def test_phi_minus(self):
        state = parse_state_spec("phi N=3 l=010 sign=-")
        assert state.matrix[2, 5] == pytest.approx(-0.5)

    def test_basis(self):
        state = parse_state_spec("basis N=1 i=0")
        np.testing.assert_array_equal(state.matrix.real, np.diag([1.0, 0.0]))

    def test_mixed_explicit_weights(self):
        state = parse_state_spec("mixed N=2 p=0.8 weights=[00:0.6,01:0.4]")
        assert state.matrix[0, 3] == pytest.approx(0.6 * 0.3)

    def test_mixed_zero_weight_adds_nothing(self):
        state = parse_state_spec("mixed N=2 p=0.5 weights=[00:1,01:0]")
        np.testing.assert_array_equal(state.matrix, np.diag([0.5, 0, 0, 0.5]))

    def test_mixed_random_weights_deterministic(self):
        a = parse_state_spec("mixed N=2 p=0.9 weights=random seed=11")
        b = parse_state_spec("mixed N=2 p=0.9 weights=random seed=11")
        np.testing.assert_array_equal(a.matrix, b.matrix)
        c = parse_state_spec("mixed N=2 p=0.9 weights=random seed=12")
        assert np.max(np.abs(a.matrix - c.matrix)) > 1e-6

    def test_negative_seed_is_out_of_range(self):
        with pytest.raises(OutOfRangeError, match="seed must be non-negative"):
            parse_state_spec("mixed N=2 p=0.5 weights=random seed=-1")

    @pytest.mark.parametrize(
        "weights", ["[00:1,00:1]", "[00:0.3,01:0.7,00:0.3]"]
    )
    def test_duplicate_weight_key(self, weights):
        with pytest.raises(SpecParseError, match="duplicate weight key '00'"):
            parse_state_spec(f"mixed N=2 p=0.9 weights={weights}")

    def test_pure_with_normalize(self):
        state = parse_state_spec("pure amps=[3,4i] normalize=true")
        assert state.matrix[0, 0] == pytest.approx(0.36)

    def test_normalize_defaults_to_false(self, capsys):
        np.testing.assert_array_equal(
            parse_state_spec("pure amps=[1,0]").matrix,
            parse_state_spec("pure amps=[1,0] normalize=false").matrix,
        )
        with pytest.raises(NotNormalizedError):
            parse_state_spec("pure amps=[3,4]")
        assert main(["measure", "--state", "pure amps=[3,4]"]) == 3
        err = capsys.readouterr().err
        assert err == "validation error: vector norm 5.0 is not 1\n"

    def test_raw(self):
        state = parse_state_spec(
            "raw dim=2 entries=[0.5+0i,0.5+0i,0.5+0i,0.5+0i]"
        )
        np.testing.assert_allclose(state.matrix.real, np.full((2, 2), 0.5))

    @pytest.mark.parametrize(
        "text",
        [
            "snowman N=2",
            "phi N=2 l=00",
            "phi N=3 l=00 sign=+",
            "phi N=2 l=00 sign=+ extra=1",
            "raw dim=2 entries=[1,0,0]",
            "mixed N=2 p=0.8 weights=[00:0.6;01:0.4]",
            "",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(SpecParseError):
            parse_state_spec(text)

    def test_domain_errors_are_not_parse_errors(self):
        with pytest.raises(InvalidCanonicalFormError):
            parse_state_spec("phi N=2 l=10 sign=+")
        with pytest.raises(ValidationError):
            parse_state_spec("raw dim=2 entries=[1,0,0,1]")  # trace 2
        with pytest.raises(ValidationError):
            parse_state_spec("basis N=-1 i=0")
        with pytest.raises(ValidationError):
            parse_channel_spec("identity dim=-1")


class TestChannelSpecs:
    def test_library_constructors(self):
        for text in (
            "bitflip q=0.3",
            "phaseflip q=0.2",
            "bitphaseflip q=0.1",
            "depolarizing q=0.5",
            "phasedamping l=0.4",
            "amplitudedamping g=0.36",
        ):
            channel = parse_channel_spec(text)
            assert channel.dim == 2

    def test_identity(self):
        assert parse_channel_spec("identity").dim == 2
        np.testing.assert_array_equal(
            parse_channel_spec("identity").operators,
            parse_channel_spec("identity dim=2").operators,
        )
        assert parse_channel_spec("identity dim=4").dim == 4

    def test_local(self):
        channel = parse_channel_spec(
            "local [bitflip q=0.1, amplitudedamping g=0.4]"
        )
        assert channel.dim == 4
        assert classify(channel).channel_class is ChannelClass.STRICTLY_INCOHERENT

    def test_nested_local(self):
        channel = parse_channel_spec(
            "local [bitflip q=0.1, local [phaseflip q=0.2, bitflip q=0.3]]"
        )
        assert channel.dim == 8

    def test_raw_hadamard(self):
        h = 0.7071067811865476
        channel = parse_channel_spec(
            f"raw dim=2 ops=[[{h},{h},{h},-{h}]]"
        )
        assert classify(channel).channel_class is ChannelClass.NOT_INCOHERENT

    @pytest.mark.parametrize(
        "text",
        [
            "bitflip",
            "bitflip p=0.3",
            "warp q=0.1",
            "local []",
            "local",
            "raw dim=2 ops=[[1,0,0]]",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(SpecParseError):
            parse_channel_spec(text)

    def test_domain_errors_propagate(self):
        with pytest.raises(ValidationError):
            parse_channel_spec("bitflip q=1.5")


class TestInlineRefusals:
    """Each refusal's type and message, through the parser and through the
    CLI, which exits 2 on a parse error."""

    @pytest.mark.parametrize(
        "command, text, message",
        [
            ("measure", "phi N=2 =1 l=00 sign=+", "expected key=value, got '=1'"),
            ("classify", "bitflip q=0.1 q=0.2", "duplicate key 'q'"),
            (
                "classify",
                "local [bitflip q=0.1",
                "unbalanced brackets in 'local [bitflip q=0.1'",
            ),
            ("measure", "pure amps=1,0", "expected a bracketed list, got '1,0'"),
            ("measure", "basis N=two i=0", "bad integer for N: 'two'"),
            ("measure", "pure amps=[1] normalize=no", "bad boolean for normalize: 'no'"),
            ("measure", "phi [0] N=1 l=0 sign=+", "unexpected bracket argument for 'phi'"),
            ("classify", "bitflip [q] q=0", "unexpected bracket argument for 'bitflip'"),
            ("measure", "phi N=2 l=00 sign=x", "sign must be + or -, got 'x'"),
            (
                "measure",
                "mixed N=2 p=0.5 weights=[000:1]",
                "weight key '000' does not have N=2 bits",
            ),
            ("measure", "pure amps=[]", "pure requires at least one amplitude"),
            (
                "measure",
                "mixed N=2 p=0.5 weights=[]",
                "mixed requires at least one weight",
            ),
            ("measure", "pure amps=[ ]", "pure requires at least one amplitude"),
            ("classify", "raw dim=2 ops=[]", "raw requires at least one operator"),
            ("classify", "local []", "local requires at least one factor"),
            ("measure", "mixed N=2 p=0.5 weights=random", "mixed requires seed="),
            (
                "measure",
                "mixed N=2 p=0.5 weights=random seed=x",
                "bad integer for seed: 'x'",
            ),
            ("measure", "raw dim=2 entries=[]", "raw dim=2 needs 4 entries, got 0"),
            ("classify", "identity dim=x", "bad integer for dim: 'x'"),
            ("classify", "identity d=2", "unknown key(s) for identity: d"),
        ],
    )
    def test_message_and_exit_code(self, command, text, message, capsys):
        parse = parse_state_spec if command == "measure" else parse_channel_spec
        with pytest.raises(SpecParseError) as excinfo:
            parse(text)
        assert str(excinfo.value) == message
        flag = "--state" if command == "measure" else "--channel"
        assert main([command, flag, text]) == 2
        assert capsys.readouterr().err == f"parse error: {message}\n"


class TestBracketScanning:
    @pytest.mark.parametrize(
        "text,message",
        [
            (
                "phi N=2 l=00 sign=+ ]",
                "unbalanced brackets in 'phi N=2 l=00 sign=+ ]'",
            ),
            (
                "mixed N=2 p=0.5 weights=[00:0.5]x[01:0.5]",
                "unbalanced brackets in '00:0.5]x[01:0.5'",
            ),
            (
                "mixed N=2 p=0.5 weights=[00:0.5,,01:0.5]",
                "weights entries are bits:value, got ''",
            ),
        ],
    )
    def test_error_messages(self, text, message):
        with pytest.raises(SpecParseError) as excinfo:
            parse_state_spec(text)
        assert str(excinfo.value) == message

    def test_whitespace_inside_brackets(self):
        channel = parse_channel_spec("local [ bitflip   q=0.1 ,  bitflip q=0.2 ]")
        expected = parse_channel_spec("local [bitflip q=0.1, bitflip q=0.2]")
        assert channel.dim == 4
        assert len(channel.operators) == 4
        for got, want in zip(channel.operators, expected.operators):
            np.testing.assert_array_equal(got, want)


class TestSweepFiles:
    def test_happy_path(self):
        spec, out = parse_sweep_file(SWEEP_TEXT)
        assert out == "out.csv"
        assert spec.factors == ("bitflip", "bitflip")
        assert spec.grids == ((0.0, 0.1, 0.2), (0.0, 0.5))
        assert not spec.tie_parameters
        assert spec.state_label == "phi N=2 l=00 sign=+"

    def test_tied_grid(self):
        text = SWEEP_TEXT.replace(
            "sweep.q1 = [0, 0.1, 0.2]\nsweep.q2 = [0, 0.5]",
            "sweep.q = [0, 0.5, 1]",
        )
        spec, _ = parse_sweep_file(text)
        assert spec.tie_parameters
        assert spec.grids == ((0.0, 0.5, 1.0),)

    def test_unknown_key_has_line_number(self):
        text = SWEEP_TEXT + "sweep.q3 = [0.5]\n"
        with pytest.raises(SpecParseError, match="line 9"):
            parse_sweep_file(text)

    def test_unknown_section(self):
        with pytest.raises(SpecParseError, match="line 1"):
            parse_sweep_file("plotting.style = dark\n")

    def test_empty_grid(self):
        text = SWEEP_TEXT.replace("sweep.q2 = [0, 0.5]", "sweep.q2 = []")
        with pytest.raises(SpecParseError, match="empty"):
            parse_sweep_file(text)

    def test_missing_state(self):
        text = "\n".join(
            line for line in SWEEP_TEXT.splitlines() if "state" not in line
        )
        with pytest.raises(SpecParseError, match="state.spec"):
            parse_sweep_file(text)

    def test_missing_grid(self):
        text = SWEEP_TEXT.replace("sweep.q2 = [0, 0.5]\n", "")
        with pytest.raises(SpecParseError, match="sweep.q2"):
            parse_sweep_file(text)

    def test_duplicate_key(self):
        text = SWEEP_TEXT + "output.path = again.csv\n"
        with pytest.raises(SpecParseError, match="duplicate"):
            parse_sweep_file(text)

    def test_tied_and_per_qubit_conflict(self):
        text = SWEEP_TEXT + "sweep.q = [0.5]\n"
        with pytest.raises(SpecParseError):
            parse_sweep_file(text)

    @pytest.mark.parametrize(
        "old, new, message",
        [
            ("out.csv", "out.csv\nstray","line 9: expected section.key = value"),
            ("output.path", "path", "line 8: key 'path' is missing a section"),
            ("= out.csv", "=", "line 8: empty value for 'output.path'"),
            ("channel.factors = [bitflip, bitflip]\n", "", "missing channel.factors"),
            (
                "phi N=2 l=00 sign=+",
                "mixed N=2 p=0.5 weights=[]",
                "line 2: mixed requires at least one weight",
            ),
            (
                "channel.factors = [bitflip, bitflip]",
                "channel.factors = []",
                "line 3: channel.factors must not be empty",
            ),
            (
                "channel.factors = [bitflip, bitflip]",
                "channel.factors = [bitflip, warp]",
                "line 3: bad channel.factors: unknown channel kind 'warp'",
            ),
            (
                "channel.factors = [bitflip, bitflip]",
                "channel.factors = bitflip",
                "line 3: expected a bracketed list, got 'bitflip'",
            ),
            (
                "sweep.q2 = [0, 0.5]",
                "sweep.q2 = []",
                "line 5: grid must not be empty",
            ),
            (
                "sweep.q1 = [0, 0.1, 0.2]",
                "sweep.q1 = 0.1",
                "line 4: expected a bracketed list, got '0.1'",
            ),
            (
                "sweep.q1 = [0, 0.1, 0.2]",
                "sweep.q1 = [0, x]",
                "line 4: bad number for grid value: 'x'",
            ),
            (
                "tolerances.freezing = 1e-8",
                "tolerances.freezing = abc",
                "line 6: bad number for tolerances.freezing: 'abc'",
            ),
        ],
    )
    def test_refusal_messages(self, old, new, message, tmp_path, capsys):
        text = SWEEP_TEXT.replace(old, new)
        with pytest.raises(SpecParseError) as excinfo:
            parse_sweep_file(text)
        assert str(excinfo.value) == message
        spec_file = tmp_path / "bad.spec"
        spec_file.write_text(text)
        assert main(["sweep", "--spec", str(spec_file)]) == 2
        assert message in capsys.readouterr().err

    def test_negative_seed_in_state_spec(self):
        text = SWEEP_TEXT.replace(
            "state.spec = phi N=2 l=00 sign=+",
            "state.spec = mixed N=2 p=0.5 weights=random seed=-1",
        )
        with pytest.raises(SpecParseError, match="line 2: bad state.spec"):
            parse_sweep_file(text)

    def test_bad_state_spec_reports_its_line(self):
        text = SWEEP_TEXT.replace(
            "state.spec = phi N=2 l=00 sign=+",
            "state.spec = phi N=2 l=00",
        )
        with pytest.raises(SpecParseError, match="line 2"):
            parse_sweep_file(text)


class TestOneReader:
    """Each spec value is read one way: constructor keys are popped only by
    specs._read, a local's factors are tokenized once, and one lookup refuses
    an unknown channel kind."""

    @pytest.mark.parametrize("k", range(1, 7))
    def test_local_factors_are_tokenized_once(self, k):
        text = "local [" + ", ".join(["bitflip q=0.1"] * k) + "]"
        with mock.patch.object(
            specs, "_parse_tokens", wraps=specs._parse_tokens
        ) as tokenize:
            parse_channel_spec(text)
        assert tokenize.call_count == k + 1

    @staticmethod
    def pops_outside_read(source: str) -> list[int]:
        """Lines of each kwargs.pop(...) call outside a function _read."""
        tree = ast.parse(source)
        inside = {
            id(node)
            for function in ast.walk(tree)
            if isinstance(function, ast.FunctionDef) and function.name == "_read"
            for node in ast.walk(function)
        }
        return sorted(
            node.lineno
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "pop"
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "kwargs"
            and id(node) not in inside
        )

    def test_keys_are_popped_only_by_read(self):
        assert self.pops_outside_read(Path(specs.__file__).read_text()) == []

    def test_detector_flags_a_pop_outside_read(self):
        source = (
            "def _read(kwargs):\n"
            "    return kwargs.pop('a')\n"
            "def build(kwargs, entries):\n"
            "    entries.pop('b')\n"
            "    return kwargs.pop('c', None)\n"
        )
        assert self.pops_outside_read(source) == [5]

    def test_unknown_channel_kind_has_one_home(self):
        package = Path(specs.__file__).parent
        sources = [path.read_text() for path in package.glob("*.py")]
        assert sum(s.count("unknown channel kind") for s in sources) == 1
