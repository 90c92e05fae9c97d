"""The project's pytest settings report a failing hypothesis test cleanly."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_TEST = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="hypothesis reaches the warning through libcst, which is not installed",
)
def test_failing_hypothesis_test_is_one_clean_failure(tmp_path):
    """On a failure hypothesis imports libcst, whose mypy_extensions.TypedDict
    warns; under filterwarnings = error that warning must not turn the
    report into an INTERNALERROR."""
    (tmp_path / "test_fails.py").write_text(FAILING_TEST)
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider"]
    command += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"]
    result = subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in result.stdout
    assert "INTERNALERROR" not in output
