"""The project's pytest settings report a failing hypothesis test cleanly
and fail the run on an xfail test that passes."""

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

PASSING_XFAIL = """
import pytest


@pytest.mark.xfail
def test_passes():
    pass
"""


def run_pytest(tmp_path, name: str, source: str) -> subprocess.CompletedProcess:
    """Run pytest under the project's config on one test file in tmp_path."""
    (tmp_path / name).write_text(source)
    command = [sys.executable, "-m", "pytest", "-q", "-rf", "-p", "no:cacheprovider"]
    command += ["-c", str(PYPROJECT), "--rootdir", str(tmp_path), name]
    return subprocess.run(
        command, cwd=tmp_path, capture_output=True, text=True, timeout=300
    )


@pytest.mark.skipif(
    importlib.util.find_spec("libcst") is None,
    reason="hypothesis reaches the warning through libcst, which is not installed",
)
def test_failing_hypothesis_test_is_one_clean_failure(tmp_path):
    """On a failure hypothesis imports libcst, whose mypy_extensions.TypedDict
    warns; under filterwarnings = error that warning must not turn the
    report into an INTERNALERROR."""
    result = run_pytest(tmp_path, "test_fails.py", FAILING_TEST)
    output = result.stdout + result.stderr
    assert result.returncode == 1, output
    assert "1 failed" in result.stdout
    assert "INTERNALERROR" not in output


def test_passing_xfail_fails_the_run(tmp_path):
    """xfail_strict = true: a known-defect pin fails the run on the day its
    defect is mended, even without strict=True on the marker."""
    result = run_pytest(tmp_path, "test_xpass.py", PASSING_XFAIL)
    assert result.returncode == 1, result.stdout + result.stderr
    assert "XPASS(strict)" in result.stdout
    assert "1 failed" in result.stdout
