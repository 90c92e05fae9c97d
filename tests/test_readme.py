"""The README's quick starts run as written."""

import re
import shlex
import shutil
from pathlib import Path

from cohfreeze.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text()


def fenced_block(text: str, heading: str, language: str) -> str:
    """The first ```language block after the given markdown heading."""
    after = text[text.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", after, re.S).group(1)


def cli_lines() -> list[list[str]]:
    """Each cohfreeze command of the CLI quick start, split as a shell would."""
    block = fenced_block(README, "## Quick start (CLI)", "sh")
    return [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()]


def test_python_quick_start(capsys):
    namespace = {}
    exec(fenced_block(README, "## Quick start (Python)", "python"), namespace)
    assert namespace["cert"].verdict == "Frozen"
    assert capsys.readouterr().out.startswith("Frozen\n")


def test_cli_quick_start(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    ran = []
    for argv in cli_lines():
        assert argv[0] == "cohfreeze"
        if argv[1] == "reproduce":  # TestReproduce runs the presets
            continue
        if "--spec" in argv:
            spec = Path(argv[argv.index("--spec") + 1])
            (tmp_path / spec).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy(ROOT / spec, tmp_path / spec)
        assert main(argv[1:]) == 0, argv
        ran.append(argv[1])
    assert ran == ["measure", "classify", "certify", "sweep"]
    assert (tmp_path / "sweep.csv").is_file()
    out = capsys.readouterr().out
    assert "\nverdict = Frozen\nnot_frozen_points = 0 of 18\n" in out


def test_sweep_example_is_the_documented_one():
    documented = fenced_block(
        (ROOT / "docs" / "spec-format.md").read_text(), "## Sweep files", ""
    )
    assert (ROOT / "docs" / "sweep-example.spec").read_text() == documented
