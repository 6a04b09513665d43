"""The commands the README documents run as it says they do."""

import re
import runpy
import shlex
import sys
from pathlib import Path

from degenforge.cli import run

ROOT = Path(__file__).resolve().parent.parent
QUICK_START = "python scripts/make_fixtures.py fixtures"


def _script(name: str) -> dict:
    return runpy.run_path(str(ROOT / "scripts" / name), run_name=name)


def _quick_start() -> list[str]:
    """The lines of the README's shell block that starts by writing the fixtures."""
    blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    block = next(block for block in blocks if block.startswith(QUICK_START))
    return [line for line in block.splitlines() if line.strip()]


def test_the_readme_quick_start_runs(tmp_path, monkeypatch):
    lines = _quick_start()
    assert shlex.split(lines[0], comments=True) == QUICK_START.split()
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(sys, "argv", ["make_fixtures.py", "fixtures"])
    _script("make_fixtures.py")["main"]()
    commands = lines[1:]
    assert commands and all(line.startswith("degenforge ") for line in commands)
    for line in commands:
        code, report = run(shlex.split(line, comments=True)[1:])
        assert code == (1 if "# exit 1" in line else 0), (line, report)


def test_the_demo_script_runs(capsys):
    _script("run_demo.py")["main"]()
    out = capsys.readouterr().out
    assert "oracle agreement: True" in out
    # L2@D4: the direct run and the run given the second loop as s0, joined over the two ends of J
    assert ("  deg0 and deg1 differ in 29 entries; restriction entries checked: 58, "
            "projection entries checked: 210\n") in out
