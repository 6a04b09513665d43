"""``scripts/compare_outputs.py`` on the ``verdicts`` plan at one seed.

Against this checkout's own ``src`` every op matches, so it exits 0. Against
a copy of ``src`` whose scans count one horn too many per shape, the first
op, a ``check --inner`` whose report carries ``checked``, differs: it exits 1
and names that op.
"""

import pathlib
import shutil
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "compare_outputs.py"
SRC = ROOT / "src"


def _compare(base: pathlib.Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), str(base), "--workload", "verdicts", "--seed", "3"],
                          capture_output=True, text=True, timeout=300)


def test_a_tree_matches_itself():
    done = _compare(SRC)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout == "verdicts seed 3: 14 ops, their reports and 0 written files identical\n"


def test_a_tampered_tree_is_named_at_its_first_differing_op(tmp_path):
    tampered = tmp_path / "src"
    shutil.copytree(SRC, tampered, ignore=shutil.ignore_patterns("__pycache__"))
    horn = tampered / "degenforge" / "horn.py"
    text = horn.read_text(encoding="utf-8")
    assert text.count("checked += horns\n") == 1
    horn.write_text(text.replace("checked += horns\n", "checked += horns + 1\n"), encoding="utf-8")
    done = _compare(tampered)
    assert done.returncode == 1, done.stdout + done.stderr
    assert done.stdout.splitlines()[-1] == "verdicts seed 3: op 0 (z2xz2@D5 check_inner) differs in report"
