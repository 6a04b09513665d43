#!/usr/bin/env python3
"""Apply each listed source mutant to a copy of ``src`` and check that its tests catch it.

    python3 scripts/mutants.py [NAME ...]

A mutant is a file under ``src/``, an exact old text, the new text that
replaces it, and the tests that must fail on the result. For each mutant
(all of them, or only those named) the script copies ``src/`` into a
temporary directory, makes the one replacement there, and runs the named
tests with pytest from this checkout, with only the copy importable and its
address space capped. ``src/`` itself is never written.

- *killed*: pytest reports failing tests (exit 1).
- *survived*: every named test passes.
- *stale*: the old text no longer occurs exactly once in its file, so a
  change to the code must update or retire the mutant.
- *error*: any other pytest outcome, such as a test id that does not exist.

The first entry is the negative control, a mutant that changes nothing: it
must survive, or the tests fail on unmutated code and no kill means
anything. The script prints one line per mutant and exits 0 when the
control survives and every other mutant is killed; otherwise it exits 1,
and 2 when a name it is given lists no mutant.
"""

from __future__ import annotations

import os
import pathlib
import resource
import shutil
import subprocess
import sys
import tempfile
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# far above what any named test needs; a mutant that grows a table without bound fails its tests
ADDRESS_SPACE = 2**31


class Mutant(NamedTuple):
    name: str
    path: str  # under src/
    old: str
    new: str
    tests: tuple[str, ...]


SSET = "degenforge/sset.py"
_TABLE_GUARD = "if flat and n not in self._out_of_range and self.cells[n - 1] <= len(flat):"
_SCREENED = ("tests/test_screened_load.py",)

MUTANTS = (
    Mutant("control: no change", SSET, "def _pooled(", "def _pooled(", _SCREENED),
    # content_hash's digit tables
    Mutant("hash: an out-of-range level read through the tables", SSET, _TABLE_GUARD,
           "if flat and self.cells[n - 1] <= len(flat):",
           ("tests/test_flat_levels.py::test_content_hash_is_the_hash_of_the_json_bytes_on_drawn_face_tables",)),
    Mutant("hash: a row closed by '],'", SSET, 'd + "],[" for d in digits', 'd + "]," for d in digits',
           ("tests/test_flat_levels.py::test_content_hash_is_the_hash_of_the_json_bytes_on_drawn_face_tables",)),
    Mutant("hash: tables with no length bound", SSET, _TABLE_GUARD,
           "if flat and n not in self._out_of_range:",
           ("tests/test_flat_levels.py::test_hashing_a_huge_vertex_allocates_no_table",
            "tests/test_flat_levels.py::test_hashing_a_vertex_10_to_the_9_stays_within_a_capped_address_space")),
    # the screened load of a set file
    Mutant("screen: no fallback to the general path", SSET,
           "    except (TypeError, IndexError):\n        return None", "    except ():\n        return None",
           _SCREENED),
    Mutant("screen: the pool not sliced below c_{n-1}", SSET,
           "simplices * (n + 1)))[:limit]", "simplices * (n + 1)))", _SCREENED),
    Mutant("screen: no row-length check", SSET,
           "if len(level) != simplices or set(map(len, level)) - {n + 1}:", "if len(level) != simplices:",
           _SCREENED),
)


def stale(mutant: Mutant) -> bool:
    """Whether the mutant's old text does not occur exactly once in its file under ``src/``."""
    return (SRC / mutant.path).read_text(encoding="utf-8").count(mutant.old) != 1


def _cap() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, resource.getrlimit(resource.RLIMIT_AS)[1]))


def run(mutant: Mutant) -> tuple[str, str]:
    """The mutant's outcome, killed, survived, stale or error, and the end of pytest's output."""
    if stale(mutant):
        return "stale", f"the old text does not occur exactly once in src/{mutant.path}"
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        copy = pathlib.Path(scratch) / "src"
        shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
        target = copy / mutant.path
        target.write_text(target.read_text(encoding="utf-8").replace(mutant.old, mutant.new), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(copy), "PYTHONDONTWRITEBYTECODE": "1"}
        done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *mutant.tests],
                              cwd=ROOT, env=env, capture_output=True, text=True, preexec_fn=_cap)
    outcome = {0: "survived", 1: "killed"}.get(done.returncode, f"error (pytest exit {done.returncode})")
    return outcome, "\n".join((done.stdout + done.stderr).strip().splitlines()[-5:])


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"mutants: no mutant named {sorted(unknown)}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in chosen:
        outcome, tail = run(mutant)
        wanted = "survived" if mutant.old == mutant.new else "killed"
        print(f"{outcome:<9} {mutant.name}")
        if outcome != wanted:
            failed += 1
            print(f"  expected {wanted}:\n  " + tail.replace("\n", "\n  "))
    print(f"{len(chosen) - failed} of {len(chosen)} mutants as expected")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
