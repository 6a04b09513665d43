"""A vertex count that no rows paid for: every command answers with a named verdict.

The set file below is 63 bytes and names 1,000,000,001 vertices; a vertex
has no faces, so no row of the file pays for that count. The table file
names no level at all. Every command that reads such files runs on them in
one child process whose address space is capped, with
``resource.setrlimit(RLIMIT_AS)`` set in the child only. A command that
builds a list as long as the vertex count ends there in a ``MemoryError``,
which fails this test and leaves the test run alone.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

resource = pytest.importorskip("resource")

SRC = Path(__file__).resolve().parent.parent / "src"
SET = '{"cells":[1000000001,1,1],"dim":2,"faces":[[[1000000000,1000000000]],[[0,0,0]]]}'
CAP = 1 << 30  # bytes of address space for the child; one list per vertex needs 8 GB

# the child runs each command line it reads through cli.run and prints its exit code and verdict
CHILD = """
import json, sys
from degenforge.cli import run
for line in sys.stdin:
    argv = json.loads(line)
    code, report = run(argv)
    print(json.dumps([code, report["verdict"]]), flush=True)
"""

# each command with the verdict it gives on those files
COMMANDS = [
    (["validate", "x.sset"], [0, "ok"]),
    (["check", "--inner", "x.sset"], [0, "yes"]),
    (["check", "--kan", "x.sset"], [1, "no"]),
    # a map needs one value per vertex, so a short one is malformed
    (["check", "--inner-fibration", "x.sset", "--map", "m.json", "--target", "x.sset"], [2, "error"]),
    (["edges", "x.sset"], [0, "yes"]),
    (["addendum-s0", "x.sset"], [1, "TruncationExhausted"]),
    (["synthesize", "x.sset"], [1, "NoIdempotentEquivalence"]),
    (["synthesize-rel", "x.sset", "--map", "m.json", "--target", "x.sset", "--ydeg", "t.json"],
     [2, "error"]),
    (["verify", "x.sset", "t.json"], [1, "InvalidDegeneracyTable"]),
    (["demo-uniqueness", "x.sset", "--deg0", "t.json", "--deg1", "t.json"], [1, "InvalidDegeneracyTable"]),
]


def _capped() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CAP, CAP))


def test_every_command_names_its_verdict_on_a_vertex_count_no_row_paid_for(tmp_path):
    (tmp_path / "x.sset").write_text(SET)
    (tmp_path / "t.json").write_text(json.dumps(
        {"base_hash": hashlib.sha256(SET.encode("utf-8")).hexdigest(), "s": []}))
    (tmp_path / "m.json").write_text('{"levels": []}')
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", CHILD], input="".join(json.dumps(argv) + "\n" for argv, _ in COMMANDS),
        capture_output=True, text=True, cwd=tmp_path, preexec_fn=_capped, timeout=120,
        env={**os.environ, "PYTHONPATH": path})
    got = [json.loads(line) for line in done.stdout.splitlines()]
    assert (done.returncode, done.stderr) == (0, ""), got
    assert got == [verdict for _, verdict in COMMANDS]

