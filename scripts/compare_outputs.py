#!/usr/bin/env python3
"""Run every op of the benchmark plans on two source trees and compare what they write.

    python3 scripts/compare_outputs.py BASE_SRC [--workload W ...] [--seed S ...]

For each workload and seed (by default all four workloads at seeds 7 and
11), the plan is built once with ``perfbench.fixtures.build_plan`` and its
inputs are written into one work directory per source tree: this
checkout's ``src`` and ``BASE_SRC``, the ``src`` of another checkout such
as a ``git worktree`` of the parent commit. One child process per tree,
with only that tree's ``src`` importable, runs the plan's ops in order
through ``degenforge.cli.run``. It records each op's exit code, its whole
report (with ``stats``, ``checked`` and witnesses) and the sha256 of every
file the op wrote: the tables and certificates the report lists as its
outputs, and any other new file.

The two runs are compared op by op. The script prints one line per
workload and seed and exits 0 when every op matches. At the first op that
differs it names the op and what differs, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.paths import SRC, use_checkout_sources  # noqa: E402

use_checkout_sources()

from perfbench.fixtures import PLANS, build_plan, write_plan  # noqa: E402

SEEDS = (7, 11)

# run in the work directory, with only one tree's src importable: prints the runs as JSON
_CHILD = r"""
import hashlib, json, os, sys
import degenforge
from degenforge import cli

ops = json.load(open("plan.json", encoding="utf-8"))["ops"]
runs = []
for op in ops:
    before = set(os.listdir("."))
    try:
        code, report = cli.run(list(op["argv"]))
    except (Exception, SystemExit) as exc:
        code, report = None, {"raised": f"{type(exc).__name__}: {exc}"}
    names = set(report.get("outputs", [])) | (set(os.listdir(".")) - before)
    written = {}
    for name in sorted(names):
        with open(name, "rb") as handle:
            written[name] = hashlib.sha256(handle.read()).hexdigest()
    runs.append({"code": code, "report": report, "written": written})
json.dump({"module": degenforge.__file__, "runs": runs}, sys.stdout, sort_keys=True)
"""


def run_ops(src: pathlib.Path, work: pathlib.Path) -> list[dict]:
    """Each op's exit code, report and written files, run in ``work`` on the sources in ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}
    done = subprocess.run([sys.executable, "-c", _CHILD], cwd=work, env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"compare_outputs: the run on {src} failed:\n{done.stderr}")
    out = json.loads(done.stdout)
    module = pathlib.Path(out["module"]).resolve()
    if src not in module.parents:
        raise SystemExit(f"compare_outputs: degenforge was imported from {module}, not from {src}")
    return out["runs"]


def first_difference(ops: list[dict], ours: list[dict], theirs: list[dict]) -> str | None:
    """The first op whose exit code, report or written bytes differ, named; None if all match."""
    for i, (op, a, b) in enumerate(zip(ops, ours, theirs)):
        parts = [part for part in ("code", "report", "written") if a[part] != b[part]]
        if parts:
            return f"op {i} ({op['fixture']} {op['command']}) differs in {', '.join(parts)}"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base_src", help="the src directory of the tree to compare against")
    parser.add_argument("--workload", action="append", choices=list(PLANS),
                        help="a workload to run (repeatable; default: all)")
    parser.add_argument("--seed", action="append", type=int,
                        help=f"a plan seed (repeatable; default: {' '.join(map(str, SEEDS))})")
    args = parser.parse_args(argv)
    base = pathlib.Path(args.base_src).resolve()
    if not (base / "degenforge" / "__init__.py").is_file():
        parser.error(f"no degenforge sources under {base}")
    trees = {"this": SRC, "base": base}
    with tempfile.TemporaryDirectory(prefix="compare-outputs-") as tmp:
        for workload in args.workload or list(PLANS):
            for seed in args.seed or SEEDS:
                plan = build_plan(workload, seed)
                runs = {}
                for name, src in trees.items():
                    work = pathlib.Path(tmp) / f"{workload}-{seed}-{name}"
                    write_plan(plan, work)
                    runs[name] = run_ops(src, work)
                differs = first_difference(plan.ops, runs["this"], runs["base"])
                if differs is not None:
                    print(f"{workload} seed {seed}: {differs}")
                    return 1
                files = sum(len(run["written"]) for run in runs["this"])
                print(f"{workload} seed {seed}: {len(plan.ops)} ops, their reports and "
                      f"{files} written files identical")
    return 0


if __name__ == "__main__":
    sys.exit(main())
