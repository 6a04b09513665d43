"""Benchmark the degenforge command in-process and check every output.

    python3 perfbench/run.py --workload synth-abs --seed 1 --seconds 20 --trace 0

One process, one client, closed loop: each op is a ``degenforge.cli.run(argv)``
call, the next one starts only after the previous one returned. The inputs
are written by ``fixtures.py`` from the seed, several times in child
processes (the median of those is ``setup_s``). Then whole passes over the
workload's ops repeat while another pass still fits in ``--seconds``; every
op's exit code, verdict and output files are checked against answers that
do not come from the code under test, and output bytes must repeat on every
pass.

With ``--trace 0`` the last stdout line reports the end-to-end metrics. With
``--trace 1`` the first half of the time runs untraced and the second half
under ``tracer.Tracer``, and the last line reports the per-layer metrics.
Earlier stdout lines hold per-op detail rows and a summary.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter, process_time

if __name__ == "__main__":
    sys.path[0] = str(pathlib.Path(__file__).resolve().parent.parent)

from perfbench.paths import BENCH_DIR, ROOT, use_checkout_sources  # noqa: E402

SETUP_RUNS = 3
MIN_PASSES = 2
COMMANDS = ("synthesize", "verify_cert", "demo_uniqueness", "synthesize_rel", "check_inner",
            "check_kan", "edges", "addendum_s0", "validate", "verify")


def tail(values: list[float]) -> dict:
    """The highest of p90/p99/p99.9 with at least ten samples beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if len(values) * (100.0 - pct) / 100.0 >= 10:
            cut = statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]
            return {f"p{pct:g}": cut}
    return {}


def summary(values: list[float]) -> dict:
    return {"median": statistics.median(values), "n": len(values), **tail(values)}


class Runner:
    """Runs a plan's ops in its work directory and checks each outcome."""

    def __init__(self, plan: dict, work: pathlib.Path):
        from degenforge import cli

        self.run_cli = cli.run
        self.ops = plan["ops"]
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._first_report: dict[int, str] = {}
        self._first_bytes: dict[tuple[int, str], bytes] = {}

    def run_op(self, index: int, tracer=None) -> tuple[float, float, float]:
        """Run op ``index`` once and check it; return wall start, wall end and CPU seconds."""
        op = self.ops[index]
        gc.collect()
        cpu, start = process_time(), perf_counter()
        try:
            if tracer is None:
                code, report = self.run_cli(list(op["argv"]))
            else:
                code, report = tracer.run_op(index, self.run_cli, list(op["argv"]))
        except (Exception, SystemExit) as exc:
            end, cpu = perf_counter(), process_time() - cpu
            problems = [f"raised {type(exc).__name__}: {exc}"]
        else:
            end, cpu = perf_counter(), process_time() - cpu
            problems = self.check(index, code, report)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.errors.append(f"{op['fixture']} {op['command']}: {'; '.join(problems)}")
        return start, end, cpu

    def check(self, index: int, code: int, report: dict) -> list[str]:
        """Problems with one op's outcome; empty when it is right."""
        expect = self.ops[index]["expect"]
        problems = []
        if code != expect["code"] or report.get("verdict") != expect["verdict"]:
            problems.append(f"exit {code} verdict {report.get('verdict')!r}, "
                            f"expected exit {expect['code']} verdict {expect['verdict']!r}")
        detail = report.get("detail")
        if "s0" in expect and (not isinstance(detail, dict) or detail.get("s0") != expect["s0"]):
            problems.append("s0 differs from the oracle's s_0")
        if "checked" in expect and (not isinstance(detail, dict)
                                    or detail.get("checked") != expect["checked"]):
            problems.append(f"validate did not report {expect['checked']} checks")
        if "edges" in expect:
            got = [(e.get("edge"), e.get("result")) for e in report.get("edges", [])]
            if got != list(enumerate(expect["edges"])):
                problems.append("edge verdicts differ from equivalence_criterion")
        if "replayed_from" in expect:
            records = json.loads((self.work / expect["replayed_from"]).read_bytes())
            if not isinstance(detail, dict) or detail.get("replayed_records") != len(records):
                problems.append("replayed record count differs from the certificate")
        if "table" in expect and not problems:
            problems += self._check_table(index, expect["table"])
        for name in report.get("outputs", []):
            problems += self._same_bytes(index, name)
        canonical = json.dumps(report, sort_keys=True)
        if self._first_report.setdefault(index, canonical) != canonical:
            problems.append("report differs from the first pass")
        return problems

    def _check_table(self, index: int, want: dict) -> list[str]:
        blob = (self.work / want["file"]).read_bytes()
        if self._first_bytes.get((index, want["file"])) == blob:
            return []  # checked on the first pass; _same_bytes covers this one
        table = json.loads(blob)
        if table.get("base_hash") != want["base_hash"]:
            return ["table is pinned to another base set"]
        if table.get("s") != want["s"]:
            return ["table differs from the oracle"]
        return []

    def _same_bytes(self, index: int, name: str) -> list[str]:
        blob = (self.work / name).read_bytes()
        if self._first_bytes.setdefault((index, name), blob) != blob:
            return [f"{name} bytes differ from the first pass"]
        return []

    def measure(self, seconds: float, tracer=None) -> tuple[list[list], list]:
        """Whole passes while another one fits in ``seconds`` (at least MIN_PASSES).

        Returns per-pass lists of ``run_op`` readings and, when traced,
        per-pass ``(metrics, op breakdown)`` pairs.
        """
        passes, traces = [], []
        start = perf_counter()
        while True:
            if tracer is not None:
                tracer.reset()
            passes.append([self.run_op(i, tracer) for i in range(len(self.ops))])
            if tracer is not None:
                self_time = tracer.self_times()
                traces.append((tracer.metrics(self_time), tracer.op_breakdown(self_time)))
            elapsed = perf_counter() - start
            typical = statistics.median(p[-1][1] - p[0][0] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
                return passes, traces


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def set_up(workload: str, seed: int, work: pathlib.Path) -> list[tuple[float, float, float]]:
    """Write the inputs SETUP_RUNS times in child processes.

    Returns wall start, wall end and the child's CPU seconds for each.
    """
    spans, digests = [], set()
    argv = [sys.executable, str(BENCH_DIR / "fixtures.py"),
            "--workload", workload, "--seed", str(seed), "--out", str(work)]
    for _ in range(SETUP_RUNS):
        cpu, start = _children_cpu(), perf_counter()
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=120)
        spans.append((start, perf_counter(), _children_cpu() - cpu))
        if done.returncode != 0:
            raise SystemExit(f"perfbench: setup failed:\n{done.stderr}")
        digests.add(done.stdout.strip())
    if len(digests) != 1:
        raise SystemExit("perfbench: setup wrote different inputs for the same seed")
    return spans


def per_command(ops: list, passes: list[list[float]]) -> dict[str, list[float]]:
    """Command metric -> its time summed over the workload's fixtures, one value per pass."""
    out = {}
    for command in COMMANDS:
        picked = [i for i, op in enumerate(ops) if op["command"] == command]
        out[f"{command}_s"] = [sum((p[i] for i in picked), 0.0) for p in passes]
    return out


def emit(line: dict) -> None:
    print(json.dumps(line, sort_keys=True), flush=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the degenforge command.")
    parser.add_argument("--workload", required=True,
                        choices=["synth-abs", "synth-rel", "verdicts", "load-verify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    use_checkout_sources()
    from perfbench.speed import SpeedProbe
    from perfbench.tracer import METRICS, Tracer

    os.environ.pop("DEGENFORGE_THREADS", None)
    # one CPU for the ops, their threads, the setup children and the speed samples
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".perfbench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    home = os.getcwd()
    traced, traces = [], []
    try:
        with SpeedProbe() as probe:
            setup_spans = set_up(args.workload, args.seed, work)
            plan = json.loads((work / "plan.json").read_text(encoding="utf-8"))
            runner = Runner(plan, work)
            os.chdir(work)
            if args.trace:
                passes, _ = runner.measure(args.seconds / 2)
                with Tracer() as tracer:
                    traced, traces = runner.measure(args.seconds / 2, tracer)
            else:
                passes, _ = runner.measure(args.seconds)
    finally:
        os.chdir(home)
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    ops = plan["ops"]
    setup_times = [probe.calibrated(*span, sampled=False) for span in setup_spans]
    times = [[probe.calibrated(*reading) for reading in p] for p in passes]
    walls = [[end - start for start, end, _ in p] for p in passes]
    emit({"host": {"cpu_count": os.cpu_count(), "python": platform.python_version(),
                   "DEGENFORGE_THREADS": "unset", "speed_samples": len(probe.durations)},
          "workload": args.workload, "seed": args.seed, "setup_s": setup_times,
          "setup_wall_s": [end - start for start, end, _ in setup_spans]})
    for i, op in enumerate(ops):
        row = {"fixture": op["fixture"], "command": op["command"],
               **summary([p[i] for p in times]),
               "wall_median": statistics.median(p[i] for p in walls)}
        if traces:
            row["traced"] = traces[len(traces) // 2][1].get(i, {})
        emit({"row": row})
    commands = {name: summary(values)
                for name, values in per_command(ops, times).items() if any(values)}
    pass_times = [sum(p) for p in times]
    notes = {"pass_s": summary(pass_times), "pass_wall_s": summary([sum(p) for p in walls]),
             "commands": commands, "errors": runner.errors[:20]}
    if args.trace:
        notes.update(trace_missing=tracer.missing, trace_unread=sorted(tracer.unread))
    emit({"summary": notes})

    if args.trace:
        # a traced pass's span times are scaled like the pass's own time
        scaled = []
        for p, (layer, _) in zip(traced, traces):
            factor = sum(probe.calibrated(*r) for r in p) / sum(end - start for start, end, _ in p)
            scaled.append({name: value * factor if name.endswith("_s") else value
                           for name, value in layer.items()})
        metrics = {name: statistics.median(m[name] for m in scaled) for name in METRICS}
        metrics.update({name: statistics.median(values)
                        for name, values in per_command(ops, times).items()})
        traced_times = [sum(probe.calibrated(*reading) for reading in p) for p in traced]
        metrics["trace.overhead_s"] = statistics.median(traced_times) - statistics.median(pass_times)
        units = {name: ("s" if name.endswith("_s") else "count") for name in metrics}
        units.update({"cli.bytes_in": "bytes", "cli.bytes_out": "bytes"})
    else:
        metrics = {
            "pass_s": statistics.median(pass_times),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = {"pass_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "success_rate": "ratio"}
    correct = runner.failed == 0
    emit({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
          "metrics": {name: {"value": value, "unit": units[name]}
                      for name, value in metrics.items()}})
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
