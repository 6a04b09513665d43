"""Tests of the benchmark itself: inputs, output checks and the tracer.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

from degenforge import cli
from degenforge.degeneracy import DegeneracyTable, verify_simplicial
from degenforge.sset import SemisimplicialMap, SemisimplicialSet, validate, validate_map
from perfbench import fixtures
from perfbench.paths import BENCH_DIR, ROOT
from perfbench.run import Runner
from perfbench.tracer import METRICS, Tracer


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("name, dim", [("z3", 5), ("z2xj", 4), ("square", 4), ("monoid", 4)])
def test_relabeled_fixture_validates_and_its_oracle_verifies(seed, name, dim):
    fx = fixtures.Fixture(name, dim, seed)
    X = SemisimplicialSet.from_json_dict(fx.set)
    assert validate(X).ok
    assert X != fx.bundle.sset, "the permutation left the set unchanged"
    table = DegeneracyTable.from_json_dict(fx.table(), X)  # checks the base hash too
    report = verify_simplicial(X, table, dim)
    assert report.ok and report.checked > 0


@pytest.mark.parametrize("seed", [1, 2])
def test_relabeled_projection_is_a_map(seed):
    over, base = fixtures.Fixture("z2xj", 4, seed), fixtures.Fixture("j", 4, seed)
    X = SemisimplicialSet.from_json_dict(over.set)
    Y = SemisimplicialSet.from_json_dict(base.set)
    p = SemisimplicialMap(X, Y, fixtures.projection_levels(over, base))
    assert validate_map(p).ok


def test_relabeling_depends_on_the_seed_only():
    assert fixtures.Fixture("z3", 4, 7).set == fixtures.Fixture("z3", 4, 7).set
    assert fixtures.Fixture("z3", 4, 7).set != fixtures.Fixture("z3", 4, 8).set


def test_validate_count_matches_the_program():
    fx = fixtures.Fixture("z2xz2", 4, 3)
    assert validate(SemisimplicialSet.from_json_dict(fx.set)).checked == fx.validate_count()


@pytest.fixture
def z2_runner(tmp_path):
    """The synth-abs ops on Z/2 at D=6 only: synthesize, then verify --cert."""
    plan = fixtures.build_plan("synth-abs", 5)
    plan.ops = [op for op in plan.ops if op["fixture"] == "z2@D6"]
    fixtures.write_plan(plan, tmp_path)
    runner = Runner(json.loads((tmp_path / "plan.json").read_text()), tmp_path)
    home = os.getcwd()
    os.chdir(tmp_path)
    try:
        yield runner
    finally:
        os.chdir(home)


def _tamper_first_value(path, key=None):
    data = json.loads(path.read_text())
    if key is None:  # a certificate: change the first filled value
        record = next(r for r in data if r["kind"] == "filled")
        record["value"] += 1
    else:  # a table: swap two entries of the first level with two or more
        level = next(lv for row in data[key] for lv in row if lv and len(lv) > 1)
        level[0], level[1] = level[1], level[0]
    path.write_text(json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n")


def test_correct_ops_count_no_failures(z2_runner):
    for _ in range(2):
        z2_runner.run_op(0)
        z2_runner.run_op(1)
    assert (z2_runner.attempted, z2_runner.failed) == (4, 0), z2_runner.errors


@pytest.mark.parametrize("target, key", [("z2@D6.out.cert", None), ("z2@D6.out.tab", "s")])
def test_tampered_input_counts_as_failed(z2_runner, tmp_path, target, key):
    z2_runner.run_op(0)
    _tamper_first_value(tmp_path / target, key)
    z2_runner.run_op(1)
    assert z2_runner.attempted == 2 and z2_runner.failed == 1, z2_runner.errors


def test_wrong_output_table_counts_as_failed(z2_runner):
    # a program that wrote another table than the oracle's must not pass
    want = z2_runner.ops[0]["expect"]["table"]["s"]
    level = next(lv for row in want for lv in row if lv and len(lv) > 1)
    level[0], level[1] = level[1], level[0]
    z2_runner.run_op(0)
    assert z2_runner.failed == 1
    assert "differs from the oracle" in z2_runner.errors[0]


def test_output_bytes_must_repeat(z2_runner, tmp_path):
    z2_runner.run_op(0)
    first = (tmp_path / "z2@D6.out.tab").read_bytes()
    z2_runner._first_bytes[(0, "z2@D6.out.tab")] = first + b" "
    z2_runner.run_op(0)
    assert z2_runner.failed == 1 and "bytes differ" in z2_runner.errors[0]


def test_tracer_reads_the_program_reports_and_restores_it(z2_runner):
    originals = (cli.validate, cli.synthesize, SemisimplicialSet.__dict__["from_json_dict"],
                 SemisimplicialSet.with_face)
    with Tracer() as tracer:
        code, report = tracer.run_op(0, cli.run, list(z2_runner.ops[0]["argv"]))
        metrics = tracer.metrics()
        self_time = tracer.self_times()
    assert code == 0
    assert (cli.validate, cli.synthesize, SemisimplicialSet.__dict__["from_json_dict"],
            SemisimplicialSet.with_face) == originals
    detail = report["detail"]
    assert metrics["degeneracy.filled"] == detail["stats"]["filled"]
    assert metrics["degeneracy.forced"] == detail["stats"]["forced"]
    assert metrics["degeneracy.identities_checked"] == detail["identities_checked"]
    assert metrics["horn.check_inner_horns"] > 0 and metrics["sset.face_lookups"] > 0
    assert set(metrics) == set(METRICS)
    # single-threaded, the layers' self times partition the root span
    root = next(s for s in tracer.spans if s.name == "cli.run")
    total = sum(metrics[f"{layer}.self_s"] for layer in ("cli", "sset", "horn", "degeneracy", "nerve"))
    assert total == pytest.approx(root.end - root.start, rel=1e-6)
    assert all(t >= -1e-9 for t in self_time.values())


def test_tracer_skips_what_the_program_no_longer_has(z2_runner, monkeypatch):
    from degenforge import degeneracy

    monkeypatch.delattr(degeneracy, "_resolve_s0_relative")
    real = cli.synthesize
    monkeypatch.setattr(cli, "synthesize",
                        lambda *args: dataclasses.replace(real(*args), stats=None))
    with Tracer() as tracer:
        code, _ = tracer.run_op(0, cli.run, list(z2_runner.ops[0]["argv"]))
        metrics = tracer.metrics()
    assert code == 0
    assert tracer.missing == ["degeneracy._resolve_s0_relative"]
    assert tracer.unread == {"degeneracy.synthesize"}
    assert metrics["degeneracy.filled"] == 0 and metrics["degeneracy.synthesize_s"] > 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verdicts",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
