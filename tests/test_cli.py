"""Command-line surface: exit codes, report schema, file round trips."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import degenforge
from degenforge import (
    DegeneracyTable,
    SemisimplicialSet,
    SynthesisInput,
    replay_certificate,
    synthesize,
)
from degenforge.cli import main, run
from degenforge.nerve import cyclic_group, idempotent_monoid, simplex_category


@pytest.fixture()
def z2_files(tmp_path):
    cat = tmp_path / "z2.cat"
    cat.write_text(json.dumps(cyclic_group(2).to_json_dict()))
    sset = tmp_path / "n2.sset"
    deg = tmp_path / "n2.deg"
    code, report = run(["nerve", "--cat", str(cat), "--dim", "5",
                        "--out", str(sset), "--deg", str(deg)])
    assert code == 0 and report["verdict"] == "success"
    return {"cat": cat, "sset": sset, "deg": deg, "dir": tmp_path}


def test_nerve_and_validate(z2_files):
    code, report = run(["validate", str(z2_files["sset"])])
    assert code == 0
    assert report["verdict"] == "ok"
    assert report["command"] == "validate"


@pytest.mark.parametrize("argv, want", [(["check", "--inner"], 0), (["check", "--inner", "--dim", "-1"], 2)])
def test_main_prints_the_report_and_returns_its_code(z2_files, capsys, argv, want):
    argv = [*argv, str(z2_files["sset"])]
    code, report = run(argv)
    assert main(argv) == code == want
    assert capsys.readouterr().out == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_the_console_command_runs_as_a_module(z2_files):
    src = str(pathlib.Path(degenforge.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = ["validate", str(z2_files["sset"])]
    done = subprocess.run([sys.executable, "-m", "degenforge.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    code, report = run(argv)
    assert done.returncode == code == 0
    assert done.stdout == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_check_inner_report(z2_files):
    code, report = run(["check", "--inner", "--dim", "4", str(z2_files["sset"])])
    assert code == 0
    assert report["verdict"] == "yes"
    assert report["bound"] == 4


def test_check_kan_negative_carries_witness(tmp_path):
    from degenforge.nerve import idempotent_monoid, nerve
    sset = tmp_path / "nm.sset"
    sset.write_text(json.dumps(nerve(idempotent_monoid(), 3).sset.to_json_dict()))
    code, report = run(["check", "--kan", str(sset)])
    assert code == 1
    assert report["verdict"] == "no"
    assert report["witness"]["n"] == 2 and report["witness"]["k"] == 2


def test_synthesize_emits_replayable_outputs(z2_files):
    table_path = z2_files["dir"] / "n2.table"
    cert_path = z2_files["dir"] / "n2.cert"
    code, report = run(["synthesize", str(z2_files["sset"]), "--dim", "5",
                        "--out", str(table_path), "--cert", str(cert_path)])
    assert code == 0 and report["verdict"] == "success"
    assert report["outputs"] == [str(table_path), str(cert_path)]
    code, report = run(["verify", str(z2_files["sset"]), str(table_path),
                        "--cert", str(cert_path)])
    assert code == 0 and report["verdict"] == "pass"


def test_verify_oracle_table(z2_files):
    code, report = run(["verify", str(z2_files["sset"]), str(z2_files["deg"])])
    assert code == 0 and report["verdict"] == "pass"


def test_verify_refuses_a_table_without_degree_zero(z2_files):
    """A table with no level (0, 0) defines no s_0 on the vertices: refused, unless the bound is 0."""
    empty = z2_files["dir"] / "empty.deg"
    base_hash = json.loads(z2_files["deg"].read_text())["base_hash"]
    empty.write_text(json.dumps({"base_hash": base_hash, "s": []}))
    argv = ["verify", str(z2_files["sset"]), str(empty)]
    code, report = run(argv)
    assert (code, report["verdict"], report["detail"]) == (
        1, "InvalidDegeneracyTable", "table lacks a degree-0 value at vertex 0")
    code, report = run(argv + ["--dim", "0"])
    assert (code, report["verdict"], report["detail"]["checked"]) == (0, "pass", 0)
    # an unreadable certificate is an input error first
    cert = z2_files["dir"] / "c.json"
    cert.write_text("not json")
    code, report = run(argv + ["--cert", str(cert)])
    assert (code, report["verdict"]) == (2, "error")


def test_verify_rejects_tampered_certificate(z2_files):
    table_path = z2_files["dir"] / "t.json"
    cert_path = z2_files["dir"] / "c.json"
    run(["synthesize", str(z2_files["sset"]), "--dim", "5",
         "--out", str(table_path), "--cert", str(cert_path)])
    records = json.loads(cert_path.read_text())
    records[3]["value"] += 1
    cert_path.write_text(json.dumps(records))
    code, report = run(["verify", str(z2_files["sset"]), str(table_path),
                        "--cert", str(cert_path)])
    assert code == 1
    assert report["verdict"] == "CertificateMismatch"


def test_synthesize_failure_names_the_vertex(tmp_path):
    from degenforge.nerve import nerve
    sset = tmp_path / "d1.sset"
    sset.write_text(json.dumps(nerve(simplex_category(1), 4).sset.to_json_dict()))
    code, report = run(["synthesize", "--dim", "4", str(sset)])
    assert code == 1
    assert report["verdict"] == "NoIdempotentEquivalence"
    assert report["witness"] == {"vertex": 0}


def test_edges_command(z2_files):
    code, report = run(["edges", str(z2_files["sset"]), "--dim", "4"])
    assert code == 0
    assert [v["result"] for v in report["edges"]] == [True, True]
    code_single, report_single = run(["edges", str(z2_files["sset"]), "--dim", "4"])
    assert report_single["edges"] == report["edges"]


def test_addendum_s0_command(z2_files):
    out = z2_files["dir"] / "s0.json"
    code, report = run(["addendum-s0", str(z2_files["sset"]), "--dim", "4",
                        "--out", str(out)])
    assert code == 0
    assert report["detail"]["s0"] == [0]
    code, report = run(["synthesize", str(z2_files["sset"]), "--dim", "4",
                        "--s0", str(out)])
    assert code == 0


def test_both_s0_options_are_documented_as_files():
    # --s0 reads a file holding the array, or the object that addendum-s0 --out writes
    from degenforge.cli import _build_parser
    commands = next(a for a in _build_parser()._actions if a.dest == "command").choices
    for command in ("synthesize", "synthesize-rel"):
        (option,) = [a for a in commands[command]._actions if "--s0" in a.option_strings]
        assert option.help.startswith("path of a JSON file") and "addendum-s0 --out" in option.help


def test_demo_uniqueness_command(z2_files):
    table_path = z2_files["dir"] / "synth.table"
    run(["synthesize", str(z2_files["sset"]), "--dim", "5", "--out", str(table_path)])
    code, report = run(["demo-uniqueness", str(z2_files["sset"]),
                        "--deg0", str(table_path), "--deg1", str(table_path),
                        "--dim", "5"])
    assert code == 0 and report["verdict"] == "success"
    assert report["detail"]["product_cells"] == [2, 8, 32, 128, 512, 2048]


def test_synthesize_rel_command(z2_files, tmp_path):
    import degenforge as dg
    n2 = dg.nerve(cyclic_group(2), 4)
    nj = dg.nerve(dg.j_groupoid(), 4)
    bundle = dg.product(n2.sset, nj.sset)
    x_path = tmp_path / "x.sset"
    y_path = tmp_path / "y.sset"
    p_path = tmp_path / "p.map"
    ydeg_path = tmp_path / "y.deg"
    x_path.write_text(json.dumps(bundle.sset.to_json_dict()))
    y_path.write_text(json.dumps(nj.sset.to_json_dict()))
    p_path.write_text(json.dumps(bundle.right.to_json_dict()))
    ydeg_path.write_text(json.dumps(nj.oracle_degeneracies.to_json_dict()))
    out = tmp_path / "rel.table"
    code, report = run(["synthesize-rel", str(x_path), "--map", str(p_path),
                        "--target", str(y_path), "--ydeg", str(ydeg_path),
                        "--dim", "4", "--out", str(out)])
    assert code == 0 and report["verdict"] == "success"
    table = DegeneracyTable.from_json_dict(json.loads(out.read_text()), bundle.sset)
    assert table.value(0, 0, 0) is not None


def test_parse_errors_exit_two(tmp_path):
    missing = tmp_path / "missing.sset"
    code, report = run(["validate", str(missing)])
    assert code == 2
    assert report["verdict"] == "error"
    garbage = tmp_path / "garbage.sset"
    garbage.write_text("{not json")
    code, report = run(["check", "--inner", str(garbage)])
    assert code == 2


_MONOID = idempotent_monoid().to_json_dict()


@pytest.mark.parametrize("category, detail", [
    # a second entry for e.e would make {1, e} the group Z/2
    ({**_MONOID, "compose": _MONOID["compose"] + [["e", "e", "1"]]},
     "the composite of ('e', 'e') is given twice"),
    # a second object '*' would be an isolated vertex
    ({"objects": ["*", "*"], "arrows": [{"name": "f", "src": "*", "tgt": "*"}],
      "compose": [["f", "f", "f"]]},
     "object name '*' is given twice"),
    ({**_MONOID, "arrows": _MONOID["arrows"] + [{"name": "1", "src": "*", "tgt": "*"}]},
     "arrow name '1' is given twice"),
], ids=["composite", "object", "arrow"])
def test_a_category_file_gives_each_name_and_composite_once(tmp_path, category, detail):
    cat = tmp_path / "c.cat"
    cat.write_text(json.dumps(category))
    code, report = run(["nerve", "--cat", str(cat), "--dim", "3", "--out", str(tmp_path / "c.sset")])
    assert (code, report["verdict"], report["detail"], report["outputs"]) == (2, "error", detail, [])
    assert not (tmp_path / "c.sset").exists()


def test_emitted_files_reparse_to_equal_values(z2_files):
    data = json.loads(z2_files["sset"].read_text())
    X = SemisimplicialSet.from_json_dict(data)
    assert X.to_json_dict() == data
    table = DegeneracyTable.from_json_dict(json.loads(z2_files["deg"].read_text()), X)
    assert table.to_json_dict() == json.loads(z2_files["deg"].read_text())


def test_report_has_the_documented_keys(z2_files):
    code, report = run(["check", "--kan", str(z2_files["sset"])])
    assert {"command", "verdict", "bound", "outputs"} <= set(report)


@pytest.fixture()
def dangling_files(tmp_path):
    """Z/2 at D3 plus one extra 3-simplex whose last face is out of range.

    Every horn of the intact part still fills, so a checker that skipped
    validation would answer yes.
    """
    from degenforge.nerve import nerve
    bundle = nerve(cyclic_group(2), 3)
    data = bundle.sset.to_json_dict()
    data["cells"][3] += 1
    data["faces"][2].append([0, 0, 0, 99])
    sset = tmp_path / "dangling.sset"
    sset.write_text(json.dumps(data))
    target = tmp_path / "n2.sset"
    target.write_text(json.dumps(bundle.sset.to_json_dict()))
    levels = [list(range(c)) for c in bundle.sset.cells]
    levels[3].append(0)
    pmap = tmp_path / "p.map"
    pmap.write_text(json.dumps({"levels": levels}))
    return {"sset": sset, "target": target, "map": pmap}


@pytest.mark.parametrize("mode", [["--inner"], ["--kan"], ["--inner-fibration"]])
def test_check_rejects_an_invalid_set(dangling_files, mode):
    argv = ["check", *mode, str(dangling_files["sset"])]
    if mode == ["--inner-fibration"]:
        argv += ["--map", str(dangling_files["map"]), "--target", str(dangling_files["target"])]
    code, report = run(argv)
    assert code == 2
    assert report["verdict"] == "error"
    assert "fails validation" in report["detail"]


def test_edges_rejects_an_invalid_set(dangling_files):
    code, report = run(["edges", str(dangling_files["sset"])])
    assert code == 2
    assert "fails validation" in report["detail"]


def test_addendum_s0_rejects_an_invalid_set(dangling_files):
    code, report = run(["addendum-s0", str(dangling_files["sset"])])
    assert code == 2
    assert "fails validation" in report["detail"]


def _edit(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


def _top_level(s):
    s[0].append([0] * 32)  # s_0 on the 5-simplices of a dimension-5 set


TABLE_DEFECTS = {
    "string_entry": lambda d: d["s"][0][1].__setitem__(0, "1"),
    "float_entry": lambda d: d["s"][0][1].__setitem__(0, 1.7),
    "bool_entry": lambda d: d["s"][0][1].__setitem__(0, True),
    "value_out_of_range": lambda d: d["s"][0][1].__setitem__(0, 4),
    "negative_value": lambda d: d["s"][0][1].__setitem__(0, -1),
    "s_is_an_object": lambda d: d.__setitem__("s", {}),
    "per_k_is_an_object": lambda d: d["s"].__setitem__(0, {}),
    "level_is_a_number": lambda d: d["s"][0].__setitem__(1, 3),
    "level_at_the_top_dimension": lambda d: _top_level(d["s"]),
}


@pytest.mark.parametrize("defect", sorted(TABLE_DEFECTS))
def test_verify_rejects_a_malformed_table(z2_files, defect):
    _edit(z2_files["deg"], TABLE_DEFECTS[defect])
    code, report = run(["verify", str(z2_files["sset"]), str(z2_files["deg"])])
    assert (code, report["verdict"]) == (2, "error"), report


def _s0_defects(valid: list, edges: int) -> dict:
    """Each defect of a degree-0 candidate file, built from a valid one."""
    return {
        "edge_out_of_range": [edges] + valid[1:],
        "negative_edge": [-1] + valid[1:],
        "string_entry": [str(valid[0])] + valid[1:],
        "float_entry": [float(valid[0])] + valid[1:],
        "empty": [],
        "one_entry_too_many": valid + valid[:1],
    }


S0_DEFECTS = sorted(_s0_defects([0], 2))


@pytest.mark.parametrize("defect", S0_DEFECTS)
def test_synthesize_rejects_a_malformed_s0(z2_files, defect):
    s0 = z2_files["dir"] / "s0.json"
    s0.write_text(json.dumps(_s0_defects([0], 2)[defect]))
    code, report = run(["synthesize", str(z2_files["sset"]), "--dim", "4", "--s0", str(s0)])
    assert (code, report["verdict"]) == (2, "error"), report


@pytest.fixture()
def rel_files(tmp_path):
    """Z/2 x J over J at D3: set, map, target, target table and a valid s0."""
    import degenforge as dg
    n2, nj = dg.nerve(cyclic_group(2), 3), dg.nerve(dg.j_groupoid(), 3)
    bundle = dg.product(n2.sset, nj.sset)
    files = {"sset": bundle.sset.to_json_dict(), "map": bundle.right.to_json_dict(),
             "target": nj.sset.to_json_dict(), "ydeg": nj.oracle_degeneracies.to_json_dict()}
    out = {}
    for name, payload in files.items():
        out[name] = tmp_path / f"{name}.json"
        out[name].write_text(json.dumps(payload))
    out["s0"] = [bundle.pair_index(1, n2.oracle_degeneracies.value(0, 0, 0),
                                   nj.oracle_degeneracies.value(0, 0, v)) for v in (0, 1)]
    out["edges"] = bundle.sset.cells[1]
    return out


def _synthesize_rel(files, *extra):
    return run(["synthesize-rel", str(files["sset"]), "--map", str(files["map"]),
                "--target", str(files["target"]), "--ydeg", str(files["ydeg"]), *extra])


def test_synthesize_rel_accepts_the_valid_s0(rel_files, tmp_path):
    s0 = tmp_path / "s0.json"
    s0.write_text(json.dumps(rel_files["s0"]))
    assert _synthesize_rel(rel_files, "--s0", str(s0))[0] == 0


@pytest.mark.parametrize("defect", S0_DEFECTS)
def test_synthesize_rel_rejects_a_malformed_s0(rel_files, tmp_path, defect):
    s0 = tmp_path / "s0.json"
    s0.write_text(json.dumps(_s0_defects(rel_files["s0"], rel_files["edges"])[defect]))
    code, report = _synthesize_rel(rel_files, "--s0", str(s0))
    assert (code, report["verdict"]) == (2, "error"), report


def test_a_relative_lift_failure_reports_its_witness(tmp_path):
    # the spine of the 2-simplex over the point: its (2,1) horn has no filler
    from degenforge.nerve import nerve
    point = nerve(cyclic_group(1), 2)
    files = {"sset": {"dim": 2, "cells": [3, 2, 0], "faces": [[[1, 0], [2, 1]], []]},
             "target": point.sset.to_json_dict(), "ydeg": point.oracle_degeneracies.to_json_dict(),
             "map": {"levels": [[0, 0, 0], [0, 0], []]}}
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    witness = {"horn": {"n": 2, "k": 1, "faces": {"0": 1, "2": 0}}, "target": 0}
    code, report = run(["check", "--inner-fibration", str(paths["sset"]),
                        "--map", str(paths["map"]), "--target", str(paths["target"])])
    assert (code, report["verdict"], report["witness"]) == (1, "no", witness)
    code, report = _synthesize_rel(paths)
    assert (code, report["verdict"], report.get("witness")) == (1, "NotQuasiSemicategory", witness)


def test_a_subcomplex_table_needs_its_subcomplex(rel_files, tmp_path):
    X = SemisimplicialSet.from_json_dict(json.loads(rel_files["sset"].read_text()))
    adeg = tmp_path / "adeg.json"
    adeg.write_text(json.dumps({"base_hash": X.content_hash(), "s": [[[0] * X.cells[0]]]}))
    code, report = _synthesize_rel(rel_files, "--adeg", str(adeg))
    assert (code, report["verdict"]) == (2, "error"), report
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"members": [list(range(X.cells[0]))]}))
    code, report = _synthesize_rel(rel_files, "--sub", str(sub), "--adeg", str(adeg))
    assert (code, report["verdict"]) == (1, "IncompatibleSubcomplexStructure"), report


@pytest.mark.parametrize("command", ["synthesize", "synthesize-rel"])
@pytest.mark.parametrize("dim", ["0", "1"])
def test_synthesis_gives_no_verdict_on_an_invalid_set_at_any_dim(tmp_path, command, dim):
    # face entry 5 of the 2-simplex is out of range; below bound 2 the run must
    # still refuse the set rather than name the bound
    from degenforge.nerve import nerve
    point = nerve(cyclic_group(1), 2)
    files = {"sset": {"dim": 2, "cells": [1, 1, 1], "faces": [[[0, 0]], [[0, 5, 0]]]},
             "target": point.sset.to_json_dict(), "ydeg": point.oracle_degeneracies.to_json_dict(),
             "map": {"levels": [[0], [0], [0]]}}
    paths = {}
    for name, payload in files.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    argv = (["synthesize", str(paths["sset"])] if command == "synthesize"
            else ["synthesize-rel", str(paths["sset"]), "--map", str(paths["map"]),
                  "--target", str(paths["target"]), "--ydeg", str(paths["ydeg"])])
    code, report = run([*argv, "--dim", dim])
    assert (code, report["verdict"]) == (2, "error"), report
    assert report["detail"].startswith("input set fails validation")


def test_a_subcomplex_without_its_table_fixes_no_value(rel_files, tmp_path):
    # the vertices alone, with no table: the run writes what it writes without --sub
    plain, with_sub = tmp_path / "plain.table", tmp_path / "sub.table"
    assert _synthesize_rel(rel_files, "--dim", "3", "--out", str(plain))[0] == 0
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"members": [[0, 1]]}))
    code, report = _synthesize_rel(rel_files, "--dim", "3", "--sub", str(sub), "--out", str(with_sub))
    assert (code, report["verdict"]) == (0, "success"), report
    assert with_sub.read_bytes() == plain.read_bytes()


@pytest.mark.parametrize("with_s0", [False, True])
def test_a_target_table_without_vertex_degeneracies(rel_files, tmp_path, with_s0):
    # J's table with its s_0 level on vertices null: no run can pick or check s0
    _edit(rel_files["ydeg"], lambda d: d["s"][0].__setitem__(0, None))
    extra = []
    if with_s0:
        s0 = tmp_path / "s0.json"
        s0.write_text(json.dumps(rel_files["s0"]))
        extra = ["--s0", str(s0)]
    code, report = _synthesize_rel(rel_files, "--dim", "3", *extra)
    assert (code, report["verdict"], report["detail"]) == (
        1, "MissingDegeneracies", "target degeneracies undefined at the base vertex"), report


@pytest.mark.parametrize("mode", ["--inner", "--kan"])
@pytest.mark.parametrize("flag", ["--map", "--target"])
def test_check_without_inner_fibration_refuses_a_map(rel_files, mode, flag):
    code, report = run(["check", mode, str(rel_files["sset"]), flag, str(rel_files[flag[2:]])])
    assert (code, report["verdict"]) == (2, "error"), report
    assert "--inner-fibration" in report["detail"]


def test_validate_rejects_a_face_row_given_as_a_number(z2_files):
    _edit(z2_files["sset"], lambda d: d["faces"][1].__setitem__(0, 7))
    code, report = run(["validate", str(z2_files["sset"])])
    assert (code, report["verdict"]) == (2, "error"), report


@pytest.fixture()
def swapped_files(tmp_path):
    """Z/3 at D4 with faces d_1 and d_2 of the non-degenerate 4-simplex 40 swapped.

    Every entry stays in range, but the face identities fail. The oracle table
    is re-pinned to the edited set; an empty table and a valid run's
    certificate go with it.
    """
    from degenforge.nerve import nerve
    bundle = nerve(cyclic_group(3), 4)
    certificate = list(synthesize(SynthesisInput(bundle.sset), 4).certificate)
    data = bundle.sset.to_json_dict()
    row = data["faces"][3][40]
    row[1], row[2] = row[2], row[1]
    base_hash = SemisimplicialSet.from_json_dict(data).content_hash()
    oracle = bundle.oracle_degeneracies.to_json_dict()
    files = {"sset": data, "oracle": {**oracle, "base_hash": base_hash},
             "empty": {"base_hash": base_hash, "s": []}, "cert": certificate}
    out = {}
    for name, payload in files.items():
        out[name] = tmp_path / f"{name}.json"
        out[name].write_text(json.dumps(payload))
    return out


@pytest.mark.parametrize("cert", [False, True])
@pytest.mark.parametrize("table", ["oracle", "empty"])
def test_verify_rejects_an_invalid_set(swapped_files, table, cert):
    argv = ["verify", str(swapped_files["sset"]), str(swapped_files[table])]
    if cert:
        argv += ["--cert", str(swapped_files["cert"])]
    code, report = run(argv)
    assert (code, report["verdict"]) == (2, "error"), report
    assert "fails validation" in report["detail"]


def test_demo_uniqueness_rejects_an_invalid_set(swapped_files):
    # the set is validated before the product is built, so the witness names simplex 40 of C
    argv = ["demo-uniqueness", str(swapped_files["sset"]), "--deg0", str(swapped_files["oracle"]),
            "--deg1", str(swapped_files["oracle"]), "--dim", "4"]
    code, report = run(argv)
    assert (code, report["verdict"]) == (2, "error"), report
    assert report["detail"].startswith("input set fails validation: [('face_commutation', 4, 40, ")


def test_verify_with_a_certificate_validates_the_set_once(z2_files, monkeypatch):
    from degenforge import cli, degeneracy
    table, cert = z2_files["dir"] / "n2.table", z2_files["dir"] / "n2.cert"
    run(["synthesize", str(z2_files["sset"]), "--out", str(table), "--cert", str(cert)])
    validated = []
    for module in (cli, degeneracy):
        monkeypatch.setattr(module, "validate",
                            lambda X, real=module.validate: validated.append(X) or real(X))
    code, report = run(["verify", str(z2_files["sset"]), str(table), "--cert", str(cert)])
    assert (code, report["verdict"]) == (0, "pass"), report
    assert len(validated) == 1


def test_demo_uniqueness_validates_the_input_set_once(z2_files, monkeypatch):
    from degenforge import cli, degeneracy, sset
    C = SemisimplicialSet.from_json_dict(json.loads(z2_files["sset"].read_text()))
    validated = []
    for module in (cli, degeneracy, sset):
        monkeypatch.setattr(module, "validate",
                            lambda X, real=module.validate: validated.append(X) or real(X))
    deg = str(z2_files["deg"])
    code, report = run(["demo-uniqueness", str(z2_files["sset"]), "--deg0", deg, "--deg1", deg,
                        "--dim", "4"])
    assert (code, report["verdict"]) == (0, "success"), report
    assert sum(X == C for X in validated) == 1


def test_a_library_replay_still_validates_the_set(swapped_files):
    from degenforge.errors import ParseError
    X = SemisimplicialSet.from_json_dict(json.loads(swapped_files["sset"].read_text()))
    records = json.loads(swapped_files["cert"].read_text())
    with pytest.raises(ParseError, match="input set fails validation"):
        replay_certificate(SynthesisInput(X), 4, records)


@pytest.fixture()
def z2_small(tmp_path):
    """Z/2 at D3 (one vertex, so every entry of level 1 is 0) and its identity map."""
    from degenforge.nerve import nerve
    X = nerve(cyclic_group(2), 3).sset
    out = {"sset": tmp_path / "n2.sset", "target": tmp_path / "target.sset",
           "map": tmp_path / "id.map"}
    out["sset"].write_text(json.dumps(X.to_json_dict()))
    out["target"].write_text(json.dumps(X.to_json_dict()))
    out["map"].write_text(json.dumps({"levels": [list(range(c)) for c in X.cells]}))
    return out


SET_DEFECTS = {
    "float_face": lambda d: d["faces"][0][0].__setitem__(0, 0.7),
    "bool_face": lambda d: d["faces"][0][0].__setitem__(0, False),
    "string_face": lambda d: d["faces"][0][0].__setitem__(0, "0"),
    "string_cell_count": lambda d: d["cells"].__setitem__(0, "1"),
    "float_cell_count": lambda d: d["cells"].__setitem__(0, 1.9),
    "float_dim": lambda d: d.__setitem__("dim", 3.2),
}


@pytest.mark.parametrize("defect", sorted(SET_DEFECTS))
def test_set_loader_rejects_a_non_integer(z2_small, defect):
    _edit(z2_small["sset"], SET_DEFECTS[defect])
    for argv in (["validate"], ["check", "--inner"]):
        code, report = run([*argv, str(z2_small["sset"])])
        assert (code, report["verdict"]) == (2, "error"), (argv, report)


MAP_DEFECTS = {
    "float_entry": lambda d: d["levels"][0].__setitem__(0, 0.9),
    "levels_is_a_number": lambda d: d.__setitem__("levels", 5),
}


@pytest.mark.parametrize("defect", sorted(MAP_DEFECTS))
def test_map_loader_rejects_a_malformed_map(z2_small, defect):
    _edit(z2_small["map"], MAP_DEFECTS[defect])
    code, report = run(["check", "--inner-fibration", str(z2_small["sset"]),
                        "--map", str(z2_small["map"]), "--target", str(z2_small["target"])])
    assert (code, report["verdict"]) == (2, "error"), report


SUB_DEFECTS = {
    "members_is_a_number": 5,
    "float_member": [[0.5]],
    "string_member": [["0"]],
    "bool_member": [[True]],
    "member_above_range": [[99]],
    "negative_member": [[-1]],
}


@pytest.mark.parametrize("defect", sorted(SUB_DEFECTS))
def test_subcomplex_loader_rejects_a_malformed_subcomplex(rel_files, tmp_path, defect):
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"members": SUB_DEFECTS[defect]}))
    code, report = _synthesize_rel(rel_files, "--sub", str(sub))
    assert (code, report["verdict"]) == (2, "error"), report


def _set_level(k, n, level):
    """An edit putting ``level`` at s_k on n-simplices, padding the table with nulls."""
    def change(data):
        s = data["s"]
        s.extend([] for _ in range(k + 1 - len(s)))
        s[k].extend(None for _ in range(n + 1 - len(s[k])))
        s[k][n] = level
    return change


# (k, n): s_1 on vertices, s_{n+1} on edges, s_{n+2} on vertices
LEVELS_ABOVE_N = {(1, 0): [0], (2, 1): [0, 0], (2, 0): [0]}


@pytest.mark.parametrize("k, n", sorted(LEVELS_ABOVE_N))
def test_verify_rejects_a_table_level_with_k_above_n(z2_small, tmp_path, k, n):
    # Z/2 at D3: its oracle table is total on 0 <= k <= n <= 2
    from degenforge.nerve import nerve
    deg = tmp_path / "n2.deg"
    deg.write_text(json.dumps(nerve(cyclic_group(2), 3).oracle_degeneracies.to_json_dict()))
    assert run(["verify", str(z2_small["sset"]), str(deg)])[0] == 0
    _edit(deg, _set_level(k, n, LEVELS_ABOVE_N[(k, n)]))
    code, report = run(["verify", str(z2_small["sset"]), str(deg)])
    assert (code, report["verdict"]) == (2, "error"), report
    assert f"k={k}, n={n}" in report["detail"]


@pytest.mark.parametrize("identities", [[0], 5, "a"])
def test_nerve_rejects_identities_that_are_not_an_object(tmp_path, identities):
    cat = tmp_path / "z2.cat"
    cat.write_text(json.dumps({**cyclic_group(2).to_json_dict(), "identities": identities}))
    code, report = run(["nerve", "--cat", str(cat), "--dim", "2", "--out", str(tmp_path / "n.sset")])
    assert (code, report["verdict"]) == (2, "error"), report
    assert "identities" in report["detail"]


@pytest.fixture()
def z2_certified(z2_small, tmp_path):
    """Z/2 at D3 with its synthesized table and certificate."""
    table, cert = tmp_path / "n2.table", tmp_path / "n2.cert"
    code, _ = run(["synthesize", str(z2_small["sset"]), "--out", str(table), "--cert", str(cert)])
    assert code == 0
    return {"sset": z2_small["sset"], "table": table, "cert": cert}


def _verify_cert(files):
    return run(["verify", str(files["sset"]), str(files["table"]), "--cert", str(files["cert"])])


def _record(**fields) -> dict:
    """A well-typed filled record of the vertex level, with ``fields`` replaced."""
    record = {"stage": {"N": 0, "step": 1}, "simplex": [0, 0], "kind": "filled", "value": 0,
              "horn": {"n": 1, "k": 1, "faces": {"0": 0}}}
    record.update(fields)
    return record


@pytest.mark.parametrize("records", [[1, 2, 3], [[]], [{"a": 1}], "records",
                                     [{"stage": {"N": 0, "step": 1}, "simplex": [0, 0], "kind": "filled"}],
                                     [_record(value="0")], [_record(value=True)], [_record(value=0.5)],
                                     [_record(simplex=[0, True])], [_record(simplex=[0, "0"])],
                                     [_record(simplex=[0])], [_record(simplex=[0, 0, 0])],
                                     [_record(simplex={"0": 0})], [_record(stage={"N": 0})],
                                     [_record(stage={"N": 0, "step": "1"})], [_record(stage=[0, 1])],
                                     [_record(stage={"N": 0, "step": 1, "k": 0})],
                                     [_record(kind="guessed")], [_record(kind=["filled"])],
                                     [_record(kind="forced", horn=None)], [_record(horn={"n": 1, "k": 1})],
                                     [_record(horn={"n": 1, "k": 1, "faces": {"a": 0}})],
                                     [_record(horn={"n": 1, "k": 1, "faces": {"0": True}})],
                                     [_record(horn={"n": 1, "k": "1", "faces": {"0": 0}})],
                                     [_record(kind="witness", horn={"n": 1, "k": 1, "faces": [0]})],
                                     [_record(note="")]])
def test_verify_rejects_a_certificate_that_is_not_a_list_of_records(z2_certified, records):
    z2_certified["cert"].write_text(json.dumps(records))
    code, report = _verify_cert(z2_certified)
    assert (code, report["verdict"]) == (2, "error"), report


@pytest.mark.parametrize("field, change", [("value", lambda v: v + 1), ("kind", lambda v: "forced")])
def test_verify_keeps_a_mismatch_for_a_well_formed_record(z2_certified, field, change):
    assert _verify_cert(z2_certified)[0] == 0
    records = json.loads(z2_certified["cert"].read_text())
    filled = next(r for r in records if r["kind"] == "filled")
    filled[field] = change(filled[field])
    z2_certified["cert"].write_text(json.dumps(records))
    code, report = _verify_cert(z2_certified)
    assert (code, report["verdict"]) == (1, "CertificateMismatch"), report


@pytest.mark.parametrize("field, value, problem", [
    ("value", False, 'has a "value" that is not an int'),
    ("simplex", [2, 1, 0], 'has a "simplex" that is not a pair of ints'),
    ("simplex", [2, "1"], 'has a "simplex" that is not a pair of ints'),
    ("stage", {"N": 0, "step": None}, 'has a "stage" that is not {"N", "step"} of ints'),
    ("kind", "guessed", 'has a "kind" other than "forced", "filled" and "witness"'),
    ("horn", {"n": 3, "k": 1, "faces": {"0": 1, "2": 1, "3": [0]}},
     'has a "horn" that is not {"n", "k", "faces"} with int faces under digit-string keys'),
    ("horn", {"n": 3, "k": 1, "faces": {"0": 1, "2": 1, " 3": 0}},
     'has a "horn" that is not {"n", "k", "faces"} with int faces under digit-string keys'),
    ("note", 1, 'has a field other than "stage", "simplex", "kind", "value" and "horn"'),
])
def test_an_ill_typed_record_is_named_by_its_position(z2_certified, field, value, problem):
    # record 5 is filled, and every record before it is well typed
    records = json.loads(z2_certified["cert"].read_text())
    assert records[5]["kind"] == "filled"
    records[5][field] = value
    z2_certified["cert"].write_text(json.dumps(records))
    code, report = _verify_cert(z2_certified)
    assert (code, report["verdict"]) == (2, "error"), report
    assert report["detail"] == f"{z2_certified['cert']}: record 5 {problem}"


def _unreadable_certificates(cert) -> dict:
    """Certificate texts that verify refuses, with the detail it reports for each."""
    with pytest.raises(ValueError) as caught:
        json.loads("[{")
    return {
        "ill-typed": ('[{"a":1}]',
                      f'{cert}: record 0 is not an object holding "stage", "simplex", "kind" and "value"'),
        "not JSON": ("[{", f"cannot read {cert}: {caught.value}"),
    }


@pytest.mark.parametrize("bad", ["ill-typed", "not JSON"])
@pytest.mark.parametrize("case, verdict", [("the synthesis raises", "TruncationExhausted"),
                                           ("the identity check fails", "fail")])
def test_an_unreadable_certificate_is_an_input_error_before_any_verdict(z2_certified, bad, case, verdict):
    # with its own certificate the same verify exits 1; a bad one exits 2 first
    argv = ["verify", str(z2_certified["sset"]), str(z2_certified["table"]), "--cert",
            str(z2_certified["cert"])]
    if case == "the synthesis raises":
        argv += ["--dim", "1"]  # the replay's synthesis needs a bound of at least 2
    else:
        # s_0 of edge 0 moved to another 2-simplex: the table stays pinned to the set
        _edit(z2_certified["table"], lambda d: d["s"][0][1].__setitem__(0, 3))
    code, report = run(argv)
    assert (code, report["verdict"]) == (1, verdict), report
    text, detail = _unreadable_certificates(z2_certified["cert"])[bad]
    z2_certified["cert"].write_text(text)
    code, report = run(argv)
    assert (code, report["verdict"], report["detail"]) == (2, "error", detail), report


def test_a_diverging_record_is_named_in_any_layout(z2_certified):
    records = json.loads(z2_certified["cert"].read_text())
    records[5]["value"] += 1
    reports = []
    for indent in (None, 2):
        z2_certified["cert"].write_text(json.dumps(records, sort_keys=True, indent=indent,
                                                   separators=(",", ":") if indent is None else None))
        reports.append(_verify_cert(z2_certified))
    assert reports[0] == reports[1]
    code, report = reports[0]
    assert (code, report["verdict"], report["witness"]) == (1, "CertificateMismatch", {"position": 5})


@pytest.mark.parametrize("simplex, witness", [((2, 1), {"simplex": [2, 1]})])
def test_a_violation_reports_a_simplex_that_is_a_pair_of_ints(z2_small, monkeypatch, simplex, witness):
    from degenforge import cli
    from degenforge.errors import ConsistencyViolation

    def violated(*args, **kwargs):
        raise ConsistencyViolation("violated", simplex=simplex)

    monkeypatch.setattr(cli, "synthesize", violated)
    code, report = run(["synthesize", str(z2_small["sset"])])
    assert (code, report["verdict"], report.get("witness")) == (1, "ConsistencyViolation", witness)


def _dim_commands(files, tmp_path):
    """Every command that takes --dim, as argv without the flag."""
    sset, target = str(files["sset"]), str(files["target"])
    cat = tmp_path / "z2.cat"
    cat.write_text(json.dumps(cyclic_group(2).to_json_dict()))
    return {
        "check --inner": ["check", "--inner", sset],
        "check --kan": ["check", "--kan", sset],
        "check --inner-fibration": ["check", "--inner-fibration", sset,
                                    "--map", str(files["map"]), "--target", target],
        "edges": ["edges", sset],
        "synthesize": ["synthesize", sset],
        "synthesize-rel": ["synthesize-rel", sset, "--map", str(files["map"]), "--target", target,
                           "--ydeg", str(files["ydeg"])],
        "addendum-s0": ["addendum-s0", target],
        "nerve": ["nerve", "--cat", str(cat), "--out", str(tmp_path / "n.sset")],
        "demo-uniqueness": ["demo-uniqueness", target, "--deg0", str(files["ydeg"]),
                            "--deg1", str(files["ydeg"])],
        "verify": ["verify", target, str(files["ydeg"])],
    }


DIM_COMMANDS = ("addendum-s0", "check --inner", "check --inner-fibration", "check --kan",
                "demo-uniqueness", "edges", "nerve", "synthesize", "synthesize-rel", "verify")


@pytest.mark.parametrize("command", DIM_COMMANDS)
def test_a_negative_dim_is_malformed_input(rel_files, tmp_path, command):
    commands = _dim_commands(rel_files, tmp_path)
    assert sorted(commands) == list(DIM_COMMANDS)
    argv = commands[command]
    assert run([*argv, "--dim", "3"])[0] == 0, command
    for dim in ("-1", "-3"):
        code, report = run([*argv, "--dim", dim])
        assert (code, report["verdict"]) == (2, "error"), (command, dim, report)
        assert "--dim" in report["detail"]


@pytest.mark.parametrize("dim", ["0", "1"])
def test_demo_uniqueness_below_truncation_two_is_a_domain_error(z2_small, dim):
    # Z/2 at D3 with its oracle table; the relative run needs a bound of at least 2
    from degenforge.nerve import nerve
    deg = z2_small["sset"].with_suffix(".deg")
    deg.write_text(json.dumps(nerve(cyclic_group(2), 3).oracle_degeneracies.to_json_dict()))
    code, report = run(["demo-uniqueness", str(z2_small["sset"]), "--deg0", str(deg),
                        "--deg1", str(deg), "--dim", dim])
    assert (code, report["verdict"]) == (1, "TruncationExhausted"), report


@pytest.mark.parametrize("dim, checked", [("2", (2, 2)), ("3", (10, 18))])
def test_demo_uniqueness_below_the_tables_top_level(z2_files, dim, checked):
    # the D5 oracle tables reach level 4, above the bound; the output holds s_k
    # below level dim - 1: at 3, s_0 on 2 vertices and s_0, s_1 on 8 edges,
    # of which the 2 vertices and 4 edges over the ends of J are restricted
    deg = str(z2_files["deg"])
    code, report = run(["demo-uniqueness", str(z2_files["sset"]), "--deg0", deg, "--deg1", deg,
                        "--dim", dim])
    assert (code, report["verdict"], report["bound"]) == (0, "success", int(dim)), report
    detail = report["detail"]
    assert (detail["restriction_checked"], detail["projection_checked"]) == checked


@pytest.mark.parametrize("command", ["edges", "verify"])
def test_the_reported_bound_is_the_one_checked(z2_small, command):
    # Z/2 at D3 has the oracle table; --dim past the set's dimension checks up to 3
    from degenforge.nerve import nerve
    deg = z2_small["sset"].with_suffix(".deg")
    deg.write_text(json.dumps(nerve(cyclic_group(2), 3).oracle_degeneracies.to_json_dict()))
    argv = {"edges": ["edges", str(z2_small["sset"])],
            "verify": ["verify", str(z2_small["sset"]), str(deg)]}[command]
    code, report = run([*argv, "--dim", "99"])
    assert code == 0 and report["bound"] == 3, report
    assert all(verdict["bound"] == 3 for verdict in report.get("edges", []))
    assert run([*argv, "--dim", "2"])[1]["bound"] == 2


@pytest.mark.parametrize("prop", ["equivalence", "cartesian", "idempotent"])
@pytest.mark.parametrize("edge", ["2", "99", "-1"])
def test_edges_rejects_an_edge_outside_the_set(z2_small, prop, edge):
    # Z/2 at D3 has the edges 0 and 1
    code, report = run(["edges", str(z2_small["sset"]), "--property", prop, "--edge", edge])
    assert (code, report["verdict"]) == (2, "error"), report
    assert run(["edges", str(z2_small["sset"]), "--property", prop, "--edge", "1"])[0] in (0, 1)


BAD_ENTRIES = {"bool": True, "float": 1.0, "string": "1", "negative": -1, "out_of_range": 8}


@pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
def test_table_loader_names_the_first_bad_entry(z2_small, kind):
    # Z/2 at D3: s_0 on the four 2-simplices takes values in 0..7; entries 1 and 3 are bad
    from degenforge.nerve import nerve
    data = nerve(cyclic_group(2), 3).oracle_degeneracies.to_json_dict()
    data["s"][0][2][1], data["s"][0][2][3] = BAD_ENTRIES[kind], 99
    deg = z2_small["sset"].with_suffix(".deg")
    deg.write_text(json.dumps(data))
    code, report = run(["verify", str(z2_small["sset"]), str(deg)])
    want = f"s_0 of (2,1) is {BAD_ENTRIES[kind]!r}, not an index in 0..7"
    assert (code, report["verdict"], report["detail"]) == (2, "error", want)


@pytest.mark.parametrize("kind", sorted(BAD_ENTRIES))
def test_set_loader_names_the_first_bad_entry(z2_small, kind):
    # Z/2 at D3: face entries of the 2-simplices lie in 0..1; faces (2,1,0) and (3,2,1) are bad
    def change(data):
        data["faces"][1][1][0] = BAD_ENTRIES[kind]
        data["faces"][2][2][1] = 99
    _edit(z2_small["sset"], change)
    code, report = run(["check", "--inner", str(z2_small["sset"])])
    if kind in ("negative", "out_of_range"):
        # the loader takes any integer; the range is validate's check
        want = "input set fails validation: [('range', 2, 1, 0), ('range', 3, 2, 1)]"
    else:
        want = "dimension 2: every face entry must be an integer"
    assert (code, report["verdict"], report["detail"]) == (2, "error", want)


def test_set_loader_names_the_first_short_row(z2_small):
    def change(data):
        data["faces"][1][1].pop()
        data["faces"][1][3].append(0)
    _edit(z2_small["sset"], change)
    code, report = run(["validate", str(z2_small["sset"])])
    assert (code, report["detail"]) == (2, "simplex (2,1) needs 3 faces, got 2")


def test_idempotent_edges_below_truncation_two_are_a_domain_error(tmp_path, z2_small):
    from degenforge.nerve import nerve
    low = tmp_path / "n2_d1.sset"
    low.write_text(json.dumps(nerve(cyclic_group(2), 1).sset.to_json_dict()))
    for argv in (["edges", str(low)], ["edges", str(z2_small["sset"]), "--dim", "1"]):
        code, report = run([*argv, "--property", "idempotent"])
        assert (code, report["verdict"]) == (1, "TruncationExhausted"), (argv, report)


def test_an_edge_that_is_not_idempotent_reports_the_2_simplices_scanned(z2_small):
    # Z/2 at D3: the identity edge is idempotent, g is not; four 2-simplices scanned
    code, report = run(["edges", str(z2_small["sset"]), "--property", "idempotent"])
    assert (code, report["verdict"]) == (1, "no")
    assert report["edges"][0]["result"] and "index" in report["edges"][0]["witness"]
    assert report["edges"][1] == {"edge": 1, "property": "idempotent", "bound": 2,
                                  "result": False, "witness": {"exhausted": {"dim2_scanned": 4}}}


@pytest.fixture()
def j_small(tmp_path):
    """J at D3: edges 0 and 1 are the two identities, 2 and 3 join the two objects."""
    from degenforge.nerve import j_groupoid, nerve
    sset = tmp_path / "j.sset"
    sset.write_text(json.dumps(nerve(j_groupoid(), 3).sset.to_json_dict()))
    return sset


def test_idempotent_edges_give_a_verdict_for_each_edge(j_small):
    code, report = run(["edges", str(j_small), "--property", "idempotent"])
    assert (code, report["verdict"]) == (1, "no"), report
    assert [(e["edge"], e["result"]) for e in report["edges"]] == \
        [(0, True), (1, True), (2, False), (3, False)]
    # a self-edge's witness is its idempotency 2-simplex; another edge's is [d_1 f, d_0 f]
    assert all("index" in e["witness"] for e in report["edges"][:2])
    assert [e["witness"] for e in report["edges"][2:]] == [{"endpoints": [0, 1]},
                                                           {"endpoints": [1, 0]}]
    assert report["witness"] == report["edges"][2]


def test_idempotent_on_one_edge_with_distinct_endpoints(j_small):
    code, report = run(["edges", str(j_small), "--property", "idempotent", "--edge", "2"])
    assert (code, report["verdict"]) == (1, "no"), report
    assert report["edges"] == [{"edge": 2, "property": "idempotent", "bound": 2,
                                "result": False, "witness": {"endpoints": [0, 1]}}]


NERVES = ["z2", "z3", "z2xz2", "monoid", "poset_01", "square", "j", "z2xj"]


@pytest.mark.parametrize("name", NERVES)
def test_a_synthesized_table_reloads_equal_and_replays(tmp_path, name):
    import degenforge as dg
    category = {"z2": lambda: cyclic_group(2), "z3": lambda: cyclic_group(3),
                "z2xz2": lambda: dg.product_category(cyclic_group(2), cyclic_group(2)),
                "monoid": dg.idempotent_monoid, "poset_01": dg.poset_01,
                "square": lambda: dg.product_category(dg.poset_01(), dg.poset_01()),
                "j": dg.j_groupoid,
                "z2xj": lambda: dg.product_category(cyclic_group(2), dg.j_groupoid())}[name]()
    X = dg.nerve(category, 4).sset
    sset, table, cert = tmp_path / "x.sset", tmp_path / "x.table", tmp_path / "x.cert"
    sset.write_text(json.dumps(X.to_json_dict()))
    assert run(["synthesize", str(sset), "--out", str(table), "--cert", str(cert)])[0] == 0
    loaded = DegeneracyTable.from_json_dict(json.loads(table.read_text()), X)
    assert loaded == synthesize(SynthesisInput(X)).table
    code, report = run(["verify", str(sset), str(table), "--cert", str(cert)])
    assert (code, report["verdict"]) == (0, "pass"), report


@pytest.fixture()
def every_kind(rel_files, z2_certified, tmp_path):
    """Argv reading each kind of input file, and that file's path."""
    s0 = tmp_path / "s0.json"
    s0.write_text(json.dumps([0]))
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({"members": [[0]]}))
    cat = tmp_path / "z2.cat"
    cat.write_text(json.dumps(cyclic_group(2).to_json_dict()))
    z2 = [str(z2_certified[name]) for name in ("sset", "table", "cert")]
    rel = ["synthesize-rel", str(rel_files["sset"]), "--map", str(rel_files["map"]),
           "--target", str(rel_files["target"]), "--ydeg", str(rel_files["ydeg"])]
    return {
        "set": (["validate", z2[0]], z2[0]),
        "map": (rel, str(rel_files["map"])),
        "table": (["verify", *z2[:2]], z2[1]),
        "subcomplex": ([*rel, "--sub", str(sub)], str(sub)),
        "s0": (["synthesize", z2[0], "--s0", str(s0)], str(s0)),
        "certificate": (["verify", z2[0], z2[1], "--cert", z2[2]], z2[2]),
        "category": (["nerve", "--cat", str(cat), "--dim", "2", "--out", str(tmp_path / "o.sset")], str(cat)),
    }


@pytest.mark.parametrize("encoding", ["bytes ff fe first", "UTF-16"])
@pytest.mark.parametrize("kind", ["set", "map", "table", "subcomplex", "s0", "certificate", "category"])
def test_a_file_that_is_not_utf8_is_unreadable_input(every_kind, kind, encoding):
    argv, path = every_kind[kind]
    assert run(argv)[0] == 0
    with open(path, "rb") as handle:
        valid = handle.read()
    bad = b"\xff\xfe" + valid if encoding == "bytes ff fe first" else valid.decode("utf-8").encode("utf-16")
    with open(path, "wb") as handle:
        handle.write(bad)
    code, report = run(argv)
    assert (code, report["verdict"]) == (2, "error"), report
    assert report["detail"].startswith(f"cannot read {path}: 'utf-8' codec can't decode"), report


@pytest.fixture()
def collector():
    """Puts the collector back as the test found it."""
    import gc
    enabled = gc.isenabled()
    yield gc
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("before", [True, False])
@pytest.mark.parametrize("outcome", ["exit 0", "exit 1", "exit 2", "argparse exit"])
def test_a_command_pauses_the_collector_and_restores_it(z2_small, monkeypatch, collector, before, outcome):
    from degenforge import cli
    from degenforge.errors import ConsistencyViolation

    seen = []
    validate = cli.validate

    def watched(X):
        seen.append(collector.isenabled())
        if outcome == "exit 1":
            raise ConsistencyViolation("violated")
        return validate(X)

    monkeypatch.setattr(cli, "validate", watched)
    sset = str(z2_small["sset"]) if outcome != "exit 2" else str(z2_small["sset"]) + ".missing"
    (collector.enable if before else collector.disable)()
    if outcome == "argparse exit":
        with pytest.raises(SystemExit):
            run(["validate", sset, "--no-such-flag"])
    else:
        assert run(["validate", sset])[0] == int(outcome[-1])
    assert collector.isenabled() is before
    assert seen == ([] if outcome in ("exit 2", "argparse exit") else [False])


@pytest.mark.parametrize("text, problem", [
    ("[" * 100000, "maximum recursion depth exceeded"),
    ('{"cells":[%s],"dim":0,"faces":[]}' % ("1" * 5000), "Exceeds the limit (4300 digits)"),
], ids=["nested too deep", "an int of 5000 digits"])
def test_a_file_the_json_parser_refuses_is_unreadable_input(tmp_path, text, problem):
    sset = tmp_path / "x.sset"
    sset.write_text(text)
    code, report = run(["validate", str(sset)])
    assert (code, report["verdict"]) == (2, "error"), report
    assert report["detail"].startswith(f"cannot read {sset}: {problem}")


def _writing_commands(files, tmp_path, out):
    """Every command form that writes a file, writing to ``out``."""
    sset, target, ydeg = str(files["sset"]), str(files["target"]), str(files["ydeg"])
    cat = tmp_path / "z2.cat"
    cat.write_text(json.dumps(cyclic_group(2).to_json_dict()))
    rel = ["synthesize-rel", sset, "--map", str(files["map"]), "--target", target, "--ydeg", ydeg]
    demo = ["demo-uniqueness", target, "--deg0", ydeg, "--deg1", ydeg]
    nerve = ["nerve", "--cat", str(cat), "--dim", "2"]
    return {
        "synthesize --out": ["synthesize", target, "--out", out],
        "synthesize --cert": ["synthesize", target, "--cert", out],
        "synthesize-rel --out": [*rel, "--out", out],
        "synthesize-rel --cert": [*rel, "--cert", out],
        "addendum-s0 --out": ["addendum-s0", target, "--out", out],
        "nerve --out": [*nerve, "--out", out],
        "nerve --deg": [*nerve, "--out", str(tmp_path / "n.sset"), "--deg", out],
        "demo-uniqueness --out": [*demo, "--out", out],
        "demo-uniqueness --cert": [*demo, "--cert", out],
    }


WRITING_FORMS = ("addendum-s0 --out", "demo-uniqueness --cert", "demo-uniqueness --out", "nerve --deg",
                 "nerve --out", "synthesize --cert", "synthesize --out", "synthesize-rel --cert",
                 "synthesize-rel --out")


@pytest.mark.parametrize("where", ["missing directory", "a directory"])
@pytest.mark.parametrize("form", WRITING_FORMS)
def test_an_unwritable_output_path_is_malformed_input(rel_files, tmp_path, form, where):
    commands = _writing_commands(rel_files, tmp_path, str(tmp_path / "written.json"))
    assert sorted(commands) == list(WRITING_FORMS)
    assert run(commands[form])[0] == 0, form
    out = tmp_path / "missing" / "t.json" if where == "missing directory" else tmp_path
    code, report = run(_writing_commands(rel_files, tmp_path, str(out))[form])
    assert (code, report["verdict"], report["outputs"]) == (2, "error", []), (form, report)
    assert report["detail"].startswith(f"cannot write {out}: ")


SECOND_FILE = {"demo-uniqueness": "--cert", "nerve": "--deg", "synthesize": "--cert",
               "synthesize-rel": "--cert"}


@pytest.mark.parametrize("command", sorted(SECOND_FILE))
def test_a_failed_second_write_leaves_no_file_of_its_command(rel_files, tmp_path, command):
    out = tmp_path / "out"
    out.mkdir()
    first, second = out / "first.json", out / "missing" / "second.json"
    argv = _writing_commands(rel_files, tmp_path, str(first))[f"{command} --out"]
    assert run(argv)[0] == 0  # the first path is writable
    first.unlink()
    code, report = run([*argv, SECOND_FILE[command], str(second)])
    assert (code, report["verdict"], report["outputs"]) == (2, "error", []), report
    assert report["detail"] == f"cannot write {second}: [Errno 2] No such file or directory: '{second}'"
    assert list(out.iterdir()) == []


def test_a_failed_write_removes_no_device(rel_files, tmp_path, monkeypatch):
    removed = []
    monkeypatch.setattr(os, "remove", removed.append)
    missing = str(tmp_path / "missing" / "c.json")
    for first in (os.devnull, str(tmp_path / "t.json")):
        code, report = run(["synthesize", str(rel_files["target"]), "--out", first, "--cert", missing])
        assert (code, report["outputs"]) == (2, []), report
    assert removed == [str(tmp_path / "t.json")]


@pytest.mark.parametrize("flag", ["--out", "--cert"])
def test_an_empty_output_path_is_unwritable(rel_files, flag):
    code, report = run(["synthesize", str(rel_files["target"]), flag, ""])
    assert (code, report["detail"], report["outputs"]) == (
        2, "cannot write : [Errno 2] No such file or directory: ''", []), report


def test_nerve_refuses_deg_of_a_non_unital_presentation_before_writing(tmp_path):
    cat = tmp_path / "delta2.cat"
    cat.write_text(json.dumps(simplex_category(2).to_json_dict()))
    code, report = run(["nerve", "--cat", str(cat), "--dim", "2", "--out", str(tmp_path / "n.sset"),
                        "--deg", str(tmp_path / "n.deg")])
    assert (code, report["detail"], report["outputs"]) == (
        2, "the presentation is non-unital; no degeneracy table exists", []), report
    assert [p.name for p in tmp_path.iterdir()] == ["delta2.cat"]


def _subcomplex_and_table(case, bundle, s):
    """The --sub members and the --adeg levels of ``case``, from the synthesized levels ``s``."""
    every = [list(range(c)) for c in bundle.sset.cells]
    if case == "a non-member":
        return [[1]], s
    if case == "leaves the subcomplex":
        return every[:1], [[s[0][0]]]  # every vertex and no edge; only s_0 on vertices
    s[0][0][0] = bundle.pair_index(1, 0, 2)  # s_0 of vertex 0 becomes the edge (1, u)
    return every, s


@pytest.mark.parametrize("case, detail", [
    ("a non-member", "subcomplex table defined at non-member (0,0)"),
    ("leaves the subcomplex", "subcomplex degeneracy s_0(0,0) leaves the subcomplex"),
    ("off the target table", "subcomplex degeneracy s_0(0,0) does not project to the target table"),
])
def test_a_subcomplex_table_the_run_cannot_extend(rel_files, tmp_path, case, detail):
    """Z/2 x J over J at D3, with its own synthesized table as --adeg."""
    import degenforge as dg
    bundle = dg.product(dg.nerve(cyclic_group(2), 3).sset, dg.nerve(dg.j_groupoid(), 3).sset)
    table, sub = tmp_path / "adeg.json", tmp_path / "sub.json"
    assert _synthesize_rel(rel_files, "--out", str(table))[0] == 0
    members, levels = _subcomplex_and_table(case, bundle, json.loads(table.read_text())["s"])
    _edit(table, lambda d: d.__setitem__("s", levels))
    sub.write_text(json.dumps({"members": members}))
    code, report = _synthesize_rel(rel_files, "--sub", str(sub), "--adeg", str(table))
    assert (code, report["verdict"], report["detail"], report["witness"]) == (
        1, "IncompatibleSubcomplexStructure", detail, {"simplex": [0, 0]}), report


def test_inner_fibration_needs_a_map_and_a_target(rel_files):
    code, report = run(["check", "--inner-fibration", str(rel_files["sset"])])
    assert (code, report["verdict"], report["detail"]) == (
        2, "error", "--inner-fibration needs --map and --target"), report


@pytest.mark.parametrize("loop", [0, 1])
def test_verify_replays_a_run_with_its_s0(tmp_path, loop):
    # L2@D4 has one vertex and two loops, each an idempotent equivalence: a certificate
    # that synthesize --s0 wrote replays with the table's s_0 as its s0
    from test_loop_coskeleta import loop_coskeleton
    sset, s0, table, cert = (tmp_path / name for name in ("l2.sset", "s0.json", "t.json", "c.json"))
    sset.write_text(json.dumps(loop_coskeleton(2, 4).to_json_dict()))
    s0.write_text(json.dumps([loop]))
    assert run(["synthesize", str(sset), "--s0", str(s0), "--out", str(table), "--cert", str(cert)])[0] == 0
    code, report = run(["verify", str(sset), str(table), "--cert", str(cert)])
    assert (code, report["verdict"], report["detail"]["replayed_records"]) == (0, "pass", 58), report
