"""Command-line surface: exit codes, report schema, file round trips."""

import json

import pytest

from degenforge import (
    DegeneracyTable,
    SemisimplicialSet,
    SynthesisInput,
    replay_certificate,
    synthesize,
)
from degenforge.cli import run
from degenforge.nerve import cyclic_group, simplex_category


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
    certificate = synthesize(SynthesisInput(bundle.sset), 4).certificate
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


@pytest.mark.parametrize("records", [[1, 2, 3], [[]], [{"a": 1}], "records",
                                     [{"stage": {"N": 0, "step": 1}, "simplex": [0, 0], "kind": "filled"}]])
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
