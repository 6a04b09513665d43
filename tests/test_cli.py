"""Command-line surface: exit codes, report schema, file round trips."""

import json

import pytest

from degenforge import DegeneracyTable, SemisimplicialSet, SynthesisInput, synthesize
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
