"""Simplex indices are canonical ints, and interning never changes a value.

Sets, tables and maps store each in-range index as the one int object the
``sset`` pool holds for it; a level with an out-of-range entry is stored as
given. Small ints are shared by the interpreter anyway, so the representation
checks use sets whose levels hold indices above 256.
"""

import json

import pytest

from degenforge import cyclic_group, j_groupoid, nerve, product, sset
from degenforge.cli import load_map, load_sset, load_table, run
from degenforge.sset import SemisimplicialMap, SemisimplicialSet, _canonical, validate, validate_map


def _doc_with_out_of_range_faces() -> dict:
    """Z/3 at D3 with c_{n-1} on level 1, -1 alone on level 2 and both on level 3."""
    doc = nerve(cyclic_group(3), 3).sset.to_json_dict()
    doc["faces"][0][1][1] = 1  # c_0
    doc["faces"][1][4][0] = -1
    doc["faces"][2][5][1] = 9  # c_2
    doc["faces"][2][20][3] = -1
    return doc


# every value below was computed by the program before it interned anything
RANGE_WITNESSES = [("range", 1, 1, 1), ("range", 2, 4, 0), ("range", 3, 5, 1), ("range", 3, 20, 3)]
RANGE_HASH = "1a708d21165315a3bb73743943d32482d44b158622f878a0596fd3e4ebfc0657"


def test_out_of_range_faces_are_stored_as_given(tmp_path):
    doc = _doc_with_out_of_range_faces()
    X = SemisimplicialSet.from_json_dict(json.loads(json.dumps(doc)))
    assert X.face_index(2, 4, 0) == -1 and X.face_index(3, 20, 3) == -1  # never c - 1
    assert X.face_index(1, 1, 1) == 1 and X.face_index(3, 5, 1) == 9
    report = validate(X)
    assert (report.ok, report.checked, report.violations) == (False, 141, RANGE_WITNESSES)
    assert json.dumps(X.to_json_dict(), sort_keys=True) == json.dumps(doc, sort_keys=True)
    assert X.content_hash() == RANGE_HASH
    path = tmp_path / "bad.sset"
    path.write_text(json.dumps(doc))
    code, out = run(["validate", str(path)])
    assert code == 1 and out["verdict"] == "no"
    assert out["witness"] == [list(v) for v in RANGE_WITNESSES]


@pytest.mark.parametrize("value", [-1, 4])
def test_an_out_of_range_map_value_is_stored_as_given(value):
    nj = nerve(j_groupoid(), 2)
    bundle = product(nerve(cyclic_group(2), 2).sset, nj.sset)
    doc = bundle.right.to_json_dict()
    doc["levels"][1][3] = value  # J has 4 edges
    F = SemisimplicialMap.from_json_dict(json.loads(json.dumps(doc)), bundle.sset, nj.sset)
    assert F.apply_index(1, 3) == value
    report = validate_map(F)
    assert (report.ok, report.checked, report.violations) == (False, 42, [("range", 1, 3)])
    assert F.to_json_dict() == doc


def test_the_pool_grows_with_the_input_not_with_its_values(tmp_path):
    """A few bytes naming vertex 10**9 leave the pool as it was, not 10**9 ints long."""
    big = 10**9
    X = SemisimplicialSet([big + 1, 1], [[[big, 0]]])
    assert X.faces_of(1, 0) == [big, 0]
    files = {"big.sset": X.to_json_dict(),
             "big.deg": {"base_hash": X.content_hash(), "s": []},
             "edge.sset": {"dim": 1, "cells": [2, 1], "faces": [[[1, 0]]]},
             "f.map": {"levels": [[0, big], [0]]}}
    for name, doc in files.items():
        (tmp_path / name).write_text(json.dumps(doc))
    path = {name: str(tmp_path / name) for name in files}
    before = len(sset._CANONICAL)
    # the verdicts the program gave before it interned anything
    assert run(["validate", path["big.sset"]])[1]["verdict"] == "ok"
    assert run(["check", "--inner", path["big.sset"]])[1]["verdict"] == "yes"
    code, out = run(["verify", path["big.sset"], path["big.deg"]])
    assert (code, out["verdict"], out["detail"]["checked"]) == (0, "pass", 0)
    code, out = run(["check", "--inner-fibration", path["edge.sset"],
                     "--map", path["f.map"], "--target", path["big.sset"]])
    assert (code, out["verdict"]) == (0, "yes")
    assert len(sset._CANONICAL) <= max(before, 2)


def _assert_canonical(levels, limits) -> None:
    """Every entry of each level is the pool's int, one object per distinct value."""
    for level, limit in zip(levels, limits):
        entries = list(level)
        assert all(v is _canonical(v + 1)[v] for v in entries)
        assert len(set(map(id, entries))) <= limit


def _assert_canonical_set(X: SemisimplicialSet) -> None:
    assert X.cells[X.dim - 1] > 257  # top-level entries the interpreter does not share
    _assert_canonical(([v for i in range(n + 1) for v in X.face_column(n, i)]
                       for n in range(1, X.dim + 1)), X.cells[:-1])


@pytest.fixture(scope="module")
def z5():
    return nerve(cyclic_group(5), 5)


def test_constructed_sets_hold_canonical_ints(z5):
    _assert_canonical_set(z5.sset)
    _assert_canonical_set(product(nerve(cyclic_group(3), 4).sset, nerve(j_groupoid(), 4).sset).sset)


def test_loaded_sets_tables_and_maps_hold_canonical_ints(z5, tmp_path):
    X = z5.sset
    paths = {name: tmp_path / name for name in ("x.sset", "x.deg", "id.map")}
    paths["x.sset"].write_text(json.dumps(X.to_json_dict()))
    paths["x.deg"].write_text(json.dumps(z5.oracle_degeneracies.to_json_dict()))
    paths["id.map"].write_text(json.dumps({"levels": [list(range(c)) for c in X.cells]}))
    loaded = load_sset(str(paths["x.sset"]))
    _assert_canonical_set(loaded)
    table = load_table(str(paths["x.deg"]), loaded)
    keys = sorted(table.domain())
    _assert_canonical((table.level(k, n) for k, n in keys), (X.cells[n + 1] for k, n in keys))
    F = load_map(str(paths["id.map"]), loaded, loaded)
    _assert_canonical(F.levels, X.cells)


def test_lazy_indices_hold_canonical_ints(z5):
    X = SemisimplicialSet.from_json_dict(z5.sset.to_json_dict())
    for n in range(1, X.dim + 1):
        for slots in ((0,), (0, n)):
            _assert_canonical([[j for js in X.slot_index(n, slots).values() for j in js]],
                              [X.cells[n]])
    loops = SemisimplicialSet([1, 300], [[[0, 0]] * 300])
    for end in ("first", "last"):
        _assert_canonical([loops.edges(1, end)], [300])
