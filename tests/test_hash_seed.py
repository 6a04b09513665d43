"""A loaded set's content hash, seeded from the file's bytes when they are canonical.

``content_hash`` is sha256 of the set's canonical JSON (sorted keys, no
spaces). A set file written by the tool holds exactly those bytes and one
final newline, so loading it can take the hash from the bytes as read. Every
other spelling of the same set must give the same hash, computed from the
set's levels, and must leave a table pinned to the canonical hash loading.
"""

import hashlib
import json

import pytest

from degenforge import cyclic_group, idempotent_monoid, j_groupoid, nerve, product, product_category
from degenforge.cli import _dump_json, load_sset, load_table, run
from degenforge.sset import SemisimplicialSet, hash_seed

GOLDEN = {
    "z2@D4": lambda: nerve(cyclic_group(2), 4).sset,
    "z3@D4": lambda: nerve(cyclic_group(3), 4).sset,
    "j@D4": lambda: nerve(j_groupoid(), 4).sset,
    "monoid@D4": lambda: nerve(idempotent_monoid(), 4).sset,
    "z2xj@D4": lambda: product(nerve(cyclic_group(2), 4).sset, nerve(j_groupoid(), 4).sset).sset,
    "z1@D12": lambda: nerve(cyclic_group(1), 12).sset,
    "dimension 0": lambda: SemisimplicialSet([3], []),
    "empty top level": lambda: SemisimplicialSet([3, 2, 0], [[[1, 0], [2, 1]], []]),
}


def _canonical(X: SemisimplicialSet) -> str:
    return json.dumps(X.to_json_dict(), sort_keys=True, separators=(",", ":"))


def _computed(X: SemisimplicialSet) -> str:
    """The hash formatted from the levels of a set built afresh, never seeded."""
    return SemisimplicialSet(X.cells, X.to_json_dict()["faces"]).content_hash()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_a_canonical_file_seeds_the_hash_it_would_compute(tmp_path, name):
    X = GOLDEN[name]()
    path = tmp_path / "x.sset"
    _dump_json(str(path), X.to_json_dict())
    assert path.read_bytes() == _canonical(X).encode("utf-8") + b"\n"
    loaded = load_sset(str(path))
    want = hashlib.sha256(_canonical(X).encode("utf-8")).hexdigest()
    assert loaded._hash == want  # seeded before any call
    assert loaded.content_hash() == _computed(X) == want
    assert loaded == X


def _in_faces(text: str, old: str, new: str) -> str:
    """``text`` with the first ``old`` after ``"faces":[`` replaced by ``new``."""
    at = text.index(old, text.index('"faces":['))
    return text[:at] + new + text[at + len(old):]


def _faces_twice(text: str) -> str:
    # the same "faces" again, last: the head and the final "]}" are as in the canonical bytes
    return text[:-2] + "," + text[text.index('"faces":'):-2] + "}\n"


# every spelling of the set that is not its canonical bytes plus at most one newline
VARIANTS = {
    "indented": lambda doc, text: json.dumps(doc, sort_keys=True, indent=1) + "\n",
    "spaces": lambda doc, text: json.dumps(doc, sort_keys=True) + "\n",
    "keys reordered": lambda doc, text: json.dumps(
        {"dim": doc["dim"], "cells": doc["cells"], "faces": doc["faces"]}, separators=(",", ":")) + "\n",
    "extra key": lambda doc, text: text[:-2] + ',"name":[1]}\n',
    "duplicate key": lambda doc, text: _faces_twice(text),
    "escaped key": lambda doc, text: text.replace('"cells"', '"\\u0063ells"'),
    "-0 for a 0": lambda doc, text: _in_faces(text, "0", "-0"),
    "LF among the faces": lambda doc, text: _in_faces(text, ",", ",\n"),
    "CR among the faces": lambda doc, text: _in_faces(text, ",", ",\r"),
    "tab among the faces": lambda doc, text: _in_faces(text, ",", ",\t"),
    "space among the faces": lambda doc, text: _in_faces(text, ",", ", "),
    "two trailing newlines": lambda doc, text: text + "\n",
    "CRLF": lambda doc, text: text[:-1] + "\r\n",
    "empty level as {}": lambda doc, text: _in_faces(text, "[]", "{}"),
}
# the sets each spelling applies to: only a set with an empty face level has a "[]" among its faces
SPELLINGS = [(name, variant) for name in ("z2xj@D4", "z1@D12")
             for variant in sorted(VARIANTS) if variant != "empty level as {}"]
SPELLINGS.append(("empty top level", "empty level as {}"))


def _variant(tmp_path, name: str, variant: str):
    X = GOLDEN[name]()
    text = _canonical(X) + "\n"
    spelled = VARIANTS[variant](X.to_json_dict(), text)
    assert spelled != text and SemisimplicialSet.from_json_dict(json.loads(spelled)) == X
    path = tmp_path / "x.sset"
    path.write_bytes(spelled.encode("utf-8"))
    return X, path


@pytest.mark.parametrize("name, variant", SPELLINGS)
def test_another_spelling_computes_the_same_hash(tmp_path, name, variant):
    X, path = _variant(tmp_path, name, variant)
    loaded = load_sset(str(path))
    assert loaded._hash is None  # not seeded
    assert loaded.content_hash() == _computed(X)
    deg = tmp_path / "x.deg"
    _dump_json(str(deg), {"base_hash": X.content_hash(), "s": []})
    assert load_table(str(deg), loaded).base is loaded


def test_faces_given_as_an_object_are_not_canonical(tmp_path):
    # list({}) is [], so a set of dimension 0 loads with its faces as an empty object
    path = tmp_path / "x.sset"
    path.write_text('{"cells":[3],"dim":0,"faces":{}}\n')
    loaded = load_sset(str(path))
    assert loaded._hash is None
    assert loaded.content_hash() == _computed(GOLDEN["dimension 0"]())


def test_a_file_without_its_final_newline_is_still_canonical(tmp_path):
    X = GOLDEN["z2@D4"]()
    path = tmp_path / "x.sset"
    path.write_bytes(_canonical(X).encode("utf-8"))
    loaded = load_sset(str(path))
    assert loaded._hash == loaded.content_hash() == _computed(X)


@pytest.mark.parametrize("spelling", ["indented", "newline kept"])
def test_a_table_pinned_to_other_bytes_is_for_a_different_set(tmp_path, spelling):
    X = GOLDEN["z2@D4"]()
    path = tmp_path / "x.sset"
    if spelling == "indented":
        path.write_text(json.dumps(X.to_json_dict(), sort_keys=True, indent=1))
    else:
        _dump_json(str(path), X.to_json_dict())
    deg = tmp_path / "x.deg"
    deg.write_text(json.dumps({"base_hash": hashlib.sha256(path.read_bytes()).hexdigest(), "s": []}))
    code, report = run(["verify", str(path), str(deg)])
    assert (code, report["verdict"]) == (2, "error"), report
    assert report["detail"] == "degeneracy table was emitted for a different base set"


def test_nerve_out_writes_the_text_content_hash_hashed(tmp_path):
    # the CLI writes a set from the pieces content_hash hashes, so the file it writes screens to that hash
    category = product_category(cyclic_group(3), j_groupoid())
    cat, out = tmp_path / "z3xj.cat", tmp_path / "z3xj.sset"
    cat.write_text(json.dumps(category.to_json_dict()))
    code, report = run(["nerve", "--cat", str(cat), "--dim", "4", "--out", str(out)])
    assert code == 0 and report["outputs"] == [str(out)]
    X = nerve(category, 4).sset
    raw = out.read_bytes()
    assert raw == _canonical(X).encode("utf-8") + b"\n"
    assert hash_seed(raw) == X.content_hash() == _computed(X)
