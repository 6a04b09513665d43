"""A screened set file loads as any other spelling of it does.

``load_sset`` screens a file by its bytes (``sset.hash_seed``): with every
digit, comma and bracket deleted, a canonical file leaves only the skeleton
of its three keys, so every face entry is an int >= 0, and each level whose
rows fit is interned straight from its rows. Every level that does not fit
takes the general path. So each case below is written twice, once in the
canonical spelling, which passes the screen, and once with spaces, which
does not, and both must load to the same faces and give the same report,
whatever a mutation has done to the document.
"""

import json
from operator import is_

import pytest

from degenforge import cyclic_group, idempotent_monoid, j_groupoid, nerve, product, sset
from degenforge.cli import load_sset, run
from degenforge.errors import ParseError
from degenforge.sset import SemisimplicialSet, _canonical, hash_seed

SETS = {
    "z3@D4": lambda: nerve(cyclic_group(3), 4).sset.to_json_dict(),
    "j@D3": lambda: nerve(j_groupoid(), 3).sset.to_json_dict(),
    "monoid@D3": lambda: nerve(idempotent_monoid(), 3).sset.to_json_dict(),
    # level 5 names 2-simplices up to 511, past the ints the interpreter shares
    "z2xj@D5": lambda: product(nerve(cyclic_group(2), 5).sset, nerve(j_groupoid(), 5).sset).sset.to_json_dict(),
    "dimension 0": lambda: {"cells": [3], "dim": 0, "faces": []},
    "empty top level": lambda: {"cells": [3, 2, 0], "dim": 2, "faces": [[[1, 0], [2, 1]], []]},
    "vertex 10**9": lambda: {"cells": [10**9 + 1, 1, 1], "dim": 2, "faces": [[[10**9, 10**9]], [[0, 0, 0]]]},
}

MARK = "@entry@"  # a string no set holds, replaced by a literal after the document is written
# an entry spelled as something other than a JSON integer of digits alone
LITERALS = ("true", "1.0", "1e0", "null", '"0"', "-1", "NaN")


def _row(doc):
    """The level and row a mutation changes: the last row of the highest level with rows."""
    n = max(n for n, level in enumerate(doc["faces"], 1) if level)
    return doc["faces"][n - 1], len(doc["faces"][n - 1]) - 1, n


def _set_entry(value):
    def mutate(doc):
        level, j, n = _row(doc)
        level[j][n // 2] = value(doc, n)
    return mutate


def _reshape(change):
    def mutate(doc):
        level, j, _ = _row(doc)
        level[j] = change(level[j])
    return mutate


def _level_as_int(doc):
    doc["faces"][_row(doc)[2] - 1] = 5


MUTATIONS = {
    "none": lambda doc: None,
    "entry c_{n-1}": _set_entry(lambda doc, n: doc["cells"][n - 1]),
    "row one longer": _reshape(lambda row: row + [0]),
    "row one shorter": _reshape(lambda row: row[:-1]),
    "row nested deeper": _reshape(lambda row: [row]),
    "entry a list": _set_entry(lambda doc, n: [0]),
    "level an int": _level_as_int,
    **{f"entry {name}": _set_entry(lambda doc, n: MARK) for name in LITERALS},
}
CASES = [(name, mutation) for name in SETS for mutation in MUTATIONS
         if mutation == "none" or name != "dimension 0"]


def _spellings(name: str, mutation: str) -> dict:
    """The mutated document as canonical bytes plus a newline, and with spaces."""
    doc = SETS[name]()
    MUTATIONS[mutation](doc)
    literal = mutation.removeprefix("entry ")
    texts = {"canonical": json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
             "spaced": json.dumps(doc) + "\n"}
    if literal in LITERALS:
        texts = {key: text.replace(json.dumps(MARK), literal) for key, text in texts.items()}
    assert MARK not in texts["canonical"]
    return {key: text.encode("utf-8") for key, text in texts.items()}


def _pool_mask(X: SemisimplicialSet) -> list:
    """Per level, which entries are the pool's own int objects."""
    pool = _canonical(0)
    return [[0 <= v < len(pool) and pool[v] is v for v in level] for level in X._faces]


def _load(path):
    try:
        return load_sset(str(path))
    except ParseError as exc:
        return str(exc)


@pytest.mark.parametrize("name, mutation", CASES)
def test_both_spellings_load_and_validate_alike(tmp_path, name, mutation):
    raw = _spellings(name, mutation)
    assert hash_seed(raw["spaced"]) is None
    path = tmp_path / "x.sset"
    got = {}
    for key, blob in raw.items():
        path.write_bytes(blob)
        got[key] = run(["validate", str(path)]), _load(path)
    (canonical, X), (spaced, Y) = got["canonical"], got["spaced"]
    assert canonical == spaced
    if mutation.removeprefix("entry ") in LITERALS:
        assert hash_seed(raw["canonical"]) is None  # refused by the screen
    if isinstance(X, str):
        assert X == Y and (canonical[0], canonical[1]["verdict"]) == (2, "error")
        return
    assert X._faces == Y._faces and X._out_of_range == Y._out_of_range
    assert _pool_mask(X) == _pool_mask(Y)
    # only bytes that pass the screen seed the hash: those of every set here but the one with -1
    fresh = SemisimplicialSet(X.cells, X.to_json_dict()["faces"]).content_hash()
    seeded = hash_seed(raw["canonical"])
    assert (X._hash, Y._hash) == (seeded, None)
    assert (seeded is None) == (mutation == "entry -1")
    assert X.content_hash() == Y.content_hash() == fresh


def test_a_level_out_of_range_is_stored_as_given_from_canonical_bytes(tmp_path):
    raw = _spellings("z2xj@D5", "entry c_{n-1}")
    path = tmp_path / "x.sset"
    path.write_bytes(raw["canonical"])
    X = load_sset(str(path))
    assert X._out_of_range == {5}
    code, report = run(["validate", str(path)])
    assert (code, report["verdict"]) == (1, "no")
    assert report["witness"] == [["range", 5, 2047, 2]]


@pytest.mark.parametrize("spelling, calls", [("canonical", 0), ("spaced", 5)])
def test_only_a_level_that_does_not_fit_is_flattened(tmp_path, monkeypatch, spelling, calls):
    flattened = []
    general = sset._flattened
    monkeypatch.setattr(sset, "_flattened", lambda n, *rest: flattened.append(n) or general(n, *rest))
    path = tmp_path / "x.sset"
    path.write_bytes(_spellings("z2xj@D5", "none")[spelling])
    load_sset(str(path))
    assert flattened == list(range(1, calls + 1))
    flattened.clear()
    path.write_bytes(_spellings("z2xj@D5", "entry c_{n-1}")[spelling])
    load_sset(str(path))
    assert flattened == ([5] if spelling == "canonical" else [1, 2, 3, 4, 5])


def test_a_screened_level_shares_the_pool_but_does_not_grow_it_past_its_entries(tmp_path):
    path = tmp_path / "x.sset"
    path.write_bytes(_spellings("vertex 10**9", "none")["canonical"])
    before = len(_canonical(0))
    X = load_sset(str(path))
    assert len(_canonical(0)) <= before + 2 + 3
    assert X.face_index(1, 0, 0) == 10**9 and X._hash is not None
    path.write_bytes(_spellings("z2xj@D5", "none")["canonical"])
    Y = load_sset(str(path))
    assert all(map(is_, Y._faces[5], map(_canonical(0).__getitem__, Y._faces[5])))
