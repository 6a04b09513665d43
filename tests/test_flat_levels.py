"""Face levels are flat lists: entry j*(n+1) + i of level n is d_i of simplex j.

``face_column`` slices a level, ``faces_of`` slices a row, and
``content_hash`` writes each level from its flat list, through digit tables
or one template; every one of them must read what the rows of
``to_json_dict`` say. A level's digit tables are bounded by its own length,
so hashing a set that names a huge vertex allocates next to nothing.
"""

import hashlib
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import degenforge
from conftest import factors
from degenforge import cyclic_group, j_groupoid, nerve, product
from degenforge.cli import load_sset
from degenforge.sset import SemisimplicialSet, _canonical
from test_exhaustive_checks import random_set


def _reference_hash(X: SemisimplicialSet) -> str:
    blob = json.dumps(X.to_json_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _out_of_range() -> SemisimplicialSet:
    """Z/2 at D3 with -1 and c_{n-1} among its faces."""
    doc = nerve(cyclic_group(2), 3).sset.to_json_dict()
    doc["faces"][0][1][0] = -1
    doc["faces"][1][2][2] = 2  # c_1
    doc["faces"][2][3][0] = -1
    doc["faces"][2][7][3] = 4  # c_2
    return SemisimplicialSet.from_json_dict(doc)


def _partly_out_of_range() -> SemisimplicialSet:
    """Z/2 at D4 with -1 on level 2 only, between levels written from digit tables."""
    doc = nerve(cyclic_group(2), 4).sset.to_json_dict()
    doc["faces"][1][3][1] = -1
    return SemisimplicialSet.from_json_dict(doc)


# a vertex count no input paid for; hashed only in a child process, under a capped address space
VERTEX_10_9 = ([10**9 + 1, 2], [[[10**9, 0], [0, 10**9]]])

HASHED = {
    "dimension 0": lambda: SemisimplicialSet([3], []),
    "one row": lambda: SemisimplicialSet([1, 1, 1], [[[0, 0]], [[0, 0, 0]]]),
    "c_{n-1} the level's length": lambda: SemisimplicialSet([2, 1], [[[1, 0]]]),
    "c_{n-1} one past the level's length": lambda: SemisimplicialSet([3, 1], [[[2, 0]]]),
    "-1 on one level of four": _partly_out_of_range,
    "no vertices": lambda: SemisimplicialSet([0, 0, 0], [[], []]),
    "empty middle level": lambda: SemisimplicialSet([2, 1, 0, 0], [[[1, 0]], [], []]),
    "empty top level": lambda: SemisimplicialSet([3, 2, 0], [[[1, 0], [2, 1]], []]),
    "-1 and c_{n-1}": _out_of_range,
    "Z/3xJ": lambda: product(nerve(cyclic_group(3), 3).sset, nerve(j_groupoid(), 3).sset).sset,
}


@pytest.mark.parametrize("name", sorted(HASHED))
def test_content_hash_is_the_hash_of_the_json_bytes(name):
    X = HASHED[name]()
    assert X.content_hash() == _reference_hash(X)
    assert SemisimplicialSet.from_json_dict(X.to_json_dict()).content_hash() == X.content_hash()


def test_content_hash_is_the_hash_of_the_json_bytes_on_drawn_face_tables():
    # counts 0..3, entries from -1..c_{n-1}: levels in and out of range, of every length against c_{n-1}
    rng = random.Random(20261022)
    for trial in range(300):
        X = random_set(rng, rng.randint(1, 4), spread=trial % 2)
        assert X.content_hash() == _reference_hash(X), X.to_json_dict()


@settings(max_examples=30, deadline=None)
@given(factors, factors, st.integers(min_value=1, max_value=3))
def test_content_hash_is_the_hash_of_the_json_bytes_on_products_of_drawn_nerves(left, right, dim):
    X = product(nerve(left, dim).sset, nerve(right, dim).sset).sset
    assert X.content_hash() == _reference_hash(X)


def test_hashing_a_huge_vertex_allocates_no_table():
    X = SemisimplicialSet([10**6 + 1, 1], [[[10**6, 0]]])
    want = _reference_hash(X)
    tracemalloc.start()
    try:
        got = X.content_hash()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == want and peak < 2**20


# the address space is capped at 512 MiB, far above what the hash needs and far below a table
# of 10**9 digits, so a table built past the level's length ends in a MemoryError, not in a kill
_CAPPED_HASH = f"""
import resource
from degenforge.sset import SemisimplicialSet

X = SemisimplicialSet{VERTEX_10_9!r}
resource.setrlimit(resource.RLIMIT_AS, (2**29, resource.getrlimit(resource.RLIMIT_AS)[1]))
print(X.content_hash(), SemisimplicialSet.from_json_dict(X.to_json_dict()).content_hash())
"""


def test_hashing_a_vertex_10_to_the_9_stays_within_a_capped_address_space():
    src = Path(degenforge.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", _CAPPED_HASH], env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
    assert done.stdout.split() == [_reference_hash(SemisimplicialSet(*VERTEX_10_9))] * 2


def test_a_vertex_past_the_pool_is_stored_as_given():
    X = SemisimplicialSet(*VERTEX_10_9)
    assert X.faces_of(1, 0) == [10**9, 0] and X.face_column(1, 1) == [0, 10**9]
    assert X.to_json_dict()["faces"] == [[[10**9, 0], [0, 10**9]]]


@pytest.fixture(scope="module")
def sets(tmp_path_factory):
    """A loaded set, a nerve and a product, each with indices above 256 on some level."""
    z5 = nerve(cyclic_group(5), 5).sset
    path = tmp_path_factory.mktemp("flat") / "z5.sset"
    path.write_text(json.dumps(z5.to_json_dict()))
    return {"loaded": load_sset(str(path)), "nerve": z5,
            "product": product(nerve(cyclic_group(3), 4).sset, nerve(j_groupoid(), 4).sset).sset}


@pytest.mark.parametrize("name", ["loaded", "nerve", "product"])
def test_columns_rows_and_entries_read_the_json_rows(sets, name):
    X = sets[name]
    faces = X.to_json_dict()["faces"]
    assert max(X.cells[:-1]) > 256  # entries the interpreter does not share on its own
    for n in range(1, X.dim + 1):
        rows = faces[n - 1]
        for i in range(n + 1):
            column = X.face_column(n, i)
            assert column == [row[i] for row in rows]
            # each in-range entry is the pool's object for its index
            assert all(v is _canonical(v + 1)[v] for v in column)
        assert all(X.faces_of(n, j) == row for j, row in enumerate(rows))
        assert all(X.face_index(n, j, i) == v for j, row in enumerate(rows) for i, v in enumerate(row))


def test_an_out_of_range_entry_reads_back_as_given():
    X = _out_of_range()
    assert X.face_index(1, 1, 0) == -1 and X.face_index(3, 3, 0) == -1  # never c - 1
    assert X.face_index(2, 2, 2) == 2 and X.face_index(3, 7, 3) == 4
    assert X.face_column(1, 0)[1] == -1 and X.faces_of(3, 3)[0] == -1
    faces = X.to_json_dict()["faces"]
    assert faces[0][1][0] == -1 and faces[2][7][3] == 4
