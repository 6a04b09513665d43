"""The indexed horn engine against naive references.

The references enumerate horns with ``itertools.product`` filtered by
``compatibility_failures`` and fill them by full scans, so they share no code
with the slot-pattern index, the realized-horn sets or the edge arrays.
Canonical order is part of the output: lists must match element for element.
"""

import itertools
import json

import pytest

from degenforge import (
    Horn,
    SemisimplicialSet,
    SimplexRef,
    check_inner,
    check_kan,
    compatibility_failures,
    compatible_horns,
    cyclic_group,
    edge_property,
    idempotent_monoid,
    j_groupoid,
    nerve,
    poset_01,
    product_category,
    simplex_category,
)
from degenforge.cli import run
from conftest import naive_fillers

FIXTURES = {
    "monoid": (idempotent_monoid, 4),
    "poset_01": (poset_01, 4),
    "J": (j_groupoid, 3),
    "Z/2": (lambda: cyclic_group(2), 4),
    "simplex_category(2)": (lambda: simplex_category(2), 3),
    "Z/2xJ": (lambda: product_category(cyclic_group(2), j_groupoid()), 3),
}


class Naive:
    """Compatible horns by brute force, cached per (n, k) shape."""

    def __init__(self, X: SemisimplicialSet):
        self.X = X
        self._all: dict[tuple[int, int], list[Horn]] = {}

    def horns(self, n, k, restrict=None, descending=False) -> list[Horn]:
        if (n, k) not in self._all:
            positions = [i for i in range(n + 1) if i != k]
            pools = [range(self.X.cells[n - 1])] * len(positions)
            found = []
            for combo in itertools.product(*pools):
                horn = Horn.from_map(n, k, dict(zip(positions, combo)))
                if not compatibility_failures(self.X, horn):
                    found.append(horn)
            self._all[(n, k)] = found
        out = [h for h in self._all[(n, k)]
               if all(h.face(i) in pool for i, pool in (restrict or {}).items())]
        # assignment order decides the yield order: lexicographic over it
        if descending:
            out.sort(key=lambda h: tuple(v for _, v in reversed(h.faces)))
        return out

    def scan(self, bound, shapes) -> dict:
        checked = 0
        for n, k in shapes:
            for horn in self.horns(n, k):
                checked += 1
                if not naive_fillers(self.X, horn):
                    return {"result": False, "bound": bound, "checked": checked,
                            "witness": horn.to_json_dict()}
        return {"result": True, "bound": bound, "checked": checked}

    def edge(self, e: int, prop: str, bound: int) -> dict:
        out = {"edge": e, "property": prop, "bound": bound, "result": True}
        for n in range(2, bound + 1):
            if prop == "cartesian":
                k, slot, face, descending = n, 0, 0, False
            else:
                k, slot, face, descending = 0, n, None, True
            pool = [j for j in range(self.X.cells[n - 1]) if self._walk(n - 1, j, face) == e]
            for horn in self.horns(n, k, {slot: pool}, descending):
                if not naive_fillers(self.X, horn):
                    return {**out, "result": False, "witness": horn.to_json_dict()}
        return out

    def _walk(self, m: int, j: int, face) -> int:
        # drop vertices one face at a time down to an edge
        for level in range(m, 1, -1):
            j = self.X.face_index(level, j, level if face is None else face)
        return j


@pytest.fixture(scope="module", params=sorted(FIXTURES))
def naive(request):
    make, D = FIXTURES[request.param]
    return Naive(nerve(make(), D).sset)


def test_enumeration_order_matches_brute_force(naive):
    X = naive.X
    for n in range(1, X.dim + 1):
        for k in range(n + 1):
            for descending in (False, True):
                assert list(compatible_horns(X, n, k, descending=descending)) == \
                    naive.horns(n, k, descending=descending)
                for i in (k + 1) % (n + 1), (k + n) % (n + 1):
                    restrict = {i: range(0, X.cells[n - 1], 2)}
                    assert list(compatible_horns(X, n, k, restrict, descending)) == \
                        naive.horns(n, k, restrict, descending)


def test_checker_verdicts_match_brute_force(naive):
    X = naive.X
    D = X.dim
    inner = [(n, k) for n in range(2, D + 1) for k in range(n - 1, 0, -1)]
    kan = [(n, k) for n in range(1, D + 1) for k in range(n, -1, -1)]
    assert check_inner(X, D).to_json_dict() == naive.scan(D, inner)
    assert check_kan(X, D).to_json_dict() == naive.scan(D, kan)
    for e in range(X.cells[1]):
        for prop in ("cartesian", "cocartesian"):
            verdict = edge_property(X, SimplexRef(1, e), prop, D)
            assert verdict.to_json_dict() == naive.edge(e, prop, D)


def test_load_validate_verify_build_no_horn_index(tmp_path, monkeypatch):
    bundle = nerve(cyclic_group(2), 4)
    sset = tmp_path / "n2.sset"
    table = tmp_path / "n2.deg"
    sset.write_text(json.dumps(bundle.sset.to_json_dict()))
    table.write_text(json.dumps(bundle.oracle_degeneracies.to_json_dict()))

    def forbidden(*args):
        raise AssertionError("a horn index was built")

    monkeypatch.setattr(SemisimplicialSet, "matching", forbidden)
    monkeypatch.setattr(SemisimplicialSet, "edges", forbidden)
    assert run(["validate", str(sset)])[0] == 0
    assert run(["verify", str(sset), str(table)])[0] == 0
    with pytest.raises(AssertionError, match="horn index"):
        check_inner(bundle.sset, 2)
