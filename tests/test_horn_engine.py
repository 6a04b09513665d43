"""The indexed horn engine against naive references.

The references enumerate horns with a pruned ``itertools.product`` filtered
by ``compatibility_failures`` and fill them by full scans, so they share no code
with the slot-pattern index, the column-wise enumerator, the realized-horn
sets or the edge arrays. The lift reference enumerates the same way and runs
two ``_filler_indices`` intersections per horn, one in the source and one in
the target, instead of the realized-lift sets. Canonical order is part of the
output: lists must match element for element.
"""

import itertools
import json
from collections import Counter

import pytest

from degenforge import (
    Horn,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    check_inner,
    check_inner_fibration,
    check_kan,
    compatibility_failures,
    compatible_horns,
    cyclic_group,
    edge_property,
    identity_map,
    idempotent_monoid,
    j_groupoid,
    nerve,
    p_edge_property,
    poset_01,
    product,
    product_category,
    simplex_category,
)
from degenforge.cli import run
from degenforge.horn import _filler_indices
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
            # itertools.product over the positions, pruned: a partial horn is
            # extended only while its faces so far agree pairwise
            X, m = self.X, n - 1
            rows = [X.faces_of(m, v) for v in range(X.cells[m])] if m else []
            positions = [i for i in range(n + 1) if i != k]
            partial = [(v,) for v in range(X.cells[m])]
            for i in positions[1:]:
                grown = []
                for values in partial:
                    # d_j of the new face must equal d_{i-1} of each earlier face x_j
                    (j0, want0), *wants = [(j, rows[x][i - 1]) for j, x in zip(positions, values)]
                    grown += [values + (v,) for v in range(X.cells[m])
                              if rows[v][j0] == want0 and all(rows[v][j] == w for j, w in wants)]
                partial = grown
            horns = [Horn.from_map(n, k, dict(zip(positions, values))) for values in partial]
            self._all[(n, k)] = [h for h in horns if not compatibility_failures(X, h)]
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
            k, restrict, descending = _edge_horn_shape(self.X, n, e, prop)
            for horn in self.horns(n, k, restrict, descending):
                if not naive_fillers(self.X, horn):
                    return {**out, "result": False, "witness": horn.to_json_dict()}
        return out


def _edge_horn_shape(X: SemisimplicialSet, n: int, e: int, prop: str):
    """k, the restriction and the order of the n-horns an edge scan of e visits."""
    if prop == "cartesian":
        k, slot, face, descending = n, 0, 0, False
    else:
        k, slot, face, descending = 0, n, None, True
    pool = []
    for j in range(X.cells[n - 1]):
        # drop vertices one face at a time down to an edge
        x = j
        for level in range(n - 1, 1, -1):
            x = X.face_index(level, x, level if face is None else face)
        if x == e:
            pool.append(j)
    return k, {slot: pool}, descending


class NaiveLifts:
    """Lift verdicts over a map by two filler intersections per brute-force horn."""

    def __init__(self, p: SemisimplicialMap):
        self.p = p
        self.naive = Naive(p.source)
        self.vacuous = 0  # horns with no target simplex over them

    def missing(self, horn: Horn):
        p = self.p
        images = {p.apply_index(horn.n, z) for z in _filler_indices(p.source, horn.n, horn.faces)}
        projected = tuple((i, p.apply_index(horn.n - 1, v)) for i, v in horn.faces)
        targets = _filler_indices(p.target, horn.n, projected)
        self.vacuous += not targets
        return next((y for y in targets if y not in images), None)

    def fibration(self, bound: int) -> dict:
        checked = 0
        for n in range(2, bound + 1):
            for k in range(n - 1, 0, -1):
                for horn in self.naive.horns(n, k):
                    checked += 1
                    y = self.missing(horn)
                    if y is not None:
                        return {"result": False, "bound": bound, "checked": checked,
                                "witness": {"horn": horn.to_json_dict(), "target": y}}
        return {"result": True, "bound": bound, "checked": checked}

    def edge(self, e: int, prop: str, bound: int) -> dict:
        out = {"edge": e, "property": prop, "bound": bound, "result": True}
        for n in range(2, bound + 1):
            k, restrict, descending = _edge_horn_shape(self.p.source, n, e, prop)
            for horn in self.naive.horns(n, k, restrict, descending):
                y = self.missing(horn)
                if y is not None:
                    return {**out, "result": False,
                            "witness": {"horn": horn.to_json_dict(), "target": y}}
        return out


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


def _punctured(X: SemisimplicialSet, j: int) -> SemisimplicialSet:
    """X without its top simplex j."""
    faces = X.to_json_dict()["faces"]
    del faces[-1][j]
    return SemisimplicialSet([*X.cells[:-1], X.cells[-1] - 1], faces)


def test_a_punctured_nerve_fails_in_the_middle_of_a_shape():
    # Z/2 at D4 without 4-simplex 5: the 12th of the 16 (4,3) horns has no filler
    naive = Naive(_punctured(nerve(cyclic_group(2), 4).sset, 5))
    X = naive.X
    inner = [(n, k) for n in range(2, 5) for k in range(n - 1, 0, -1)]
    kan = [(n, k) for n in range(1, 5) for k in range(n, -1, -1)]
    for verdict, shapes in ((check_inner(X, 4), inner), (check_kan(X, 4), kan)):
        got = verdict.to_json_dict()
        assert got == naive.scan(4, shapes)
        witness = got["witness"]
        shape = [h.to_json_dict() for h in naive.horns(witness["n"], witness["k"])]
        assert 0 < shape.index(witness) < len(shape) - 1, (shape.index(witness), len(shape))
    assert check_inner(X, 4).checked == 32
    for e in range(X.cells[1]):
        for prop in ("cartesian", "cocartesian"):
            assert edge_property(X, SimplexRef(1, e), prop, 4).to_json_dict() == \
                naive.edge(e, prop, 4)


def _doubled_maps() -> dict:
    # Z/2 at D3 with every 3-simplex j duplicated as 2j and 2j+1: each inner 3-horn has two targets
    plain = nerve(cyclic_group(2), 3).sset
    faces = plain.to_json_dict()["faces"]
    faces[-1] = [row for row in faces[-1] for _ in (0, 1)]
    doubled = SemisimplicialSet([*plain.cells[:-1], 2 * plain.cells[-1]], faces)
    levels = [list(range(c)) for c in plain.cells[:-1]] + [[2 * j for j in range(plain.cells[-1])]]
    return {"doubled->doubled": identity_map(doubled),
            "Z/2->doubled": SemisimplicialMap(plain, doubled, levels)}


def _spine_maps() -> dict:
    # 0 -> 1 -> 2 with no 2-simplex: its one inner horn has no filler
    spine = SemisimplicialSet([3, 2, 0], [[[1, 0], [2, 1]], []])
    point = nerve(cyclic_group(1), 2).sset
    triangle = SemisimplicialSet([3, 3, 1], [[[1, 0], [2, 0], [2, 1]], [[2, 1, 0]]])
    return {"spine->point": SemisimplicialMap(spine, point, [[0, 0, 0], [0, 0], []]),
            "spine->spine": identity_map(spine),
            "spine->triangle": SemisimplicialMap(spine, triangle, [[0, 1, 2], [0, 2], []])}


MAPS = {
    "Z/2xJ->J": lambda: product(nerve(cyclic_group(2), 4).sset, nerve(j_groupoid(), 4).sset).right,
    "monoidxJ->J": lambda: product(nerve(idempotent_monoid(), 4).sset,
                                   nerve(j_groupoid(), 4).sset).right,
    **{name: (lambda name=name: _spine_maps()[name]) for name in _spine_maps()},
    **{name: (lambda name=name: _doubled_maps()[name]) for name in _doubled_maps()},
}


@pytest.mark.parametrize("name", sorted(MAPS))
def test_lift_verdicts_match_two_filler_scans(name):
    p = MAPS[name]()
    naive = NaiveLifts(p)
    D = p.depth
    fibration = check_inner_fibration(p, D).to_json_dict()
    assert fibration == naive.fibration(D)
    for e in range(p.source.cells[1]):
        for prop in ("cartesian", "cocartesian"):
            assert p_edge_property(p, SimplexRef(1, e), prop, D).to_json_dict() == \
                naive.edge(e, prop, D)
    if name.startswith("spine"):
        # the spine's inner horn has no lift over a 2-simplex; over the spine itself it lifts
        assert fibration["result"] == (name == "spine->spine")
    if name == "spine->spine":
        assert naive.vacuous > 0  # no target simplex over the horn: a vacuous lift
    if name == "doubled->doubled":
        assert fibration["result"]
    if name == "Z/2->doubled":
        # the horn's filler 2j lifts; its duplicate 2j+1 is the target that has no lift
        horn = Horn.from_json_dict(fibration["witness"]["horn"])
        (z,) = _filler_indices(p.source, horn.n, horn.faces)
        assert not fibration["result"] and fibration["witness"]["target"] == 2 * z + 1


def test_load_validate_verify_build_no_horn_index(tmp_path, monkeypatch):
    from degenforge import cli
    bundle = nerve(cyclic_group(2), 4)
    sset = tmp_path / "n2.sset"
    table = tmp_path / "n2.deg"
    sset.write_text(json.dumps(bundle.sset.to_json_dict()))
    table.write_text(json.dumps(bundle.oracle_degeneracies.to_json_dict()))
    loaded, tables = [], []
    load_sset, load_table = cli.load_sset, cli.load_table

    def recording_load(path):
        loaded.append(load_sset(path))
        return loaded[-1]

    def recording_table(path, base):
        tables.append(load_table(path, base))
        return tables[-1]

    def forbidden(*args):
        raise AssertionError("a horn index was built")

    monkeypatch.setattr(cli, "load_sset", recording_load)
    monkeypatch.setattr(cli, "load_table", recording_table)
    monkeypatch.setattr(SemisimplicialSet, "with_face", forbidden)
    monkeypatch.setattr(SemisimplicialSet, "slot_index", forbidden)
    monkeypatch.setattr(SemisimplicialSet, "edges", forbidden)
    assert run(["validate", str(sset)])[0] == 0
    assert run(["verify", str(sset), str(table)])[0] == 0
    assert len(loaded) == 2 and len(tables) == 1
    for X in loaded:
        # a loaded set holds its face data and no slot index or edge array
        assert not [name for name, value in vars(X).items()
                    if name not in ("dim", "cells", "_faces") and value]
    # a loaded table holds its base and its levels, and no reverse lookup
    assert not [name for name, value in vars(tables[0]).items()
                if name not in ("base", "_s") and value]
    with pytest.raises(AssertionError, match="horn index"):
        check_inner(bundle.sset, 2)


def test_synthesis_fills_without_a_slot_index(monkeypatch):
    # the engine fills a level from a table it builds and drops, so after a run
    # the set holds no top-level slot index; the checks before it stop below
    from degenforge import degeneracy
    X = nerve(cyclic_group(3), 5).sset
    engine_run = degeneracy._Engine.run

    def guarded(engine):
        def forbidden(*args):
            raise AssertionError("the engine looked up a slot index")
        with monkeypatch.context() as inside:
            inside.setattr(SemisimplicialSet, "with_face", forbidden)
            inside.setattr(SemisimplicialSet, "slot_index", forbidden)
            return engine_run(engine)

    monkeypatch.setattr(degeneracy._Engine, "run", guarded)
    result = degeneracy.synthesize(degeneracy.SynthesisInput(X))
    assert result.verification.ok
    assert X._index and not [key for key in X._index if key[0] == X.dim]


INDEX_FIXTURES = {
    "Z/2": lambda: cyclic_group(2),
    "J": j_groupoid,
    "monoid": idempotent_monoid,
    "Z/2xJ": lambda: product_category(cyclic_group(2), j_groupoid()),
}


@pytest.mark.parametrize("name", sorted(INDEX_FIXTURES))
def test_slot_lookups_match_a_row_scan(name):
    # three or more fixed slots filter the rows of a pair lookup inside the
    # column-wise enumerator; the brute-force comparison above reaches three at n = 4
    X = nerve(INDEX_FIXTURES[name](), 4).sset
    for n in range(1, X.dim + 1):
        rows = [X.faces_of(n, j) for j in range(X.cells[n])]
        values = range(X.cells[n - 1] + 1)  # the value past the range matches nothing
        for i in range(n + 1):
            index = X.slot_index(n, (i,))
            for v in values:
                want = tuple(j for j, row in enumerate(rows) if row[i] == v)
                assert tuple(X.with_face(n, i, v)) == want
                assert index.get(v, ()) == want
        for a, b in itertools.combinations(range(n + 1), 2):
            index = X.slot_index(n, (a, b))
            for va in values:
                by_b: dict = {}
                for j, row in enumerate(rows):
                    if row[a] == va:
                        by_b.setdefault(row[b], []).append(j)
                for vb in values:
                    assert list(index.get((va, vb), ())) == by_b.get(vb, [])


def _lift_files(tmp_path) -> dict:
    """J at D4, and Z/2 x J over J at D3, as files."""
    nj, nj3 = nerve(j_groupoid(), 4), nerve(j_groupoid(), 3)
    bundle = product(nerve(cyclic_group(2), 3).sset, nj3.sset)
    payloads = {"j": nj.sset.to_json_dict(), "z2xj": bundle.sset.to_json_dict(),
                "map": bundle.right.to_json_dict(), "j3": nj3.sset.to_json_dict(),
                "ydeg": nj3.oracle_degeneracies.to_json_dict()}
    files = {}
    for name, payload in payloads.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return files


LIFT_COMMANDS = {
    "edges": lambda f: ["edges", f["j"], "--property", "equivalence"],
    "addendum-s0": lambda f: ["addendum-s0", f["j"]],
    "synthesize": lambda f: ["synthesize", f["j"]],
    "synthesize-rel": lambda f: ["synthesize-rel", f["z2xj"], "--map", f["map"],
                                 "--target", f["j3"], "--ydeg", f["ydeg"]],
}


@pytest.mark.parametrize("command", sorted(LIFT_COMMANDS))
def test_a_command_builds_each_lift_test_once(tmp_path, monkeypatch, command):
    # J has two vertices and four edges, so every command checks more than one edge
    from degenforge import horn
    built = []
    lift_test = horn._lift_test

    def recording(X, p, n, k):
        built.append((id(X), id(p), n, k))
        return lift_test(X, p, n, k)

    monkeypatch.setattr(horn, "_lift_test", recording)
    assert run(LIFT_COMMANDS[command](_lift_files(tmp_path)))[0] == 0
    counts = Counter(built)
    # addendum-s0 shares one set of tests between its Kan scan and its edge checks
    assert built and max(counts.values()) == 1, counts
