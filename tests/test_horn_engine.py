"""The indexed horn engine against naive references.

The references enumerate horns with a pruned ``itertools.product`` filtered
by ``compatibility_failures`` and fill them by full scans, so they share no code
with the slot-pattern index, the column-wise enumerator, the lowest-filler
tables or the edge arrays. The lift reference enumerates the same way and runs
two ``_filler_indices`` intersections per horn, one in the source and one in
the target, instead of the lowest-filler tables over the map. Canonical order
is part of the output: lists must match element for element.
"""

import gc
import itertools
import json
import random
import weakref
from collections import Counter

import pytest

from degenforge import (
    DegeneracyTable,
    DegenforgeError,
    Horn,
    ParseError,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    SynthesisInput,
    UnfillableHorn,
    check_inner,
    check_inner_fibration,
    check_kan,
    compatibility_failures,
    compatible_horns,
    cyclic_group,
    edge_property,
    edge_verdicts,
    identity_map,
    idempotent_monoid,
    is_equivalence,
    j_groupoid,
    nerve,
    p_edge_property,
    poset_01,
    product,
    product_category,
    simplex_category,
    synthesize,
    synthesize_relative,
    validate,
    validate_map,
)
from degenforge.cli import run
from degenforge.horn import _filler_indices
from degenforge.nerve import uniqueness_demo
from conftest import naive_fillers
from test_loop_coskeleta import loop_coskeleton

FIXTURES = {
    "monoid": (idempotent_monoid, 4),
    "poset_01": (poset_01, 4),
    "J": (j_groupoid, 3),
    "Z/2": (lambda: cyclic_group(2), 4),
    "simplex_category(2)": (lambda: simplex_category(2), 3),
    "Z/2xJ": (lambda: product_category(cyclic_group(2), j_groupoid()), 3),
}


class Naive:
    """Compatible horns by brute force, cached per (n, k) shape, and whether each fills."""

    def __init__(self, X: SemisimplicialSet):
        self.X = X
        self._all: dict[tuple[int, int], list[Horn]] = {}
        self._fills: dict[Horn, bool] = {}

    def fills(self, horn: Horn) -> bool:
        if horn not in self._fills:
            self._fills[horn] = bool(naive_fillers(self.X, horn))
        return self._fills[horn]

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
                if not self.fills(horn):
                    return {"result": False, "bound": bound, "checked": checked,
                            "witness": horn.to_json_dict()}
        return {"result": True, "bound": bound, "checked": checked}

    def edge(self, e: int, prop: str, bound: int) -> dict:
        out = {"edge": e, "property": prop, "bound": bound, "result": True}
        for n in range(2, bound + 1):
            k, restrict, descending = _edge_horn_shape(self.X, n, e, prop)
            for horn in self.horns(n, k, restrict, descending):
                if not self.fills(horn):
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


def _spine() -> SemisimplicialSet:
    # 0 -> 1 -> 2 with no 2-simplex: its one inner horn has no filler
    return SemisimplicialSet([3, 2, 0], [[[1, 0], [2, 1]], []])


def _spine_maps() -> dict:
    spine = _spine()
    point = nerve(cyclic_group(1), 2).sset
    triangle = SemisimplicialSet([3, 3, 1], [[[1, 0], [2, 0], [2, 1]], [[2, 1, 0]]])
    return {"spine->point": SemisimplicialMap(spine, point, [[0, 0, 0], [0, 0], []]),
            "spine->spine": identity_map(spine),
            "spine->triangle": SemisimplicialMap(spine, triangle, [[0, 1, 2], [0, 2], []])}


def _dropped(X: SemisimplicialSet, share: float, seed: int) -> SemisimplicialSet:
    """X without a share of its top simplices, drawn by the seed."""
    faces = X.to_json_dict()["faces"]
    top = faces[-1]
    gone = set(random.Random(seed).sample(range(len(top)), round(share * len(top))))
    faces[-1] = [row for j, row in enumerate(top) if j not in gone]
    return SemisimplicialSet([*X.cells[:-1], len(faces[-1])], faces)


def _copied(X: SemisimplicialSet, j: int, source: int) -> SemisimplicialSet:
    """X with top simplex j replaced by a copy of top simplex ``source``.

    It has as many top simplices as compatible inner horns, yet the horn of j
    has no filler: no face pair tells the copies apart.
    """
    faces = X.to_json_dict()["faces"]
    faces[-1][j] = list(faces[-1][source])
    return SemisimplicialSet(X.cells, faces)


VERDICT_SETS = {
    **{name: (lambda make=make, D=D: nerve(make(), D).sset) for name, (make, D) in FIXTURES.items()},
    "square": lambda: nerve(product_category(poset_01(), poset_01()), 4).sset,
    # no face pair tells their simplices apart, so every shape is scanned in order
    **{f"L{loops}@D{dim}": (lambda loops=loops, dim=dim: loop_coskeleton(loops, dim))
       for loops, dim in ((2, 3), (2, 4), (3, 3))},
    "spine": _spine,
    **{f"Z/3@D4-{seed}": (lambda seed=seed: _dropped(nerve(cyclic_group(3), 4).sset, 0.07, seed))
       for seed in (1, 2, 3)},
    **{f"Z/2@D5-{seed}": (lambda seed=seed: _dropped(nerve(cyclic_group(2), 5).sset, 0.08, seed))
       for seed in (1, 2, 3)},
    "Z/2@D4-copied": lambda: _copied(nerve(cyclic_group(2), 4).sset, 5, 6),
}


@pytest.fixture(scope="module", params=sorted(VERDICT_SETS))
def verdict_naive(request):
    return Naive(VERDICT_SETS[request.param]())


@pytest.mark.parametrize("validated", [False, True], ids=["scanned", "validated"])
def test_checker_verdicts_match_brute_force(verdict_naive, validated):
    # a copy that validate has passed answers the shapes that the spanning pair
    # decides from the rule and scans the others in order; a copy it has not
    # checked is scanned in order
    naive = verdict_naive
    X = SemisimplicialSet.from_json_dict(naive.X.to_json_dict())
    assert validate(X).ok if validated else not X._valid
    D = X.dim
    inner = [(n, k) for n in range(2, D + 1) for k in range(n - 1, 0, -1)]
    kan = [(n, k) for n in range(1, D + 1) for k in range(n, -1, -1)]
    assert check_inner(X, D).to_json_dict() == naive.scan(D, inner)
    assert check_kan(X, D).to_json_dict() == naive.scan(D, kan)
    for e in range(X.cells[1]):
        for prop in ("cartesian", "cocartesian"):
            verdict = edge_property(X, SimplexRef(1, e), prop, D)
            assert verdict.to_json_dict() == naive.edge(e, prop, D)


@pytest.mark.parametrize("validated", [False, True], ids=["scanned", "validated"])
@pytest.mark.parametrize("name", sorted(VERDICT_SETS))
def test_one_pass_per_shape_matches_each_edge_scan(name, validated):
    # one pass over each (n, n) and (n, 0) shape answers every edge as its own
    # restricted scans do: passed where the rule decides the shape, its first failing row else
    X = VERDICT_SETS[name]()
    assert validate(X).ok if validated else not X._valid
    for D in range(1, X.dim + 1):
        for prop in ("cartesian", "cocartesian", "equivalence"):
            alone = [is_equivalence(X, SimplexRef(1, e), D) if prop == "equivalence"
                     else edge_property(X, SimplexRef(1, e), prop, D) for e in range(X.cells[1])]
            assert [v.to_json_dict() for v in edge_verdicts(X, prop, D)] == \
                [v.to_json_dict() for v in alone], (prop, D)


def test_the_dropped_sets_fail_inner_filling():
    # a nerve's inner horns have one filler each, so every dropped top simplex leaves one
    # unfilled, and the brute-force comparison pins witnesses and their checked counts
    dropped = [name for name in VERDICT_SETS if name.startswith(("Z/3@D4-", "Z/2@D5-"))]
    assert len(dropped) == 6
    assert [name for name in dropped if not check_inner(VERDICT_SETS[name]()).ok] == dropped


def test_a_counted_scan_leaves_no_cycle_behind():
    # cli.run turns the collector off, so a reference cycle made by a scan would keep its set alive
    X = SemisimplicialSet.from_json_dict(nerve(cyclic_group(2), 4).sset.to_json_dict())
    assert validate(X).ok
    p = product(X, nerve(j_groupoid(), 4).sset).right
    alive = weakref.ref(X)
    gc.disable()
    try:
        assert check_inner(X).ok and check_kan(X).ok and check_inner_fibration(p).ok
        del X, p
        assert alive() is None
    finally:
        gc.enable()


def test_a_set_that_validate_rejects_keeps_the_ordered_scan():
    # Z/2 at D3 with faces 0 and 3 of 3-simplex 1 swapped
    data = nerve(cyclic_group(2), 3).sset.to_json_dict()
    row = data["faces"][2][1]
    row[0], row[3] = row[3], row[0]
    X = SemisimplicialSet(data["cells"], data["faces"])
    scanned = {"result": False, "bound": 3, "checked": 7,
               "witness": {"n": 3, "k": 2, "faces": {"0": 1, "1": 1, "3": 0}}}
    assert check_inner(X).to_json_dict() == scanned
    assert not validate(X).ok
    assert check_inner(X).to_json_dict() == scanned
    # its rows are no compatible horns, so the spanning-pair rule would pass it
    X._valid = True
    assert check_inner(X).to_json_dict() == {"result": True, "bound": 3, "checked": 20}


MAPS = {
    "Z/2xJ->J": lambda: product(nerve(cyclic_group(2), 4).sset, nerve(j_groupoid(), 4).sset).right,
    "monoidxJ->J": lambda: product(nerve(idempotent_monoid(), 4).sset,
                                   nerve(j_groupoid(), 4).sset).right,
    # a left factor that fails inner filling, so the fibration check takes the
    # full scan, and a right factor with an empty level, where every lift is vacuous
    "spinexJ->J": lambda: product(_spine(), nerve(j_groupoid(), 2).sset).right,
    "Z/2xspine->spine": lambda: product(nerve(cyclic_group(2), 2).sset, _spine()).right,
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
    if name == "Z/2xspine->spine":
        # the spine has no 2-simplex, so every lift is vacuous
        assert fibration["result"] and naive.vacuous > 0
    if name == "doubled->doubled":
        assert fibration["result"]
    if name == "Z/2->doubled":
        # the horn's filler 2j lifts; its duplicate 2j+1 is the target that has no lift
        horn = Horn.from_json_dict(fibration["witness"]["horn"])
        (z,) = _filler_indices(p.source, horn.n, horn.faces)
        assert not fibration["result"] and fibration["witness"]["target"] == 2 * z + 1


PRODUCTS = {
    # name: (left factor C, right factor Y, whether the check takes the full scan)
    "Z/2@D5xJ": (lambda: nerve(cyclic_group(2), 5).sset, lambda: nerve(j_groupoid(), 5).sset, False),
    "Z/3@D5xJ": (lambda: nerve(cyclic_group(3), 5).sset, lambda: nerve(j_groupoid(), 5).sset, False),
    "Z/2xZ/2@D4xJ": (lambda: nerve(product_category(cyclic_group(2), cyclic_group(2)), 4).sset,
                     lambda: nerve(j_groupoid(), 4).sset, False),
    "spinexJ": (_spine, lambda: nerve(j_groupoid(), 2).sset, True),
    "Z/2xspine": (lambda: nerve(cyclic_group(2), 2).sset, _spine, False),
}


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_a_marked_projection_agrees_with_its_unmarked_copy(name, monkeypatch):
    # the right projection of a product carries its left factor, and the check
    # answers from it; the same levels without the mark take the full scan
    from degenforge import horn
    left, right, full_scan = PRODUCTS[name]
    C = left()
    p = product(C, right()).right
    unmarked = SemisimplicialMap(p.source, p.target, p.levels)
    assert p.factor is C and unmarked.factor is None
    scanned = []  # the maps scanned over; the factor's own scans are over the point
    scan = horn._scan

    def recording(X, q, *args):
        if q is not None:
            scanned.append(q)
        return scan(X, q, *args)

    monkeypatch.setattr(horn, "_scan", recording)
    marked = check_inner_fibration(p).to_json_dict()
    assert [q is p for q in scanned] == ([True] if full_scan else [])
    assert check_inner_fibration(unmarked).to_json_dict() == marked
    assert scanned[-1] is unmarked
    assert marked["result"] == check_inner(C, p.depth).ok


def _invalid_z2() -> SemisimplicialSet:
    # Z/2 with d_1 and d_2 of the 2-simplex (g, g) swapped: it fails validate, and so does C x J
    data = nerve(cyclic_group(2), 3).sset.to_json_dict()
    row = data["faces"][1][3]
    row[1], row[2] = row[2], row[1]
    return SemisimplicialSet(data["cells"], data["faces"])


AGREEMENT = {
    # name: (left factor C, right factor Y)
    **{name: (left, right) for name, (left, right, _) in PRODUCTS.items()},
    "monoid@D4xJ": (lambda: nerve(idempotent_monoid(), 4).sset, lambda: nerve(j_groupoid(), 4).sset),
    "invalidxJ": (_invalid_z2, lambda: nerve(j_groupoid(), 3).sset),
    "Z/2xinvalid": (lambda: nerve(cyclic_group(2), 3).sset, _invalid_z2),
}
# the cases whose relative run succeeds; the others are refused
SYNTHESIZED = {"Z/2@D5xJ", "Z/3@D5xJ", "Z/2xZ/2@D4xJ", "monoid@D4xJ"}
# why the edge scans over a marked projection take the full scan, per case
EDGE_FALLBACKS = {"monoid@D4xJ": {"C fails"}, "spinexJ": {"C fails"}, "invalidxJ": {"C fails"}}


def _synthesis(p, Y_deg):
    """A relative run's table, certificate text, stats, s0 and witnesses, or its error's type and text."""
    try:
        result = synthesize_relative(SynthesisInput(p.source, p=p, Y_deg=Y_deg))
    except DegenforgeError as exc:
        return type(exc), str(exc)
    return (result.table.to_json_dict(), result.certificate.to_json(), result.stats, result.s0,
            result.witnesses)


@pytest.mark.parametrize("name", sorted(AGREEMENT))
def test_marked_and_unmarked_projections_agree_on_edges_and_synthesis(name, monkeypatch):
    # the edge scans and the relative run answer from C over a marked projection; verdicts,
    # witnesses, tables, certificates and refusals are those of the same levels unmarked
    from degenforge import horn
    left, right = AGREEMENT[name]
    C, Y = left(), right()
    p = product(C, Y).right
    unmarked = SemisimplicialMap(p.source, p.target, p.levels)
    scanned = []
    scan = horn._scan

    def recording(X, q, *args):
        scanned.append(q)
        return scan(X, q, *args)

    monkeypatch.setattr(horn, "_scan", recording)
    reasons = set()
    for e in range(p.source.cells[1]):
        c = e // Y.cells[1]
        for prop in ("cartesian", "cocartesian"):
            del scanned[:]
            marked = p_edge_property(p, SimplexRef(1, e), prop).to_json_dict()
            assert p_edge_property(unmarked, SimplexRef(1, e), prop).to_json_dict() == marked
            factor = edge_property(C, SimplexRef(1, c), prop, p.depth).result
            reason = None if factor else "C fails"
            assert any(q is p for q in scanned) == (reason is not None), (e, prop)
            if reason is None:
                assert marked["result"]
            reasons.add(reason)
    assert reasons - {None} == EDGE_FALLBACKS.get(name, set())
    Y_deg = nerve(j_groupoid(), Y.dim).oracle_degeneracies if Y == nerve(j_groupoid(), Y.dim).sset \
        else DegeneracyTable(Y)
    outcome = _synthesis(p, Y_deg)
    assert outcome == _synthesis(unmarked, Y_deg)
    assert (len(outcome) == 5) == (name in SYNTHESIZED), outcome[:2]


@pytest.mark.parametrize("name", ["invalidxJ", "Z/2xinvalid"])
def test_a_failing_factor_is_refused_as_the_product_is(name):
    # product records no pass, so the marked run validates the product, as the unmarked one does
    left, right = AGREEMENT[name]
    p = product(left(), right()).right
    unmarked = SemisimplicialMap(p.source, p.target, p.levels)
    assert not p.source._valid and not p._valid
    for q in (p, unmarked):
        outcome = _synthesis(q, DegeneracyTable(q.target))
        assert outcome[0] is ParseError and outcome[1].startswith("input set fails validation"), outcome


def test_a_target_table_that_breaks_an_identity_is_refused_alike():
    # a tampered J table prescribes horns whose faces do not lie over the target's faces;
    # C's fill tables must give those rows no filler, as the product's table does
    nj = nerve(j_groupoid(), 3)
    p = product(nerve(cyclic_group(2), 3).sset, nj.sset).right
    unmarked = SemisimplicialMap(p.source, p.target, p.levels)
    unfilled = 0
    for k, n, j, _ in nj.oracle_degeneracies.entries():
        if n != 1:
            continue
        for w in range(nj.sset.cells[2]):
            Y_deg = nj.oracle_degeneracies.copy()
            Y_deg.set_value(k, n, j, w)
            outcome = _synthesis(p, Y_deg)
            assert outcome == _synthesis(unmarked, Y_deg), (k, n, j, w)
            unfilled += outcome[0] is UnfillableHorn
    assert unfilled


def _recorded(monkeypatch) -> list:
    """The sets that the lift scans, the fill tables and the validation of a run are given."""
    from degenforge import degeneracy, horn
    seen = []
    for module, name in ((horn, "_scan"), (horn, "_lift_keys"),
                         (degeneracy, "validate"), (degeneracy, "validate_map")):
        real = getattr(module, name)

        def recording(X, *args, real=real):
            seen.append(getattr(X, "source", X))  # validate_map is given the map
            return real(X, *args)

        monkeypatch.setattr(module, name, recording)
    return seen


@pytest.mark.parametrize("order", [2, 3])
def test_the_demo_never_enumerates_the_product(order, monkeypatch):
    seen = _recorded(monkeypatch)
    C = nerve(cyclic_group(order), 4)
    demo = uniqueness_demo(C.sset, C.oracle_degeneracies, C.oracle_degeneracies, 4)
    assert demo.ok and seen
    assert not any(X is demo.result.table.base for X in seen)


def _monoid_edge():
    # the edge (e, id0): e has no right inverse, so C fails its cartesian scan
    p = product(nerve(idempotent_monoid(), 4).sset, nerve(j_groupoid(), 4).sset).right
    p_edge_property(p, SimplexRef(1, 1 * 4 + 0), "cartesian")
    return p.source


def _invalid_run():
    nj = nerve(j_groupoid(), 3)
    p = product(_invalid_z2(), nj.sset).right
    with pytest.raises(ParseError, match="input set fails validation"):
        synthesize_relative(SynthesisInput(p.source, p=p, Y_deg=nj.oracle_degeneracies))
    return p.source


@pytest.mark.parametrize("case", [_monoid_edge, _invalid_run])
def test_each_fallback_reads_the_product(case, monkeypatch):
    seen = _recorded(monkeypatch)
    X = case()
    assert any(Z is X for Z in seen)


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
        # a loaded set holds its face data, its content hash, its validate pass and no slot
        # index or edge array
        assert not [name for name, value in vars(X).items()
                    if name not in ("dim", "cells", "_faces", "_hash", "_valid") and value]
    # a loaded table holds its base and its levels, and no reverse lookup
    assert not [name for name, value in vars(tables[0]).items()
                if name not in ("base", "_s") and value]
    with pytest.raises(AssertionError, match="horn index"):
        check_inner(bundle.sset, 2)


def test_synthesis_fills_without_a_slot_index(monkeypatch):
    # the engine fills a level from the set's lowest-filler tables, which no slot
    # index builds, so after a run the set holds no top-level slot index; the
    # checks before it stop below
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
    """J at D4, L2@D3, and Z/2 x J over J at D3, as files."""
    nj, nj3 = nerve(j_groupoid(), 4), nerve(j_groupoid(), 3)
    bundle = product(nerve(cyclic_group(2), 3).sset, nj3.sset)
    payloads = {"j": nj.sset.to_json_dict(), "l2": loop_coskeleton(2, 3).to_json_dict(),
                "z2xj": bundle.sset.to_json_dict(),
                "map": bundle.right.to_json_dict(), "j3": nj3.sset.to_json_dict(),
                "ydeg": nj3.oracle_degeneracies.to_json_dict()}
    files = {}
    for name, payload in payloads.items():
        files[name] = str(tmp_path / f"{name}.json")
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    return files


LIFT_COMMANDS = {
    # the rule decides every shape of J, and of Z/2 x J and J over the unmarked map that
    # synthesize-rel reads, so their checks and fills build no table; no face pair tells
    # L2's simplices apart, so every shape of L2 that a command reads builds its table once
    "edges": lambda f: ["edges", f["l2"], "--property", "equivalence"],
    "addendum-s0": lambda f: ["addendum-s0", f["j"]],
    "synthesize": lambda f: ["synthesize", f["j"]],
    "synthesize-l2": lambda f: ["synthesize", f["l2"]],
    "synthesize-rel": lambda f: ["synthesize-rel", f["z2xj"], "--map", f["map"],
                                 "--target", f["j3"], "--ydeg", f["ydeg"]],
}


@pytest.mark.parametrize("command", sorted(LIFT_COMMANDS))
def test_a_command_builds_each_lift_test_once(tmp_path, monkeypatch, command):
    # J has two vertices and four edges and L2 one vertex and two loops, so every
    # command checks more than one edge
    from degenforge import horn
    built = []
    lift_keys = horn._lift_keys

    def recording(X, p, n, k):
        built.append((id(X), id(p), n, k))
        return lift_keys(X, p, n, k)

    monkeypatch.setattr(horn, "_lift_keys", recording)
    assert run(LIFT_COMMANDS[command](_lift_files(tmp_path)))[0] == 0
    counts = Counter(built)
    # addendum-s0 reads one table per shape in its Kan scan and its edge checks
    assert max(counts.values(), default=1) == 1, counts
    assert bool(built) == (command in {"addendum-s0", "edges", "synthesize-l2"}), counts


@pytest.mark.parametrize("argv", [["addendum-s0"], ["check", "--kan"], ["edges"]],
                         ids=["addendum-s0", "check-kan", "edges"])
def test_a_shape_count_builds_no_second_realized_set(tmp_path, monkeypatch, argv):
    # no face pair tells the simplices of L2@D3 apart, so each shape takes the
    # ordered scan, whose lift test reads the shape's realized set once
    from degenforge import horn
    path = tmp_path / "l2.sset"
    path.write_text(json.dumps(loop_coskeleton(2, 3).to_json_dict()))
    keys = []
    lift_keys = horn._lift_keys

    def recording_keys(X, p, n, k):
        keys.append((n, k))
        return lift_keys(X, p, n, k)

    monkeypatch.setattr(horn, "_lift_keys", recording_keys)
    code, report = run([*argv, str(path)])
    assert code == 0, report
    assert keys and len(set(keys)) == len(keys), keys
    if argv != ["edges"]:
        # the Kan scan read every shape's realized set
        assert set(keys) == {(n, k) for n in range(1, 4) for k in range(n + 1)}


def _marked_run():
    """Z/2 x J over J at D4, the projection marked with its factor Z/2."""
    nj = nerve(j_groupoid(), 4)
    C = nerve(cyclic_group(2), 4).sset
    return C, product(C, nj.sset).right, nj.oracle_degeneracies


@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "relative"])
def test_a_second_run_on_the_same_set_builds_no_table(monkeypatch, relative):
    from degenforge import horn
    if relative:
        _, p, Y_deg = _marked_run()
        inp = SynthesisInput(p.source, p=p, Y_deg=Y_deg)
    else:
        inp = SynthesisInput(nerve(cyclic_group(2), 5).sset)
    first = synthesize(inp)
    built = []
    lift_keys = horn._lift_keys

    def recording(X, p, n, k):
        built.append((n, k))
        return lift_keys(X, p, n, k)

    monkeypatch.setattr(horn, "_lift_keys", recording)
    second = synthesize(inp)
    assert built == []
    assert (second.table, second.certificate.to_json()) == (first.table, first.certificate.to_json())


def test_tables_over_a_map_are_kept_on_the_map(monkeypatch):
    # unmarked, every shape is decided by the spanning pair on both sets, so the inner-fibration
    # scan and the edge scans over the map run no lift test, build no index of the target's
    # horns and make no frontier step, and the engine fills every shape from X's pair tables,
    # kept on X, so no lowest-filler table is built over p or on X; marked, the engine fills
    # C's part of each row by the same rule, from C's pair tables
    from degenforge import horn
    C, p, Y_deg = _marked_run()
    unmarked = SemisimplicialMap(p.source, p.target, p.levels)
    X = unmarked.source
    assert validate_map(unmarked).ok
    assert all(horn._decided(X, unmarked, n, k) for n in range(2, 5) for k in range(n + 1))
    calls = Counter()
    lift_test, step = horn._lift_test, horn._step

    def recording_lift_test(X, q, n, k):
        calls["lift tests"] += q is not None
        return lift_test(X, q, n, k)

    def recording_step(*args, **kwargs):
        calls["steps"] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(horn, "_lift_test", recording_lift_test)
    monkeypatch.setattr(horn, "_step", recording_step)
    assert check_inner_fibration(unmarked, 4).ok
    for e in range(X.cells[1]):
        for prop in ("cartesian", "cocartesian"):
            assert p_edge_property(unmarked, SimplexRef(1, e), prop, 4).result
    assert calls == Counter() and not unmarked._over and not unmarked._lowest
    synthesize_relative(SynthesisInput(X, p=unmarked, Y_deg=Y_deg))
    assert calls == Counter() and not unmarked._over
    assert not unmarked._lowest and not X._lowest
    assert all(X._separated.get((n, horn._pair(n, k))) for n in range(2, 5) for k in range(n + 1))
    synthesize_relative(SynthesisInput(p.source, p=p, Y_deg=Y_deg))
    assert not C._lowest and not p.source._lowest and not p._lowest
    assert all(C._separated.get((n, horn._pair(n, k))) for n in range(2, 5) for k in range(n + 1))


S0_RUNS = {
    "Z/2@D5": (lambda: cyclic_group(2), 5),
    "Z/3@D4": (lambda: cyclic_group(3), 4),
    "Z/5@D5": (lambda: cyclic_group(5), 5),
    "monoid@D4": (idempotent_monoid, 4),
}


@pytest.mark.parametrize("name", sorted(S0_RUNS))
def test_the_s0_checks_build_no_table_and_the_engine_builds_each_once(monkeypatch, name):
    # on a validated group nerve the spanning pair decides every edge scan of the s0
    # resolution and every shape the engine fills from, so the run builds no lowest-filler
    # table and makes no frontier step. The rule leaves some edge shapes of the {1, e}
    # monoid undecided: the s0 checks scan them in order and build their tables, the
    # engine's fills of the undecided shapes read those again, and no table is built twice
    from degenforge import degeneracy, horn
    make, dim = S0_RUNS[name]
    X = nerve(make(), dim).sset
    in_s0, read, built, steps = [], set(), Counter(), Counter()
    resolve, canonical_fill = degeneracy._resolve_s0_absolute, degeneracy._Engine._canonical_fill
    lift_keys, step = horn._lift_keys, horn._step
    in_checks: set = set()

    def recording_resolve(*args):
        steps["resolutions"] += 1
        in_s0.append(True)
        try:
            return resolve(*args)
        finally:
            in_s0.pop()

    def recording_fill(engine, m, k, *args):
        read.add((m, k))
        return canonical_fill(engine, m, k, *args)

    def recording_keys(Z, p, n, k):
        built[n, k] += 1
        if in_s0:
            in_checks.add((n, k))
        return lift_keys(Z, p, n, k)

    def recording_step(*args, **kwargs):
        steps[bool(in_s0)] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(degeneracy, "_resolve_s0_absolute", recording_resolve)
    monkeypatch.setattr(degeneracy._Engine, "_canonical_fill", recording_fill)
    monkeypatch.setattr(horn, "_lift_keys", recording_keys)
    monkeypatch.setattr(horn, "_step", recording_step)
    synthesize(SynthesisInput(X), dim)
    undecided = {shape for shape in read if not horn._decided(X, None, *shape)}
    assert steps["resolutions"] == 1 and set(built.values()) <= {1} and set(built) == set(X._lowest)
    assert undecided <= set(built)
    if name == "monoid@D4":
        assert undecided == {(2, 2), (3, 0), (3, 3)} and set(built) == in_checks == undecided | {(2, 0)}
    else:
        assert not undecided and not built and not steps[True]


def test_a_kan_set_has_only_equivalences():
    # the cartesian (cocartesian) horns of an edge are (n, n) ((n, 0)) horns, so where
    # the Kan scan passes at a bound every edge is an equivalence at it: addendum_s0
    # reads its edges off filled horns and checks none of them again
    kan = []  # the sets that pass the Kan scan at their own dimension
    for name, make in sorted(VERDICT_SETS.items()):
        X = make()
        for D in range(1, X.dim + 1):
            if check_kan(X, D).ok:
                assert all(is_equivalence(X, SimplexRef(1, e), D).result for e in range(X.cells[1])), (name, D)
                kan += [name] if D == X.dim else []
    assert {"J", "Z/2", "Z/2xJ", "L2@D4"} <= set(kan)
