"""The spanning-pair rule of the horn scans, against the enumerator.

On a set that ``validate`` has passed, ``horn._spanned`` decides an (n, k)
shape, n >= 2, from its first and last faces (a, b): where faces (a, b) tell
the n-simplices apart, slots (a, b-1) tell the (n-1)-simplices apart (for
n > 2), and the compatible pairs (x_a, x_b) number c_n, the shape has c_n
horns and every one fills. For every shape the rule decides on a drawn set,
the enumerator must list exactly c_n horns, each a key of the shape's
``_lowest`` table. Every other shape takes the ordered scan.

The drawn sets are nerves of the categories of ``test_drawn_categories.py``,
the 1-coskeleta of ``test_loop_coskeleta.py``, and face-closed subsets of
both: each simplex is dropped with a drawn chance, and so is every simplex
with a dropped face; or besides, the top level keeps one simplex of those
that agree at two drawn face positions, which meets the rule's first test.

A structural test pins where the rule runs: after ``validate``, the inner
scan of Z/3 at D5 and the edge verdicts of Z/6 at D5 make no frontier step
at all; the Kan scan of the ``{1, e}`` monoid steps only in the ordered
scans of the shapes it reaches and the rule does not decide, and still
names the ordered scan's witness; and a copy that ``validate`` has not
passed never reaches the rule.

An edge's restricted scans answer a shape that the rule decides from the
spanning pair: on the same drawn sets, after ``validate``, every edge's
``edge_property`` and ``is_equivalence`` verdict and witness, and the
``checked`` of each of its restricted scans, must be those of the ordered
scans of a copy that has not passed. Those answers make no frontier step
and build no table on Z/6 at D5, and the rule's decisions are kept on the
set: a synthesis on J x J x J at D4 asks the rule about the same shapes
once per vertex and reads its face columns once.

The engine fills a shape that the rule decides on X from the table of its
spanning pair, over the point and over an unmarked map: faces (a, b) of a
row name the one simplex that can fill it. On relabeled nerves that
``validate`` has passed, and on relabeled unmarked projections that
``validate_map`` has passed, every fill of drawn rows must be the row's
value in the shape's ``_lowest`` table, which the fill does not build: rows
of simplices, rows with an undefined face, rows of drawn faces, most of
them incompatible, and rows whose faces (a, b) name a simplex while another
face differs; over a map, each with the image of the simplex that its
faces (a, b) name or a drawn target. Over the right projection of the
product of two drawn nerves, which ``product`` marks with its left factor
C, the engine fills C's part of a row by C's own rule: the rows of every
shape, each with the image of its simplex or a drawn target, must fill as
in ``_lowest`` of an unmarked copy, and a shape that the rule decides on C
builds no table of C.
"""

import random
from collections import Counter
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenforge import (
    Horn,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    SynthesisInput,
    check_inner,
    check_kan,
    cyclic_group,
    edge_property,
    edge_verdicts,
    idempotent_monoid,
    is_equivalence,
    j_groupoid,
    nerve,
    product,
    product_category,
    synthesize,
    validate,
    validate_map,
)
from degenforge import horn as horn_module
from degenforge.degeneracy import _Engine
from degenforge.horn import (
    _decided,
    _edge_scans,
    _face_columns,
    _lowest,
    _pair,
    _positions,
    _scan,
    _spanned,
    compatibility_failures,
)
from conftest import drawn_categories as categories, relabeled
from test_counted_lifts import _drawn, _unmarked
from test_drawn_categories import BASES, _chains
from test_loop_coskeleta import coskeleton

TOP_CELLS = 400  # the most top-level simplices a drawn nerve may have
COSKELETON_CELLS = 1100  # and a drawn coskeleton


def _face_closed(X: SemisimplicialSet, rng, chance: float, thin: bool) -> SemisimplicialSet:
    """X without each simplex dropped with ``chance`` and every simplex with a dropped face.

    With ``thin``, the top level keeps only one simplex, drawn, of those with
    the same faces at two drawn positions.
    """
    kept: list[dict[int, int]] = [{j: j2 for j2, j in enumerate(j for j in range(X.cells[0])
                                                           if rng.random() >= chance)}]
    faces = []
    for n in range(1, X.dim + 1):
        level, below = {}, kept[-1]
        for j in range(X.cells[n]):
            row = X.faces_of(n, j)
            if rng.random() >= chance and all(v in below for v in row):
                level[j] = [below[v] for v in row]
        if thin and n == X.dim:
            a, b = sorted(rng.sample(range(n + 1), 2))
            classes: dict[tuple[int, int], list[int]] = {}
            for j, row in level.items():
                classes.setdefault((row[a], row[b]), []).append(j)
            level = {j: level[j] for j in sorted(map(rng.choice, classes.values()))}
        kept.append({j: t for t, j in enumerate(level)})
        faces.append(list(level.values()))
    return SemisimplicialSet([len(level) for level in kept], faces)


def _decided_shapes_fill(X: SemisimplicialSet) -> int:
    """Check every shape the rule decides on X; the number of decided shapes."""
    assert validate(X).ok
    decided = 0
    for n in range(2, X.dim + 1):
        for k in range(n + 1):
            if X.cells[n - 1] and _spanned(X, n, _pair(n, k)):
                decided += 1
                rows = list(zip(*_face_columns(X, n, k)))
                assert len(rows) == X.cells[n], (n, k)
                realized = _lowest(X, None, n, k)
                assert all(row in realized for row in rows), (n, k)
    return decided


@settings(max_examples=60, deadline=None)
@given(categories, st.integers(min_value=2, max_value=4), st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       st.booleans(), st.randoms(use_true_random=False))
def test_decided_shapes_of_drawn_nerves_fill(category, dim, chance, thin, rng):
    while dim > 2 and _chains(category, dim) > TOP_CELLS:
        dim -= 1
    if _chains(category, dim) > TOP_CELLS:
        return
    _decided_shapes_fill(_face_closed(nerve(category, dim).sset, rng, chance, thin))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=4), st.sampled_from([0.0, 0.05, 0.2, 0.5]), st.booleans(),
       st.randoms(use_true_random=False))
# two thinned sets that the rule decides wrongly without its first test, and without its second
@example(1, 2, 2, 0.0, True, random.Random(1))
@example(1, 2, 3, 0.0, True, random.Random(0))
def test_decided_shapes_of_drawn_coskeleta_fill(vertices, edges, dim, chance, thin, rng):
    while dim > 2 and vertices ** (dim + 1) * edges ** (dim * (dim + 1) // 2) > COSKELETON_CELLS:
        dim -= 1
    _decided_shapes_fill(_face_closed(coskeleton(vertices, edges, dim), rng, chance, thin))


def test_the_rule_decides_every_shape_of_a_group_nerve():
    assert _decided_shapes_fill(nerve(cyclic_group(3), 4).sset) == sum(n + 1 for n in range(2, 5))


def _stepping():
    """A patch of ``horn._step`` that records each call, and the list it records in."""
    calls = []
    step = horn_module._step

    def recording(*args, **kwargs):
        calls.append(args[3])
        return step(*args, **kwargs)

    return mock.patch.object(horn_module, "_step", recording), calls


def _copy(X: SemisimplicialSet) -> SemisimplicialSet:
    return SemisimplicialSet.from_json_dict(X.to_json_dict())


def test_validated_group_nerves_are_scanned_without_a_frontier_step():
    Z3, Z6 = nerve(cyclic_group(3), 5).sset, nerve(cyclic_group(6), 5).sset
    assert validate(Z3).ok and validate(Z6).ok
    patch, calls = _stepping()
    with patch:
        assert check_inner(Z3, 5).ok
        assert all(verdict.result for verdict in edge_verdicts(Z6, "equivalence", 5))
    assert calls == []


def test_a_failing_kan_shape_still_steps_and_names_the_ordered_witness(monkeypatch):
    # the rule decides no n = 1 shape and, of level 2, only (2, 1); (2, 2) fails first, so
    # no frontier step is made for (2, 0) nor outside the ordered scans of (1, 1), (1, 0), (2, 2)
    M = nerve(idempotent_monoid(), 5).sset
    ordered = check_kan(_copy(M), 5)
    assert validate(M).ok
    shape, steps = [None], Counter()
    face_columns, step = horn_module._face_columns, horn_module._step

    def recording_columns(X, n, k, *args, **kwargs):
        shape[0] = n, k
        try:
            return face_columns(X, n, k, *args, **kwargs)
        finally:
            shape[0] = None

    def recording_step(*args, **kwargs):
        steps[shape[0]] += 1
        return step(*args, **kwargs)

    monkeypatch.setattr(horn_module, "_face_columns", recording_columns)
    monkeypatch.setattr(horn_module, "_step", recording_step)
    verdict = check_kan(M, 5)
    assert steps == Counter({(1, 1): 1, (1, 0): 1, (2, 2): 2})
    assert not verdict.ok and verdict.checked == 5
    assert verdict.to_json_dict() == ordered.to_json_dict()


def test_a_copy_that_has_not_passed_validate_never_reaches_the_rule():
    X = _copy(nerve(cyclic_group(3), 4).sset)
    assert not X._valid
    with mock.patch.object(horn_module, "_spanned", side_effect=AssertionError("rule reached")):
        assert check_inner(X, 4).ok and check_kan(X, 4).ok
        assert all(verdict.result for verdict in edge_verdicts(X, "equivalence", 4))


def _edge_answers(X: SemisimplicialSet) -> list:
    """Per edge: both edge properties, the equivalence, and ``_scan`` of each restricted scan."""
    answers = []
    for e in range(X.cells[1]):
        f = SimplexRef(1, e)
        answers.append([edge_property(X, f, "cartesian").to_json_dict(),
                        edge_property(X, f, "cocartesian").to_json_dict(),
                        is_equivalence(X, f).to_json_dict(),
                        *(_scan(X, None, [scan]) for prop in ("cartesian", "cocartesian")
                          for scan in _edge_scans(f, prop, X.dim))])
    return answers


def _edge_scans_agree(X: SemisimplicialSet) -> None:
    ordered = _copy(X)
    assert validate(X).ok and not ordered._valid
    assert _edge_answers(X) == _edge_answers(ordered)


@settings(max_examples=40, deadline=None)
@given(categories, st.integers(min_value=2, max_value=4), st.sampled_from([0.0, 0.05, 0.2, 0.5]),
       st.booleans(), st.randoms(use_true_random=False))
def test_restricted_edge_scans_of_drawn_nerves_match_the_ordered_scans(category, dim, chance, thin, rng):
    while dim > 2 and _chains(category, dim) > TOP_CELLS:
        dim -= 1
    if _chains(category, dim) > TOP_CELLS:
        return
    _edge_scans_agree(_face_closed(nerve(category, dim).sset, rng, chance, thin))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=4), st.sampled_from([0.0, 0.05, 0.2, 0.5]), st.booleans(),
       st.randoms(use_true_random=False))
# the two thinned sets that the rule decides wrongly without its first test, and without its second
@example(1, 2, 2, 0.0, True, random.Random(1))
@example(1, 2, 3, 0.0, True, random.Random(0))
def test_restricted_edge_scans_of_drawn_coskeleta_match_the_ordered_scans(vertices, edges, dim, chance,
                                                                          thin, rng):
    while dim > 2 and vertices ** (dim + 1) * edges ** (dim * (dim + 1) // 2) > COSKELETON_CELLS:
        dim -= 1
    _edge_scans_agree(_face_closed(coskeleton(vertices, edges, dim), rng, chance, thin))


def test_the_edge_scans_of_a_validated_group_nerve_step_no_frontier_and_build_no_table():
    Z6 = nerve(cyclic_group(6), 5).sset
    assert validate(Z6).ok
    patch, calls = _stepping()
    with patch:
        assert all(is_equivalence(Z6, SimplexRef(1, e), 5).result for e in range(Z6.cells[1]))
    assert calls == [] and Z6._lowest == {}


def test_the_rule_reads_its_columns_once_per_shape_over_a_synthesis(monkeypatch):
    # J x J x J has 8 vertices, so the s0 resolution asks about the same edge shapes 8 times
    X = nerve(product_category(j_groupoid(), product_category(j_groupoid(), j_groupoid())), 4).sset
    asked, passes, reading = Counter(), Counter(), []
    spanned, face_column = horn_module._spanned, SemisimplicialSet.face_column

    def recording_spanned(Z, n, pair):
        asked[n, pair] += 1
        reading.append((n, pair))
        try:
            return spanned(Z, n, pair)
        finally:
            reading.pop()

    def recording_column(Z, n, i):
        if reading and Z is X:
            passes[reading[-1], asked[reading[-1]]] += 1
        return face_column(Z, n, i)

    monkeypatch.setattr(horn_module, "_spanned", recording_spanned)
    monkeypatch.setattr(SemisimplicialSet, "face_column", recording_column)
    synthesize(SynthesisInput(X), 4)
    assert max(asked.values()) >= X.cells[0]
    # every column pass of a shape's rule is made on the first time it is asked
    assert passes and {call for (_, call) in passes} == {1}


def _drawn_rows(X: SemisimplicialSet, n: int, k: int, rng, draws: int = 12) -> dict:
    """Rows of (n, k) horns of X, each with the simplex whose row it is, or None.

    Every simplex's row, and for up to ``draws`` drawn simplices: the row with
    one face undefined, a row of drawn faces, and where the horn has a face
    between its first and last, the row with that face changed.
    """
    positions, below = _positions(n, k), X.cells[n - 1]
    rows = {tuple(X.faces_of(n, z)[i] for i in positions): z for z in range(X.cells[n])}
    for row in rng.sample(sorted(rows), min(draws, len(rows))):
        t = rng.randrange(n)
        rows.setdefault(row[:t] + (None,) + row[t + 1:], None)
        rows.setdefault(tuple(rng.randrange(below) for _ in row), None)
        if n > 2 and below > 1:
            t = rng.randrange(1, n - 1)
            rows.setdefault(row[:t] + ((row[t] + rng.randrange(1, below)) % below,) + row[t + 1:], None)
    order = list(rows)
    rng.shuffle(order)
    return {row: rows[row] for row in order}


def _kinds(X: SemisimplicialSet, n: int, k: int, rows) -> set:
    """Which of the drawn kinds of row ``rows`` holds."""
    pair = horn_module._separates(X, n, _pair(n, k)) or {}
    kinds = set()
    for row, z in rows.items():
        if z is not None:
            kinds.add("simplex")
        elif None in row:
            kinds.add("undefined")
        elif (row[0], row[-1]) in pair:
            kinds.add("pair names a simplex")
        if None not in row and compatibility_failures(X, Horn(n, k, tuple(zip(_positions(n, k), row)))):
            kinds.add("incompatible")
    return kinds


def _pair_fills_agree(X: SemisimplicialSet, p, rng) -> set:
    """Drawn rows of every shape the rule decides on X, filled by the engine over the point, or over
    the map p with drawn targets, against ``_lowest``; the kinds of row drawn. Over a projection
    marked with its factor C, the rows of every shape, against ``_lowest`` of an unmarked copy."""
    engine, kinds = _Engine(SynthesisInput(X, p=p), X.dim), set()
    C = None if p is None else p.factor
    if C is not None:
        unmarked = SemisimplicialMap(X, p.target, p.levels)
        assert validate_map(unmarked).ok
    for n in range(2, X.dim + 1):
        for k in range(n + 1):
            if C is None and not _decided(X, None, n, k):
                continue
            rows = _drawn_rows(X, n, k, rng)
            kinds |= _kinds(X, n, k, rows)
            columns = [[row[t] for row in rows] for t in range(n)]
            if p is None:
                filled = engine._canonical_fill(n, k, columns, None)
                assert (n, k) not in X._lowest
                assert filled == list(map(_lowest(X, None, n, k).get, rows)), (n, k)
                continue
            # the image of the simplex that names the row (its own, or over p unmarked the one
            # that faces (a, b) name), or a drawn target
            named = rows.values() if C is not None else map(
                horn_module._separates(X, n, _pair(n, k)).get, ((row[0], row[-1]) for row in rows))
            targets = [p.levels[n][z] if z is not None and rng.random() < 0.5
                       else rng.randrange(p.target.cells[n]) for z in named]
            filled = engine._canonical_fill(n, k, columns, targets)
            assert (n, k) not in p._lowest and (n, k) not in X._lowest
            if C is not None:
                # C's part of a row is filled by C's own rule: a decided shape builds no table
                assert not _decided(C, None, n, k) or (n, k) not in C._lowest
            lowest = _lowest(X, p if C is None else unmarked, n, k)
            assert filled == [lowest.get((*row, y)) for row, y in zip(rows, targets)], (n, k)
    return kinds


@settings(max_examples=40, deadline=None)
@given(categories, st.integers(min_value=2, max_value=4), st.sampled_from([0.0, 0.05, 0.2]),
       st.booleans(), st.randoms(use_true_random=False))
def test_pair_fills_of_drawn_nerves_are_the_lowest_fillers(category, dim, chance, thin, rng):
    while dim > 2 and _chains(category, dim) > TOP_CELLS:
        dim -= 1
    if _chains(category, dim) > TOP_CELLS:
        return
    X = _face_closed(relabeled(nerve(category, dim).sset, rng)[0], rng, chance, thin)
    assert validate(X).ok
    _pair_fills_agree(X, None, rng)


@settings(max_examples=30, deadline=None)
@given(categories, st.sampled_from(["J", *sorted(BASES)]), st.integers(min_value=2, max_value=3),
       st.sets(st.integers(min_value=0, max_value=600), max_size=2), st.randoms(use_true_random=False))
def test_pair_fills_over_drawn_unmarked_maps_are_the_lowest_lifts(category, base, dim, drop, rng):
    bundle, dim = _drawn(category, base, dim)
    if bundle is None:
        return
    X, Y, levels = _unmarked(bundle, dim, True, drop, rng)
    p = SemisimplicialMap(X, Y, levels)
    assert validate(X).ok and validate(Y).ok and validate_map(p).ok
    _pair_fills_agree(X, p, rng)


@settings(max_examples=30, deadline=None)
@given(categories, st.sampled_from(["J", *sorted(BASES)]), st.integers(min_value=2, max_value=3),
       st.randoms(use_true_random=False))
def test_pair_fills_over_drawn_marked_projections_are_the_lowest_lifts(category, base, dim, rng):
    bundle, dim = _drawn(category, base, dim)
    if bundle is None:
        return
    assert bundle.right.factor is not None
    _pair_fills_agree(bundle.sset, bundle.right, rng)


def test_the_drawn_rows_hold_every_kind():
    # the draws that the properties above rest on, on one relabeled nerve and one map
    rng = random.Random(0)
    X = relabeled(nerve(cyclic_group(3), 4).sset, rng)[0]
    assert validate(X).ok
    everything = {"simplex", "undefined", "incompatible", "pair names a simplex"}
    assert _pair_fills_agree(X, None, rng) == everything
    bundle = product(nerve(cyclic_group(2), 3).sset, nerve(j_groupoid(), 3).sset)
    X, Y, levels = _unmarked(bundle, 3, True, set(), rng)
    p = SemisimplicialMap(X, Y, levels)
    assert validate(X).ok and validate(Y).ok and validate_map(p).ok
    assert _pair_fills_agree(X, p, rng) == everything
    assert _pair_fills_agree(bundle.sset, bundle.right, rng) == everything
