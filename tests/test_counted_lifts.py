"""Inner-fibration and edge verdicts over a map, against two references.

Over a map p that ``validate_map`` has passed, from a set that ``validate``
has passed into one that it has passed, a shape that the spanning pair
decides on both sets passes with no ordered scan, and every other shape is
scanned in order. The verdicts of ``check_inner_fibration`` (verdict, horn
count, witness horn and target) and of ``p_edge_property`` must be those of:

- the same map before ``validate_map``, which takes the ordered scan of
  every shape;
- a naive count: ``compatible_horns``, and for each horn a scan of every
  target simplex over its image, which must be the image of one of the
  horn's ``fillers``.

The maps are right projections C x Y -> Y of drawn nerves, marked with C and
unmarked, over J and over the bases of ``test_drawn_categories.py`` (two of
them have an empty level), relabeled or not, and with some top simplices of
the source dropped so that lifts fail. Pinned maps show what the rule rests
on: a horn over a target horn with two fillers has two lifting problems, so
the rule needs the target's spanning pair too; where two faces do not tell
the source's simplices apart the shape is not decided and is scanned in
order, and the same projection marked with its factor counts the target's
undecided shapes by the enumerator and gives the same verdict and count;
and a map into a target without a pass never reaches the rule.
"""

from typing import Optional
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    check_inner_fibration,
    compatible_horns,
    cyclic_group,
    fillers,
    j_groupoid,
    nerve,
    p_edge_property,
    product,
    validate,
    validate_map,
)
from degenforge import horn as horn_module
from degenforge.horn import EdgeVerdict, HornVerdict, LiftFailure
from conftest import drawn_categories as categories, relabeled
from test_drawn_categories import BASES, _chains
from test_loop_coskeleta import loop_coskeleton

TOP_CELLS = 600  # the most top-level simplices a drawn source may have


def _missed(p: SemisimplicialMap, horn) -> Optional[int]:
    """The first target simplex over the horn's image that is not the image of one of its fillers."""
    X, Y, n = p.source, p.target, horn.n
    image = [(i, p.levels[n - 1][v]) for i, v in horn.faces]
    lifted = {p.levels[n][z.index] for z in fillers(X, horn)}
    return next((y for y in range(Y.cells[n])
                 if y not in lifted and all(Y.face_index(n, y, i) == v for i, v in image)), None)


def naive_fibration(p: SemisimplicialMap, D: int) -> HornVerdict:
    """Every compatible inner horn, every target simplex over its image, in the scans' order."""
    bound = min(D, p.depth)
    checked = 0
    for n in range(2, bound + 1):
        for k in range(n - 1, 0, -1):
            for horn in compatible_horns(p.source, n, k):
                checked += 1
                y = _missed(p, horn)
                if y is not None:
                    return HornVerdict(False, bound, LiftFailure(horn, SimplexRef(n, y)), checked)
    return HornVerdict(True, bound, None, checked)


def _end_edge(X: SemisimplicialSet, m: int, j: int, property: str) -> int:
    """The last (cartesian) or first (cocartesian) edge of the m-simplex j, by repeated faces."""
    while m > 1:
        j, m = X.face_index(m, j, 0 if property == "cartesian" else m), m - 1
    return j


def naive_edges(p: SemisimplicialMap, D: int, property: str) -> list[EdgeVerdict]:
    """Every edge's relative cartesian (cocartesian) verdict, from one naive pass per shape.

    Cartesian: the right horns (n, n) whose face x_0 has the edge as its last
    edge, in lexicographic order of their faces; cocartesian: the left horns
    (n, 0) whose face x_n has it as its first edge, in lexicographic order of
    their faces from x_n down. An edge's witness is its first horn with a
    target simplex that no filler lies over.
    """
    X = p.source
    bound = min(D, p.depth)
    witness: dict[int, LiftFailure] = {}
    for n in range(2, bound + 1):
        k, face = (n, 0) if property == "cartesian" else (0, n)
        horns = sorted(compatible_horns(X, n, k), key=lambda h: h.faces[::-1] if k == 0 else h.faces)
        for horn in horns:
            e = _end_edge(X, n - 1, horn.face(face), property)
            y = None if e in witness else _missed(p, horn)
            if y is not None:
                witness[e] = LiftFailure(horn, SimplexRef(n, y))
    return [EdgeVerdict(SimplexRef(1, e), property, bound, e not in witness, witness.get(e))
            for e in range(X.cells[1])]


def _recording_scans():
    """A patch of ``horn._face_columns`` that records the (n, k) of each ordered scan, and its list."""
    scans = []
    face_columns = horn_module._face_columns

    def recording(*args, **kwargs):
        scans.append(args[1:3])
        return face_columns(*args, **kwargs)

    return mock.patch.object(horn_module, "_face_columns", recording), scans


def _counted(p: SemisimplicialMap, D: int) -> tuple[HornVerdict, list[tuple[int, int]]]:
    """The verdict over a map that ``validate_map`` has passed, and the shapes it scanned in order."""
    assert p.source._valid and validate_map(p).ok
    patch, scans = _recording_scans()
    with patch:
        verdict = check_inner_fibration(p, D)
    return verdict, scans


def _dropped(X: SemisimplicialSet, levels, drop: set[int]):
    """X without the top simplices in ``drop``, and the map levels restricted to it."""
    kept = [j for j in range(X.cells[X.dim]) if j not in drop]
    faces = [[X.faces_of(n, j) for j in range(X.cells[n])] for n in range(1, X.dim)]
    faces.append([X.faces_of(X.dim, j) for j in kept])
    top = [levels[X.dim][j] for j in kept]
    return SemisimplicialSet([*X.cells[:-1], len(kept)], faces), [*levels[:-1], top]


def _relabeled_map(X: SemisimplicialSet, Y: SemisimplicialSet, levels, rng):
    """X and Y relabeled level by level, with the map levels rewritten to match."""
    X2, px = relabeled(X, rng)
    Y2, py = relabeled(Y, rng)
    out = []
    for n, level in enumerate(levels):
        new = [None] * len(level)
        for j, y in enumerate(level):
            new[px[n][j]] = py[n][y]
        out.append(new)
    return X2, Y2, out


def _check_both_references(X: SemisimplicialSet, Y: SemisimplicialSet, levels, D: int) -> HornVerdict:
    assert validate(X).ok and validate(Y).ok
    ordered = SemisimplicialMap(X, Y, levels)
    want = check_inner_fibration(ordered, D)
    assert want == naive_fibration(ordered, D)
    counted = SemisimplicialMap(X, Y, levels)
    verdict, scans = _counted(counted, D)
    assert verdict == want
    if verdict.ok:
        # one ordered scan for each inner shape that the rule does not decide on both sets
        bound = min(D, counted.depth)
        assert scans == [(n, k) for n in range(2, bound + 1) for k in range(n - 1, 0, -1)
                         if not horn_module._decided(X, counted, n, k)]
    return verdict


def _drawn(category, base: str, dim: int):
    """The product of the category's nerve with the base's, at the highest dimension <= dim that fits."""
    B = j_groupoid() if base == "J" else BASES[base]
    while dim > 2 and _chains(category, dim) * _chains(B, dim) > TOP_CELLS:
        dim -= 1
    if _chains(category, dim) * _chains(B, dim) > TOP_CELLS:
        return None, dim
    return product(nerve(category, dim).sset, nerve(B, dim).sset), dim


def _unmarked(bundle, dim: int, relabel: bool, drop: set[int], rng):
    """The source, target and levels of the bundle's right projection, relabeled and dropped as drawn."""
    X, Y, levels = bundle.sset, bundle.right.target, bundle.right.levels
    if relabel:
        X, Y, levels = _relabeled_map(X, Y, levels, rng)
    if drop:
        X, levels = _dropped(X, levels, {j % X.cells[dim] for j in drop} if X.cells[dim] else set())
    return X, Y, levels


DRAWS = (categories, st.sampled_from(["J", *sorted(BASES)]), st.integers(min_value=2, max_value=3),
         st.booleans(), st.sets(st.integers(min_value=0, max_value=TOP_CELLS), max_size=3),
         st.randoms(use_true_random=False))


@settings(max_examples=40, deadline=None)
@given(*DRAWS)
def test_counted_lifts_agree_with_the_ordered_scan_and_a_naive_count(category, base, dim, relabel,
                                                                     drop, rng):
    bundle, dim = _drawn(category, base, dim)
    if bundle is None:
        return
    p = bundle.right
    if not drop and not relabel:
        # marked with its factor, as product builds it
        assert check_inner_fibration(p, dim) == _check_both_references(p.source, p.target, p.levels, dim)
        return
    _check_both_references(*_unmarked(bundle, dim, relabel, drop, rng), dim)


@settings(max_examples=60, deadline=None)
@given(*DRAWS)
def test_edge_verdicts_over_a_map_agree_with_the_ordered_scan_and_a_naive_scan(category, base, dim,
                                                                               relabel, drop, rng):
    # unmarked maps only: over a map that validate_map has passed, a shape that the rule decides
    # on both sets makes no ordered scan, and every edge's verdict and witness are the references'
    bundle, dim = _drawn(category, base, dim)
    if bundle is None:
        return
    X, Y, levels = _unmarked(bundle, dim, relabel, drop, rng)
    ordered, p = SemisimplicialMap(X, Y, levels), SemisimplicialMap(X, Y, levels)
    assert validate(X).ok and validate(Y).ok and validate_map(p).ok
    patch, scans = _recording_scans()
    for prop in ("cartesian", "cocartesian"):
        want = naive_edges(ordered, dim, prop)
        for e in range(X.cells[1]):
            f = SimplexRef(1, e)
            assert p_edge_property(ordered, f, prop, dim) == want[e], (e, prop)
            with patch:
                assert p_edge_property(p, f, prop, dim) == want[e], (e, prop)
    assert not any(horn_module._decided(X, p, n, k) for n, k in scans)


def test_a_map_into_a_target_without_a_pass_never_reaches_the_rule():
    # Z/2 x J over a copy of J that validate has not passed, whole and with a top simplex
    # dropped: the map passes validate_map, but the rule never looks at the target
    bundle = product(nerve(cyclic_group(2), 4).sset, nerve(j_groupoid(), 4).sset)
    Y = SemisimplicialSet.from_json_dict(bundle.right.target.to_json_dict())
    spanned = horn_module._spanned

    def guarded(S, n, pair):
        assert S is not Y, "the rule reached a target without a pass"
        return spanned(S, n, pair)

    for drop in (set(), {0}):
        X, levels = _dropped(bundle.sset, bundle.right.levels, drop)
        assert validate(X).ok and not Y._valid
        ordered, p = SemisimplicialMap(X, Y, levels), SemisimplicialMap(X, Y, levels)
        assert validate_map(p).ok
        with mock.patch.object(horn_module, "_spanned", guarded):
            assert check_inner_fibration(p, 4) == check_inner_fibration(ordered, 4)
            for e in range(X.cells[1]):
                for prop in ("cartesian", "cocartesian"):
                    f = SimplexRef(1, e)
                    assert p_edge_property(p, f, prop, 4) == p_edge_property(ordered, f, prop, 4)


def test_a_horn_over_a_target_horn_with_two_fillers_weighs_two():
    # the point into the loop coskeleton L2, onto the loop 0: the (2,1) horn of the point lies
    # over the horn of L2 whose edges 01 and 12 are loop 0, and its filler lies over one of the
    # two 2-simplices that fill it, so one horn, one realized pair and two lifting problems;
    # the one missed is 2, whose edge 02 is loop 1
    X, Y = loop_coskeleton(1, 3), loop_coskeleton(2, 3)
    verdict = _check_both_references(X, Y, [[0] * c for c in X.cells], 3)
    assert not verdict.ok and verdict.witness.target == SimplexRef(2, 2)


def test_an_undecided_shape_over_a_map_takes_the_ordered_scan():
    # L2 x L2 over L2, unmarked: faces 0 and 2 of a 2-simplex miss its edge 02, so they do not
    # tell the 2-simplices apart, the rule does not decide (2, 1), and two simplices with one
    # horn lie over two targets; the ordered scan gives the verdict and count of the references
    bundle = product(loop_coskeleton(2, 3), loop_coskeleton(2, 3))
    X, p = bundle.sset, bundle.right
    assert len(set(zip(X.face_column(2, 0), X.face_column(2, 2)))) < X.cells[2]
    counted = SemisimplicialMap(X, p.target, p.levels)
    assert validate_map(counted).ok and not horn_module._decided(X, counted, 2, 1)
    verdict = _check_both_references(X, p.target, p.levels, 3)
    assert verdict.ok and verdict.checked == sum(
        sum(1 for _ in compatible_horns(X, n, k)) for n in (2, 3) for k in range(1, n))
    # marked with its factor L2, the map answers from L2's scan without scanning X, and the
    # target's undecided shapes, which have horns, are counted by the enumerator
    C, Y = p.factor, p.target
    assert C is not None and not horn_module._decided(Y, None, 2, 1)
    assert sum(1 for _ in compatible_horns(Y, 2, 1)) > 0
    enumerated = []
    face_columns = horn_module._face_columns

    def recording(S, n, k, *args, **kwargs):
        enumerated.append((S, n, k))
        return face_columns(S, n, k, *args, **kwargs)

    with mock.patch.object(horn_module, "_face_columns", recording):
        assert check_inner_fibration(p, 3) == verdict
    assert any(S is Y and (n, k) == (2, 1) for S, n, k in enumerated)
    assert all(S is C or S is Y for S, _, _ in enumerated)


def test_a_source_with_an_empty_level_counts_nothing_there():
    # nothing composes in the one-arrow category, so the product's level 2 is empty
    bundle = product(nerve(j_groupoid(), 3).sset, nerve(BASES["one arrow"], 3).sset)
    assert bundle.sset.cells[2] == 0
    verdict = _check_both_references(bundle.sset, bundle.right.target, bundle.right.levels, 3)
    assert verdict == HornVerdict(True, 3, None, 0)
