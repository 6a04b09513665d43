"""Counted inner-fibration verdicts over a map, against two references.

Over a map p that ``validate_map`` has passed, from a set that ``validate``
has passed, ``check_inner_fibration`` counts each level's lifting problems
and scans in order only a shape whose counts differ. Its verdict, horn
count, witness horn and target must be those of:

- the same map before ``validate_map``, which takes the ordered scan of
  every shape;
- a naive count: ``compatible_horns``, and for each horn a scan of every
  target simplex over its image, which must be the image of one of the
  horn's ``fillers``.

The maps are right projections C x Y -> Y of drawn nerves, marked with C and
unmarked, over J and over the bases of ``test_drawn_categories.py`` (two of
them have an empty level), relabeled or not, and with some top simplices of
the source dropped so that lifts fail. Two maps pin the two counts that a
verdict rests on: a horn over a target horn with two fillers weighs two
problems, and where two faces do not tell the source's simplices apart the
realized pairs are counted with their images.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    check_inner_fibration,
    compatible_horns,
    fillers,
    j_groupoid,
    nerve,
    product,
    validate,
    validate_map,
)
from degenforge import horn as horn_module
from degenforge.horn import HornVerdict, LiftFailure
from conftest import drawn_categories as categories, relabeled
from test_drawn_categories import BASES, _chains
from test_loop_coskeleta import loop_coskeleton

TOP_CELLS = 600  # the most top-level simplices a drawn source may have


def naive_fibration(p: SemisimplicialMap, D: int) -> HornVerdict:
    """Every compatible inner horn, every target simplex over its image, in the scans' order."""
    X, Y = p.source, p.target
    bound = min(D, p.depth)
    checked = 0
    for n in range(2, bound + 1):
        for k in range(n - 1, 0, -1):
            for horn in compatible_horns(X, n, k):
                checked += 1
                image = [(i, p.levels[n - 1][v]) for i, v in horn.faces]
                lifted = {p.levels[n][z.index] for z in fillers(X, horn)}
                for y in range(Y.cells[n]):
                    if y not in lifted and all(Y.face_index(n, y, i) == v for i, v in image):
                        return HornVerdict(False, bound, LiftFailure(horn, SimplexRef(n, y)), checked)
    return HornVerdict(True, bound, None, checked)


def _counted(p: SemisimplicialMap, D: int) -> tuple[HornVerdict, int]:
    """The verdict over a map that ``validate_map`` has passed, and the number of ordered scans it took."""
    assert p.source._valid and validate_map(p).ok
    scans = []
    face_columns = horn_module._face_columns

    def recording(*args, **kwargs):
        scans.append(args[1:3])
        return face_columns(*args, **kwargs)

    with mock.patch.object(horn_module, "_face_columns", recording):
        verdict = check_inner_fibration(p, D)
    return verdict, len(scans)


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
    verdict, scans = _counted(SemisimplicialMap(X, Y, levels), D)
    assert verdict == want
    if verdict.ok:
        assert scans == 0  # every shape was answered by its counts
    return verdict


@settings(max_examples=40, deadline=None)
@given(categories, st.sampled_from(["J", *sorted(BASES)]), st.integers(min_value=2, max_value=3),
       st.booleans(), st.sets(st.integers(min_value=0, max_value=TOP_CELLS), max_size=3),
       st.randoms(use_true_random=False))
def test_counted_lifts_agree_with_the_ordered_scan_and_a_naive_count(category, base, dim, relabel,
                                                                     drop, rng):
    B = j_groupoid() if base == "J" else BASES[base]
    while dim > 2 and _chains(category, dim) * _chains(B, dim) > TOP_CELLS:
        dim -= 1
    if _chains(category, dim) * _chains(B, dim) > TOP_CELLS:
        return
    bundle = product(nerve(category, dim).sset, nerve(B, dim).sset)
    p = bundle.right
    if not drop and not relabel:
        # marked with its factor, as product builds it
        assert check_inner_fibration(p, dim) == _check_both_references(p.source, p.target, p.levels, dim)
        return
    X, Y, levels = bundle.sset, p.target, p.levels
    if relabel:
        X, Y, levels = _relabeled_map(X, Y, levels, rng)
    if drop:
        X, levels = _dropped(X, levels, {j % X.cells[dim] for j in drop} if X.cells[dim] else set())
    _check_both_references(X, Y, levels, dim)


def test_a_horn_over_a_target_horn_with_two_fillers_weighs_two():
    # the point into the loop coskeleton L2, onto the loop 0: the (2,1) horn of the point lies
    # over the horn of L2 whose edges 01 and 12 are loop 0, and its filler lies over one of the
    # two 2-simplices that fill it, so one horn, one realized pair and two lifting problems;
    # the one missed is 2, whose edge 02 is loop 1
    X, Y = loop_coskeleton(1, 3), loop_coskeleton(2, 3)
    verdict = _check_both_references(X, Y, [[0] * c for c in X.cells], 3)
    assert not verdict.ok and verdict.witness.target == SimplexRef(2, 2)


def test_realized_pairs_are_counted_with_their_images():
    # L2 x L2 over L2, unmarked: faces 0 and 2 of a 2-simplex miss its edge 02, so they do not
    # tell the 2-simplices apart, and two simplices with one horn lie over two targets
    bundle = product(loop_coskeleton(2, 3), loop_coskeleton(2, 3))
    X, p = bundle.sset, bundle.right
    assert len(set(zip(X.face_column(2, 0), X.face_column(2, 2)))) < X.cells[2]
    verdict = _check_both_references(X, p.target, p.levels, 3)
    assert verdict.ok and verdict.checked == sum(
        sum(1 for _ in compatible_horns(X, n, k)) for n in (2, 3) for k in range(1, n))


def test_a_source_with_an_empty_level_counts_nothing_there():
    # nothing composes in the one-arrow category, so the product's level 2 is empty
    bundle = product(nerve(j_groupoid(), 3).sset, nerve(BASES["one arrow"], 3).sset)
    assert bundle.sset.cells[2] == 0
    verdict = _check_both_references(bundle.sset, bundle.right.target, bundle.right.levels, 3)
    assert verdict == HornVerdict(True, 3, None, 0)
