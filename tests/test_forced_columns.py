"""Forced values by columns, against the per-simplex references.

The engine decides the simplices of a level that may be forced, its head,
by columns: each representation of s_N (step 1) or s_N s_N (step 2) is
gathered over the head at once. On every head simplex of every level, the
column must hold the value that the per-simplex references give:
``forced_value`` in step 1, and the engine's own one-simplex ``_forced`` in
both steps, which also counts the same consistency checks. The runs are
the benchmark's relative ones (the uniqueness demo on relabeled Z/2 and
Z/3 at D5, and the run on relabeled Z/2 x J over J), the two-table demo
on the loop coskeleton L2@D4, and the demo on drawn C x J.

Where a level fails, the error is the one the per-simplex loop raised, at
its simplex: the first head position in level order whose representations
disagree, or that has none and no filler.
"""

import random
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    ConsistencyViolation,
    GoodSystem,
    SemisimplicialMap,
    SimplexRef,
    SynthesisInput,
    cyclic_group,
    forced_value,
    j_groupoid,
    nerve,
    product,
    synthesize,
    uniqueness_demo,
)
from degenforge.degeneracy import _Engine
from conftest import drawn_categories as categories, relabeled
from test_drawn_categories import _chains, _relabeled
from test_loop_coskeleta import coskeleton_table, loop_coskeleton

TOP_CELLS = 1000  # the most top-level simplices of a drawn C x J


@contextmanager
def compared(heads: list):
    """Check each head column against the per-simplex references; record each head's size."""
    forced_head = _Engine._forced_head

    def checking(engine, N, step, n, members, head, images, values):
        before = engine.stats["consistency_checks"]
        decided, failure = forced_head(engine, N, step, n, members, head, images, values)
        checks = engine.stats["consistency_checks"] - before
        engine.stats["consistency_checks"] = before
        A_data = None if engine.A is None else (engine.A, engine.Adeg)
        for position, j in enumerate(head[:failure]):
            want = engine._forced(N, step, n, j, j in images)
            assert decided[position] == want, (N, step, n, j)
            if step == 1:
                value = forced_value(GoodSystem(engine.table, N - 1), A_data, SimplexRef(n, j), N)
                assert want == (None if value is None else value.index), (N, n, j)
        if failure is None:
            assert engine.stats["consistency_checks"] - before == checks
        heads.append(len(head))
        return decided, failure

    with mock.patch.object(_Engine, "_forced_head", checking):
        yield


def test_the_benchmarks_relative_runs_force_what_the_references_force():
    rng = random.Random(4101)
    heads: list = []
    with compared(heads):
        for order in (2, 3):
            C, oracle, _ = _relabeled(nerve(cyclic_group(order), 5), rng)
            uniqueness_demo(C, oracle, oracle, 5)
        # relabeled Z/2 x J over J, unmarked, as a map read from a file
        nj = nerve(j_groupoid(), 5)
        bundle = product(nerve(cyclic_group(2), 5).sset, nj.sset)
        X, perm = relabeled(bundle.sset, rng)
        levels = [[None] * len(level) for level in bundle.right.levels]
        for n, level in enumerate(bundle.right.levels):
            for j, y in enumerate(level):
                levels[n][perm[n][j]] = y
        p = SemisimplicialMap(X, nj.sset, levels)
        synthesize(SynthesisInput(X, p=p, Y_deg=nj.oracle_degeneracies), 5)
    assert sum(heads) > 1000


def test_the_two_table_demo_on_a_loop_coskeleton_forces_what_the_references_force():
    heads: list = []
    with compared(heads):
        demo = uniqueness_demo(loop_coskeleton(2, 4), coskeleton_table(1, 2, 4, [0]),
                               coskeleton_table(1, 2, 4, [1]), 4)
    assert demo.ok and sum(heads) > 0


@settings(max_examples=25, deadline=None)
@given(categories, st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False))
def test_the_demo_on_a_drawn_category_forces_what_the_references_force(category, dim, rng):
    J = j_groupoid()
    while dim > 2 and _chains(category, dim) * _chains(J, dim) > TOP_CELLS:
        dim -= 1
    if _chains(category, dim) * _chains(J, dim) > TOP_CELLS:
        return
    C, oracle, _ = _relabeled(nerve(category, dim), rng)
    with compared([]):
        uniqueness_demo(C, oracle, oracle, dim)


# -- a failing level: the first failure in level order is the one raised


def _level_of_the_demo(N: int, step: int, n: int):
    """The engine of the demo on Z/2 x J at D4 just before it decides level (N, step, n), and its arguments."""
    level = _Engine._level
    found = {}

    class Stop(Exception):
        pass

    def stopping(engine, *args):
        if args[:3] == (N, step, n):
            found["engine"], found["args"] = engine, list(args)
            raise Stop
        return level(engine, *args)

    b = nerve(cyclic_group(2), 4)
    with mock.patch.object(_Engine, "_level", stopping), pytest.raises(Stop):
        uniqueness_demo(b.sset, b.oracle_degeneracies, b.oracle_degeneracies, 4)
    engine = found["engine"]
    engine.Adeg = engine.Adeg.copy()
    return engine, found["args"]


def _raised(engine, args) -> tuple:
    with pytest.raises(ConsistencyViolation) as caught:
        _Engine._level(engine, *args)
    return str(caught.value), caught.value.simplex


# Level 2 of stage 1, step 1: its head is the members 0, 2, 8, 10, 16, 18, 24 and 26 of the
# subcomplex, then the other degeneracy images 1, 3, 9 and 11. The members 0 to 10 have two
# representations, the subcomplex table and s_0 s_0 d_0; 16 to 26 have the table's only.
DISAGREES = "representations of s_1 at (2, 2) disagree: [('subcomplex', 6), ('degenerate:s_0', 4)]"
UNFILLED_24 = "needed degeneracy value undefined while prescribing face 0 of the extension horn at (2,24)"


@pytest.mark.parametrize("tamper, raised", [
    ({2: 6}, (DISAGREES, (2, 2))),
    ({24: None}, (UNFILLED_24, (2, 24))),
    # an early disagreement and a later unfillable simplex: the disagreement
    ({2: 6, 24: None}, (DISAGREES, (2, 2))),
    ({10: 16, 2: 6, 24: None}, (DISAGREES, (2, 2))),
], ids=["disagreement", "unfillable", "disagreement-first", "two-disagreements"])
def test_a_tampered_subcomplex_table_raises_the_first_failure_in_level_order(tamper, raised):
    engine, args = _level_of_the_demo(1, 1, 2)
    level = list(engine.Adeg.level(1, 2))
    columns = [list(column) for column in args[3]]
    for j, value in tamper.items():
        level[j] = value
        if value is None:
            columns[0][j] = None  # no subcomplex value and no filler: the horn misses a face
    engine.Adeg.set_level(1, 2, level)
    args[3] = columns
    assert _raised(engine, args) == raised
