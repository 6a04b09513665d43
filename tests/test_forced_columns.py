"""Forced values by columns, against per-simplex references.

The engine decides the simplices of every level that may be forced, its
head, by columns, the vertex levels included: each representation of s_N
(step 1) or s_N s_N (step 2) is gathered over the head at once, as a named
column. On every simplex of every level, the representations the columns
hold must be those a per-simplex reference gives: ``forced_value`` in step
1, and in step 2 the rule below, the subcomplex table twice on members and
the table twice on degeneracy images. A simplex outside the head has none.
Each run must count one consistency check per simplex with more than one.
The runs are the benchmark's relative ones (the uniqueness demo on
relabeled Z/2 and Z/3 at D5, and the run on relabeled Z/2 x J over J), the
two-table demo on the loop coskeleton L2@D4, and the demo on drawn C x J.

Where a level fails, the error is the one the per-simplex loop raised, at
its simplex: the first simplex in level order whose representations
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


def _twice(engine, N: int, n: int, j: int, images: set) -> list:
    """The named representations of s_N s_N at (n, j), one simplex at a time."""
    reps = []
    if engine.A is not None and engine.Adeg is not None and engine.A.contains(n, j):
        once = engine.Adeg.value(N, n, j)
        value = None if once is None else engine.Adeg.value(N, n + 1, once)
        if value is not None:
            reps.append(("subcomplex", value))
    if j in images:
        once = engine.table.value(N, n, j)
        value = None if once is None else engine.table.value(N, n + 1, once)
        if value is not None:
            reps.append(("degenerate", value))
    return reps


@contextmanager
def compared(heads: list):
    """Check each level's columns against the per-simplex references; record each head's size."""
    representations = _Engine._representations
    checks: dict = {}  # id(engine) -> [engine, consistency checks its columns hold]

    def checking(engine, N, step, n, members, head, images):
        reps = representations(engine, N, step, n, members, head, images)
        rows = dict.fromkeys(range(engine.X.cells[n]), [])
        for position, j in enumerate(head):
            rows[j] = [(name, column[position]) for name, column in reps if column[position] is not None]
        A_data = None if engine.A is None else (engine.A, engine.Adeg)
        below = {v for i in range(N) for v in engine.table.level(i, n - 1) or ()}
        for j, row in rows.items():
            if step == 1:
                value = forced_value(GoodSystem(engine.table, N - 1), A_data, SimplexRef(n, j), N)
                assert {v for _, v in row} == (set() if value is None else {value.index}), (N, n, j)
            else:
                assert row == _twice(engine, N, n, j, below), (N, n, j)
        checks.setdefault(id(engine), [engine, 0])[1] += sum(len(row) > 1 for row in rows.values())
        heads.append(len(head))
        return reps

    with mock.patch.object(_Engine, "_representations", checking):
        yield
    for engine, count in checks.values():
        assert engine.stats["consistency_checks"] == count


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
