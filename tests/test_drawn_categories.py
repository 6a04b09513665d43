"""Synthesis on drawn categories against the identity-insertion oracle.

A drawn category is a preorder, a cyclic group of order at most 4, or the
product of two of these. Its nerve is taken at D = 2..4, capped so that the
top level stays small, and every level is relabeled by a drawn permutation,
as the benchmark's fixtures are. ``synthesize`` must return exactly the
relabeled oracle table and its s_0, and the files that ``synthesize --out
--cert`` writes must replay through ``verify --cert``.
"""

import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    DegeneracyTable,
    SemisimplicialSet,
    SynthesisInput,
    cyclic_group,
    nerve,
    product_category,
    synthesize,
)
from degenforge.cli import run
from conftest import preorders

TOP_CELLS = 1500  # the most top-level simplices a drawn nerve may have

factors = st.one_of(preorders(), st.integers(min_value=1, max_value=4).map(cyclic_group))
categories = st.one_of(factors, st.builds(product_category, factors, factors))


def _chains(category, n: int) -> int:
    """The number of n-simplices of the nerve: composable strings of n arrows."""
    ends = [1] * len(category.objects)  # strings ending at each object
    for _ in range(n):
        counts = [0] * len(ends)
        for arrow in category.arrows:
            counts[arrow.tgt] += ends[arrow.src]
        ends = counts
    return sum(ends)


def _relabeled(bundle, rng):
    """The nerve and its oracle table with every level permuted; ``perm[n][old] = new``."""
    X = bundle.sset
    perm = []
    for count in X.cells:
        perm.append(list(range(count)))
        rng.shuffle(perm[-1])
    faces = []
    for n in range(1, X.dim + 1):
        level = [None] * X.cells[n]
        for j in range(X.cells[n]):
            level[perm[n][j]] = [perm[n - 1][v] for v in X.faces_of(n, j)]
        faces.append(level)
    Y = SemisimplicialSet(X.cells, faces)
    oracle = DegeneracyTable(Y)
    for k, n, j, v in bundle.oracle_degeneracies.entries():
        oracle.set_value(k, n, perm[n][j], perm[n + 1][v])
    return Y, oracle


@settings(max_examples=60, deadline=None)
@given(categories, st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False))
def test_synthesis_on_a_drawn_category_is_the_relabeled_oracle(category, dim, rng):
    while dim > 2 and _chains(category, dim) > TOP_CELLS:
        dim -= 1
    X, oracle = _relabeled(nerve(category, dim), rng)
    result = synthesize(SynthesisInput(X), dim)
    assert result.table == oracle.restricted(dim - 2)
    assert result.s0 == {v: oracle.value(0, 0, v) for v in range(X.cells[0])}
    with tempfile.TemporaryDirectory() as tmp:
        sset, table, cert = (str(pathlib.Path(tmp) / name) for name in ("x.sset", "t.json", "c.json"))
        pathlib.Path(sset).write_text(json.dumps(X.to_json_dict()))
        code, report = run(["synthesize", sset, "--out", table, "--cert", cert])
        assert (code, report["outputs"]) == (0, [table, cert]), report
        code, report = run(["verify", sset, table, "--cert", cert])
        assert (code, report["verdict"]) == (0, "pass"), report
        assert report["detail"]["replayed_records"] == len(json.loads(pathlib.Path(cert).read_text()))
