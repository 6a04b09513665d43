"""Synthesis on drawn categories against the identity-insertion oracle.

A drawn category is a preorder, a cyclic group of order at most 4, the
product of two of these, or the group that two drawn permutations of at most
4 points generate. Its nerve is taken at D = 2..4, capped so that the top
level stays small, and every level is relabeled by a drawn permutation, as
the benchmark's fixtures are. ``synthesize`` must return exactly the
relabeled oracle table and its s_0, the files that ``synthesize --out
--cert`` writes must replay through ``verify --cert``, and ``edges
--property equivalence`` must give every edge the verdict of
``equivalence_criterion`` on its arrow.

Over the two-object groupoid J, the nerve is taken again at the highest D
at which C x J stays within the same cap. The right projection of C x J
must get the verdict of its unmarked full scan, pass exactly when C passes
the inner scan, and count the product of the two factors' horns; and
``demo-uniqueness`` with the oracle on both ends must return the product of
the C and J oracle tables.

Over nerves beyond J, with an empty level or with an edge that is no
n-simplex's last or first edge, the right projection of C x Y must give
``check_inner_fibration`` and every edge's ``p_edge_property`` exactly the
verdicts, counts and witnesses of its unmarked copy.
"""

import json
import pathlib
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    DegeneracyTable,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    SynthesisInput,
    check_inner,
    check_inner_fibration,
    compatible_horns,
    equivalence_criterion,
    j_groupoid,
    nerve,
    one_arrow_category,
    p_edge_property,
    product,
    simplex_category,
    synthesize,
    uniqueness_demo,
    validate_map,
)
from degenforge.cli import run
from conftest import drawn_categories as categories, relabeled

TOP_CELLS = 1500  # the most top-level simplices a drawn nerve may have


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
    """The nerve, its oracle table and ``perm``, every level permuted: ``perm[n][old] = new``."""
    Y, perm = relabeled(bundle.sset, rng)
    oracle = DegeneracyTable(Y)
    for k, n, j, v in bundle.oracle_degeneracies.entries():
        oracle.set_value(k, n, perm[n][j], perm[n + 1][v])
    return Y, oracle, perm


@settings(max_examples=60, deadline=None)
@given(categories, st.integers(min_value=2, max_value=4), st.randoms(use_true_random=False))
def test_synthesis_on_a_drawn_category_is_the_relabeled_oracle(category, dim, rng):
    while dim > 2 and _chains(category, dim) > TOP_CELLS:
        dim -= 1
    bundle = nerve(category, dim)
    X, oracle, perm = _relabeled(bundle, rng)
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
        code, report = run(["edges", sset, "--property", "equivalence"])
        expected = [None] * X.cells[1]
        for j in range(X.cells[1]):
            expected[perm[1][j]] = equivalence_criterion(category, bundle.chain(1, j)[0])
        assert (code, report["verdict"]) == ((0, "yes") if all(expected) else (1, "no")), report
        assert [(e["edge"], e["result"]) for e in report["edges"]] == list(enumerate(expected))
    J = j_groupoid()
    while dim > 2 and _chains(category, dim) * _chains(J, dim) > TOP_CELLS:
        dim -= 1
    if _chains(category, dim) * _chains(J, dim) <= TOP_CELLS:
        _check_over_j(*_relabeled(nerve(category, dim), rng)[:2], nerve(J, dim), dim)


def _horns(X: SemisimplicialSet, n: int, k: int) -> int:
    return sum(1 for _ in compatible_horns(X, n, k))


def _check_over_j(C, oracle, nj, dim):
    bundle = product(C, nj.sset)
    p = bundle.right
    verdict = check_inner_fibration(p, dim)
    assert verdict == check_inner_fibration(SemisimplicialMap(p.source, p.target, p.levels), dim)
    assert verdict.ok == check_inner(C, dim).ok
    assert verdict.checked == sum(_horns(C, n, k) * _horns(nj.sset, n, k)
                                  for n in range(2, dim + 1) for k in range(1, n))
    demo = uniqueness_demo(C, oracle, oracle, dim)
    expected = DegeneracyTable(bundle.sset)
    for k, n, c, v in oracle.restricted(dim - 2).entries():
        for e in range(nj.sset.cells[n]):
            expected.set_value(k, n, bundle.pair_index(n, c, e),
                               bundle.pair_index(n + 1, v, nj.oracle_degeneracies.value(k, n, e)))
    assert demo.result.table == expected


# bases over which C x Y can pass although C fails: nothing composes in the first two,
# so level 2 is empty, and the composite 0<2 of simplex_category(2) is no 2-simplex's
# last or first edge (its level 3 is empty)
BASES = {"one arrow": one_arrow_category(), "simplex(1)": simplex_category(1),
         "simplex(2)": simplex_category(2)}


@settings(max_examples=30, deadline=None)
@given(categories, st.sampled_from(sorted(BASES)), st.integers(min_value=2, max_value=3),
       st.randoms(use_true_random=False))
def test_a_marked_projection_onto_a_drawn_base_agrees_with_its_unmarked_copy(category, base, dim, rng):
    while dim > 2 and _chains(category, dim) > TOP_CELLS:
        dim -= 1
    C = _relabeled(nerve(category, dim), rng)[0]
    p = product(C, nerve(BASES[base], dim).sset).right
    # an unmarked copy without a pass is scanned in order; one that validate_map has passed
    # answers the shapes that the spanning pair decides on both sets from the rule
    unmarked, validated = (SemisimplicialMap(p.source, p.target, p.levels) for _ in range(2))
    assert p.source._valid and p.target._valid and validate_map(validated).ok
    verdict = check_inner_fibration(p, dim)
    assert verdict == check_inner_fibration(unmarked, dim) == check_inner_fibration(validated, dim)
    for e in range(p.source.cells[1]):
        for prop in ("cartesian", "cocartesian"):
            f = SimplexRef(1, e)
            verdict = p_edge_property(p, f, prop, dim)
            assert verdict == p_edge_property(unmarked, f, prop, dim), (e, prop)
            assert verdict == p_edge_property(validated, f, prop, dim), (e, prop)
