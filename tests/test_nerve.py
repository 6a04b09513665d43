"""Nerve generation, fixture categories, oracles, and the two-structure demo."""

import itertools
import math

import pytest

from degenforge import (
    Arrow,
    CategoryPresentation,
    DegeneracyTable,
    InvalidCategory,
    InvalidDegeneracyTable,
    SimplexRef,
    SynthesisInput,
    check_kan,
    cyclic_group,
    equivalence_criterion,
    idempotent_monoid,
    is_equivalence,
    j_groupoid,
    nerve,
    one_arrow_category,
    poset_01,
    product_category,
    simplex_category,
    synthesize,
    uniqueness_demo,
    validate,
    verify_simplicial,
)


def test_group_nerve_cell_counts():
    bundle = nerve(cyclic_group(2), 3)
    assert bundle.sset.cells == (1, 2, 4, 8)


def test_poset_nerve_counts_monotone_tuples():
    bundle = nerve(poset_01(), 3)
    # independent enumeration of order-preserving tuples in {0, 1}
    expected = []
    for n in range(4):
        expected.append(sum(1 for t in itertools.product((0, 1), repeat=n + 1)
                            if all(a <= b for a, b in zip(t, t[1:]))))
    assert list(bundle.sset.cells) == expected


def test_one_arrow_category_nerve():
    bundle = nerve(one_arrow_category(), 3)
    assert bundle.sset.cells == (2, 1, 0, 0)
    assert bundle.oracle_degeneracies is None
    from degenforge import check_inner
    assert check_inner(bundle.sset, 3).ok


def test_simplex_nerve_counts_are_binomial():
    for n in range(4):
        bundle = nerve(simplex_category(n), 4)
        for m in range(5):
            assert bundle.sset.cells[m] == math.comb(n + 1, m + 1)


def test_j_groupoid_nerve(nj):
    assert nerve(j_groupoid(), 2).sset.cells == (2, 4, 8)
    assert check_kan(nj.sset, 4).ok
    for e in range(nj.sset.cells[1]):
        assert is_equivalence(nj.sset, SimplexRef(1, e), 4).result
        assert equivalence_criterion(j_groupoid(), nj.chain(1, e)[0])


def test_oracle_degeneracies_satisfy_identities(n2, nm, np01, nsq, nj):
    for bundle in (n2, nm, np01, nsq, nj):
        assert verify_simplicial(bundle.sset, bundle.oracle_degeneracies).ok


def test_equivalence_criterion_examples():
    assert equivalence_criterion(cyclic_group(2), 1)
    assert not equivalence_criterion(idempotent_monoid(), 1)
    assert equivalence_criterion(idempotent_monoid(), 0)
    assert not equivalence_criterion(poset_01(), 1)


def test_criterion_agrees_with_horn_filling(n2, nm, np01, nj):
    for bundle in (n2, nm, np01, nj):
        for e in range(bundle.sset.cells[1]):
            arrow = bundle.chain(1, e)[0]
            assert (equivalence_criterion(bundle.category, arrow)
                    == is_equivalence(bundle.sset, SimplexRef(1, e), 4).result)


def test_group_nerve_validates_everywhere():
    for order in (1, 2, 3, 4):
        for depth in range(1, 7):
            assert validate(nerve(cyclic_group(order), depth).sset).ok


def test_cell_counts_up_to_depth_six():
    for category, counts in (
        (cyclic_group(2), lambda n: 2 ** n),
        (cyclic_group(3), lambda n: 3 ** n),
        (j_groupoid(), lambda n: 2 ** (n + 1)),
        (poset_01(), lambda n: n + 2),
        (product_category(poset_01(), poset_01()), lambda n: (n + 2) ** 2),
    ):
        bundle = nerve(category, 6)
        assert validate(bundle.sset).ok
        for n in range(7):
            assert bundle.sset.cells[n] == counts(n)


def test_invalid_categories_are_rejected():
    # a composable pair with no composite
    broken = CategoryPresentation(
        ["x", "y", "z"],
        [Arrow("a", 0, 1), Arrow("b", 1, 2)],
        {})
    with pytest.raises(InvalidCategory):
        broken.validate()
    # a closed but non-associative table
    arrows = [Arrow("e", 0, 0), Arrow("a", 0, 0), Arrow("b", 0, 0)]
    compose = {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2,
               (1, 1): 1, (1, 2): 0, (2, 1): 2, (2, 2): 2}
    with pytest.raises(InvalidCategory):
        CategoryPresentation(["*"], arrows, compose).validate()
    # a declared identity that fails its law
    good_monoid = idempotent_monoid()
    with pytest.raises(InvalidCategory):
        CategoryPresentation(good_monoid.objects, good_monoid.arrows,
                             good_monoid.compose, {0: 1}).validate()


def test_category_json_round_trip():
    for category in (cyclic_group(3), j_groupoid(), simplex_category(2)):
        again = CategoryPresentation.from_json_dict(category.to_json_dict())
        again.validate()
        assert nerve(again, 3).sset == nerve(category, 3).sset


def test_uniqueness_demo_on_group(n2):
    table = synthesize(SynthesisInput(n2.sset), 4).table
    demo = uniqueness_demo(n2.sset, table, table, 4)
    assert demo.ok
    assert demo.restriction_checked > 0
    assert demo.projection_checked > 0


def test_uniqueness_demo_on_monoid(nm):
    demo = uniqueness_demo(nm.sset, nm.oracle_degeneracies, nm.oracle_degeneracies, 4)
    assert demo.ok


def test_uniqueness_demo_refuses_a_table_without_degree_0(n2):
    oracle = n2.oracle_degeneracies
    lacking = DegeneracyTable(n2.sset)
    for k, n in oracle.domain() - {(0, 0)}:
        lacking.set_level(k, n, list(oracle.level(k, n)))
    assert verify_simplicial(n2.sset, lacking, 5).ok
    with pytest.raises(InvalidDegeneracyTable, match="^deg1 lacks a degree-0 value at vertex 0$"):
        uniqueness_demo(n2.sset, oracle, lacking, 4)


def test_uniqueness_demo_names_the_first_vertex_without_degree_0(np01):
    oracle = np01.oracle_degeneracies
    gap = oracle.copy()
    gap.set_value(0, 0, 1, None)
    assert verify_simplicial(np01.sset, gap, 5).ok
    with pytest.raises(InvalidDegeneracyTable, match="^deg0 lacks a degree-0 value at vertex 1$"):
        uniqueness_demo(np01.sset, gap, oracle, 4)


def test_uniqueness_demo_rejects_corrupt_table(n2):
    table = synthesize(SynthesisInput(n2.sset), 4).table
    broken = table.copy()
    broken.set_value(0, 1, 1, n2.index_of(2, (1, 1)))
    with pytest.raises(InvalidDegeneracyTable):
        uniqueness_demo(n2.sset, table, broken, 4)
