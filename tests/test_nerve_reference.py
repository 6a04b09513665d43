"""``nerve`` against the chain calculus, built chain by chain.

The reference here is the definition of the nerve, one chain at a time: the
n-simplices are the composable strings of n arrows in lexicographic order of
arrow indices, d_0 drops the first arrow, d_n drops the last, an inner d_i
composes the arrows at positions i-1 and i, and s_k inserts the identity of
the chain's k-th object at position k. ``nerve`` builds each level from the
one below by columns; its set, chains, every ``index_of`` and its oracle
table must equal the reference for D = 0..5, on drawn categories, on products
of them, and on non-unital categories.
"""

import pytest
from hypothesis import assume, given, settings

from degenforge import (
    DegeneracyTable,
    SemisimplicialSet,
    cyclic_group,
    j_groupoid,
    nerve,
    one_arrow_category,
    product_category,
    simplex_category,
)
from conftest import drawn_categories

TOP_CELLS = 2000  # the most top-level simplices a compared nerve may have
MAX_ARROWS = 100  # the most arrows a drawn product may have


def _chains(C, D: int) -> list[tuple]:
    """The objects, then the composable strings of 1..D arrows, each level in lexicographic order."""
    arrows = C.arrows
    chains = [tuple(range(len(C.objects))), tuple((a,) for a in range(len(arrows)))][:D + 1]
    for _ in range(2, D + 1):
        chains.append(tuple(ch + (a,) for ch in chains[-1] for a in range(len(arrows))
                            if arrows[a].src == arrows[ch[-1]].tgt))
    return chains


def _reference(C, chains: list[tuple]):
    """The set and the identity-insertion table (None when C is non-unital) on ``chains``."""
    arrows, D = C.arrows, len(chains) - 1
    index = [{ch: j for j, ch in enumerate(level)} for level in chains]
    faces = []
    for n in range(1, D + 1):
        rows = []
        for ch in chains[n]:
            if n == 1:
                rows.append([arrows[ch[0]].tgt, arrows[ch[0]].src])
                continue
            inner = [ch[:i - 1] + (C.compose[(ch[i], ch[i - 1])],) + ch[i + 1:] for i in range(1, n)]
            rows.append([index[n - 1][face] for face in [ch[1:], *inner, ch[:-1]]])
        faces.append(rows)
    X = SemisimplicialSet([len(level) for level in chains], faces)
    if not C.unital:
        return X, None
    oracle = DegeneracyTable(X)
    for n in range(D):
        for j, ch in enumerate(chains[n]):
            body = () if n == 0 else ch
            objects = [ch] if n == 0 else [arrows[ch[0]].src] + [arrows[a].tgt for a in ch]
            for k in range(n + 1):
                inserted = body[:k] + (C.identities[objects[k]],) + body[k:]
                oracle.set_value(k, n, j, index[n + 1][inserted])
    return X, oracle


def _assert_is_the_chain_calculus(C) -> None:
    for D in range(6):
        chains = _chains(C, D)
        if len(chains[D]) > TOP_CELLS:
            break
        X, oracle = _reference(C, chains)
        bundle = nerve(C, D)
        assert bundle.sset == X
        assert bundle.chains == tuple(chains)
        for n, level in enumerate(chains):
            assert [bundle.index_of(n, ch) for ch in level] == list(range(len(level)))
        assert bundle.oracle_degeneracies == oracle


@settings(max_examples=60, deadline=None)
@given(drawn_categories)
def test_the_nerve_of_a_drawn_category_is_the_chain_calculus(category):
    _assert_is_the_chain_calculus(category)


@settings(max_examples=30, deadline=None)
@given(drawn_categories, drawn_categories)
def test_the_nerve_of_a_product_of_drawn_categories_is_the_chain_calculus(left, right):
    # checking associativity takes the cube of the arrow count, so the product stays small
    assume(len(left.arrows) * len(right.arrows) <= MAX_ARROWS)
    _assert_is_the_chain_calculus(product_category(left, right))


@pytest.mark.parametrize("category", [
    *(simplex_category(n) for n in range(5)),
    one_arrow_category(),
    product_category(simplex_category(2), cyclic_group(2)),
    product_category(one_arrow_category(), j_groupoid()),
], ids=lambda C: f"{len(C.objects)}obj{len(C.arrows)}arr")
def test_the_nerve_of_a_non_unital_category_is_the_chain_calculus(category):
    assert not category.unital
    _assert_is_the_chain_calculus(category)


def test_the_fixture_nerves_are_the_chain_calculus():
    for category in (cyclic_group(6), product_category(cyclic_group(3), j_groupoid())):
        _assert_is_the_chain_calculus(category)
