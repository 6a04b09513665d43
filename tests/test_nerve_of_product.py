"""The nerve of a product category against the product of the two nerves.

Both constructions are built independently: ``nerve(product_category(A, B))``
enumerates chains of pair arrows, and ``product(nerve(A), nerve(B))`` pairs
the factors' simplices row-major. Sending a chain of pair arrows to
``index_of(A-chain) * c_n(B) + index_of(B-chain)`` must be a bijection on
every level that carries each face of the one set to the same face of the
other, and, when both categories are unital, the product nerve's
identity-insertion table to the pair of the two factors' tables.
"""

import pytest
from hypothesis import assume, given, settings

from degenforge import (
    cyclic_group,
    j_groupoid,
    nerve,
    one_arrow_category,
    poset_01,
    product,
    product_category,
    simplex_category,
)
from conftest import drawn_categories

TOP_CELLS = 2000  # the most top-level simplices a compared nerve may have
MAX_ARROWS = 100  # checking associativity takes the cube of the arrow count


def _depth(C) -> int:
    """The highest D in 1..4 at which C's nerve has at most TOP_CELLS top simplices, else 1."""
    ends = [1] * len(C.objects)  # composable strings of d arrows ending at each object
    depth = 1
    for d in range(1, 5):
        counts = [0] * len(ends)
        for arrow in C.arrows:
            counts[arrow.tgt] += ends[arrow.src]
        if sum(counts) > TOP_CELLS:
            break
        ends, depth = counts, d
    return depth


def _pairing(whole, left, right, n: int) -> list[int]:
    """Per n-simplex of the product category's nerve, its index in the product of the nerves."""
    if n == 0:  # the object (a, b) is a * c_0(B) + b in both
        return list(range(whole.sset.cells[0]))
    width, cells = len(right.category.arrows), right.sset.cells[n]
    return [left.index_of(n, tuple(a // width for a in ch)) * cells
            + right.index_of(n, tuple(a % width for a in ch)) for ch in whole.chains[n]]


def _assert_nerve_of_product_is_product_of_nerves(A, B) -> None:
    C = product_category(A, B)
    D = _depth(C)
    whole, left, right = nerve(C, D), nerve(A, D), nerve(B, D)
    X, Z = whole.sset, product(left.sset, right.sset).sset
    assert X.cells == Z.cells
    phi = [_pairing(whole, left, right, n) for n in range(D + 1)]
    for n, level in enumerate(phi):
        assert sorted(level) == list(range(Z.cells[n]))
    for n in range(1, D + 1):
        for i in range(n + 1):
            faces = Z.face_column(n, i)
            assert [faces[y] for y in phi[n]] == [phi[n - 1][x] for x in X.face_column(n, i)]
    if not (A.unital and B.unital):
        assert whole.oracle_degeneracies is None
        return
    oracle, ends = whole.oracle_degeneracies, (left.oracle_degeneracies, right.oracle_degeneracies)
    assert sorted(oracle.domain()) == sorted(ends[0].domain()) == sorted(ends[1].domain())
    for k, n in oracle.domain():
        width, above = right.sset.cells[n], right.sset.cells[n + 1]
        paired = []
        for y in phi[n]:
            a, b = divmod(y, width)
            paired.append(ends[0].value(k, n, a) * above + ends[1].value(k, n, b))
        assert [phi[n + 1][v] for v in oracle.level(k, n)] == paired


@settings(max_examples=60, deadline=None)
@given(drawn_categories, drawn_categories)
def test_the_nerve_of_a_drawn_product_is_the_product_of_the_nerves(left, right):
    assume(len(left.arrows) * len(right.arrows) <= MAX_ARROWS)
    _assert_nerve_of_product_is_product_of_nerves(left, right)


@pytest.mark.parametrize("left, right", [
    (cyclic_group(2), j_groupoid()),
    (cyclic_group(2), poset_01()),
    (simplex_category(2), cyclic_group(2)),
    (one_arrow_category(), j_groupoid()),
    (simplex_category(1), simplex_category(2)),
], ids=["z2xj", "z2xposet01", "delta2xz2", "arrowxj", "delta1xdelta2"])
def test_the_nerve_of_a_fixed_product_is_the_product_of_the_nerves(left, right):
    _assert_nerve_of_product_is_product_of_nerves(left, right)
