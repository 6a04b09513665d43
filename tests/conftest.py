"""Shared fixtures: nerve bundles of the standard categories, naive oracles, drawn categories, relabeling.

The oracles here are deliberately dumb (full scans, direct enumeration) so
that they stay independent of the code paths they check.
"""

from __future__ import annotations

import random
import runpy
from pathlib import Path

import pytest
from hypothesis import strategies as st

from degenforge import (
    Arrow,
    CategoryPresentation,
    DegeneracyTable,
    SemisimplicialSet,
    cyclic_group,
    idempotent_monoid,
    j_groupoid,
    nerve,
    poset_01,
    poset_category,
    product_category,
    simplex_category,
)


# the demo script, which imports nothing from tests/, builds its own loop coskeleton
DEMO = runpy.run_path(str(Path(__file__).resolve().parent.parent / "scripts" / "run_demo.py"),
                      run_name="run_demo")


def relabeled(X: SemisimplicialSet, rng: random.Random):
    """X with every level permuted, and ``perm``: ``perm[n][old] = new``."""
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
    return SemisimplicialSet(X.cells, faces), perm


def pulled_back(table: DegeneracyTable, X: SemisimplicialSet, perm) -> DegeneracyTable:
    """A table of X relabeled by ``perm``, read on X."""
    back = [{new: old for old, new in enumerate(level)} for level in perm]
    out = DegeneracyTable(X)
    for k, n, j, v in table.entries():
        out.set_value(k, n, back[n][j], back[n + 1][v])
    return out


@pytest.fixture(scope="session")
def n2():
    return nerve(cyclic_group(2), 5)


@pytest.fixture(scope="session")
def n3():
    return nerve(cyclic_group(3), 5)


@pytest.fixture(scope="session")
def z2z2():
    return nerve(product_category(cyclic_group(2), cyclic_group(2)), 4)


@pytest.fixture(scope="session")
def nm():
    return nerve(idempotent_monoid(), 5)


@pytest.fixture(scope="session")
def np01():
    return nerve(poset_01(), 5)


@pytest.fixture(scope="session")
def nsq():
    return nerve(product_category(poset_01(), poset_01()), 5)


@pytest.fixture(scope="session")
def nj():
    return nerve(j_groupoid(), 5)


@pytest.fixture(scope="session")
def terminal():
    return nerve(cyclic_group(1), 5)


@pytest.fixture(scope="session")
def deltas():
    return {n: nerve(simplex_category(n), 4) for n in range(4)}


def naive_fillers(X: SemisimplicialSet, horn) -> list[int]:
    """Full scan over all candidate simplices; the reference for fillers()."""
    out = []
    for z in range(X.cells[horn.n]):
        if all(X.face_index(horn.n, z, i) == v for i, v in horn.items()):
            out.append(z)
    return out


@st.composite
def preorders(draw):
    """A preorder on at most three elements, as a unital category."""
    size = draw(st.integers(min_value=1, max_value=3))
    rel = [[i == j for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(size):
            if i != j:
                rel[i][j] = draw(st.booleans())
    for k in range(size):
        for i in range(size):
            for j in range(size):
                rel[i][j] = rel[i][j] or (rel[i][k] and rel[k][j])
    return poset_category([str(i) for i in range(size)], lambda x, y: rel[x][y])


def permutation_group(generators) -> CategoryPresentation:
    """The group that the permutations ``generators`` generate, as a one-object category."""
    elements = [tuple(range(len(generators[0])))]  # the identity first
    index = {elements[0]: 0}
    for g in elements:  # grows as the closure finds new products
        for s in generators:
            h = tuple(g[i] for i in s)
            if h not in index:
                index[h] = len(elements)
                elements.append(h)
    arrows = [Arrow(str(e), 0, 0) for e in elements]
    # (g, f) -> g after f
    compose = {(a, b): index[tuple(g[i] for i in f)]
               for a, g in enumerate(elements) for b, f in enumerate(elements)}
    return CategoryPresentation(["*"], arrows, compose, {0: 0})


# a preorder, a cyclic group of order at most 4, the product of two of these,
# or the group that two permutations of at most 4 points generate
factors = st.one_of(preorders(), st.integers(min_value=1, max_value=4).map(cyclic_group))
permutation_groups = st.integers(min_value=1, max_value=4).flatmap(
    lambda points: st.lists(st.permutations(range(points)), min_size=2, max_size=2)).map(permutation_group)
drawn_categories = st.one_of(factors, permutation_groups, st.builds(product_category, factors, factors))
