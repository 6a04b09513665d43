"""``Subcomplex.validate`` by columns names what the row walk named.

``Subcomplex.validate`` checks a whole level at once and walks its rows only
when it fails. The walk below is the per-member definition it replaced. On
drawn subcomplexes that are not face-closed, the columnar check must list the
same violations in the same order, and ``synthesize`` must raise the same
``IncompatibleSubcomplexStructure`` text, which quotes the first three.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    IncompatibleSubcomplexStructure,
    Subcomplex,
    SynthesisInput,
    cyclic_group,
    idempotent_monoid,
    j_groupoid,
    nerve,
    product,
    synthesize,
)
from test_loop_coskeleta import loop_coskeleton

DEPTH = 3


def _validate_by_rows(A: Subcomplex) -> tuple:
    """Ranges plus closure, member by member in each level's frozenset order."""
    violations = []
    checked = 0
    for n, level in enumerate(A.members):
        for j in level:
            checked += 1
            if not 0 <= j < A.ambient.cells[n]:
                violations.append(("range", n, j))
            elif n >= 1:
                for i in range(n + 1):
                    checked += 1
                    if A.ambient.face_index(n, j, i) not in A.members[n - 1]:
                        violations.append(("closure", n, j, i))
    return not violations, checked, violations


AMBIENTS = {
    "Z/2xJ": lambda: product(nerve(cyclic_group(2), DEPTH).sset, nerve(j_groupoid(), DEPTH).sset).sset,
    "monoid": lambda: nerve(idempotent_monoid(), DEPTH).sset,
    "L2": lambda: loop_coskeleton(2, DEPTH),
}


@pytest.fixture(scope="module")
def ambients():
    return {name: build() for name, build in AMBIENTS.items()}


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(AMBIENTS)), st.integers(min_value=0))
def test_subcomplex_validate_lists_the_row_walks_violations(ambients, name, seed):
    X, rng = ambients[name], random.Random(seed)
    # the face closure of a few drawn simplices, then members dropped, added and out of range
    members = [set() for _ in X.cells]
    for n in range(X.dim, -1, -1):
        members[n] |= {j for j in range(X.cells[n]) if rng.random() < 0.1}
        if n:
            members[n - 1] |= {X.face_index(n, j, i) for j in members[n] for i in range(n + 1)}
    for n, level in enumerate(members):
        level -= {j for j in level if rng.random() < 0.05}
        level |= {rng.randrange(X.cells[n]) for _ in range(rng.randrange(3))}
        if rng.random() < 0.1:
            level.add(rng.choice([-1, -300, X.cells[n], X.cells[n] + 257]))
    A = Subcomplex(X, members)
    report = A.validate()
    assert (report.ok, report.checked, report.violations) == _validate_by_rows(A)
    if not report.ok:
        with pytest.raises(IncompatibleSubcomplexStructure) as caught:
            synthesize(SynthesisInput(X, A=A), DEPTH)
        assert str(caught.value) == f"subcomplex is not face-closed: {_validate_by_rows(A)[2][:3]}"
