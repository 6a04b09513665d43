"""The exhaustive checkers against per-entry reference loops.

``validate``, ``validate_map`` and ``verify_simplicial`` check whole levels
at a time; the references below walk every entry with one lookup per face,
the way the identities are written. Reports must agree entry for entry:
verdict, count, per-family counts and every violation in order.
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from degenforge import (
    DegeneracyTable,
    SemisimplicialMap,
    SemisimplicialSet,
    Subcomplex,
    identity_map,
    nerve,
    product,
    validate,
    validate_map,
    verify_simplicial,
)
from degenforge.nerve import (
    cyclic_group,
    idempotent_monoid,
    j_groupoid,
    poset_01,
    product_category,
    simplex_category,
)

CATEGORIES = {
    "z2": lambda: cyclic_group(2),
    "z3": lambda: cyclic_group(3),
    "point": lambda: cyclic_group(1),
    "z2xz2": lambda: product_category(cyclic_group(2), cyclic_group(2)),
    "monoid": idempotent_monoid,
    "poset_01": poset_01,
    "square": lambda: product_category(poset_01(), poset_01()),
    "j": j_groupoid,
    "delta0": lambda: simplex_category(0),
    "delta2": lambda: simplex_category(2),
    "z2xj": lambda: product_category(cyclic_group(2), j_groupoid()),
}


def naive_validate(X: SemisimplicialSet) -> tuple:
    """(ok, checked, violations) from one face lookup per identity term."""
    violations = []
    checked = 0
    for n in range(1, X.dim + 1):
        limit = X.cells[n - 1]
        for j in range(X.cells[n]):
            for i, v in enumerate(X.faces_of(n, j)):
                checked += 1
                if not 0 <= v < limit:
                    violations.append(("range", n, j, i))
    if violations:
        return False, checked, violations
    for n in range(2, X.dim + 1):
        for j in range(X.cells[n]):
            row = X.faces_of(n, j)
            for k in range(1, n + 1):
                for i in range(k):
                    checked += 1
                    if X.face_index(n - 1, row[k], i) != X.face_index(n - 1, row[i], k - 1):
                        violations.append(("face_commutation", n, j, i, k))
    return not violations, checked, violations


def naive_verify(X, table, D=None, *, subcomplex=None, sub_table=None, pmap=None,
                 target_table=None) -> tuple:
    """(ok, checked, violations, by_family) from one table lookup per term."""
    bound = X.dim if D is None else min(D, X.dim)
    found = {"face_degeneracy": [], "degeneracy_degeneracy": [], "restriction": [],
             "projection": []}
    by_family = dict.fromkeys(found, 0)
    restrict = subcomplex is not None and sub_table is not None
    project = pmap is not None and target_table is not None
    for k, n in sorted((k, n) for k, n in table.domain() if n + 1 <= bound):
        for j in range(X.cells[n]):
            v = table.value(k, n, j)
            if v is None:
                continue
            for i in range(n + 2):
                if i < k:
                    want = table.value(k - 1, n - 1, X.face_index(n, j, i))
                elif i <= k + 1:
                    want = j
                else:
                    want = table.value(k, n - 1, X.face_index(n, j, i - 1))
                if want is None:
                    continue
                by_family["face_degeneracy"] += 1
                if X.face_index(n + 1, v, i) != want:
                    found["face_degeneracy"].append(("face_degeneracy", k, n, j, i))
            for i in range(k + 1):
                lhs = table.value(i, n + 1, v)
                sij = table.value(i, n, j)
                rhs = None if sij is None else table.value(k + 1, n + 1, sij)
                if lhs is None or rhs is None:
                    continue
                by_family["degeneracy_degeneracy"] += 1
                if lhs != rhs:
                    found["degeneracy_degeneracy"].append(("degeneracy_degeneracy", k, n, j, i))
            if restrict and subcomplex.contains(n, j):
                want = sub_table.value(k, n, j)
                if want is not None:
                    by_family["restriction"] += 1
                    if v != want or not subcomplex.contains(n + 1, v):
                        found["restriction"].append(("restriction", k, n, j))
            if project:
                want = target_table.value(k, n, pmap.apply_index(n, j))
                if want is not None:
                    by_family["projection"] += 1
                    if pmap.apply_index(n + 1, v) != want:
                        found["projection"].append(("projection", k, n, j))
    violations = [v for family in found.values() for v in family]
    return not violations, sum(by_family.values()), violations, by_family


def naive_validate_map(F: SemisimplicialMap) -> tuple:
    """(ok, checked, violations) from one lookup per value and per face."""
    violations = []
    checked = 0
    for n in range(F.depth + 1):
        for j in range(F.source.cells[n]):
            checked += 1
            if not 0 <= F.apply_index(n, j) < F.target.cells[n]:
                violations.append(("range", n, j))
    if violations:
        return False, checked, violations
    for n in range(1, F.depth + 1):
        for j in range(F.source.cells[n]):
            for i in range(n + 1):
                checked += 1
                lhs = F.apply_index(n - 1, F.source.face_index(n, j, i))
                if lhs != F.target.face_index(n, F.apply_index(n, j), i):
                    violations.append(("face_commutation", n, j, i))
    return not violations, checked, violations


def assert_validate_agrees(X: SemisimplicialSet) -> None:
    report = validate(X)
    assert (report.ok, report.checked, report.violations) == naive_validate(X)


def assert_validate_map_agrees(F: SemisimplicialMap) -> None:
    report = validate_map(F)
    assert (report.ok, report.checked, report.violations) == naive_validate_map(F)


def assert_verify_agrees(X, table, D=None, **maps) -> None:
    report = verify_simplicial(X, table, D, **maps)
    got = (report.ok, report.checked, report.violations, report.by_family)
    assert got == naive_verify(X, table, D, **maps)


def edited(X: SemisimplicialSet, edits) -> SemisimplicialSet:
    """A copy of X with face entries ``(n, j, i) -> value`` replaced."""
    data = X.to_json_dict()
    for (n, j, i), value in edits.items():
        data["faces"][n - 1][j][i] = value
    return SemisimplicialSet.from_json_dict(data)


def random_set(rng: random.Random, dim: int, spread: int) -> SemisimplicialSet:
    """Cell counts 0..3 and face entries drawn from -spread..c + spread - 1."""
    cells = [rng.randint(0, 3)]
    for _ in range(dim):
        cells.append(rng.randint(0, 3) if cells[-1] else 0)
    faces = [[[rng.randrange(-spread, cells[n - 1] + spread) for _ in range(n + 1)]
              for _ in range(cells[n])] for n in range(1, dim + 1)]
    return SemisimplicialSet(cells, faces)


# -- validate --------------------------------------------------------------------


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_validate_matches_the_reference_on_nerves(name, depth):
    X = nerve(CATEGORIES[name](), depth).sset
    assert_validate_agrees(X)
    assert validate(X).ok


@pytest.mark.parametrize("cells, faces", [
    ([0], []),
    ([3], []),
    ([1, 0, 0], [[], []]),
    ([2, 1, 0, 0], [[[0, 1]], [], []]),
    ([1, 1, 1, 1], [[[0, 0]], [[0, 0, 0]], [[0, 0, 0, 0]]]),
    ([2, 1, 1], [[[0, 1]], [[0, 0, 0]]]),
])
def test_validate_matches_the_reference_on_empty_and_single_simplex_levels(cells, faces):
    assert_validate_agrees(SemisimplicialSet(cells, faces))


def test_validate_names_every_out_of_range_entry_in_order():
    X = nerve(cyclic_group(2), 4).sset
    broken = edited(X, {(3, 5, 2): X.cells[2], (2, 1, 0): -1, (3, 5, 0): 99, (4, 0, 4): -3})
    assert_validate_agrees(broken)
    assert validate(broken).violations == [
        ("range", 2, 1, 0), ("range", 3, 5, 0), ("range", 3, 5, 2), ("range", 4, 0, 4)]


@pytest.mark.parametrize("name", ["z2", "z3", "monoid", "j", "delta2", "z2xj"])
def test_validate_matches_the_reference_with_two_faces_of_a_top_simplex_swapped(name):
    X = nerve(CATEGORIES[name](), 4).sset
    for j in range(0, X.cells[4], max(1, X.cells[4] // 7)):
        for a, b in ((1, 2), (0, 4), (2, 3)):
            row = X.faces_of(4, j)
            if row[a] == row[b]:
                continue
            broken = edited(X, {(4, j, a): row[b], (4, j, b): row[a]})
            assert_validate_agrees(broken)
            assert not validate(broken).ok


def test_validate_matches_the_reference_on_random_face_tables():
    rng = random.Random(20261018)
    for trial in range(300):
        X = random_set(rng, rng.randint(1, 4), spread=trial % 2)
        assert_validate_agrees(X)


# -- content hash ------------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(CATEGORIES))
def test_content_hash_is_the_digest_of_the_json_form(name):
    X = nerve(CATEGORIES[name](), 4).sset
    for Y in (X, SemisimplicialSet([1, 0, 0], [[], []]), SemisimplicialSet([2], [])):
        blob = json.dumps(Y.to_json_dict(), sort_keys=True, separators=(",", ":"))
        assert Y.content_hash() == hashlib.sha256(blob.encode("utf-8")).hexdigest()


# -- validate_map ------------------------------------------------------------------


def _functor_map(source, target, arrow_image) -> SemisimplicialMap:
    """The map of nerves induced by a functor into a one-object category."""
    levels = [[0] * source.sset.cells[0]]
    for n in range(1, source.sset.dim + 1):
        levels.append([target.index_of(n, tuple(arrow_image[a] for a in chain))
                       for chain in source.chains[n]])
    return SemisimplicialMap(source.sset, target.sset, levels)


def _maps() -> dict:
    n2, nj, nm = nerve(cyclic_group(2), 4), nerve(j_groupoid(), 4), nerve(idempotent_monoid(), 3)
    point = nerve(cyclic_group(1), 4)
    over_j = product(n2.sset, nj.sset)
    return {
        "z2xj->j": over_j.right,
        "z2xj->z2": over_j.left,
        # J -> Z/2: both identities to 1, both non-identity arrows to g
        "j->z2": _functor_map(nj, n2, {0: 0, 1: 0, 2: 1, 3: 1}),
        "monoid->point": SemisimplicialMap(nm.sset, point.sset, [[0] * c for c in nm.sset.cells]),
        "empty-levels->point": SemisimplicialMap(SemisimplicialSet([1, 0, 0], [[], []]), point.sset,
                                                 [[0], [], []]),
        "z2->z2": identity_map(n2.sset),
    }


@pytest.mark.parametrize("name", sorted(_maps()))
def test_validate_map_matches_the_reference(name):
    F = _maps()[name]
    assert_validate_map_agrees(F)
    assert validate_map(F).ok


@pytest.mark.parametrize("name", ["z2xj->j", "j->z2", "monoid->point", "z2->z2"])
def test_validate_map_matches_the_reference_on_tampered_maps(name):
    F = _maps()[name]
    rng = random.Random(f"tamper:{name}")
    for trial in range(12):
        levels = [list(level) for level in F.levels]
        for _ in range(1 + trial % 3):
            n = rng.randrange(len(levels))
            if levels[n]:
                j = rng.randrange(len(levels[n]))
                spread = 1 if trial % 4 == 3 else 0  # now and then a value outside the target
                levels[n][j] = rng.randrange(-spread, F.target.cells[n] + spread)
        G = SemisimplicialMap(F.source, F.target, levels)
        assert_validate_map_agrees(G)


def test_validate_map_names_every_commutation_failure_in_order():
    n2 = nerve(cyclic_group(2), 4)
    levels = [list(range(c)) for c in n2.sset.cells]
    levels[1][1] = 0  # g to the identity edge, the rest fixed
    levels[3][5] = 2
    F = SemisimplicialMap(n2.sset, n2.sset, levels)
    assert_validate_map_agrees(F)
    report = validate_map(F)
    assert not report.ok and report.violations == sorted(report.violations, key=lambda v: v[1:])


# -- verify_simplicial ---------------------------------------------------------------


def without(table: DegeneracyTable, drop) -> DegeneracyTable:
    """A copy of ``table`` without the entries ``(k, n, j)`` for which ``drop`` holds."""
    out = DegeneracyTable(table.base)
    for k, n, j, v in table.entries():
        if not drop(k, n, j):
            out.set_value(k, n, j, v)
    return out


@pytest.mark.parametrize("name", ["z2", "z3", "monoid", "j", "square", "poset_01"])
def test_verify_matches_the_reference_with_one_entry_tampered(name):
    bundle = nerve(CATEGORIES[name](), 4)
    X, oracle = bundle.sset, bundle.oracle_degeneracies
    assert_verify_agrees(X, oracle, 4)
    entries = list(oracle.entries())
    for k, n, j, v in entries[::max(1, len(entries) // 40)]:
        broken = oracle.copy()
        broken.set_value(k, n, j, (v + 1) % X.cells[n + 1])
        assert_verify_agrees(X, broken, 4)
        assert not verify_simplicial(X, broken, 4).ok


@pytest.mark.parametrize("depth", [3, 4])
@pytest.mark.parametrize("name", sorted(set(CATEGORIES) - {"delta0", "delta2"}))  # unital ones
def test_verify_matches_the_reference_on_loaded_tables(name, depth):
    bundle = nerve(CATEGORIES[name](), depth)
    X, data = bundle.sset, bundle.oracle_degeneracies.to_json_dict()
    loaded = DegeneracyTable.from_json_dict(data, X)
    assert loaded == bundle.oracle_degeneracies and loaded.to_json_dict() == data
    assert_verify_agrees(X, loaded, depth)
    # one entry of the file changed per level
    for k, per_n in enumerate(data["s"]):
        for n, level in enumerate(per_n):
            if level and X.cells[n + 1] > 1:
                tampered = json.loads(json.dumps(data))
                j = (k + 3 * n) % len(level)
                tampered["s"][k][n][j] = (level[j] + 1) % X.cells[n + 1]
                table = DegeneracyTable.from_json_dict(tampered, X)
                assert_verify_agrees(X, table, depth)
                assert not verify_simplicial(X, table, depth).ok


@pytest.mark.parametrize("name", ["z2", "monoid", "j", "z2xz2"])
def test_verify_matches_the_reference_on_partial_tables(name):
    bundle = nerve(CATEGORIES[name](), 4)
    X, oracle = bundle.sset, bundle.oracle_degeneracies
    for drop in (lambda k, n, j: (k, n) == (0, 1),
                 lambda k, n, j: (k, n) == (1, 2),
                 lambda k, n, j: n == 2 and j % 2 == 0,
                 lambda k, n, j: k == 0 and j % 3 == 1):
        partial = without(oracle, drop)
        assert_verify_agrees(X, partial, 4)
        assert verify_simplicial(X, partial, 4).checked < verify_simplicial(X, oracle, 4).checked


def test_verify_matches_the_reference_on_a_level_past_the_top_degeneracy():
    # a table built in code may carry s_{n+1} on n-simplices (a file may not: k <= n);
    # its i = n + 1 face is the only identity term
    bundle = nerve(cyclic_group(2), 4)
    extra = bundle.oracle_degeneracies.copy()
    for n in range(1, 3):
        for j in range(bundle.sset.cells[n]):
            extra.set_value(n + 1, n, j, (3 * j) % bundle.sset.cells[n + 1])
    assert_verify_agrees(bundle.sset, extra, 4)
    assert not verify_simplicial(bundle.sset, extra, 4).ok


@pytest.mark.parametrize("D", [None, 0, 1, 2, 3])
def test_verify_matches_the_reference_below_the_table_top(D):
    bundle = nerve(cyclic_group(3), 4)
    broken = bundle.oracle_degeneracies.copy()
    broken.set_value(1, 2, 4, broken.value(0, 2, 4))
    assert_verify_agrees(bundle.sset, bundle.oracle_degeneracies, D)
    assert_verify_agrees(bundle.sset, broken, D)


def test_verify_matches_the_reference_over_a_map_and_a_subcomplex():
    n2, nj, depth = nerve(cyclic_group(2), 4), nerve(j_groupoid(), 4), 4
    bundle = product(n2.sset, nj.sset)
    X, c_oracle, j_oracle = bundle.sset, n2.oracle_degeneracies, nj.oracle_degeneracies
    table = DegeneracyTable(X)
    for k, n, c, v in c_oracle.entries():
        for e in range(nj.sset.cells[n]):
            table.set_value(k, n, bundle.pair_index(n, c, e),
                            bundle.pair_index(n + 1, v, j_oracle.value(k, n, e)))
    # the subcomplex Z/2 x {constant chains on one object of J}
    constant = [0] + [nj.index_of(n, (0,) * n) for n in range(1, depth + 1)]
    members = [{bundle.pair_index(n, c, constant[n]) for c in range(n2.sset.cells[n])}
               for n in range(depth + 1)]
    A = Subcomplex(X, members)
    A_deg = without(table, lambda k, n, j: j not in members[n])
    maps = dict(subcomplex=A, sub_table=A_deg, pmap=bundle.right, target_table=j_oracle)
    report = verify_simplicial(X, table, depth, **maps)
    assert report.ok and report.by_family["restriction"] and report.by_family["projection"]
    assert_verify_agrees(X, table, depth, **maps)
    # one entry inside the subcomplex and one outside, each moved to another simplex
    inside = max(members[1])
    outside = min(set(range(X.cells[2])) - members[2])
    for k, n, j in ((0, 1, inside), (1, 2, outside), (0, 0, 1)):
        broken = table.copy()
        broken.set_value(k, n, j, (table.value(k, n, j) + 1) % X.cells[n + 1])
        assert_verify_agrees(X, broken, depth, **maps)
        assert not verify_simplicial(X, broken, depth, **maps).ok
    assert_verify_agrees(X, table, 2, **maps)
    assert_verify_agrees(X, without(table, lambda k, n, j: n == 1), depth, **maps)
