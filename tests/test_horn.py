"""Horn machinery: filler search, condition checkers, edge properties, lifts."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    Horn,
    IncompatibleHorn,
    NotASelfEdge,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    check_inner,
    check_inner_fibration,
    check_kan,
    compatibility_failures,
    compatible_horns,
    edge_property,
    fillers,
    find_idempotent_equivalences,
    identity_map,
    is_equivalence,
    is_idempotent,
    p_edge_property,
    product,
)
from conftest import naive_fillers


def test_unique_filler_in_group_nerve(n2):
    horn = Horn.from_map(2, 1, {0: 1, 2: 1})
    found = fillers(n2.sset, horn)
    assert [z.index for z in found] == [n2.index_of(2, (1, 1))]
    # the composite face of the filler is the identity edge
    assert n2.sset.face_index(2, found[0].index, 1) == 0


def test_delta1_has_no_compatible_two_horns(deltas):
    d1 = deltas[1].sset
    assert list(compatible_horns(d1, 2, 1)) == []
    with pytest.raises(IncompatibleHorn):
        fillers(d1, Horn.from_map(2, 1, {0: 0, 2: 0}))


def test_monoid_unfillable_right_horn(nm):
    horn = Horn.from_map(2, 2, {0: 1, 1: 0})  # x_0 = e, x_1 = identity
    assert fillers(nm.sset, horn) == []


def test_horn_json_round_trip():
    horn = Horn.from_map(3, 2, {0: 4, 1: 1, 3: 2})
    assert Horn.from_json_dict(horn.to_json_dict()) == horn


def test_check_inner_on_fixtures(n2, nm, deltas):
    verdict = check_inner(n2.sset, 4)
    assert verdict.ok
    assert check_inner(nm.sset, 4).ok
    assert check_inner(deltas[1].sset, 4).ok  # vacuously: no compatible inner horns


def test_inner_horns_fill_uniquely_on_nerves(n2, nm, nj):
    for bundle in (n2, nm, nj):
        X = bundle.sset
        for n in range(2, X.dim + 1):
            for k in range(1, n):
                for horn in compatible_horns(X, n, k):
                    assert len(fillers(X, horn)) == 1


def test_check_kan_verdicts(n2, nm, np01):
    assert check_kan(n2.sset, 4).ok
    monoid = check_kan(nm.sset, 3)
    assert not monoid.ok
    assert monoid.witness == Horn.from_map(2, 2, {0: 1, 1: 0})
    assert naive_fillers(nm.sset, monoid.witness) == []
    poset = check_kan(np01.sset, 3)
    assert not poset.ok
    assert naive_fillers(np01.sset, poset.witness) == []


def test_edge_properties_in_group_nerve(n2):
    g = SimplexRef(1, 1)
    assert edge_property(n2.sset, g, "cartesian", 4).result
    assert edge_property(n2.sset, g, "cocartesian", 4).result
    assert is_equivalence(n2.sset, g, 4).result


def test_monoid_idempotent_is_not_cartesian(nm):
    e = SimplexRef(1, 1)
    verdict = edge_property(nm.sset, e, "cartesian", 2)
    assert not verdict.result
    assert verdict.witness == Horn.from_map(2, 2, {0: 1, 1: 0})
    assert not is_equivalence(nm.sset, e, 4).result
    assert is_equivalence(nm.sset, SimplexRef(1, 0), 4).result


def test_poset_step_edge_is_no_equivalence(np01):
    step = SimplexRef(1, 1)  # the 0<=1 arrow
    verdict = edge_property(np01.sset, step, "cartesian", 2)
    assert not verdict.result
    assert verdict.witness is not None


def test_false_edge_verdicts_are_monotone_in_bound(nm, np01):
    for bundle, edge in ((nm, 1), (np01, 1)):
        first_false = None
        for bound in range(2, bundle.sset.dim + 1):
            verdict = is_equivalence(bundle.sset, SimplexRef(1, edge), bound)
            assert not verdict.result
            if first_false is None:
                first_false = verdict.witness
            # the original witness still fails at every later bound
            assert naive_fillers(bundle.sset, first_false) == []


def test_idempotent_witnesses(nm, np01):
    assert is_idempotent(nm.sset, SimplexRef(1, 1)) == SimplexRef(2, nm.index_of(2, (1, 1)))
    assert is_idempotent(nm.sset, SimplexRef(1, 0)) == SimplexRef(2, nm.index_of(2, (0, 0)))
    with pytest.raises(NotASelfEdge):
        is_idempotent(np01.sset, SimplexRef(1, 1))


def test_idempotent_equivalence_search(n2, nm, deltas):
    vertex = SimplexRef(0, 0)
    assert [f.index for f, _ in find_idempotent_equivalences(n2.sset, vertex, 4)] == [0]
    assert [f.index for f, _ in find_idempotent_equivalences(nm.sset, vertex, 4)] == [0]
    d1 = deltas[1].sset
    assert find_idempotent_equivalences(d1, SimplexRef(0, 0), 3) == []
    assert find_idempotent_equivalences(d1, SimplexRef(0, 1), 3) == []


def test_projection_is_inner_fibration(n2, nj):
    bundle = product(n2.sset, nj.sset)
    verdict = check_inner_fibration(bundle.right, 4)
    assert verdict.ok
    assert verdict.checked > 0


def test_identity_map_is_inner_fibration(nm):
    assert check_inner_fibration(identity_map(nm.sset), 3).ok


def test_map_to_terminal_reduces_to_inner_condition(nm, terminal):
    # p=None is "over the point"; an explicit map to the point must agree with it
    spine = SemisimplicialSet([3, 2, 0], [[[1, 0], [2, 1]], []])  # 0 -> 1 -> 2, no 2-simplex
    for X in (nm.sset, spine):
        to_point = SemisimplicialMap(X, terminal.sset, [[0] * c for c in X.cells])
        fib, inner = check_inner_fibration(to_point, 4), check_inner(X, 4)
        assert (fib.ok, fib.checked) == (inner.ok, inner.checked)
        assert (fib.witness is None) == (inner.witness is None)
        if inner.witness is not None:
            assert fib.witness == (inner.witness, SimplexRef(inner.witness.n, 0))


def test_relative_edge_properties_over_terminal_match_absolute(nm, np01, terminal):
    for bundle in (nm, np01):
        X = bundle.sset
        to_point = SemisimplicialMap(X, terminal.sset, [[0] * c for c in X.cells])
        for e in range(X.cells[1]):
            f = SimplexRef(1, e)
            for prop in ("cartesian", "cocartesian"):
                relative, absolute = p_edge_property(to_point, f, prop, 3), edge_property(X, f, prop, 3)
                assert relative.result == absolute.result
                if not absolute.result:
                    assert relative.witness == (absolute.witness, SimplexRef(absolute.witness.n, 0))
            if X.face_index(1, e, 0) == X.face_index(1, e, 1):
                relative = p_edge_property(to_point, f, "idempotent", 3, terminal.oracle_degeneracies)
                assert relative.result == (is_idempotent(X, f) is not None)


def test_relative_idempotent_with_witness_pair(n2, nj):
    bundle = product(n2.sset, nj.sset)
    f = SimplexRef(1, bundle.pair_index(1, 0, 0))  # (identity, id0)
    assert p_edge_property(bundle.right, f, "cartesian", 3).result
    verdict = p_edge_property(bundle.right, f, "idempotent", 3, nj.oracle_degeneracies)
    assert verdict.result
    expected = bundle.pair_index(2, n2.index_of(2, (0, 0)), nj.index_of(2, (0, 0)))
    assert verdict.witness == SimplexRef(2, expected)


def test_fillers_match_naive_scan_on_sampled_horns(n2, n3, nm, np01, nsq, nj):
    rng = random.Random(99)
    bundles = [n2, n3, nm, np01, nsq, nj]
    for _ in range(60):
        bundle = rng.choice(bundles)
        X = bundle.sset
        n = rng.randint(1, X.dim)
        if X.cells[n] == 0:
            continue
        z = rng.randrange(X.cells[n])
        k = rng.randint(0, n)
        faces = {i: X.face_index(n, z, i) for i in range(n + 1) if i != k}
        horn = Horn.from_map(n, k, faces)
        assert [s.index for s in fillers(X, horn)] == naive_fillers(X, horn)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_horn_enumeration_is_compatible_and_complete(n2, nm, nj, data):
    bundle = data.draw(st.sampled_from([n2, nm, nj]))
    X = bundle.sset
    n = data.draw(st.integers(min_value=1, max_value=min(3, X.dim)))
    k = data.draw(st.integers(min_value=0, max_value=n))
    seen = set()
    for horn in compatible_horns(X, n, k):
        assert not compatibility_failures(X, horn)
        seen.add(horn.faces)
    # every existing simplex induces a compatible horn, so all must be enumerated
    for z in range(X.cells[n]):
        faces = tuple(sorted((i, X.face_index(n, z, i)) for i in range(n + 1) if i != k))
        assert faces in seen
