"""Core data model: validation, edge extraction, products, maps, serialization."""

import json
from itertools import chain

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from degenforge import (
    DimensionTooLow,
    Horn,
    ParseError,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    Subcomplex,
    check_inner_fibration,
    cyclic_group,
    first_edge,
    identity_map,
    last_edge,
    nerve,
    product,
    simplex_category,
    validate,
    validate_map,
)
from degenforge.sset import _canonical
from conftest import drawn_categories, preorders
from test_horn_engine import _invalid_z2
from test_loop_coskeleta import loop_coskeleton


def test_delta2_validates(deltas):
    assert validate(deltas[2].sset).ok


def test_delta2_with_swapped_faces_reports_violation(deltas):
    X = deltas[2].sset
    faces = [[list(X.faces_of(n, j)) for j in range(X.cells[n])] for n in range(1, X.dim + 1)]
    row = faces[1][0]
    row[0], row[2] = row[2], row[0]
    broken = SemisimplicialSet(X.cells, faces)
    report = validate(broken)
    assert not report.ok
    assert ("face_commutation", 2, 0, 0, 2) in report.violations


def test_n2_nerve_validates_at_depth(n2):
    assert validate(n2.sset).ok


def test_out_of_range_reference_is_reported():
    X = SemisimplicialSet([1, 1], [[[0, 5]]])
    report = validate(X)
    assert not report.ok
    assert ("range", 1, 0, 1) in report.violations


def test_last_edge_of_edge_is_itself(n2):
    assert last_edge(n2.sset, SimplexRef(1, 1)) == SimplexRef(1, 1)
    assert first_edge(n2.sset, SimplexRef(1, 1)) == SimplexRef(1, 1)


def test_last_edge_of_gg_chain_is_g(n2):
    gg = n2.index_of(2, (1, 1))
    assert last_edge(n2.sset, SimplexRef(2, gg)) == SimplexRef(1, 1)


def test_first_edge_of_identity_then_g_is_identity(n2):
    chain = n2.index_of(2, (0, 1))
    assert first_edge(n2.sset, SimplexRef(2, chain)) == SimplexRef(1, 0)


def test_delta3_outer_edges():
    d3 = nerve(simplex_category(3), 3)
    top = SimplexRef(3, 0)
    # arrow names pin the vertices: last edge is 2<3, first edge 0<1
    assert d3.category.arrows[d3.chain(1, last_edge(d3.sset, top).index)[0]].name == "2<3"
    assert d3.category.arrows[d3.chain(1, first_edge(d3.sset, top).index)[0]].name == "0<1"


def test_edge_extraction_rejects_vertices(n2):
    with pytest.raises(DimensionTooLow):
        last_edge(n2.sset, SimplexRef(0, 0))
    with pytest.raises(DimensionTooLow):
        first_edge(n2.sset, SimplexRef(0, 0))


def test_product_counts_and_projections(n2, nj):
    bundle = product(n2.sset, nj.sset)
    assert bundle.sset.cells[1] == 2 * 4
    assert validate(bundle.sset).ok
    assert validate_map(bundle.left).ok
    assert validate_map(bundle.right).ok


def test_only_product_marks_a_projection_with_its_factor():
    # a mark on a map that is no product's projection would answer the fibration check from
    # the factor: Z/2 fills every inner horn, but this X has no 2-simplex with d_0 = d_2 = 1
    X = SemisimplicialSet([1, 2, 4], [[[0, 0], [0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0]]])
    point = nerve(cyclic_group(1), 2).sset
    levels = [[0], [0, 0], [0, 0, 0, 0]]
    with pytest.raises(TypeError):
        SemisimplicialMap(X, point, levels, factor=nerve(cyclic_group(2), 2).sset)
    verdict = check_inner_fibration(SemisimplicialMap(X, point, levels))
    assert (verdict.ok, verdict.checked) == (False, 4)
    assert verdict.witness.horn == Horn.from_map(2, 1, {0: 1, 2: 1})


def test_product_with_terminal_is_isomorphic(n2, terminal):
    bundle = product(n2.sset, terminal.sset)
    assert bundle.sset.cells == n2.sset.cells
    for n in range(1, bundle.sset.dim + 1):
        for j in range(bundle.sset.cells[n]):
            assert bundle.sset.faces_of(n, j) == n2.sset.faces_of(n, j)


def test_product_of_points(deltas):
    d0 = deltas[0].sset
    bundle = product(d0, d0)
    assert bundle.sset.cells == d0.cells


def test_identity_map_validates(n2):
    assert validate_map(identity_map(n2.sset)).ok


def test_collapsing_self_map_fails_at_level_two(n2):
    # send the edge g to the identity edge, keep everything else fixed
    levels = [list(range(c)) for c in n2.sset.cells]
    levels[1][1] = 0
    F = SemisimplicialMap(n2.sset, n2.sset, levels)
    report = validate_map(F)
    assert not report.ok
    assert all(v[1] >= 2 for v in report.violations)


def test_subcomplex_closure():
    d2 = nerve(simplex_category(2), 2)
    X = d2.sset
    # members: vertices 0,1 and the edge 0<1 (arrow index 0)
    A = Subcomplex(X, [{0, 1}, {0}])
    assert A.validate().ok
    bad = Subcomplex(X, [{0}, {0}])
    assert not bad.validate().ok


def test_sset_json_round_trip(nj):
    X = nj.sset
    data = json.loads(json.dumps(X.to_json_dict()))
    assert SemisimplicialSet.from_json_dict(data) == X
    assert SemisimplicialSet.from_json_dict(data).content_hash() == X.content_hash()


def test_sset_json_rejects_bad_shape():
    with pytest.raises(ParseError):
        SemisimplicialSet.from_json_dict({"dim": 1, "cells": [1], "faces": []})


def test_map_json_round_trip(n2, nj):
    bundle = product(n2.sset, nj.sset)
    data = json.loads(json.dumps(bundle.right.to_json_dict()))
    again = SemisimplicialMap.from_json_dict(data, bundle.sset, nj.sset)
    assert again == bundle.right


def test_subcomplex_json_round_trip(n2):
    A = Subcomplex(n2.sset, [{0}, {0}])
    data = json.loads(json.dumps(A.to_json_dict()))
    assert Subcomplex.from_json_dict(data, n2.sset) == A


# -- randomized structure ------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(preorders(), st.integers(min_value=1, max_value=4))
def test_preorder_nerves_validate(category, depth):
    bundle = nerve(category, depth)
    assert validate(bundle.sset).ok


@settings(max_examples=20, deadline=None)
@given(preorders(), preorders(), st.integers(min_value=1, max_value=3))
def test_product_preserves_validity(c1, c2, depth):
    a = nerve(c1, depth).sset
    b = nerve(c2, depth).sset
    bundle = product(a, b)
    assert validate(bundle.sset).ok
    assert validate_map(bundle.left).ok
    assert validate_map(bundle.right).ok


# -- recorded validity ----------------------------------------------------------


def test_validate_map_records_a_pass_and_nothing_on_a_failure():
    from degenforge.nerve import cyclic_group
    X = nerve(cyclic_group(2), 3).sset
    F = identity_map(X)
    assert not F._valid
    assert validate_map(F).ok and F._valid
    out_of_range = SemisimplicialMap(X, X, [[0], [0, 2], [0, 1, 2, 3], list(range(8))])
    assert not validate_map(out_of_range).ok and not out_of_range._valid
    # the identity edge sent to g: the faces of the 2-simplices no longer commute
    tampered = SemisimplicialMap(X, X, [[0], [1, 1], [0, 1, 2, 3], list(range(8))])
    assert not validate_map(tampered).ok and not tampered._valid


@pytest.mark.parametrize("failing", [None, "left", "right"])
def test_product_records_a_pass_exactly_when_both_factors_pass(failing):
    from degenforge.nerve import cyclic_group, j_groupoid
    C = _invalid_z2() if failing == "left" else nerve(cyclic_group(2), 3).sset
    Y = _invalid_z2() if failing == "right" else nerve(j_groupoid(), 3).sset
    assert not C._valid and not Y._valid
    bundle = product(C, Y)
    passed = failing is None
    # each factor that held no pass was validated, up to the first that fails
    assert (C._valid, Y._valid) == (failing != "left", passed)
    assert [bundle.sset._valid, bundle.left._valid, bundle.right._valid] == [passed] * 3
    # the record is the verdict validate gives
    assert validate(bundle.sset).ok == passed
    assert validate_map(bundle.left).ok and validate_map(bundle.right).ok


# -- the product against its per-pair definition ----------------------------------


def test_a_factor_with_a_face_entry_out_of_range_is_refused():
    # Y's d_1 names vertex 1 of a set with one vertex; read as d_1(x) * c_0(Y) + d_1(y), it would
    # alias vertex (1, 0) of the product, which would then pass validate where Y fails it
    X = SemisimplicialSet([2, 1], [[[0, 0]]])
    Y = SemisimplicialSet([1, 1], [[[0, 1]]])
    assert validate(X).ok and not validate(Y).ok
    for left, right, side in ((X, Y, "right"), (Y, X, "left")):
        with pytest.raises(ValueError) as caught:
            product(left, right)
        assert str(caught.value) == f"the {side} factor has a face entry out of range on level 1"
    negative = SemisimplicialSet([1, 1, 1], [[[0, 0]], [[0, 0, -1]]])
    with pytest.raises(ValueError, match="^the left factor has a face entry out of range on level 2$"):
        product(negative, negative)
    # a level above the product's truncation is never read: the product is built, and holds no pass
    bundle = product(negative, SemisimplicialSet([1, 1], [[[0, 0]]]))
    assert bundle.sset.cells == (1, 1) and not bundle.sset._valid


factor_sets = st.one_of(
    st.builds(lambda category, depth: nerve(category, depth).sset, drawn_categories, st.integers(0, 3)),
    st.builds(loop_coskeleton, st.integers(1, 2), st.integers(0, 3)),
    # a factor of dim 0 or 1, one with an empty level, one with no vertex, and one that fails validate
    st.sampled_from([
        SemisimplicialSet([3], []),
        SemisimplicialSet([2, 3], [[[1, 0], [0, 0], [1, 1]]]),
        SemisimplicialSet([2, 1, 0, 0], [[[1, 0]], [], []]),
        SemisimplicialSet([0, 0, 0], [[], []]),
        _invalid_z2(),
    ]),
)


@settings(max_examples=60, deadline=None)
@given(factor_sets, factor_sets)
def test_the_product_is_its_per_pair_definition(X, Y):
    dim = min(X.dim, Y.dim)
    assume(sum(X.cells[n] * Y.cells[n] * (n + 1) for n in range(dim + 1)) <= 40000)
    bundle = product(X, Y)
    Z, left, right = bundle.sset, bundle.left, bundle.right
    assert Z.cells == tuple(X.cells[n] * Y.cells[n] for n in range(dim + 1))
    for n in range(1, dim + 1):
        width = Y.cells[n - 1]
        for j in range(Z.cells[n]):
            jx, jy = divmod(j, Y.cells[n])
            assert Z.faces_of(n, j) == [X.face_index(n, jx, i) * width + Y.face_index(n, jy, i)
                                        for i in range(n + 1)]
    for n in range(dim + 1):
        assert left.levels[n] == tuple(j // Y.cells[n] for j in range(Z.cells[n]))
        assert right.levels[n] == tuple(j % Y.cells[n] for j in range(Z.cells[n]))
    assert (left.source, left.target, left.factor) == (Z, X, None)
    assert (right.source, right.target, right.factor) == (Z, Y, X)
    entries = chain.from_iterable([*Z._faces, *left.levels, *right.levels])
    assert all(v is _canonical(v + 1)[v] for v in entries)
    passed = validate(X).ok and validate(Y).ok
    assert [Z._valid, left._valid, right._valid] == [passed] * 3
