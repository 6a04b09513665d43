"""Degree-0 step: every way an s0 edge or an idempotency witness is refused.

Each case names the edge it refuses by the arrows it pairs, so a change to
how the resolvers search or check cannot move a verdict without a test
seeing it. Edges of a product are ``pair_index(1, left, right)``; arrows
index as in ``nerve``: Z/2 and the monoid {1, e} list the identity first,
J lists id0, id1, u, v.
"""

import itertools
import json
from dataclasses import replace

import pytest

from degenforge import (
    CategoryPresentation,
    DegeneracyTable,
    GoodSystem,
    Horn,
    IncompatibleSubcomplexStructure,
    MissingWitness,
    NoIdempotentEquivalence,
    ParseError,
    SemisimplicialMap,
    SemisimplicialSet,
    Subcomplex,
    SynthesisInput,
    UnfillableHorn,
    nerve,
    product,
    step1_extend,
    step2_correct,
    synthesize,
    synthesize_relative,
)
from degenforge import degeneracy
from degenforge.cli import run
from degenforge.nerve import Arrow, cyclic_group, idempotent_monoid, j_groupoid

POINT = nerve(cyclic_group(1), 3)


def left_zero_semigroup() -> CategoryPresentation:
    # one object, arrows e and f, x . y = x and no identities
    return CategoryPresentation(["*"], [Arrow("e", 0, 0), Arrow("f", 0, 0)],
                                {(x, y): x for x in range(2) for y in range(2)})


def _write(tmp_path, **payloads) -> dict:
    paths = {}
    for name, payload in payloads.items():
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(payload))
    return paths


def _report(code, report) -> tuple:
    return code, report["verdict"], report["detail"], report.get("witness")


def _over(tmp_path, left, right_bundle):
    """The product bundle, its files and the synthesize-rel --dim 3 argv over the right factor."""
    bundle = product(left.sset, right_bundle.sset)
    paths = _write(tmp_path, sset=bundle.sset.to_json_dict(), map=bundle.right.to_json_dict(),
                   target=right_bundle.sset.to_json_dict(),
                   ydeg=right_bundle.oracle_degeneracies.to_json_dict())
    argv = ["synthesize-rel", str(paths["sset"]), "--map", str(paths["map"]),
            "--target", str(paths["target"]), "--ydeg", str(paths["ydeg"]), "--dim", "3"]
    return bundle, paths, argv


def _engine_unreached(monkeypatch):
    def reached(engine):
        raise AssertionError("the engine ran")
    monkeypatch.setattr(degeneracy._Engine, "run", reached)


def _with_s0(tmp_path, argv, s0):
    path = tmp_path / "s0.json"
    path.write_text(json.dumps(s0))
    return run([*argv, "--s0", str(path)])


# -- over the point ---------------------------------------------------------------


@pytest.mark.parametrize("category, s0, detail", [
    (j_groupoid(), [2, 1], "s0(0) = 2 is not a self-edge"),  # u leaves 0 for 1
    (idempotent_monoid(), [1], "s0(0) = 1 is not an equivalence"),  # e e = e has no inverse
])
def test_a_supplied_s0_is_refused_over_the_point(tmp_path, category, s0, detail):
    paths = _write(tmp_path, sset=nerve(category, 3).sset.to_json_dict())
    code, report = _with_s0(tmp_path, ["synthesize", str(paths["sset"])], s0)
    assert _report(code, report) == (1, "NoIdempotentEquivalence", detail, {"vertex": 0})


def test_an_unfillable_inner_horn_stops_the_run_before_s0(tmp_path):
    # the spine of the 2-simplex: its (2,1) horn has no filler
    paths = _write(tmp_path, sset={"dim": 2, "cells": [3, 2, 0], "faces": [[[1, 0], [2, 1]], []]})
    code, report = run(["synthesize", str(paths["sset"])])
    assert _report(code, report) == (
        1, "NotQuasiSemicategory", "an inner horn is unfillable",
        {"n": 2, "k": 1, "faces": {"0": 1, "2": 0}})


def test_the_s0_search_stops_at_the_lowest_idempotent_equivalence(monkeypatch):
    # the monoid {1, e} has one vertex and two idempotent self-edges: 1, an equivalence, and e;
    # the search takes edge 0 and never asks whether e is an equivalence
    nm = nerve(idempotent_monoid(), 4)
    asked = []
    is_equivalence = degeneracy.is_equivalence
    monkeypatch.setattr(degeneracy, "is_equivalence",
                        lambda X, f, *rest: asked.append(f.index) or is_equivalence(X, f, *rest))
    result = synthesize(SynthesisInput(nm.sset), 4)
    assert asked == [0]
    assert (result.s0, result.witnesses) == ({0: 0}, {0: nm.index_of(2, (0, 0))})


def test_a_supplied_witness_that_is_not_one_is_refused_over_the_point(monkeypatch):
    # the 2-simplex (1, g) of Z/2 has faces g, g, 1, not all three the identity edge 0;
    # it is refused where s0 is decided, before the engine runs
    _engine_unreached(monkeypatch)
    n2 = nerve(cyclic_group(2), 3)
    w = n2.index_of(2, (0, 1))
    with pytest.raises(NoIdempotentEquivalence) as caught:
        synthesize(SynthesisInput(n2.sset, s0={0: 0}, idempotency_witnesses={0: w}), 3)
    assert (str(caught.value), caught.value.vertex) == (
        f"supplied witness {w} at vertex 0 is not an idempotency witness", 0)


@pytest.mark.parametrize("s0", [None, {0: 0}])
def test_a_supplied_witness_is_checked_whether_s0_is_searched_or_supplied(s0):
    # 2-simplex 3 of Z/2 is (g, g), whose faces are g, 1, g; the search picks the identity edge 0
    X = nerve(cyclic_group(2), 4).sset
    with pytest.raises(NoIdempotentEquivalence) as caught:
        synthesize(SynthesisInput(X, s0=s0, idempotency_witnesses={0: 3}), 4)
    assert (str(caught.value), caught.value.vertex) == (
        "supplied witness 3 at vertex 0 is not an idempotency witness", 0)
    run, plain = (synthesize(SynthesisInput(X, s0=s0, idempotency_witnesses=w), 4) for w in ({0: 0}, None))
    assert (run.witnesses, run.table, run.certificate.to_json()) == (
        {0: 0}, plain.table, plain.certificate.to_json())


@pytest.mark.parametrize("order, witnesses, detail", [
    (2, [], "idempotency witnesses must cover every vertex; missing 0"),
    (2, [None, None], "idempotency witness given at 1, which is not a vertex in 0..0"),
    (2, {0: 10**9}, "idempotency witness 1000000000 at vertex 0 is not a 2-simplex index in 0..3"),
    (1, {0: -1}, "idempotency witness -1 at vertex 0 is not a 2-simplex index in 0..0"),
    (2, {0: True}, "idempotency witness True at vertex 0 is not a 2-simplex index in 0..3"),
    (1, {5: 0}, "idempotency witness given at 5, which is not a vertex in 0..0"),
])
def test_a_supplied_witness_that_is_not_a_2_simplex_index_is_refused(order, witnesses, detail):
    X = nerve(cyclic_group(order), 4).sset
    with pytest.raises(ParseError) as caught:
        synthesize(SynthesisInput(X, s0={0: 0}, idempotency_witnesses=witnesses), 4)
    assert str(caught.value) == detail


@pytest.mark.parametrize("witnesses", [None, {}, {0: None}, [None], {0: 0}, [0]])
def test_every_accepted_form_of_the_witnesses_gives_the_same_run(witnesses):
    X = nerve(cyclic_group(2), 4).sset
    run = synthesize(SynthesisInput(X, s0={0: 0}, idempotency_witnesses=witnesses), 4)
    assert (run.witnesses, run.certificate.to_json()) == (
        {0: 0}, synthesize(SynthesisInput(X, s0={0: 0}), 4).certificate.to_json())


def _two_loops():
    """One vertex, two loops and every triple of loops as a 2-simplex (valid and Kan), with the
    subcomplex of loop 1 and its 2-simplex (1, 1, 1), whose table fixes s_0 of the vertex at 1."""
    X = SemisimplicialSet([1, 2, 8], [[[0, 0], [0, 0]], [list(t) for t in itertools.product(range(2), repeat=3)]])
    A_deg = DegeneracyTable(X)
    A_deg.set_value(0, 0, 0, 1)
    return X, Subcomplex(X, [{0}, {1}, {7}]), A_deg


def test_the_subcomplex_table_fixes_s0_over_the_point():
    # the lowest idempotent equivalence is loop 0, but the subcomplex table fixes loop 1;
    # the run takes it over the point as over the map to the point
    X, A, A_deg = _two_loops()
    result = synthesize(SynthesisInput(X, A=A, A_deg=A_deg), 2)
    assert (result.s0, result.witnesses) == ({0: 1}, {0: 7})
    to_point = SemisimplicialMap(X, POINT.sset, [[0] * c for c in X.cells])
    over = synthesize(SynthesisInput(X, p=to_point, Y_deg=POINT.oracle_degeneracies, A=A, A_deg=A_deg), 2)
    assert (over.s0, over.witnesses, over.table) == (result.s0, result.witnesses, result.table)


def test_a_supplied_s0_that_disagrees_with_the_subcomplex_table_is_refused_over_the_point():
    X, A, A_deg = _two_loops()
    with pytest.raises(IncompatibleSubcomplexStructure) as caught:
        synthesize(SynthesisInput(X, A=A, A_deg=A_deg, s0={0: 0}), 2)
    assert (str(caught.value), caught.value.simplex) == (
        "s0(0) = 0 disagrees with the subcomplex value 1", (0, 0))


# -- over a map -------------------------------------------------------------------


def _z2_j(tmp_path):
    return _over(tmp_path, nerve(cyclic_group(2), 3), nerve(j_groupoid(), 3))


@pytest.mark.parametrize("left, right, verdict, detail, witness", [
    # (1, u) leaves vertex 0
    (0, 2, "NoIdempotentEquivalence", "s0(0) = 2 is not a self-edge", {"vertex": 0}),
    # (g, id0) (g, id0) composes to (1, id0)
    (1, 0, "NoIdempotentEquivalence", "s0(0) = 4 is not fiberwise idempotent", {"vertex": 0}),
])
def test_a_supplied_s0_is_refused_over_j(tmp_path, left, right, verdict, detail, witness):
    bundle, _, argv = _z2_j(tmp_path)
    s0 = [bundle.pair_index(1, left, right), bundle.pair_index(1, 0, 1)]
    assert _report(*_with_s0(tmp_path, argv, s0)) == (1, verdict, detail, witness)


def test_a_supplied_s0_that_disagrees_with_the_subcomplex_table_is_refused(tmp_path):
    bundle, _, argv = _z2_j(tmp_path)
    table = tmp_path / "table.json"
    assert run([*argv, "--out", str(table)])[0] == 0
    paths = _write(tmp_path, sub={"members": [list(range(c)) for c in bundle.sset.cells]})
    s0 = [bundle.pair_index(1, 1, 0), bundle.pair_index(1, 0, 1)]  # (g, id0) at vertex 0
    code, report = _with_s0(tmp_path, [*argv, "--sub", str(paths["sub"]), "--adeg", str(table)], s0)
    assert _report(code, report) == (
        1, "IncompatibleSubcomplexStructure", "s0(0) = 4 disagrees with the subcomplex value 0",
        {"simplex": [0, 0]})


def test_a_supplied_s0_that_is_not_cartesian_is_refused(tmp_path):
    # (e, id0) over id0 is fiberwise idempotent, but e has no inverse
    bundle, _, argv = _over(tmp_path, nerve(idempotent_monoid(), 3), nerve(j_groupoid(), 3))
    s0 = [bundle.pair_index(1, 1, 0), bundle.pair_index(1, 0, 1)]
    assert _report(*_with_s0(tmp_path, argv, s0)) == (
        1, "NoIdempotentEquivalence", "s0(0) = 4 is not cartesian over the base", {"vertex": 0})


def test_a_supplied_s0_off_the_target_degeneracy_is_refused(tmp_path):
    # Z/2 x Z/2 over its right factor: (1, g) lies over g, not over the identity
    n2 = nerve(cyclic_group(2), 3)
    bundle, _, argv = _over(tmp_path, n2, n2)
    s0 = [bundle.pair_index(1, 0, 1)]
    assert _report(*_with_s0(tmp_path, argv, s0)) == (
        1, "ConsistencyViolation", "s0(0) = 1 does not project to the target degeneracy",
        {"simplex": [0, 0]})


def test_no_admissible_edge_over_the_point(tmp_path):
    # neither e nor f of the left-zero semigroup is an equivalence
    _, _, argv = _over(tmp_path, nerve(left_zero_semigroup(), 3), POINT)
    assert _report(*run(argv)) == (
        1, "NoIdempotentEquivalence", "no admissible degree-0 degeneracy found at vertex 0",
        {"vertex": 0})


@pytest.mark.parametrize("s0", [None, {0: 0, 1: 1}])  # searched, or supplied as (1, id0) and (1, id1)
def test_a_supplied_witness_that_is_not_one_is_refused_over_j(monkeypatch, s0):
    # (1, id0) (g, id0) has faces other than (1, id0); it is refused where s0 is decided,
    # searched or supplied, before the engine runs
    _engine_unreached(monkeypatch)
    n2, nj = nerve(cyclic_group(2), 3), nerve(j_groupoid(), 3)
    bundle = product(n2.sset, nj.sset)
    w = bundle.pair_index(2, n2.index_of(2, (0, 1)), nj.index_of(2, (0, 0)))
    inp = SynthesisInput(bundle.sset, p=bundle.right, Y_deg=nj.oracle_degeneracies, s0=s0,
                         idempotency_witnesses={0: w})
    with pytest.raises(MissingWitness) as caught:
        synthesize(inp, 3)
    assert (str(caught.value), caught.value.vertex) == (
        f"supplied idempotency witness {w} at vertex 0 is invalid", 0)


def test_a_witness_sequence_without_an_entry_per_vertex_is_refused_over_j():
    n2, nj = nerve(cyclic_group(2), 3), nerve(j_groupoid(), 3)
    bundle = product(n2.sset, nj.sset)
    inp = SynthesisInput(bundle.sset, p=bundle.right, Y_deg=nj.oracle_degeneracies,
                         idempotency_witnesses=[])
    with pytest.raises(ParseError) as caught:
        synthesize_relative(inp, 3)
    assert str(caught.value) == "idempotency witnesses must cover every vertex; missing 0"


# -- the staged builders at stage 0 ------------------------------------------------


def _z2_over_j_input():
    n2, nj = nerve(cyclic_group(2), 3), nerve(j_groupoid(), 3)
    bundle = product(n2.sset, nj.sset)
    return SynthesisInput(bundle.sset, p=bundle.right, Y_deg=nj.oracle_degeneracies)


@pytest.mark.parametrize("over_j", [False, True])
def test_the_stage_zero_correction_finds_the_witnesses_synthesize_reports(over_j):
    inp = _z2_over_j_input() if over_j else SynthesisInput(nerve(cyclic_group(2), 3).sset)
    result = synthesize(inp, 3)
    inp = replace(inp, s0=result.s0)
    almost0 = step1_extend(GoodSystem(DegeneracyTable(inp.X), N=-1), inp, 3)
    good = step2_correct(almost0, inp, 3)
    assert good.t_table.t[0] == [result.witnesses[v] for v in range(inp.X.cells[0])]
    assert [good.table.level(0, n) for n in (0, 1)] == [result.table.level(0, n) for n in (0, 1)]


def test_the_stage_zero_extension_takes_s0_from_the_subcomplex_table_without_s0():
    # the subcomplex table fixes s_0 of the one vertex, so no s0 is needed
    X, A, A_deg = _two_loops()
    almost0 = step1_extend(GoodSystem(DegeneracyTable(X), N=-1), SynthesisInput(X, A=A, A_deg=A_deg), 2)
    assert almost0.table.level(0, 0) == [1]


def test_the_stage_zero_extension_refuses_an_edge_that_leaves_its_vertex():
    # u leaves vertex 0 of J for vertex 1, so d_0 u = 1: it fills no (1,1) horn at vertex 0
    X = nerve(j_groupoid(), 3).sset
    with pytest.raises(UnfillableHorn) as caught:
        step1_extend(GoodSystem(DegeneracyTable(X), N=-1), SynthesisInput(X, s0={0: 2, 1: 1}), 3)
    assert (str(caught.value), caught.value.horn, caught.value.level) == (
        "s_0 at simplex (0,0) violates its defining equation at face 0", Horn(1, 1, ((0, 0),)), 0)


def test_the_stage_zero_correction_refuses_a_supplied_witness_that_is_not_one():
    # the 2-simplex (1, g) of Z/2 has faces g, g, 1, not all three the identity edge 0
    n2 = nerve(cyclic_group(2), 3)
    w = n2.index_of(2, (0, 1))
    inp = SynthesisInput(n2.sset, s0={0: 0}, idempotency_witnesses={0: w})
    almost0 = step1_extend(GoodSystem(DegeneracyTable(n2.sset), N=-1), inp, 3)
    with pytest.raises(MissingWitness) as caught:
        step2_correct(almost0, inp, 3)
    assert (str(caught.value), caught.value.vertex) == (f"supplied idempotency witness {w} at vertex 0 is invalid", 0)
