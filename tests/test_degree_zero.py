"""Degree-0 step: every way an s0 edge or an idempotency witness is refused.

Each case names the edge it refuses by the arrows it pairs, so a change to
how the resolvers search or check cannot move a verdict without a test
seeing it. Edges of a product are ``pair_index(1, left, right)``; arrows
index as in ``nerve``: Z/2 and the monoid {1, e} list the identity first,
J lists id0, id1, u, v.
"""

import json

import pytest

from degenforge import (
    CategoryPresentation,
    MissingWitness,
    NoIdempotentEquivalence,
    SynthesisInput,
    nerve,
    product,
    synthesize,
)
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


def test_a_supplied_witness_that_is_not_one_is_refused_over_the_point():
    # the 2-simplex (1, g) of Z/2 has faces g, g, 1, not all three the identity edge 0
    n2 = nerve(cyclic_group(2), 3)
    w = n2.index_of(2, (0, 1))
    with pytest.raises(NoIdempotentEquivalence) as caught:
        synthesize(SynthesisInput(n2.sset, s0={0: 0}, idempotency_witnesses={0: w}), 3)
    assert (str(caught.value), caught.value.vertex) == (
        f"supplied witness {w} at vertex 0 is not an idempotency witness", 0)


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
        1, "IncompatibleSubcomplexStructure", "s0(0) = 4 disagrees with the subcomplex value 0", None)


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
        1, "ConsistencyViolation", "s0(0) = 1 does not project to the target degeneracy", None)


def test_no_admissible_edge_over_the_point(tmp_path):
    # neither e nor f of the left-zero semigroup is an equivalence
    _, _, argv = _over(tmp_path, nerve(left_zero_semigroup(), 3), POINT)
    assert _report(*run(argv)) == (
        1, "NoIdempotentEquivalence", "no admissible degree-0 degeneracy found at vertex 0",
        {"vertex": 0})


def test_a_supplied_witness_that_is_not_one_is_refused_over_j():
    # the engine checks a supplied witness: (1, id0) (g, id0) has faces other than (1, id0)
    n2, nj = nerve(cyclic_group(2), 3), nerve(j_groupoid(), 3)
    bundle = product(n2.sset, nj.sset)
    w = bundle.pair_index(2, n2.index_of(2, (0, 1)), nj.index_of(2, (0, 0)))
    inp = SynthesisInput(bundle.sset, p=bundle.right, Y_deg=nj.oracle_degeneracies,
                         idempotency_witnesses={0: w})
    with pytest.raises(MissingWitness) as caught:
        synthesize(inp, 3)
    assert (str(caught.value), caught.value.vertex) == (
        f"supplied idempotency witness {w} at vertex 0 is invalid", 0)
