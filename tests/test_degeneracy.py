"""Synthesis engine: forced values, the two steps, full runs, verification, replay."""

import json
from dataclasses import replace

import pytest

from degenforge import (
    CertificateMismatch,
    ConsistencyViolation,
    DegeneracyTable,
    GoodSystem,
    Horn,
    IncompatibleSubcomplexStructure,
    MissingDegeneracies,
    NoIdempotentEquivalence,
    NotKan,
    ParseError,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    Subcomplex,
    SynthesisInput,
    TruncationExhausted,
    UnfillableHorn,
    addendum_s0,
    compatibility_failures,
    forced_value,
    nerve,
    product,
    replay_certificate,
    step1_extend,
    step2_correct,
    synthesize,
    synthesize_relative,
    uniqueness_demo,
    verify_simplicial,
)
from degenforge.nerve import cyclic_group, idempotent_monoid, j_groupoid, poset_01


def fresh_system(X):
    return GoodSystem(DegeneracyTable(X), N=-1)


def base_input(bundle):
    return SynthesisInput(bundle.sset, s0={v: bundle.oracle_degeneracies.value(0, 0, v)
                                           for v in range(bundle.sset.cells[0])})


# -- forced values -------------------------------------------------------------


def test_forced_value_none_for_plain_simplex(n2):
    res = synthesize(SynthesisInput(n2.sset), 5)
    sys = GoodSystem(res.table, N=0)
    gg = SimplexRef(2, n2.index_of(2, (1, 1)))
    assert forced_value(sys, None, gg, 1) is None


def test_forced_value_agrees_across_representations(n2):
    X = n2.sset
    oracle = n2.oracle_degeneracies
    sys = GoodSystem(oracle, N=0)
    whole = Subcomplex(X, [set(range(c)) for c in X.cells])
    x = SimplexRef(2, n2.index_of(2, (0, 1)))  # the chain (1, g) = s_0(g)
    value = forced_value(sys, (whole, oracle), x, 1)
    assert value == SimplexRef(3, n2.index_of(3, (0, 0, 1)))


def test_forced_value_detects_corrupted_overlap(n2):
    X = n2.sset
    sys = GoodSystem(n2.oracle_degeneracies, N=0)
    whole = Subcomplex(X, [set(range(c)) for c in X.cells])
    corrupt = n2.oracle_degeneracies.copy()
    x_index = n2.index_of(2, (0, 1))
    corrupt.set_value(1, 2, x_index, n2.index_of(3, (1, 1, 1)))
    with pytest.raises(ConsistencyViolation):
        forced_value(sys, (whole, corrupt), SimplexRef(2, x_index), 1)


# -- the two steps -------------------------------------------------------------


def test_step1_base_stage_on_group_nerve(n2):
    inp = base_input(n2)
    almost = step1_extend(fresh_system(n2.sset), inp, 5)
    assert almost.status == "almost-0-good"
    # s_0(g) fills the (2,1) horn with faces g and the identity chain
    assert almost.table.value(0, 1, 1) == n2.index_of(2, (0, 1))


def test_step2_corrects_stage_zero(n2):
    inp = base_input(n2)
    good = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    assert good.status == "0-good"
    # the vertex correction table is the double identity chain
    assert good.t_table.t[0][0] == n2.index_of(2, (0, 0))
    # sigma_0(vertex) is the identity edge, sigma_0(g) the chain (1, g)
    assert good.table.value(0, 0, 0) == 0
    assert good.table.value(0, 1, 1) == n2.index_of(2, (0, 1))
    # correction horn at the edge g had the unique filler (1, 1, g)
    assert good.t_table.t[1][1] == n2.index_of(3, (0, 0, 1))


def test_step1_second_stage_value(n2):
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    almost1 = step1_extend(good0, inp, 5)
    gg = n2.index_of(2, (1, 1))
    assert almost1.table.value(1, 2, gg) == n2.index_of(3, (1, 0, 1))


def test_step2_on_monoid_vertex(nm):
    inp = base_input(nm)
    good = step2_correct(step1_extend(fresh_system(nm.sset), inp, 5), inp, 5)
    assert good.t_table.t[0][0] == nm.index_of(2, (0, 0))


def test_step1_with_doctored_s0_hits_unfillable_horn(deltas):
    d1 = deltas[1].sset
    inp = SynthesisInput(d1, s0={0: 0, 1: 0})
    with pytest.raises(UnfillableHorn):
        step1_extend(fresh_system(d1), inp, 4)


def _without_level(table, k, n):
    data = table.to_json_dict()
    data["s"][k][n] = None
    return DegeneracyTable.from_json_dict(data, table.base)


def _with_value(table, k, n, j, value):
    data = table.to_json_dict()
    data["s"][k][n][j] = value
    return DegeneracyTable.from_json_dict(data, table.base)


def _raised(kind, call):
    with pytest.raises(kind) as caught:
        call()
    assert type(caught.value) is kind
    return str(caught.value), getattr(caught.value, "simplex", None)


def test_extension_horn_with_an_undefined_lower_value(n2):
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    system = GoodSystem(_without_level(good0.table, 0, 1), N=0)
    assert _raised(ConsistencyViolation, lambda: step1_extend(system, inp, 5)) == (
        "needed degeneracy value undefined while prescribing face 0 of the extension horn at (2,0)",
        None)


def test_correction_horn_with_an_undefined_lower_value(n2):
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    almost1 = step1_extend(good0, inp, 5)
    system = GoodSystem(_without_level(almost1.table, 0, 1), N=1, almost=True)
    assert _raised(ConsistencyViolation, lambda: step2_correct(system, inp, 5)) == (
        "needed degeneracy value undefined while prescribing face 0 of the correction horn at (1,1)",
        None)


@pytest.mark.parametrize("n, j, value, text, simplex", [
    (1, 1, 3, "prescribed horn at level 2 is incompatible at [(0, 3)]; "
              "the current system violates an identity", (2, [(0, 3)])),
    (2, 3, 4, "prescribed horn at level 3 is incompatible at [(0, 1), (0, 3), (0, 4)]; "
              "the current system violates an identity", (3, [(0, 1), (0, 3), (0, 4)])),
    (1, 0, 2, "s_1 at simplex (1,0) violates its defining equation at face 1", (1, 0)),
    (3, 2, 4, "s_1 at simplex (3,2) violates its defining equation at face 0", (3, 2)),
])
def test_extension_over_a_corrupted_lower_value(n2, n, j, value, text, simplex):
    # an incompatible prescribed horn fails before its fill; a wrong forced
    # value off the subcomplex fails the level's check as a ConsistencyViolation
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    system = GoodSystem(_with_value(good0.table, 0, n, j, value), N=0)
    assert _raised(ConsistencyViolation, lambda: step1_extend(system, inp, 5)) == (text, simplex)


@pytest.mark.parametrize("truncated, level", [(1, 2), (2, 3)])
def test_relative_run_with_a_truncated_target_table(n2, nj, truncated, level):
    _, inp = _relative_product_input(n2, nj, 4)
    inp = replace(inp, Y_deg=nj.oracle_degeneracies.restricted(truncated))
    assert _raised(MissingDegeneracies, lambda: synthesize_relative(inp, 4)) == (
        f"target degeneracy s_0 undefined at level {level}; "
        "the relative run needs the target table up to level 3", None)


@pytest.mark.parametrize("k, n, j, face", [(0, 1, 1, 0), (0, 2, 3, 0), (1, 2, 3, 0), (1, 3, 7, 0)])
def test_a_wrong_subcomplex_value_is_blamed_on_the_subcomplex(n2, k, n, j, face):
    X = n2.sset
    whole = Subcomplex(X, [set(range(c)) for c in X.cells])
    corrupt = n2.oracle_degeneracies.copy()
    corrupt.set_value(k, n, j, (corrupt.value(k, n, j) + 1) % X.cells[n + 1])
    inp = SynthesisInput(X, A=whole, A_deg=corrupt)
    assert _raised(IncompatibleSubcomplexStructure, lambda: synthesize(inp, 5)) == (
        f"s_{k} at simplex ({n},{j}) violates its defining equation at face {face}", (n, j))


def test_staged_builders_reject_a_set_with_an_incompatible_simplex():
    # with d_0 and d_3 of a 3-simplex swapped, its faces form an incompatible
    # (3,2) horn; every path into the engine refuses the set before filling
    data = nerve(cyclic_group(2), 3).sset.to_json_dict()
    row = data["faces"][2][3]
    row[0], row[3] = row[3], row[0]
    X = SemisimplicialSet.from_json_dict(data)
    horn = Horn(3, 2, ((0, row[0]), (1, row[1]), (3, row[3])))
    assert compatibility_failures(X, horn) == [(0, 3), (1, 3)]
    inp = SynthesisInput(X, s0={0: 0})
    almost0 = GoodSystem(DegeneracyTable(X), N=0, almost=True)
    for run in (lambda: step1_extend(fresh_system(X), inp, 3),
                lambda: step2_correct(almost0, inp, 3),
                lambda: synthesize(inp, 3)):
        with pytest.raises(ParseError, match="input set fails validation: .*face_commutation"):
            run()


def _builder_inputs(nj, terminal):
    """Inputs that every way into the engine must refuse alike, with what it raises."""
    X = nj.sset
    s0 = {v: nj.oracle_degeneracies.value(0, 0, v) for v in range(X.cells[0])}
    to_point = SemisimplicialMap(X, terminal.sset, [[0] * c for c in X.cells])
    return {
        "target table missing": (
            SynthesisInput(X, p=to_point, s0=s0), MissingDegeneracies,
            "relative synthesis needs the target's degeneracy table"),
        "s0 missing a vertex": (
            SynthesisInput(X, s0={0: s0[0]}), ParseError, "s0 must cover every vertex; missing 1"),
        "s0 out of range": (
            SynthesisInput(X, s0={0: s0[0], 1: 99}), ParseError,
            "s0(1) = 99 is not an edge index in 0..3"),
        "subcomplex not face-closed": (
            SynthesisInput(X, A=Subcomplex(X, [set(), {0}]), s0=s0), IncompatibleSubcomplexStructure,
            "subcomplex is not face-closed: [('closure', 1, 0, 0), ('closure', 1, 0, 1)]"),
        "table without its subcomplex": (
            SynthesisInput(X, A_deg=nj.oracle_degeneracies, s0=s0), ParseError,
            "a subcomplex table is given without its subcomplex"),
    }


@pytest.mark.parametrize("case", ["target table missing", "s0 missing a vertex", "s0 out of range",
                                  "subcomplex not face-closed", "table without its subcomplex"])
def test_staged_builders_refuse_what_synthesize_refuses(nj, terminal, case):
    inp, kind, text = _builder_inputs(nj, terminal)[case]
    almost0 = GoodSystem(DegeneracyTable(nj.sset), N=0, almost=True)
    for run in (lambda: synthesize(inp, 4), lambda: step1_extend(fresh_system(nj.sset), inp, 4),
                lambda: step2_correct(almost0, inp, 4)):
        assert _raised(kind, run)[0] == text


def test_staged_builders_stop_at_the_depth_of_the_map(n2):
    # the map reaches level 2 of the D5 set, so every run is bounded at 2
    X = n2.sset
    shallow = nerve(cyclic_group(1), 2)
    p = SemisimplicialMap(X, shallow.sset, [[0] * c for c in X.cells[:3]])
    inp = replace(base_input(n2), p=p, Y_deg=shallow.oracle_degeneracies)
    good = step2_correct(step1_extend(fresh_system(X), inp, 5), inp, 5)
    result = synthesize(inp, 5)
    assert result.bound == 2
    assert good.table.restricted(0) == result.table
    almost1 = step1_extend(good, inp, 5)
    assert _raised(TruncationExhausted, lambda: step2_correct(almost1, inp, 5))[0] == (
        "the stage-1 correction needs truncation at least 3")


def test_step1_truncation_guard(n2):
    sys = fresh_system(n2.sset)
    with pytest.raises(TruncationExhausted):
        step1_extend(sys, base_input(n2), 0)


def test_correction_table_forces_double_degeneracies(n2):
    # on degeneracy images the stage-1 correction candidate is the double
    # application of the uncorrected stage-1 operator
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    almost1 = step1_extend(good0, inp, 5)
    recorded = {}
    for y in range(n2.sset.cells[1]):
        x = good0.table.value(0, 1, y)  # s_0(y), a degenerate 2-simplex
        once = almost1.table.value(1, 2, x)
        recorded[x] = almost1.table.value(1, 3, once)
    good1 = step2_correct(almost1, inp, 5)
    for x, expected in recorded.items():
        assert good1.t_table.t[2][x] == expected


# -- full synthesis ------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["n2", "n3", "nm", "np01", "nsq"])
def test_synthesis_matches_identity_insertion_oracle(fixture, request):
    bundle = request.getfixturevalue(fixture)
    result = synthesize(SynthesisInput(bundle.sset), 5)
    for k, n, j, value in result.table.entries():
        assert bundle.oracle_degeneracies.value(k, n, j) == value
    # the verified range covers exactly 0 <= k <= n <= 3
    levels = sorted(result.table.domain())
    assert all(k <= n <= 3 for k, n in levels)
    assert result.verification.ok


def test_synthesis_rejects_simplices_without_idempotent_equivalence(deltas):
    for n in range(1, 4):
        with pytest.raises(NoIdempotentEquivalence) as err:
            synthesize(SynthesisInput(deltas[n].sset), 4)
        assert err.value.vertex == 0


def test_synthesis_on_monoid_auto_picks_identity(nm):
    result = synthesize(SynthesisInput(nm.sset), 4)
    assert result.s0 == {0: 0}


def test_synthesis_consistency_checks_fire_but_agree(n2, n3, nm, np01, nsq):
    for bundle in (n2, n3, nm, np01, nsq):
        result = synthesize(SynthesisInput(bundle.sset), 5)
        assert result.stats["consistency_checks"] > 0


def test_supplied_s0_is_validated(n2):
    with pytest.raises(NoIdempotentEquivalence):
        synthesize(SynthesisInput(n2.sset, s0={0: 1}), 5)  # g is not idempotent


# -- verification --------------------------------------------------------------


def test_verify_oracle_tables(nm, nj):
    for bundle in (nm, nj):
        report = verify_simplicial(bundle.sset, bundle.oracle_degeneracies, bundle.sset.dim)
        assert report.ok
        assert report.checked > 0


def test_verify_catches_swapped_degeneracies(n2):
    broken = n2.oracle_degeneracies.copy()
    s0g = broken.value(0, 1, 1)
    s1g = broken.value(1, 1, 1)
    broken.set_value(0, 1, 1, s1g)
    broken.set_value(1, 1, 1, s0g)
    report = verify_simplicial(n2.sset, broken, 5)
    assert not report.ok
    assert any(v[0] == "face_degeneracy" for v in report.violations)


# -- the automatic degree-0 candidate -------------------------------------------


def test_addendum_on_group_nerves(n2, n3):
    for bundle in (n2, n3):
        found = addendum_s0(bundle.sset, 4)
        identity_edge = bundle.oracle_degeneracies.value(0, 0, 0)
        assert found.s0 == {0: identity_edge}
        for v, w in found.witnesses.items():
            assert all(bundle.sset.face_index(2, w, i) == found.s0[v] for i in range(3))


def test_addendum_rejects_non_kan(nm):
    with pytest.raises(NotKan):
        addendum_s0(nm.sset, 3)


def test_addendum_needs_three_levels(n2):
    with pytest.raises(TruncationExhausted):
        addendum_s0(n2.sset, 2)


def test_addendum_feeds_synthesis(nj):
    found = addendum_s0(nj.sset, 4)
    result = synthesize(SynthesisInput(nj.sset, s0=found.s0,
                                       idempotency_witnesses=found.witnesses), 4)
    for k, n, j, value in result.table.entries():
        assert nj.oracle_degeneracies.value(k, n, j) == value


# -- relative synthesis ----------------------------------------------------------


def test_relative_over_terminal_equals_absolute(nm, terminal):
    # p=None is "over the point"; an explicit map to the point must agree with it
    X = nm.sset
    to_point = SemisimplicialMap(X, terminal.sset, [[0] * c for c in X.cells])
    relative = synthesize_relative(
        SynthesisInput(X, p=to_point, Y_deg=terminal.oracle_degeneracies), 4)
    absolute = synthesize(SynthesisInput(X), 4)
    assert relative.table == absolute.table
    assert relative.certificate == absolute.certificate
    assert (relative.s0, relative.witnesses) == (absolute.s0, absolute.witnesses)
    assert relative.verification.by_family["projection"] > 0


def test_absolute_rejects_a_subcomplex_that_is_not_face_closed(n2):
    X = n2.sset
    # one edge without its vertex
    A = Subcomplex(X, [set(), {0}])
    with pytest.raises(IncompatibleSubcomplexStructure, match="face-closed"):
        synthesize(SynthesisInput(X, A=A, A_deg=DegeneracyTable(X)), 4)


def test_absolute_rejects_a_subcomplex_table_outside_the_subcomplex(n2):
    X = n2.sset
    A = Subcomplex(X, [{0}])
    with pytest.raises(IncompatibleSubcomplexStructure, match="leaves the subcomplex"):
        synthesize(SynthesisInput(X, A=A, A_deg=n2.oracle_degeneracies.restricted(0)), 4)


def test_absolute_with_the_whole_set_as_subcomplex_checks_the_restriction(n2):
    X = n2.sset
    whole = Subcomplex(X, [set(range(c)) for c in X.cells])
    result = synthesize(SynthesisInput(X, A=whole, A_deg=n2.oracle_degeneracies), 5)
    assert result.verification.ok
    assert result.verification.by_family["restriction"] > 0
    assert result.table == n2.oracle_degeneracies.restricted(3)


def _relative_product_input(n2, nj, depth):
    bundle = product(n2.sset, nj.sset)
    constant = [(0, 1)] + [(nj.index_of(n, (0,) * n), nj.index_of(n, (1,) * n))
                           for n in range(1, depth + 1)]
    members = []
    for n in range(depth + 1):
        level = set()
        for c in range(n2.sset.cells[n]):
            level.add(bundle.pair_index(n, c, constant[n][0]))
            level.add(bundle.pair_index(n, c, constant[n][1]))
        members.append(level)
    A = Subcomplex(bundle.sset, members)
    A_deg = DegeneracyTable(bundle.sset)
    for side in (0, 1):
        for k, n, c, v in n2.oracle_degeneracies.entries():
            if n >= depth:
                continue
            A_deg.set_value(k, n, bundle.pair_index(n, c, constant[n][side]),
                            bundle.pair_index(n + 1, v, constant[n + 1][side]))
    s0 = {}
    for side in (0, 1):
        s0[bundle.pair_index(0, 0, constant[0][side])] = bundle.pair_index(1, 0, constant[1][side])
    inp = SynthesisInput(bundle.sset, p=bundle.right,
                         Y_deg=nj.oracle_degeneracies, A=A, A_deg=A_deg, s0=s0)
    return bundle, inp


def test_relative_product_restricts_to_subcomplex(n2, nj):
    bundle, inp = _relative_product_input(n2, nj, 4)
    result = synthesize_relative(inp, 4)
    assert result.verification.ok
    # output is the coordinatewise identity insertion
    for k, n, j, value in result.table.entries():
        c, e = bundle.split_index(n, j)
        expected = bundle.pair_index(
            n + 1, n2.oracle_degeneracies.value(k, n, c), nj.oracle_degeneracies.value(k, n, e))
        assert value == expected


def test_relative_detects_corrupted_subcomplex_table(n2, nj):
    bundle, inp = _relative_product_input(n2, nj, 4)
    # replace s_1 at the degenerate member ((1,g), const0) with a wrong member value
    x = bundle.pair_index(2, n2.index_of(2, (0, 1)), nj.index_of(2, (0, 0)))
    wrong = bundle.pair_index(3, n2.index_of(3, (1, 1, 1)), nj.index_of(3, (0, 0, 0)))
    inp.A_deg.set_value(1, 2, x, wrong)
    # the member is also s_0 of a lower simplex, so the two representations disagree
    assert _raised(ConsistencyViolation, lambda: synthesize_relative(inp, 4)) == (
        f"representations of s_1 at (2, {x}) disagree: "
        f"[('subcomplex', {wrong}), ('degenerate:s_0', 16)]", (2, x))


# -- certificates ----------------------------------------------------------------


def test_certificate_replay_bit_for_bit(n2):
    result = synthesize(SynthesisInput(n2.sset), 5)
    records = json.loads(json.dumps(result.certificate))
    replayed = replay_certificate(SynthesisInput(n2.sset), 5, records)
    assert replayed == result.table


def test_certificate_replay_rejects_tampering(n2):
    result = synthesize(SynthesisInput(n2.sset), 5)
    records = json.loads(json.dumps(result.certificate))
    records[10]["value"] += 1
    run = len(result.certificate)
    for certificate, text, position in (
            (records, "record 10 diverges", 10),
            (result.certificate[:-1], "certificate has fewer records than the run", run - 1),
            (result.certificate + [records[0]], "certificate has more records than the run", run)):
        with pytest.raises(CertificateMismatch, match=text) as caught:
            replay_certificate(SynthesisInput(n2.sset), 5, certificate)
        assert caught.value.position == position


def test_relative_certificate_replays(n2, nj):
    _, inp = _relative_product_input(n2, nj, 4)
    result = synthesize_relative(inp, 4)
    replayed = replay_certificate(inp, 4, json.loads(json.dumps(result.certificate)))
    assert replayed == result.table


def test_certificate_records_have_the_documented_shape(n2):
    result = synthesize(SynthesisInput(n2.sset), 4)
    kinds = {record["kind"] for record in result.certificate}
    assert kinds == {"forced", "filled", "witness"}
    for record in result.certificate:
        assert set(record) <= {"stage", "simplex", "kind", "value", "horn"}
        assert record["stage"]["step"] in (1, 2)
        if record["kind"] == "filled":
            assert "horn" in record


def _lowest_filler_by_scan(X, horn, image=None, target=None):
    # a plain row scan of the recorded horn, independent of the engine's fill tables
    m = horn["n"]
    faces = [(int(i), v) for i, v in horn["faces"].items()]
    for z in range(X.cells[m]):
        if all(X.face_index(m, z, i) == v for i, v in faces):
            if image is None or image[m][z] == target:
                return z
    return None


def _check_filled_records(X, result, p=None, Y_deg=None):
    filled = 0
    for record in result.certificate:
        if record["kind"] != "filled":
            continue
        if record["simplex"][0] == 0:
            # the stage-0 fills of vertices are the degree-0 candidate, not a search
            assert record["value"] == result.s0[record["simplex"][1]]
            continue
        target = None
        if p is not None:
            N, step = record["stage"]["N"], record["stage"]["step"]
            n, j = record["simplex"]
            target = Y_deg.value(N, n, p.levels[n][j])
            if step == 2:
                target = Y_deg.value(N, n + 1, target)
        image = None if p is None else p.levels
        assert record["value"] == _lowest_filler_by_scan(X, record["horn"], image, target), record
        filled += 1
    assert filled > 0


@pytest.mark.parametrize("name, dim", [("z2", 5), ("z3", 5), ("z4", 4), ("monoid", 5),
                                       ("poset", 5), ("j", 5)])
def test_every_filled_record_is_the_lowest_filler_of_its_horn(name, dim):
    category = {"z2": lambda: cyclic_group(2), "z3": lambda: cyclic_group(3),
                "z4": lambda: cyclic_group(4), "monoid": idempotent_monoid,
                "poset": poset_01, "j": j_groupoid}[name]()
    X = nerve(category, dim).sset
    _check_filled_records(X, synthesize(SynthesisInput(X), dim))


def test_every_filled_lift_over_j_is_the_lowest_over_its_target():
    # the demo-uniqueness run: C x J over J, with a table on each end of J
    C, J = nerve(cyclic_group(2), 4), nerve(j_groupoid(), 4)
    demo = uniqueness_demo(C.sset, C.oracle_degeneracies, C.oracle_degeneracies, 4)
    bundle = product(C.sset, J.sset)
    _check_filled_records(bundle.sset, demo.result, bundle.right, J.oracle_degeneracies)
