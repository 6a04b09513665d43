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
    MissingWitness,
    NoIdempotentEquivalence,
    NotKan,
    ParseError,
    RestrictionMismatch,
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    Subcomplex,
    SynthesisInput,
    TruncationExhausted,
    UnfillableHorn,
    addendum_s0,
    check_inner,
    compatibility_failures,
    forced_value,
    identity_map,
    nerve,
    product,
    replay_certificate,
    step1_extend,
    step2_correct,
    synthesize,
    synthesize_relative,
    uniqueness_demo,
    validate,
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


def _without(X, n, z):
    """X less its n-simplex z and every simplex with a dropped face, renumbered."""
    kept = [list(range(c)) for c in X.cells]
    kept[n].remove(z)
    faces = []
    for m in range(1, X.dim + 1):
        renumbered = {old: new for new, old in enumerate(kept[m - 1])}
        rows = [[renumbered.get(f) for f in X.faces_of(m, w)] for w in kept[m]]
        kept[m] = [w for w, row in zip(kept[m], rows) if None not in row]
        faces.append([row for row in rows if None not in row])
    return SemisimplicialSet(list(map(len, kept)), faces)


def test_a_missing_filler_stops_the_next_stage_with_its_horn():
    # Z/2 at D4 without its 3-simplex (g, 1, g) and the 4-simplices on it passes
    # validation but not the inner scan; stage 0 goes through, and stage 1 needs
    # that simplex at level 2, a level the run returns
    n2 = nerve(cyclic_group(2), 4)
    Y = _without(n2.sset, 3, n2.index_of(3, (1, 0, 1)))
    assert validate(Y).ok and not check_inner(Y).ok
    inp = SynthesisInput(Y, s0={0: 0})
    good0 = step2_correct(step1_extend(fresh_system(Y), inp, 4), inp, 4)
    with pytest.raises(UnfillableHorn) as caught:
        step1_extend(good0, inp, 4)
    assert (str(caught.value), caught.value.horn, caught.value.level) == (
        "no admissible filler for the (3,2) horn at level 2", Horn(3, 2, ((0, 1), (1, 3), (3, 2))), 2)


def _loop():
    # one vertex and one self-edge, with no 2-simplex to witness it
    return SemisimplicialSet([1, 1, 0], [[[0, 0]], []])


def test_a_vertex_without_an_idempotency_witness_stops_the_correction():
    X = _loop()
    table = DegeneracyTable(X)
    table.set_value(0, 0, 0, 0)
    with pytest.raises(MissingWitness) as caught:
        step2_correct(GoodSystem(table, N=0, almost=True), SynthesisInput(X), 2)
    assert (str(caught.value), caught.value.vertex) == ("no idempotency witness found at vertex 0", 0)


def test_stage_zero_without_s0_is_refused():
    X = _loop()
    with pytest.raises(ValueError) as caught:
        step1_extend(fresh_system(X), SynthesisInput(X), 2)
    assert str(caught.value) == "stage 0 requires the degree-0 degeneracy candidate s0"


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
        (2, 0))


def test_correction_horn_with_an_undefined_lower_value(n2):
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    almost1 = step1_extend(good0, inp, 5)
    system = GoodSystem(_without_level(almost1.table, 0, 1), N=1, almost=True)
    assert _raised(ConsistencyViolation, lambda: step2_correct(system, inp, 5)) == (
        "needed degeneracy value undefined while prescribing face 0 of the correction horn at (1,1)",
        (1, 1))


def test_correction_horn_through_a_hole_in_a_lower_level(n2):
    # s_0 is undefined on the edge g alone: the edges take their values, and the
    # first correction horn that reads s_0(g), at the 2-simplex (1, g), names it
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    table = step1_extend(good0, inp, 5).table.copy()
    table.set_level(0, 1, [None if j == 1 else v for j, v in enumerate(table.level(0, 1))])
    system = GoodSystem(table, N=1, almost=True)
    assert _raised(ConsistencyViolation, lambda: step2_correct(system, inp, 5)) == (
        "needed degeneracy value undefined while prescribing face 0 of the correction horn at (2,1)",
        (2, 1))


def test_a_correction_that_breaks_its_identity_is_refused(n2, monkeypatch):
    # the top correction level takes simplex 1's value at simplex 0, so s_0 = d_0 t
    # fails d_1 s_0 = id there; no later level reads that level
    from degenforge import degeneracy
    level = degeneracy._Engine._level

    def swapped(engine, N, step, n, *rest):
        values = level(engine, N, step, n, *rest)
        return [values[1], *values[1:]] if step == 2 and n == engine.D - 2 else values

    monkeypatch.setattr(degeneracy._Engine, "_level", swapped)
    inp = base_input(n2)
    almost0 = step1_extend(fresh_system(n2.sset), inp, 5)
    assert _raised(ConsistencyViolation, lambda: step2_correct(almost0, inp, 5)) == (
        "correction failed: d_1 s_0 != id at (3,0)", (3, 0))


@pytest.mark.parametrize("n, j, value, text, simplex", [
    (1, 1, 3, "prescribed horn at level 2 is incompatible at [(0, 3)]; "
              "the current system violates an identity", (2, 1)),
    (2, 3, 4, "prescribed horn at level 3 is incompatible at [(0, 1), (0, 3), (0, 4)]; "
              "the current system violates an identity", (3, 3)),
    (1, 0, 2, "s_1 at simplex (1,0) violates its defining equation at face 1", (1, 0)),
    (3, 2, 4, "s_1 at simplex (3,2) violates its defining equation at face 0", (3, 2)),
])
def test_extension_over_a_corrupted_lower_value(n2, n, j, value, text, simplex):
    # an incompatible prescribed horn fails before its fill, naming its simplex and
    # the failing face pairs; a wrong forced value off the subcomplex fails the
    # level's check as a ConsistencyViolation
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


def _over_j(depth):
    """Z/2 x J over J at ``depth``, with s0 the identity edge over each vertex of J."""
    n2, nj = nerve(cyclic_group(2), depth), nerve(j_groupoid(), depth)
    bundle = product(n2.sset, nj.sset)
    s0 = {bundle.pair_index(0, 0, y): bundle.pair_index(1, 0, nj.oracle_degeneracies.value(0, 0, y))
          for y in range(nj.sset.cells[0])}
    return nj, SynthesisInput(bundle.sset, p=bundle.right, Y_deg=nj.oracle_degeneracies, s0=s0)


def test_a_correction_over_a_target_table_without_its_upper_level():
    # step 2 at level 1 reads s_0 s_0 of each image, so it needs level 2 of the target table
    nj, inp = _over_j(3)
    almost0 = step1_extend(fresh_system(inp.X), inp, 3)
    inp = replace(inp, Y_deg=nj.oracle_degeneracies.restricted(1))
    assert _raised(MissingDegeneracies, lambda: step2_correct(almost0, inp, 3)) == (
        "target degeneracy s_0 undefined at level 2; "
        "the relative run needs the target table up to level 2", None)


def _with_level_value(table, k, n, j, value):
    table = table.copy()
    table.set_level(k, n, [value if i == j else v for i, v in enumerate(table.level(k, n))])
    return table


def _stages_of_z2():
    """Z/2 at D5 with its oracle s0, its 0-good system and its almost-1-good one."""
    n2 = nerve(cyclic_group(2), 5)
    inp = base_input(n2)
    good0 = step2_correct(step1_extend(fresh_system(n2.sset), inp, 5), inp, 5)
    return inp, good0, step1_extend(good0, inp, 5)


def _tampered_middle_face():
    # s_1 undefined at the 2-simplex 1: faces 2 and 3 of its correction horn are undefined
    inp, _, almost1 = _stages_of_z2()
    system = GoodSystem(_with_level_value(almost1.table, 1, 2, 1, None), N=1, almost=True)
    return lambda: step2_correct(system, inp, 5)


def _tampered_lower_value():
    # s_0 of the edge 1 set to the edge 0: the extension horn at the 2-simplex 1 is incompatible
    inp, good0, _ = _stages_of_z2()
    system = GoodSystem(_with_level_value(good0.table, 0, 1, 1, 0), N=0)
    return lambda: step1_extend(system, inp, 5)


def _tampered_target():
    # s_0 of J's edge 0 set to the 2-simplex 1: the horn at the edge 0 of Z/2 x J has its one
    # filler over another target, and the map is unmarked, so the engine fills from X's pair
    nj, inp = _over_j(3)
    p = inp.p
    inp = replace(inp, p=SemisimplicialMap(p.source, p.target, p.levels),
                  Y_deg=_with_level_value(nj.oracle_degeneracies, 0, 1, 0, 1))
    return lambda: step1_extend(fresh_system(inp.X), inp, 3)


@pytest.mark.parametrize("tampered, kind, text, horn, target, simplex", [
    (_tampered_middle_face, ConsistencyViolation,
     "needed degeneracy value undefined while prescribing face 2 of the correction horn at (2,1)",
     None, None, (2, 1)),
    (_tampered_lower_value, ConsistencyViolation,
     "prescribed horn at level 2 is incompatible at [(0, 1)]; the current system violates an identity",
     None, None, (2, 1)),
    (_tampered_target, UnfillableHorn, "no admissible filler for the (2,1) horn at level 1",
     Horn(2, 1, ((0, 0), (2, 0))), 1, None),
], ids=["undefined-face", "incompatible", "wrong-target"])
def test_a_decided_shape_refuses_a_row_that_its_pair_names_as_before(monkeypatch, tampered, kind, text,
                                                                      horn, target, simplex):
    # the refused row's shape is decided and its faces (a, b) name a simplex, so the fill
    # from the spanning pair finds one and must still leave the row without a value
    from degenforge import degeneracy, horn as horn_module
    unfilled, rows = degeneracy._Engine._unfilled, []

    def recording(engine, m, k, row, *rest):
        rows.append((engine.X, m, k, row))
        return unfilled(engine, m, k, row, *rest)

    monkeypatch.setattr(degeneracy._Engine, "_unfilled", recording)
    with pytest.raises(kind) as caught:
        tampered()()
    error = caught.value
    assert type(error) is kind and str(error) == text
    assert (getattr(error, "horn", None), getattr(error, "target", None)) == (horn, target)
    assert getattr(error, "simplex", None) == simplex
    [(X, m, k, row)] = rows
    assert horn_module._decided(X, None, m, k)
    assert (row[0], row[-1]) in horn_module._separates(X, m, horn_module._pair(m, k))


def test_a_hole_in_the_target_table_is_refused_before_its_level(monkeypatch):
    # s_0 of J is undefined on u alone; the image meets u, so level 1 of step 1 is refused
    # before any of its rows is decided
    from degenforge import degeneracy
    nj, inp = _over_j(3)
    holed = nj.oracle_degeneracies.copy()
    holed.set_level(0, 1, [None if y == 2 else v for y, v in enumerate(holed.level(0, 1))])
    decided = []
    level = degeneracy._Engine._level
    monkeypatch.setattr(degeneracy._Engine, "_level",
                        lambda engine, N, step, n, *rest: decided.append((N, step, n))
                        or level(engine, N, step, n, *rest))
    assert _raised(MissingDegeneracies, lambda: synthesize(replace(inp, Y_deg=holed), 3)) == (
        "target degeneracy s_0 undefined at level 1; "
        "the relative run needs the target table up to level 2", None)
    assert decided == [(0, 1, 0)]


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
    assert _raised(TruncationExhausted, lambda: step1_extend(good, inp, 5))[0] == (
        "the stage-1 extension needs truncation at least 3")
    almost1 = replace(good, N=1, almost=True)
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


def test_a_run_whose_table_fails_verification_is_refused(n2, monkeypatch):
    # the engine's level checks keep this from happening; a run made to return
    # s_0(g) = s_0(1) is still refused by the exhaustive identity check
    from degenforge import degeneracy
    run = degeneracy._Engine.run

    def tampered(engine):
        table, certificate = run(engine)
        table.set_value(0, 1, 1, table.value(0, 1, 0))
        return table, certificate

    monkeypatch.setattr(degeneracy._Engine, "run", tampered)
    assert _raised(ConsistencyViolation, lambda: synthesize(base_input(n2), 5)) == (
        "synthesized table failed verification: [('face_degeneracy', 0, 1, 1, 0), "
        "('face_degeneracy', 0, 1, 1, 1), ('face_degeneracy', 0, 2, 1, 2)]", None)


def test_a_run_that_fails_only_its_restriction_is_refused_as_such(n2, monkeypatch):
    # verification is handed the subcomplex table with s_0(g) moved, so only the restriction fails
    from degenforge import degeneracy
    verify = degeneracy.verify_simplicial

    def moved(X, table, D, *, sub_table, **rest):
        return verify(X, table, D, sub_table=_with_value(sub_table, 0, 1, 1, sub_table.value(0, 1, 0)),
                      **rest)

    monkeypatch.setattr(degeneracy, "verify_simplicial", moved)
    X = n2.sset
    whole = Subcomplex(X, [set(range(c)) for c in X.cells])
    inp = SynthesisInput(X, A=whole, A_deg=n2.oracle_degeneracies)
    assert _raised(RestrictionMismatch, lambda: synthesize(inp, 5)) == (
        "output fails to restrict to the subcomplex table: [('restriction', 0, 1, 1)]", None)


def test_a_map_from_another_set_is_refused(n2, n3, terminal):
    p = SemisimplicialMap(n3.sset, terminal.sset, [[0] * c for c in n3.sset.cells])
    inp = SynthesisInput(n2.sset, p=p, Y_deg=terminal.oracle_degeneracies)
    assert _raised(ValueError, lambda: synthesize(inp, 5))[0] == (
        "the projection's source must be the synthesis input set")


def test_relative_synthesis_without_a_map_is_refused(n2):
    assert _raised(ValueError, lambda: synthesize_relative(SynthesisInput(n2.sset), 5))[0] == (
        "relative synthesis needs the projection map")


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
    records = json.loads(json.dumps(list(result.certificate)))
    replayed = replay_certificate(SynthesisInput(n2.sset), 5, records)
    assert replayed == result.table


def test_certificate_replay_rejects_tampering(n2):
    result = synthesize(SynthesisInput(n2.sset), 5)
    records = json.loads(json.dumps(list(result.certificate)))
    records[10]["value"] += 1
    run = len(result.certificate)
    for certificate, text, position in (
            (records, "record 10 diverges", 10),
            (result.certificate[:-1], "certificate has fewer records than the run", run - 1),
            (list(result.certificate) + [records[0]], "certificate has more records than the run", run)):
        with pytest.raises(CertificateMismatch, match=text) as caught:
            replay_certificate(SynthesisInput(n2.sset), 5, certificate)
        assert caught.value.position == position


def test_relative_certificate_replays(n2, nj):
    _, inp = _relative_product_input(n2, nj, 4)
    result = synthesize_relative(inp, 4)
    replayed = replay_certificate(inp, 4, json.loads(json.dumps(list(result.certificate))))
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


# -- inputs bound to another set -----------------------------------------------------


def _z3_table_with_a_last_simplex():
    """A Z/3 table at D4 whose s_1 of edge 1 is Z/3's last 2-simplex, out of Z/2's range."""
    z3 = nerve(cyclic_group(3), 4)
    table = z3.oracle_degeneracies.copy()
    table.set_value(1, 1, 1, z3.sset.cells[2] - 1)
    return z3, table


def test_a_subcomplex_of_another_set_is_refused():
    X = nerve(cyclic_group(2), 4).sset
    z3, table = _z3_table_with_a_last_simplex()
    A = Subcomplex(z3.sset, [set(range(c)) for c in z3.sset.cells])
    with pytest.raises(ValueError, match="the subcomplex's ambient set must be the synthesis input set"):
        synthesize(SynthesisInput(X, A=A, A_deg=table, s0={0: 0}), 4)


def test_a_subcomplex_table_of_another_set_is_refused():
    X = nerve(cyclic_group(2), 4).sset
    _, table = _z3_table_with_a_last_simplex()
    A = Subcomplex(X, [set(range(c)) for c in X.cells])
    with pytest.raises(ValueError, match="the subcomplex table's base must be the synthesis input set"):
        synthesize(SynthesisInput(X, A=A, A_deg=table, s0={0: 0}), 4)


@pytest.mark.parametrize("order", [2, 3])
def test_a_target_table_of_another_set_is_refused(order):
    p = product(nerve(cyclic_group(2), 4).sset, nerve(j_groupoid(), 4).sset).right
    Y_deg = nerve(cyclic_group(order), 4).oracle_degeneracies
    with pytest.raises(ValueError, match="the target table's base must be the projection's target"):
        synthesize(SynthesisInput(p.source, p=p, Y_deg=Y_deg), 4)


@pytest.mark.parametrize("on, of", [(2, 3), (3, 2)])
def test_verify_simplicial_refuses_a_table_of_another_set(on, of):
    X = nerve(cyclic_group(on), 4).sset
    table = nerve(cyclic_group(of), 4).oracle_degeneracies
    with pytest.raises(ValueError, match="the table's base must be the checked set"):
        verify_simplicial(X, table, 4)


def _z2xj_run():
    """Z/2 x J over J at D4: the set, its synthesized table, the map, J's table and Z/2."""
    nj, nc = nerve(j_groupoid(), 4), nerve(cyclic_group(2), 4)
    p = product(nc.sset, nj.sset).right
    table = synthesize(SynthesisInput(p.source, p=p, Y_deg=nj.oracle_degeneracies), 4).table
    return p.source, table, p, nj.oracle_degeneracies, nc


def test_verify_simplicial_refuses_a_map_of_another_set():
    X, table, _, _, nc = _z2xj_run()
    with pytest.raises(ValueError, match="the map's source must be the checked set"):
        verify_simplicial(X, table, 4, pmap=identity_map(nc.sset), target_table=nc.oracle_degeneracies)


def test_verify_simplicial_refuses_a_target_table_of_another_set():
    X, table, p, _, _ = _z2xj_run()
    Y_deg = nerve(cyclic_group(3), 4).oracle_degeneracies
    with pytest.raises(ValueError, match="the target table's base must be the map's target"):
        verify_simplicial(X, table, 4, pmap=p, target_table=Y_deg)


def test_verify_simplicial_refuses_a_subcomplex_of_another_set():
    X, table, _, _, nc = _z2xj_run()
    A = Subcomplex(nc.sset, [set(range(c)) for c in nc.sset.cells])
    with pytest.raises(ValueError, match="the subcomplex's ambient set must be the checked set"):
        verify_simplicial(X, table, 4, subcomplex=A, sub_table=table)


def test_verify_simplicial_refuses_a_subcomplex_table_of_another_set():
    X, table, _, _, nc = _z2xj_run()
    A = Subcomplex(X, [set(range(c)) for c in X.cells])
    with pytest.raises(ValueError, match="the subcomplex table's base must be the checked set"):
        verify_simplicial(X, table, 4, subcomplex=A, sub_table=nc.oracle_degeneracies)


def test_verify_simplicial_refuses_a_subcomplex_table_without_its_subcomplex():
    X, table, _, _, _ = _z2xj_run()
    with pytest.raises(ParseError, match="^a subcomplex table is given without its subcomplex$"):
        verify_simplicial(X, table, 4, sub_table=table)


def test_verify_simplicial_refuses_a_target_table_without_its_map():
    X, table, _, Y_deg, _ = _z2xj_run()
    with pytest.raises(ParseError, match="^a target table is given without its map$"):
        verify_simplicial(X, table, 4, target_table=Y_deg)


def test_verify_simplicial_refuses_a_map_without_its_target_table():
    X, table, p, _, _ = _z2xj_run()
    with pytest.raises(MissingDegeneracies, match="^a check over a map needs the target's degeneracy table$"):
        verify_simplicial(X, table, 4, pmap=p)


def test_verify_simplicial_accepts_a_subcomplex_without_its_table():
    # synthesize passes the subcomplex of a run whose subcomplex has no table
    X, table, _, _, _ = _z2xj_run()
    A = Subcomplex(X, [set(range(c)) for c in X.cells])
    report = verify_simplicial(X, table, 4, subcomplex=A)
    assert report.ok and report.by_family["restriction"] == 0
    assert report.checked == verify_simplicial(X, table, 4).checked


def test_synthesis_refuses_a_target_table_without_its_map():
    X, _, _, Y_deg, _ = _z2xj_run()
    with pytest.raises(ParseError, match="^a target table is given without its map$"):
        synthesize(SynthesisInput(X, Y_deg=Y_deg), 4)


@pytest.mark.parametrize("on, of", [(2, 3), (3, 2)])
@pytest.mark.parametrize("label", ["deg0", "deg1"])
def test_uniqueness_demo_refuses_a_table_of_another_set(on, of, label):
    C = nerve(cyclic_group(on), 4)
    other = nerve(cyclic_group(of), 4).oracle_degeneracies
    tables = {"deg0": C.oracle_degeneracies, "deg1": C.oracle_degeneracies, label: other}
    with pytest.raises(ValueError, match=f"{label}'s base must be the input set"):
        uniqueness_demo(C.sset, tables["deg0"], tables["deg1"], 4)


def test_the_staged_steps_validate_their_set_once(monkeypatch):
    from degenforge import degeneracy, sset
    bundle = nerve(cyclic_group(2), 5)
    validated = []
    for module in (degeneracy, sset):
        monkeypatch.setattr(module, "validate",
                            lambda X, real=module.validate: validated.append(X) or real(X))
    inp = base_input(bundle)
    good = step2_correct(step1_extend(fresh_system(bundle.sset), inp, 5), inp, 5)
    assert good.status == "0-good"
    assert [X is bundle.sset for X in validated] == [True]
