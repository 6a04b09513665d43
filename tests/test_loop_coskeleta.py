"""1-coskeleta of complete multigraphs: Kan sets that are not nerves.

The multigraph has V vertices and E edges from each vertex to each vertex,
loops included. An n-simplex of its 1-coskeleton labels each vertex of
Delta[n] by a vertex and each edge (a, b), a < b, of Delta[n] by one of the
E edges; d_i deletes vertex i. Simplices are numbered in the order of
``itertools.product``, vertex labels first, then edge labels with the edges
in lexicographic order. With one vertex and L loops this is the loop
coskeleton of the table below; L = 1 is the point, and E = 1 gives the
nerve of the chaotic groupoid on V objects.

    L  D  cells
    2  3  [1, 2, 8, 64]
    2  4  [1, 2, 8, 64, 1024]
    3  3  [1, 3, 27, 729]

Each set passes ``validate``, ``check --kan`` and ``edges``, so it meets the
paper's hypotheses, and ``synthesize`` must give it a simplicial structure.
For E >= 2 the lowest fillers are not identity insertions, so the nerves'
identity-insertion oracle does not apply. A 1-coskeleton has a closed-form
oracle of its own, :func:`coskeleton_table`: its edges determine each
simplex, so s_0 on the vertices fixes the whole structure. s_k x repeats
vertex k of x, and the edge that collapses is labelled by the loop that s_0
takes at that vertex. ``synthesize`` given s_0 must return that table, for
drawn V, E, D and loops.

The other checks are ``verify_simplicial``, the certificate round trip
through ``synthesize`` and ``verify --cert``, and the run on a relabeled
copy, pulled back. The drawn property takes these coskeleta, and their
products with drawn nerves, with the top level capped. There the lowest
filler depends on the labels, so the pulled-back table is held to the
identities, not to the direct run's values.

On L2@D4 the relabeled run gives a table that differs from the direct one:
it is the oracle table of the other loop. ``demo-uniqueness`` joins the two
through ``cli.run``.
"""

import itertools
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenforge import (
    DegeneracyTable,
    SemisimplicialSet,
    SynthesisInput,
    j_groupoid,
    nerve,
    product,
    synthesize,
    uniqueness_demo,
    verify_simplicial,
)
from degenforge.cli import run
from conftest import DEMO, drawn_categories as categories, pulled_back, relabeled
from test_drawn_categories import _chains

CASES = [(1, 3, [1, 1, 1, 1]), (2, 3, [1, 2, 8, 64]), (2, 4, [1, 2, 8, 64, 1024]),
         (3, 3, [1, 3, 27, 729])]
IDS = [f"L{loops}-D{dim}" for loops, dim, _ in CASES]
TOP_CELLS = 1100  # the most top-level simplices a drawn set may have


def _simplices(vertices: int, edges: int, n: int) -> list[tuple]:
    """The n-simplices in their order: (vertex labels, edge labels with the edges lexicographic)."""
    return list(itertools.product(itertools.product(range(vertices), repeat=n + 1),
                                  itertools.product(range(edges), repeat=n * (n + 1) // 2)))


def coskeleton(vertices: int, edges: int, dim: int) -> SemisimplicialSet:
    """The 1-coskeleton, up to ``dim``, of the complete multigraph described above."""
    levels = [_simplices(vertices, edges, n) for n in range(dim + 1)]
    faces = []
    for n in range(1, dim + 1):
        index = {simplex: j for j, simplex in enumerate(levels[n - 1])}
        pairs = list(itertools.combinations(range(n + 1), 2))
        lower = list(itertools.combinations(range(n), 2))
        level = []
        for labels, labelling in levels[n]:
            label = dict(zip(pairs, labelling))
            row = []
            for i in range(n + 1):
                kept = [v for v in range(n + 1) if v != i]
                row.append(index[tuple(labels[v] for v in kept),
                                 tuple(label[kept[a], kept[b]] for a, b in lower)])
            level.append(row)
        faces.append(level)
    return SemisimplicialSet(list(map(len, levels)), faces)


def loop_coskeleton(loops: int, dim: int) -> SemisimplicialSet:
    return coskeleton(1, loops, dim)


def coskeleton_table(vertices: int, edges: int, dim: int, loops: list[int]) -> DegeneracyTable:
    """The structure on ``coskeleton(vertices, edges, dim)`` whose s_0 at vertex v is the loop ``loops[v]``.

    s_k of an n-simplex sends vertex v of Delta[n+1] to its vertex v for v <= k
    and v - 1 above, so the edge (k, k+1) collapses onto vertex k and takes its
    loop; every other edge (a, b) takes the label of the edge it lands on.
    The levels are 0 <= k <= n <= dim - 2, the ones a run returns.
    """
    table = DegeneracyTable(coskeleton(vertices, edges, dim))
    for n in range(dim - 1):
        above = {simplex: j for j, simplex in enumerate(_simplices(vertices, edges, n + 1))}
        pairs = list(itertools.combinations(range(n + 1), 2))
        for k in range(n + 1):
            onto = [v if v <= k else v - 1 for v in range(n + 2)]
            level = []
            for labels, labelling in _simplices(vertices, edges, n):
                label = dict(zip(pairs, labelling))
                repeated = tuple(labels[v] for v in onto)
                collapsed = tuple(loops[labels[k]] if (a, b) == (k, k + 1) else label[onto[a], onto[b]]
                                  for a, b in itertools.combinations(range(n + 2), 2))
                level.append(above[repeated, collapsed])
            table.set_level(k, n, level)
    return table


def _s0(vertices: int, edges: int, loops: list[int]) -> list[int]:
    """The edge index of the loop ``loops[v]`` at each vertex v."""
    index = {simplex: j for j, simplex in enumerate(_simplices(vertices, edges, 1))}
    return [index[(v, v), (loop,)] for v, loop in enumerate(loops)]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=3),
       st.integers(min_value=2, max_value=5), st.data())
def test_synthesis_given_s0_is_the_coskeleton_oracle(vertices, edges, dim, data):
    while dim > 2 and vertices ** (dim + 1) * edges ** (dim * (dim + 1) // 2) > TOP_CELLS:
        dim -= 1
    loops = data.draw(st.lists(st.integers(min_value=0, max_value=edges - 1),
                               min_size=vertices, max_size=vertices))
    X = coskeleton(vertices, edges, dim)
    oracle = coskeleton_table(vertices, edges, dim, loops)
    assert verify_simplicial(X, oracle, dim).ok
    result = synthesize(SynthesisInput(X, s0=_s0(vertices, edges, loops)), dim)
    assert result.table == oracle


@pytest.mark.parametrize("loops, dim, cells", CASES, ids=IDS)
def test_a_loop_coskeleton_meets_the_hypotheses(tmp_path, loops, dim, cells):
    X = loop_coskeleton(loops, dim)
    assert list(X.cells) == cells
    path = tmp_path / "x.sset"
    path.write_text(json.dumps(X.to_json_dict()))
    for argv in (["validate"], ["check", "--kan"], ["edges"]):
        code, report = run([*argv, str(path)])
        assert (code, report["verdict"]) == (0, "ok" if argv == ["validate"] else "yes"), report


@pytest.mark.parametrize("loops, dim, cells", CASES, ids=IDS)
def test_the_demo_scripts_loop_coskeleton_is_this_one(loops, dim, cells):
    # scripts/run_demo.py builds L_loops on its own; it must be coskeleton(1, loops, dim), face for face
    script = DEMO["loop_coskeleton"](loops, dim)
    assert script.to_json_dict() == loop_coskeleton(loops, dim).to_json_dict()


def test_the_point_synthesizes():
    result = synthesize(SynthesisInput(loop_coskeleton(1, 3)), 3)
    assert result.verification.ok


@pytest.mark.parametrize("loops, dim, cells", CASES[1:], ids=IDS[1:])
def test_a_loop_coskeleton_synthesizes(loops, dim, cells):
    X = loop_coskeleton(loops, dim)
    result = synthesize(SynthesisInput(X), dim)
    assert result.verification.ok
    assert sorted(result.table.domain()) == [(k, n) for k in range(dim - 1) for n in range(k, dim - 1)]


def _checked(X: SemisimplicialSet, dim: int, rng, tmp_path) -> tuple[DegeneracyTable, DegeneracyTable]:
    """Synthesis on X, its files' round trip, and the relabeled run pulled back; the two tables."""
    result = synthesize(SynthesisInput(X), dim)
    assert verify_simplicial(X, result.table, dim).ok
    sset, table, cert = (str(tmp_path / name) for name in ("x.sset", "x.table", "x.cert"))
    (tmp_path / "x.sset").write_text(json.dumps(X.to_json_dict()))
    code, report = run(["synthesize", sset, "--out", table, "--cert", cert])
    assert (code, report["outputs"]) == (0, [table, cert]), report
    written = DegeneracyTable.from_json_dict(json.loads((tmp_path / "x.table").read_text()), X)
    assert written == result.table
    code, report = run(["verify", sset, table, "--cert", cert])
    assert (code, report["verdict"]) == (0, "pass"), report
    assert report["detail"]["replayed_records"] == len(result.certificate)
    Y, perm = relabeled(X, rng)
    other = pulled_back(synthesize(SynthesisInput(Y), dim).table, X, perm)
    assert sorted(other.domain()) == sorted(result.table.domain())
    assert verify_simplicial(X, other, dim).ok
    return result.table, other


def _joined(X: SemisimplicialSet, deg0, deg1, dim: int, out: DegeneracyTable) -> None:
    """Over the end a of J, on its constant chains, the demo's output ``out`` is deg_a."""
    nj = nerve(j_groupoid(), dim)
    bundle = product(X, nj.sset)

    def end(n, a):
        return a if n == 0 else nj.index_of(n, (a,) * n)

    for a, table in ((0, deg0), (1, deg1)):
        for k, n, j, v in table.entries():
            assert out.value(k, n, bundle.pair_index(n, j, end(n, a))) == \
                bundle.pair_index(n + 1, v, end(n + 1, a)), (a, k, n, j)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=2), st.integers(min_value=1, max_value=2),
       st.integers(min_value=2, max_value=4), st.none() | categories, st.randoms(use_true_random=False))
def test_a_drawn_coskeleton_synthesizes(tmp_path_factory, vertices, edges, dim, category, rng):
    # a coskeleton, or its product with a drawn nerve, at the highest D within the cap
    def top(d):
        cells = vertices ** (d + 1) * edges ** (d * (d + 1) // 2)
        return cells * (1 if category is None else _chains(category, d))

    while dim > 2 and top(dim) > TOP_CELLS:
        dim -= 1
    if top(dim) > TOP_CELLS:
        return
    X = coskeleton(vertices, edges, dim)
    if category is not None:
        X = product(X, nerve(category, dim).sset).sset
    deg0, deg1 = _checked(X, dim, rng, tmp_path_factory.mktemp("drawn"))
    _joined(X, deg0, deg1, dim, uniqueness_demo(X, deg0, deg1, dim).result.table)


def test_two_distinct_tables_join_in_the_uniqueness_demo(tmp_path):
    # deg0 is the direct run on L2@D4, deg1 a relabeled run pulled back
    X = loop_coskeleton(2, 4)
    deg0 = synthesize(SynthesisInput(X), 4).table
    Y, perm = relabeled(X, random.Random(1))
    deg1 = pulled_back(synthesize(SynthesisInput(Y), 4).table, X, perm)
    assert (deg0, deg1) == (coskeleton_table(1, 2, 4, [0]), coskeleton_table(1, 2, 4, [1]))
    assert sum(a != b for a, b in zip(deg0.entries(), deg1.entries())) == 29
    paths = {name: tmp_path / name for name in ("x.sset", "deg0", "deg1", "out", "cert", "broken")}
    paths["x.sset"].write_text(json.dumps(X.to_json_dict()))
    paths["deg0"].write_text(json.dumps(deg0.to_json_dict()))
    paths["deg1"].write_text(json.dumps(deg1.to_json_dict()))
    argv = ["demo-uniqueness", str(paths["x.sset"]), "--deg0", str(paths["deg0"]), "--deg1"]
    code, report = run([*argv, str(paths["deg1"]), "--out", str(paths["out"]),
                        "--cert", str(paths["cert"])])
    assert (code, report["verdict"]) == (0, "success"), report
    demo = uniqueness_demo(X, deg0, deg1, 4)
    assert (report["detail"]["restriction_checked"], report["detail"]["projection_checked"]) == (
        demo.restriction_checked, demo.projection_checked) == (58, 210)
    out = DegeneracyTable.from_json_dict(json.loads(paths["out"].read_text()), demo.result.table.base)
    assert out == demo.result.table
    _joined(X, deg0, deg1, 4, out)
    # deg1 with s_0 of the first edge moved to another 2-simplex breaks d_0 s_0 = id there
    data = deg1.to_json_dict()
    data["s"][0][1][0] = next(v for v in range(X.cells[2]) if X.face_index(2, v, 0) != 0)
    paths["broken"].write_text(json.dumps(data))
    code, report = run([*argv, str(paths["broken"])])
    assert (code, report["verdict"], report["detail"]) == (
        1, "InvalidDegeneracyTable", "deg1 fails its identity check: [('face_degeneracy', 0, 1, 0, 0), "
        "('face_degeneracy', 0, 1, 0, 2), ('face_degeneracy', 0, 2, 0, 2)]")
