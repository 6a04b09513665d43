"""Nerves of finite (possibly non-unital) categories, fixtures, and oracles.

The nerve of a presentation enumerates composable arrow chains; chains are
ordered lexicographically by arrow indices, which fixes the canonical
simplex order that all downstream tie-breaking relies on. Unital
presentations additionally yield an identity-insertion degeneracy table,
used as an independent oracle against the synthesized one.

``nerve`` builds each level from the one below as whole columns: an
m-chain is an (m-1)-chain extended by one arrow, the extensions of one
chain sit together in arrow order, and so each face and each identity
insertion is a gather of the level below plus the arrow's rank. No chain
tuple is built on the way; ``NerveBundle.chains`` reads them off the faces
when asked.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, repeat
from operator import add
from typing import Mapping, Optional, Sequence

from .degeneracy import (
    DegeneracyTable,
    SynthesisInput,
    SynthesisResult,
    _degree_zero_refusal,
    _require_same,
    synthesize_relative,
    verify_simplicial,
)
from .errors import (
    InvalidCategory,
    InvalidDegeneracyTable,
    ParseError,
    TruncationExhausted,
)
from .sset import SemisimplicialSet, Subcomplex, product


@dataclass(frozen=True)
class Arrow:
    name: str
    src: int
    tgt: int


class CategoryPresentation:
    """Finite category data: objects, arrows, and a total composition table.

    Identities are optional (non-unital presentations are allowed), but the
    composition must be closed and associative either way.
    """

    def __init__(self, objects: Sequence[str], arrows: Sequence[Arrow],
                 compose: Mapping[tuple[int, int], int],
                 identities: Optional[Mapping[int, int]] = None):
        self.objects = tuple(str(o) for o in objects)
        self.arrows = tuple(arrows)
        self.compose = {(int(g), int(f)): int(gf) for (g, f), gf in compose.items()}
        self.identities = None if identities is None else {int(o): int(a) for o, a in identities.items()}

    @property
    def unital(self) -> bool:
        return self.identities is not None

    def hom(self, x: int, y: int) -> list[int]:
        return [i for i, a in enumerate(self.arrows) if a.src == x and a.tgt == y]

    def validate(self) -> None:
        n_obj, n_arr = len(self.objects), len(self.arrows)
        for i, a in enumerate(self.arrows):
            if not (0 <= a.src < n_obj and 0 <= a.tgt < n_obj):
                raise InvalidCategory(f"arrow {i} has out-of-range endpoints")
        for (g, f), gf in self.compose.items():
            if not (0 <= g < n_arr and 0 <= f < n_arr and 0 <= gf < n_arr):
                raise InvalidCategory(f"composition entry ({g},{f}) out of range")
            if self.arrows[f].tgt != self.arrows[g].src:
                raise InvalidCategory(f"composition entry ({g},{f}) is not composable")
            if self.arrows[gf].src != self.arrows[f].src or self.arrows[gf].tgt != self.arrows[g].tgt:
                raise InvalidCategory(f"composite of ({g},{f}) has wrong endpoints")
        for g in range(n_arr):
            for f in range(n_arr):
                if self.arrows[f].tgt == self.arrows[g].src and (g, f) not in self.compose:
                    raise InvalidCategory(f"composable pair ({g},{f}) has no composite")
        for h in range(n_arr):
            for g in range(n_arr):
                if self.arrows[g].tgt != self.arrows[h].src:
                    continue
                for f in range(n_arr):
                    if self.arrows[f].tgt != self.arrows[g].src:
                        continue
                    if self.compose[(h, self.compose[(g, f)])] != self.compose[(self.compose[(h, g)], f)]:
                        raise InvalidCategory(f"associativity fails on ({h},{g},{f})")
        if self.identities is not None:
            if sorted(self.identities) != list(range(n_obj)):
                raise InvalidCategory("identities must cover every object exactly once")
            for o, e in self.identities.items():
                a = self.arrows[e]
                if a.src != o or a.tgt != o:
                    raise InvalidCategory(f"identity of object {o} is not a self-arrow")
                for f in range(n_arr):
                    if self.arrows[f].tgt == o and self.compose[(e, f)] != f:
                        raise InvalidCategory(f"left identity law fails at ({e},{f})")
                    if self.arrows[f].src == o and self.compose[(f, e)] != f:
                        raise InvalidCategory(f"right identity law fails at ({f},{e})")

    def to_json_dict(self) -> dict:
        out = {
            "objects": list(self.objects),
            "arrows": [{"name": a.name, "src": self.objects[a.src], "tgt": self.objects[a.tgt]}
                       for a in self.arrows],
            "compose": [[self.arrows[g].name, self.arrows[f].name, self.arrows[gf].name]
                        for (g, f), gf in sorted(self.compose.items())],
        }
        if self.identities is not None:
            out["identities"] = {self.objects[o]: self.arrows[a].name
                                 for o, a in sorted(self.identities.items())}
        return out

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "CategoryPresentation":
        # a name or a composable pair given twice is an error, not an entry that overrides
        try:
            objects = [str(o) for o in data["objects"]]
            obj_index = _named("object", objects)
            arrows = [Arrow(str(spec["name"]), obj_index[spec["src"]], obj_index[spec["tgt"]])
                      for spec in data["arrows"]]
            arrow_index = _named("arrow", [a.name for a in arrows])
            compose = {}
            for g, f, gf in data["compose"]:
                pair = (arrow_index[g], arrow_index[f])
                if pair in compose:
                    raise ParseError(f"the composite of ({g!r}, {f!r}) is given twice")
                compose[pair] = arrow_index[gf]
            identities = None
            if data.get("identities") is not None:
                if not isinstance(data["identities"], dict):
                    raise ParseError("a category's \"identities\" is an object from objects to arrows")
                identities = {obj_index[o]: arrow_index[a] for o, a in data["identities"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed category: {exc}") from exc
        return cls(objects, arrows, compose, identities)


def _named(kind: str, names: Sequence[str]) -> dict[str, int]:
    """Each name's position; a name given twice is a :class:`ParseError`."""
    index: dict[str, int] = {}
    for i, name in enumerate(names):
        if index.setdefault(name, i) != i:
            raise ParseError(f"{kind} name {name!r} is given twice")
    return index


@dataclass
class NerveBundle:
    """A nerve with its chain bookkeeping and optional identity-insertion oracle.

    ``chains[n][j]`` is the j-th n-simplex as a tuple of arrow indices (an
    object index at n = 0), and ``index_of`` inverts it. Both are read off
    the face levels on first use, since an n-chain is its last face d_n
    extended by the last arrow of its first face d_0; a nerve that is only
    written or checked never builds them.
    """

    category: CategoryPresentation
    sset: SemisimplicialSet
    oracle_degeneracies: Optional[DegeneracyTable] = None

    @cached_property
    def chains(self) -> tuple:
        X = self.sset
        levels = [tuple(range(X.cells[0]))]
        if X.dim:
            levels.append(tuple((a,) for a in range(X.cells[1])))
        for n in range(2, X.dim + 1):
            below = levels[-1]
            levels.append(tuple(p + q[-1:] for p, q in zip(map(below.__getitem__, X.face_column(n, n)),
                                                            map(below.__getitem__, X.face_column(n, 0)))))
        return tuple(levels)

    @cached_property
    def _lookup(self) -> tuple:
        return tuple({ch: j for j, ch in enumerate(level)} for level in self.chains)

    def index_of(self, n: int, chain) -> int:
        return self._lookup[n][chain]

    def chain(self, n: int, j: int):
        return self.chains[n][j]


def _children(first: list[int], image: Sequence[int], degrees: Sequence[int]) -> list[int]:
    """Per chain q, in order, the chains image[q] + a for the arrows a leaving q's end.

    image[q] ends where q does, its children start at ``first[image[q]]``, and
    q has ``degrees[q]`` of them, so they are one range each.
    """
    starts = list(map(first.__getitem__, image))
    return list(chain.from_iterable(map(range, starts, map(add, starts, degrees))))


def nerve(C: CategoryPresentation, D: int) -> NerveBundle:
    """Chains of composable arrows up to dimension D, with chain-calculus faces.

    d_0 drops the first arrow, d_n the last, and the inner d_i composes at
    position i; a 0-simplex is an object. Identity insertion at position k
    gives the oracle degeneracies when the presentation is unital.

    Level m >= 2 is built from level m-1 a whole column at a time. An
    m-chain is its parent, an (m-1)-chain q, extended by an arrow a that
    leaves q's end. The children of q are contiguous and in arrow order, so
    q + a has index ``first[q] + rank[a]``: ``first`` is the running sum of
    the out-degrees of the parents' ends, and ``rank[a]`` is a's position
    among the arrows leaving a's source. Each face and identity insertion
    is then a gather over the level below: d_m(q + a) = q,
    d_i(q + a) = d_i(q) + a for i < m-1, d_{m-1}(q + a) = d_{m-1}(q) + a.b
    for q's last arrow b, s_k(q + a) = s_k(q) + a for k < m-1, and
    s_{m-1}(x) = x + id(end x). Level 1 is the arrows in index order, not
    grouped by source, so levels 1 and 2 read arrow indices directly.
    """
    C.validate()
    if D < 0:
        raise ValueError("truncation dimension must be non-negative")
    src = [a.src for a in C.arrows]
    tgt = [a.tgt for a in C.arrows]
    leaving: list[list[int]] = [[] for _ in C.objects]  # per object, the arrows out of it, ascending
    for a, x in enumerate(src):
        leaving[x].append(a)
    rank = [0] * len(C.arrows)
    for out in leaving:
        for r, a in enumerate(out):
            rank[a] = r
    degree = list(map(len, leaving))
    # per arrow b, the composites a.b over the arrows a leaving b's target, in order
    after = [[C.compose[(a, b)] for a in leaving[t]] for b, t in enumerate(tgt)]

    cells = [len(C.objects)]
    faces: list[list[int]] = []
    # per level n >= 1, per n-chain: its end object and how many arrows leave
    # it; first[n + 1] starts the children of each n-chain at level n + 1
    ends: list = [None, tgt]
    degrees: list = [None, list(map(degree.__getitem__, tgt))]
    first: list = [None, None]
    last = range(len(C.arrows))  # per chain of the level last built, its last arrow
    for m in range(1, D + 1):
        if m == 1:
            columns = [tgt, src]
        else:
            below = faces[-1]
            first.append(list(accumulate(degrees[m - 1], initial=0)))
            parent = list(chain.from_iterable(map(repeat, range(cells[m - 1]), degrees[m - 1])))
            composed = chain.from_iterable(map(after.__getitem__, last))  # a.b for q + a, b ending q
            last = list(chain.from_iterable(map(leaving.__getitem__, ends[m - 1])))
            if m == 2:
                columns = [last, list(composed), parent]
            else:
                columns = [_children(first[m - 1], below[i::m], degrees[m - 1]) for i in range(m - 1)]
                starts = map(first[m - 1].__getitem__, below[m - 1::m])
                columns.append(list(map(add, chain.from_iterable(map(repeat, starts, degrees[m - 1])),
                                        map(rank.__getitem__, composed))))
                columns.append(parent)
            ends.append(list(map(tgt.__getitem__, last)))
            degrees.append(list(map(degree.__getitem__, ends[m])))
        flat: list[int] = [0] * (len(columns[0]) * (m + 1))
        for i, column in enumerate(columns):
            flat[i::m + 1] = column
        cells.append(len(columns[0]))
        faces.append(flat)
    sset = SemisimplicialSet._from_flat(cells, faces)

    oracle = None
    if C.unital:
        identities = [C.identities[x] for x in range(len(C.objects))]
        s: dict[tuple[int, int], list[int]] = {(0, 0): identities} if D else {}
        for n in range(1, D):  # s_k from level n into level n + 1
            for k in range(n):
                # level 1 is not grouped by source: s_0 of each arrow a is id(src a) + a
                s[(k, n)] = (_children(first[n + 1], s[(k, n - 1)], degrees[n - 1]) if n > 1 else
                             list(map(add, map(first[2].__getitem__, map(identities.__getitem__, src)), rank)))
            s[(n, n)] = list(map(add, first[n + 1], map(rank.__getitem__, map(identities.__getitem__, ends[n]))))
        oracle = DegeneracyTable(sset)
        for (k, n), level in s.items():
            if level:  # a table stores no empty level
                oracle.set_level(k, n, level)
    return NerveBundle(C, sset, oracle)


# ---------------------------------------------------------------------------
# fixture presentations


def cyclic_group(m: int) -> CategoryPresentation:
    """The cyclic group of order m as a one-object groupoid; exponent = index."""
    if m < 1:
        raise ValueError("group order must be positive")
    names = ["1"] + [f"g{'' if i == 1 else i}" for i in range(1, m)]
    arrows = [Arrow(name, 0, 0) for name in names]
    compose = {(g, f): (g + f) % m for g in range(m) for f in range(m)}
    return CategoryPresentation(["*"], arrows, compose, {0: 0})


def idempotent_monoid() -> CategoryPresentation:
    """The two-element monoid {1, e} with e.e = e, as a one-object category."""
    arrows = [Arrow("1", 0, 0), Arrow("e", 0, 0)]
    compose = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    return CategoryPresentation(["*"], arrows, compose, {0: 0})


def _relation_category(elements: Sequence[str], related, sign: str, unital: bool) -> CategoryPresentation:
    """One arrow ``x{sign}y`` per related pair, pairs in order; composites by transitivity."""
    arrows = []
    index = {}
    for x in range(len(elements)):
        for y in range(len(elements)):
            if related(x, y):
                index[(x, y)] = len(arrows)
                arrows.append(Arrow(f"{elements[x]}{sign}{elements[y]}", x, y))
    compose = {}
    for (y2, z), g in index.items():
        for (x, y1), f in index.items():
            if y1 == y2:
                compose[(g, f)] = index[(x, z)]
    identities = {x: index[(x, x)] for x in range(len(elements))} if unital else None
    return CategoryPresentation(elements, arrows, compose, identities)


def poset_category(elements: Sequence[str], leq) -> CategoryPresentation:
    """A preorder as a unital category: one arrow per related pair."""
    return _relation_category(elements, leq, "<=", True)


def poset_01() -> CategoryPresentation:
    return poset_category(["0", "1"], lambda x, y: x <= y)


def simplex_category(n: int) -> CategoryPresentation:
    """Strict inequalities on {0..n}, non-unital; its nerve is the n-simplex."""
    return _relation_category([str(i) for i in range(n + 1)], lambda x, y: x < y, "<", False)


def one_arrow_category() -> CategoryPresentation:
    """Two objects and a single arrow between them; nothing composes."""
    return CategoryPresentation(["x", "y"], [Arrow("a", 0, 1)], {}, None)


def j_groupoid() -> CategoryPresentation:
    """The groupoid with two objects and exactly one arrow in each direction."""
    arrows = [Arrow("id0", 0, 0), Arrow("id1", 1, 1), Arrow("u", 0, 1), Arrow("v", 1, 0)]
    compose = {
        (0, 0): 0, (0, 3): 3, (1, 1): 1, (1, 2): 2,
        (2, 0): 2, (2, 3): 1, (3, 1): 3, (3, 2): 0,
    }
    return CategoryPresentation(["0", "1"], arrows, compose, {0: 0, 1: 1})


def product_category(C: CategoryPresentation, E: CategoryPresentation) -> CategoryPresentation:
    """Componentwise product; arrow pairs ordered lexicographically."""
    objects = [f"({a},{b})" for a in C.objects for b in E.objects]
    n_e_obj = len(E.objects)
    arrows = []
    for a in C.arrows:
        for b in E.arrows:
            arrows.append(Arrow(f"({a.name},{b.name})",
                                a.src * n_e_obj + b.src, a.tgt * n_e_obj + b.tgt))
    n_e = len(E.arrows)
    compose = {}
    for (g1, f1), h1 in C.compose.items():
        for (g2, f2), h2 in E.compose.items():
            compose[(g1 * n_e + g2, f1 * n_e + f2)] = h1 * n_e + h2
    identities = None
    if C.unital and E.unital:
        identities = {}
        for o1, e1 in C.identities.items():
            for o2, e2 in E.identities.items():
                identities[o1 * n_e_obj + o2] = e1 * n_e + e2
    return CategoryPresentation(objects, arrows, compose, identities)


# ---------------------------------------------------------------------------
# oracles


def equivalence_criterion(C: CategoryPresentation, f: int) -> bool:
    """Arrow-level equivalence test: pre- and postcomposition by f are bijections."""
    if not C.unital:
        raise InvalidCategory("the criterion needs a unital presentation")
    C.validate()
    a = C.arrows[f]
    for z in range(len(C.objects)):
        source, target = C.hom(a.tgt, z), C.hom(a.src, z)
        image = {C.compose[(g, f)] for g in source}
        if len(image) != len(source) or image != set(target):
            return False
        source, target = C.hom(z, a.src), C.hom(z, a.tgt)
        image = {C.compose[(f, h)] for h in source}
        if len(image) != len(source) or image != set(target):
            return False
    return True


# ---------------------------------------------------------------------------
# the two-structure demonstration


@dataclass
class UniquenessDemo:
    """Report of the relative run on C x J over J with both structures on the ends."""

    ok: bool
    bound: int
    product_cells: tuple
    restriction_checked: int
    projection_checked: int
    result: SynthesisResult


def uniqueness_demo(C_sset: SemisimplicialSet, deg0: DegeneracyTable,
                    deg1: DegeneracyTable, D: int) -> UniquenessDemo:
    """Run the relative synthesis on C x J over J, one table over each end.

    The subcomplex sits over the two constant chains of the two-object
    groupoid, carrying deg0 over the one end and deg1 over the other. Every
    vertex of C x J lies in that subcomplex, so its table fixes degree 0.
    The synthesis checks its output to restrict to the given tables exactly
    and to commute with the projection, raising on any violation; the report
    counts those checks from its ``restriction`` and ``projection``
    families. Nothing beyond this construction is asserted about the two
    structures.
    """
    for label, table in (("deg0", deg0), ("deg1", deg1)):
        _require_same(f"{label}'s base must be the input set", table.base, C_sset)
        report = verify_simplicial(C_sset, table, C_sset.dim)
        if not report.ok:
            raise InvalidDegeneracyTable(f"{label} fails its identity check: {report.violations[:3]}")
    bound = min(D, C_sset.dim)
    if bound < 2:
        raise TruncationExhausted(f"synthesis needs truncation at least 2, have {bound}")
    for label, table in (("deg0", deg0), ("deg1", deg1)):
        refusal = _degree_zero_refusal(table, label)
        if refusal is not None:
            raise refusal
    J = nerve(j_groupoid(), bound)
    bundle = product(C_sset, J.sset)
    X, p, width = bundle.sset, bundle.right, J.sset.cells

    # per n, the indices of J's two constant n-chains, all-0 and all-1; (c, a) is c * width[n] + a
    constant = [(0, 1)] + [(J.index_of(n, (0,) * n), J.index_of(n, (1,) * n)) for n in range(1, bound + 1)]
    A = Subcomplex(X, [chain(range(a, X.cells[n], width[n]), range(b, X.cells[n], width[n]))
                       for n, (a, b) in enumerate(constant)])

    A_deg = DegeneracyTable(X)
    for k, n in sorted({*deg0.domain(), *deg1.domain()}):
        if n >= bound:
            continue
        level: list = [None] * X.cells[n]
        for side, table in ((0, deg0), (1, deg1)):
            values, above = table.level(k, n), constant[n + 1][side]
            if values is not None:
                level[constant[n][side]::width[n]] = [None if v is None else v * width[n + 1] + above
                                                      for v in values]
        A_deg.set_level(k, n, level)

    inp = SynthesisInput(X, p=p, Y_deg=J.oracle_degeneracies, A=A, A_deg=A_deg)
    result = synthesize_relative(inp, bound)

    checked = result.verification.by_family
    return UniquenessDemo(True, bound, bundle.sset.cells, checked["restriction"],
                          checked["projection"], result)
