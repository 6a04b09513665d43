"""Nerves of finite (possibly non-unital) categories, fixtures, and oracles.

The nerve of a presentation enumerates composable arrow chains; chains are
ordered lexicographically by arrow indices, which fixes the canonical
simplex order that all downstream tie-breaking relies on. Unital
presentations additionally yield an identity-insertion degeneracy table,
used as an independent oracle against the synthesized one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

from .degeneracy import (
    DegeneracyTable,
    SynthesisInput,
    SynthesisResult,
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
        try:
            objects = [str(o) for o in data["objects"]]
            obj_index = {o: i for i, o in enumerate(objects)}
            arrows = []
            arrow_index = {}
            for spec in data["arrows"]:
                a = Arrow(str(spec["name"]), obj_index[spec["src"]], obj_index[spec["tgt"]])
                arrow_index[a.name] = len(arrows)
                arrows.append(a)
            compose = {}
            for g, f, gf in data["compose"]:
                compose[(arrow_index[g], arrow_index[f])] = arrow_index[gf]
            identities = None
            if data.get("identities") is not None:
                if not isinstance(data["identities"], dict):
                    raise ParseError("a category's \"identities\" is an object from objects to arrows")
                identities = {obj_index[o]: arrow_index[a] for o, a in data["identities"].items()}
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed category: {exc}") from exc
        return cls(objects, arrows, compose, identities)


@dataclass
class NerveBundle:
    """A nerve with its chain bookkeeping and optional identity-insertion oracle."""

    category: CategoryPresentation
    sset: SemisimplicialSet
    chains: tuple
    oracle_degeneracies: Optional[DegeneracyTable] = None
    _lookup: tuple = field(default=(), repr=False)

    def index_of(self, n: int, chain) -> int:
        return self._lookup[n][chain]

    def chain(self, n: int, j: int):
        return self.chains[n][j]


def nerve(C: CategoryPresentation, D: int) -> NerveBundle:
    """Chains of composable arrows up to dimension D, with chain-calculus faces.

    d_0 drops the first arrow, d_n the last, and the inner d_i composes at
    position i; a 0-simplex is an object. Identity insertion at position k
    gives the oracle degeneracies when the presentation is unital.
    """
    C.validate()
    if D < 0:
        raise ValueError("truncation dimension must be non-negative")
    arrows = C.arrows
    chains: list[tuple] = [tuple(range(len(C.objects)))]
    for n in range(1, D + 1):
        level = []
        if n == 1:
            level = [(a,) for a in range(len(arrows))]
        else:
            for ch in chains[n - 1]:
                tail = arrows[ch[-1]].tgt
                for a in range(len(arrows)):
                    if arrows[a].src == tail:
                        level.append(ch + (a,))
        chains.append(tuple(level))
    lookup = tuple({ch: j for j, ch in enumerate(level)} for level in chains)

    def chain_src(n: int, ch) -> int:
        return ch if n == 0 else arrows[ch[0]].src

    faces = []
    for n in range(1, D + 1):
        level = []
        for ch in chains[n]:
            row = []
            for i in range(n + 1):
                if n == 1:
                    value = arrows[ch[0]].tgt if i == 0 else arrows[ch[0]].src
                elif i == 0:
                    value = lookup[n - 1][ch[1:]]
                elif i == n:
                    value = lookup[n - 1][ch[:-1]]
                else:
                    composed = ch[:i - 1] + (C.compose[(ch[i], ch[i - 1])],) + ch[i + 1:]
                    value = lookup[n - 1][composed]
                row.append(value)
            level.append(row)
        faces.append(level)
    sset = SemisimplicialSet([len(level) for level in chains], faces)

    oracle = None
    if C.unital:
        oracle = DegeneracyTable(sset)
        for n in range(D):
            for j, ch in enumerate(chains[n]):
                vertices = [chain_src(n, ch)] + ([arrows[a].tgt for a in ch] if n else [])
                for k in range(n + 1):
                    ident = C.identities[vertices[k]]
                    if n == 0:
                        inserted = (ident,)
                    else:
                        inserted = ch[:k] + (ident,) + ch[k:]
                    oracle.set_value(k, n, j, lookup[n + 1][inserted])
    return NerveBundle(C, sset, tuple(chains), oracle, lookup)


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


def poset_category(elements: Sequence[str], leq) -> CategoryPresentation:
    """A preorder as a unital category: one arrow per related pair."""
    arrows = []
    index = {}
    for x in range(len(elements)):
        for y in range(len(elements)):
            if leq(x, y):
                index[(x, y)] = len(arrows)
                arrows.append(Arrow(f"{elements[x]}<={elements[y]}", x, y))
    compose = {}
    for (y2, z), g in index.items():
        for (x, y1), f in index.items():
            if y1 == y2:
                compose[(g, f)] = index[(x, z)]
    identities = {x: index[(x, x)] for x in range(len(elements))}
    return CategoryPresentation(elements, arrows, compose, identities)


def poset_01() -> CategoryPresentation:
    return poset_category(["0", "1"], lambda x, y: x <= y)


def simplex_category(n: int) -> CategoryPresentation:
    """Strict inequalities on {0..n}, non-unital; its nerve is the n-simplex."""
    elements = [str(i) for i in range(n + 1)]
    arrows = []
    index = {}
    for x in range(n + 1):
        for y in range(x + 1, n + 1):
            index[(x, y)] = len(arrows)
            arrows.append(Arrow(f"{x}<{y}", x, y))
    compose = {}
    for (y2, z), g in index.items():
        for (x, y1), f in index.items():
            if y1 == y2:
                compose[(g, f)] = index[(x, z)]
    return CategoryPresentation(elements, arrows, compose, None)


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
    groupoid, carrying deg0 over the one end and deg1 over the other; the
    degree-0 candidate pairs each end's degeneracy with the identity chain.
    The synthesis checks its output to restrict to the given tables exactly
    and to commute with the projection, raising on any violation; the report
    counts those checks from its ``restriction`` and ``projection``
    families. Nothing beyond this construction is asserted about the two
    structures.
    """
    for label, table in (("deg0", deg0), ("deg1", deg1)):
        report = verify_simplicial(C_sset, table, C_sset.dim)
        if not report.ok:
            raise InvalidDegeneracyTable(f"{label} fails its identity check: {report.violations[:3]}")
    bound = min(D, C_sset.dim)
    if bound < 2:
        raise TruncationExhausted(f"synthesis needs truncation at least 2, have {bound}")
    J = nerve(j_groupoid(), bound)
    bundle = product(C_sset, J.sset)
    X, p = bundle.sset, bundle.right

    constant = []  # constant[n] = (index of the all-0 chain, index of the all-1 chain)
    for n in range(bound + 1):
        if n == 0:
            constant.append((0, 1))
        else:
            constant.append((J.index_of(n, (0,) * n), J.index_of(n, (1,) * n)))

    members = []
    for n in range(bound + 1):
        level = set()
        for c in range(C_sset.cells[n]):
            level.add(bundle.pair_index(n, c, constant[n][0]))
            level.add(bundle.pair_index(n, c, constant[n][1]))
        members.append(level)
    A = Subcomplex(X, members)

    A_deg = DegeneracyTable(X)
    for side, table in ((0, deg0), (1, deg1)):
        for k, n, c, v in table.entries():
            if n >= bound:
                continue
            A_deg.set_value(k, n, bundle.pair_index(n, c, constant[n][side]),
                            bundle.pair_index(n + 1, v, constant[n + 1][side]))

    s0 = {}
    for side, table in ((0, deg0), (1, deg1)):
        for c in range(C_sset.cells[0]):
            value = table.value(0, 0, c)
            if value is None:
                raise InvalidDegeneracyTable(f"deg{side} lacks a degree-0 value at vertex {c}")
            s0[bundle.pair_index(0, c, constant[0][side])] = bundle.pair_index(1, value, constant[1][side])

    inp = SynthesisInput(X, p=p, Y_deg=J.oracle_degeneracies, A=A, A_deg=A_deg, s0=s0)
    result = synthesize_relative(inp, bound)

    checked = result.verification.by_family
    return UniquenessDemo(True, bound, bundle.sset.cells, checked["restriction"],
                          checked["projection"], result)
