"""Horn construction, filler search, and lifting-condition checkers.

All checkers are read-only scans: they fill a set's lookup caches but never
change its faces. Every scan runs through one enumerator whose backtracking
steps are slot-pattern lookups on the set. Verdicts are always "up to D":
nothing is extrapolated beyond the truncation, and a negative verdict
carries a concrete witness. Filler tie-breaking is everywhere the lowest
canonical index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import (
    DimensionTooLow,
    IncompatibleHorn,
    MissingDegeneracies,
    NotASelfEdge,
    ParseError,
)
from .sset import SemisimplicialMap, SemisimplicialSet, SimplexRef


@dataclass(frozen=True)
class Horn:
    """A dimension-n, index-k horn: faces x_i for every i != k.

    Faces are stored as sorted ``(i, index)`` pairs; the indices refer to
    (n-1)-simplices of the owning set.
    """

    n: int
    k: int
    faces: tuple[tuple[int, int], ...]

    @staticmethod
    def from_map(n: int, k: int, faces: Mapping[int, int]) -> "Horn":
        expected = {i for i in range(n + 1) if i != k}
        if set(faces) != expected:
            raise ValueError(f"horn ({n},{k}) needs faces at {sorted(expected)}")
        return Horn(n, k, tuple(sorted((int(i), int(v)) for i, v in faces.items())))

    def face(self, i: int) -> int:
        for fi, v in self.faces:
            if fi == i:
                return v
        raise KeyError(i)

    def items(self) -> tuple[tuple[int, int], ...]:
        return self.faces

    def to_json_dict(self) -> dict:
        return {"n": self.n, "k": self.k, "faces": {str(i): v for i, v in self.faces}}

    @staticmethod
    def from_json_dict(data: Mapping) -> "Horn":
        try:
            faces = {int(i): int(v) for i, v in data["faces"].items()}
            return Horn.from_map(int(data["n"]), int(data["k"]), faces)
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed horn: {exc}") from exc


def compatibility_failures(X: SemisimplicialSet, horn: Horn) -> list[tuple[int, int]]:
    """Pairs (j, i), j < i, both != k, with d_j(x_i) != d_{i-1}(x_j)."""
    m = horn.n - 1
    if m < 1:
        return []
    bad = []
    for j, xj in horn.faces:
        for i, xi in horn.faces:
            if j < i and X.face_index(m, xi, j) != X.face_index(m, xj, i - 1):
                bad.append((j, i))
    return bad


def _filler_indices(X: SemisimplicialSet, n: int, items: Sequence[tuple[int, int]]) -> list[int]:
    # intersect the preimage lists, starting from the scarcest face constraint
    pools = [(i, v, X.with_face(n, i, v)) for i, v in items]
    base_i, _, base = min(pools, key=lambda t: len(t[2]))
    out = []
    for z in base:
        row = X.faces_of(n, z)
        if all(row[i] == v for i, v, _ in pools if i != base_i):
            out.append(z)
    return out


def fillers(X: SemisimplicialSet, horn: Horn) -> list[SimplexRef]:
    """Exactly the n-simplices whose faces match the horn, in canonical order."""
    if not 1 <= horn.n <= X.dim:
        raise DimensionTooLow(f"horn dimension {horn.n} outside 1..{X.dim}")
    limit = X.cells[horn.n - 1]
    for i, v in horn.faces:
        if not 0 <= v < limit:
            raise IncompatibleHorn(f"face {i} of the horn is out of range", horn=horn)
    failures = compatibility_failures(X, horn)
    if failures:
        raise IncompatibleHorn("horn faces fail compatibility", horn=horn, failures=failures)
    return [SimplexRef(horn.n, z) for z in _filler_indices(X, horn.n, horn.faces)]


def _positions(n: int, k: int) -> tuple[int, ...]:
    return tuple(i for i in range(n + 1) if i != k)


def _face_values(X: SemisimplicialSet, n: int, k: int,
                 restrict: Optional[Mapping[int, Iterable[int]]] = None,
                 descending: bool = False) -> Iterator[tuple[int, ...]]:
    """Face values of every compatible (n,k) horn, listed by ascending face index.

    Faces are assigned one position at a time. The faces already assigned
    fix some faces of the next one (d_j x_i = d_{i-1} x_j for j < i), so its
    candidates are a single ``X.matching`` lookup, ascending.
    """
    if n < 1 or n > X.dim or X.cells[n - 1] == 0:
        return
    m = n - 1
    rows = X.face_rows(m)
    positions = _positions(n, k)[::-1] if descending else _positions(n, k)
    # per step: the fixed slots of the new face, which earlier face and which of
    # its faces gives each slot's value, and the restriction at that position
    steps = []
    for p, i in enumerate(positions):
        fixed = sorted((j, q, i - 1) if j < i else (j - 1, q, i)
                       for q, j in enumerate(positions[:p]))
        pool = (restrict or {}).get(i)
        steps.append((tuple(slot for slot, _, _ in fixed), tuple((q, r) for _, q, r in fixed),
                      None if pool is None else frozenset(pool)))
    chosen = [0] * len(steps)
    last = len(steps) - 1

    def candidates(p: int) -> Iterable[int]:
        slots, reads, pool = steps[p]
        found = X.matching(m, slots, [rows[chosen[q]][r] for q, r in reads])
        return found if pool is None else [z for z in found if z in pool]

    stack = [iter(candidates(0))]
    while stack:
        p = len(stack) - 1
        for z in stack[p]:
            chosen[p] = z
            if p < last:
                stack.append(iter(candidates(p + 1)))
                break
            yield tuple(reversed(chosen)) if descending else tuple(chosen)
        else:
            stack.pop()


def compatible_horns(X: SemisimplicialSet, n: int, k: int,
                     restrict: Optional[Mapping[int, Iterable[int]]] = None,
                     descending: bool = False) -> Iterator[Horn]:
    """Enumerate every compatible (n,k) horn, backtracking face by face.

    ``restrict`` limits the candidates at chosen face positions. Assignment
    runs over positions in ascending index order (descending with the flag);
    the yield order is deterministic either way.
    """
    order = _positions(n, k)
    for values in _face_values(X, n, k, restrict, descending):
        yield Horn(n, k, tuple(zip(order, values)))


@dataclass
class HornVerdict:
    """Outcome of an exhaustive horn-filling scan up to a bound."""

    ok: bool
    bound: int
    witness: Optional[Horn] = None
    checked: int = 0

    def to_json_dict(self) -> dict:
        out = {"result": self.ok, "bound": self.bound, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


def _scan(X: SemisimplicialSet, bound: int, shapes: Iterable[tuple[int, int]]) -> HornVerdict:
    # a horn fills iff it is some n-simplex's row with face k left out
    checked = 0
    for n, k in shapes:
        realized = {row[:k] + row[k + 1:] for row in X.face_rows(n)}
        for values in _face_values(X, n, k):
            checked += 1
            if values not in realized:
                return HornVerdict(False, bound, Horn(n, k, tuple(zip(_positions(n, k), values))),
                                   checked)
    return HornVerdict(True, bound, None, checked)


def check_inner(X: SemisimplicialSet, D: Optional[int] = None) -> HornVerdict:
    """Every compatible inner horn (0 < k < n <= D) has at least one filler."""
    bound = X.dim if D is None else min(D, X.dim)
    return _scan(X, bound, ((n, k) for n in range(2, bound + 1) for k in range(n - 1, 0, -1)))


def check_kan(X: SemisimplicialSet, D: Optional[int] = None) -> HornVerdict:
    """Every compatible horn fills, outer horns and the two n = 1 shapes included."""
    bound = X.dim if D is None else min(D, X.dim)
    return _scan(X, bound, ((n, k) for n in range(1, bound + 1) for k in range(n, -1, -1)))


@dataclass
class EdgeVerdict:
    """Verdict for an edge property, verified up to a dimension bound."""

    edge: SimplexRef
    property: str
    bound: int
    result: bool
    witness: object = None

    def to_json_dict(self) -> dict:
        out = {
            "edge": self.edge.index,
            "property": self.property,
            "bound": self.bound,
            "result": self.result,
        }
        if isinstance(self.witness, Horn):
            out["witness"] = self.witness.to_json_dict()
        elif isinstance(self.witness, SimplexRef):
            out["witness"] = {"dim": self.witness.dim, "index": self.witness.index}
        elif isinstance(self.witness, tuple):
            horn, y = self.witness
            out["witness"] = {"horn": horn.to_json_dict(), "target": y.index}
        elif self.witness is not None:
            out["witness"] = self.witness
        return out


def _edge_horns(X: SemisimplicialSet, n: int, f: int, property: str):
    """k and the face items of every n-horn a cartesian (cocartesian) scan of f visits."""
    if property == "cartesian":
        k, slot, end, descending = n, 0, "last", False
    else:
        k, slot, end, descending = 0, n, "first", True
    pool = [j for j, e in enumerate(X.edges(n - 1, end)) if e == f]
    order = _positions(n, k)
    values = _face_values(X, n, k, restrict={slot: pool}, descending=descending)
    return k, (tuple(zip(order, v)) for v in values)


def edge_property(X: SemisimplicialSet, f: SimplexRef, property: str,
                  D: Optional[int] = None) -> EdgeVerdict:
    """Cartesian: every right horn whose last edge is f fills; cocartesian dual.

    The relevant edge is read off a present face: last_edge(x_0) for right
    horns, first_edge(x_n) for left horns.
    """
    if property not in ("cartesian", "cocartesian"):
        raise ValueError(f"unknown edge property {property!r}")
    bound = X.dim if D is None else min(D, X.dim)
    for n in range(2, bound + 1):
        k, horns = _edge_horns(X, n, f.index, property)
        for items in horns:
            if not _filler_indices(X, n, items):
                return EdgeVerdict(f, property, bound, False, Horn(n, k, items))
    return EdgeVerdict(f, property, bound, True)


def is_equivalence(X: SemisimplicialSet, f: SimplexRef, D: Optional[int] = None) -> EdgeVerdict:
    """Conjunction of the cartesian and cocartesian verdicts at bound D."""
    cart = edge_property(X, f, "cartesian", D)
    if not cart.result:
        return EdgeVerdict(f, "equivalence", cart.bound, False, cart.witness)
    cocart = edge_property(X, f, "cocartesian", D)
    return EdgeVerdict(f, "equivalence", cocart.bound, cocart.result, cocart.witness)


def is_idempotent(X: SemisimplicialSet, f: SimplexRef) -> Optional[SimplexRef]:
    """First 2-simplex all of whose faces are f, or None."""
    if X.face_index(1, f.index, 0) != X.face_index(1, f.index, 1):
        raise NotASelfEdge(f"edge {f.index} has distinct endpoints")
    if X.dim < 2:
        return None
    matches = _filler_indices(X, 2, ((0, f.index), (1, f.index), (2, f.index)))
    return SimplexRef(2, matches[0]) if matches else None


def find_idempotent_equivalences(X: SemisimplicialSet, x: SimplexRef,
                                 D: Optional[int] = None) -> list[tuple[SimplexRef, SimplexRef]]:
    """All idempotent-equivalence self-edges at a vertex, with their witnesses."""
    out = []
    if X.dim < 1:
        return out
    for j in X.with_face(1, 0, x.index):
        if X.face_index(1, j, 1) != x.index:
            continue
        f = SimplexRef(1, j)
        witness = is_idempotent(X, f)
        if witness is None:
            continue
        if is_equivalence(X, f, D).result:
            out.append((f, witness))
    return out


@dataclass
class FibrationVerdict:
    """Outcome of a relative lifting scan over a semisimplicial map."""

    ok: bool
    bound: int
    witness: Optional[tuple[Horn, SimplexRef]] = None
    checked: int = 0

    def to_json_dict(self) -> dict:
        out = {"result": self.ok, "bound": self.bound, "checked": self.checked}
        if self.witness is not None:
            horn, y = self.witness
            out["witness"] = {"horn": horn.to_json_dict(), "target": y.index}
        return out


def _lifts_exist(p: SemisimplicialMap, n: int,
                 items: Sequence[tuple[int, int]]) -> Optional[SimplexRef]:
    """First target simplex over the projected horn with no lift, if any."""
    images = {p.apply_index(n, z) for z in _filler_indices(p.source, n, items)}
    projected = tuple((i, p.apply_index(n - 1, v)) for i, v in items)
    for y in _filler_indices(p.target, n, projected):
        if y not in images:
            return SimplexRef(n, y)
    return None


def check_inner_fibration(p: SemisimplicialMap, D: Optional[int] = None) -> FibrationVerdict:
    """Every inner horn of the source lifts against every matching target simplex."""
    bound = p.depth if D is None else min(D, p.depth)
    checked = 0
    for n in range(2, bound + 1):
        for k in range(n - 1, 0, -1):
            order = _positions(n, k)
            for values in _face_values(p.source, n, k):
                checked += 1
                items = tuple(zip(order, values))
                missing = _lifts_exist(p, n, items)
                if missing is not None:
                    return FibrationVerdict(False, bound, (Horn(n, k, items), missing), checked)
    return FibrationVerdict(True, bound, None, checked)


def p_edge_property(p: SemisimplicialMap, f: SimplexRef, property: str,
                    D: Optional[int] = None, Y_degeneracies=None) -> EdgeVerdict:
    """Relative version of the edge properties over a map p.

    cartesian/cocartesian: the absolute horn condition with a lift demanded
    over every matching target simplex. idempotent: a 2-simplex with all
    faces f projecting to the doubly degenerate image of the base vertex.
    """
    X, Y = p.source, p.target
    bound = p.depth if D is None else min(D, p.depth)
    if property == "idempotent":
        if Y_degeneracies is None:
            raise MissingDegeneracies("the idempotent check needs the target's degeneracies")
        if X.face_index(1, f.index, 0) != X.face_index(1, f.index, 1):
            raise NotASelfEdge(f"edge {f.index} has distinct endpoints")
        x = X.face_index(1, f.index, 0)
        py = p.apply_index(0, x)
        e1 = Y_degeneracies.value(0, 0, py)
        target = Y_degeneracies.value(0, 1, e1) if e1 is not None else None
        if target is None:
            raise MissingDegeneracies("target degeneracies undefined at the base vertex")
        if X.dim >= 2:
            for z in _filler_indices(X, 2, ((0, f.index), (1, f.index), (2, f.index))):
                if p.apply_index(2, z) == target:
                    return EdgeVerdict(f, property, bound, True, SimplexRef(2, z))
        return EdgeVerdict(f, property, bound, False,
                           {"exhausted": {"dim2_scanned": X.cells[2] if X.dim >= 2 else 0}})
    if property not in ("cartesian", "cocartesian"):
        raise ValueError(f"unknown edge property {property!r}")
    for n in range(2, bound + 1):
        k, horns = _edge_horns(X, n, f.index, property)
        for items in horns:
            missing = _lifts_exist(p, n, items)
            if missing is not None:
                return EdgeVerdict(f, property, bound, False, (Horn(n, k, items), missing))
    return EdgeVerdict(f, property, bound, True)
