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
    fix some faces of the next one (d_j x_i = d_{i-1} x_j for j < i). A plan
    made once per scan gives each step a slot index on the first one or two
    fixed slots, the earlier faces its key is read from, and the other fixed
    slots to filter the rows on; candidates come out ascending.
    """
    if n < 1 or n > X.dim or X.cells[n - 1] == 0:
        return
    m = n - 1
    rows = X.face_rows(m)
    positions = _positions(n, k)[::-1] if descending else _positions(n, k)
    steps = []
    for p, i in enumerate(positions):
        # (slot of the new face, earlier position q, face r of x_q that fixes it)
        fixed = sorted((j, q, i - 1) if j < i else (j - 1, q, i)
                       for q, j in enumerate(positions[:p]))
        pool = (restrict or {}).get(i)
        index = X.slot_index(m, tuple(slot for slot, _, _ in fixed[:2])) if fixed else None
        steps.append((index, tuple((q, r) for _, q, r in fixed[:2]), tuple(fixed[2:]),
                      None if pool is None else frozenset(pool)))
    chosen = [0] * len(steps)
    last = len(steps) - 1

    def candidates(p: int) -> Iterable[int]:
        index, key, rest, pool = steps[p]
        if index is None:
            found: Sequence[int] = range(X.cells[m])
        elif len(key) == 1:
            (q, r), = key
            found = index.get(rows[chosen[q]][r], ())
        else:
            (q, r), (q2, r2) = key
            found = index.get((rows[chosen[q]][r], rows[chosen[q2]][r2]), ())
        if rest:
            want = [(slot, rows[chosen[q]][r]) for slot, q, r in rest]
            found = [z for z in found if all(rows[z][slot] == v for slot, v in want)]
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


def _lift_test(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int, k: int):
    """For (n,k) horns of X: face values -> first target simplex with no lift over it, or None.

    A horn lifts when every target simplex over its image is the image of a
    filler; over the point (``p`` None) a lift is a filler. Realized lifts are
    each n-simplex's row without face k, followed by p(z) over a map.
    """
    if p is None:
        realized = {row[:k] + row[k + 1:] for row in X.face_rows(n)}
        return lambda values: None if values in realized else 0
    image, below = p.levels[n], p.levels[n - 1]
    realized = {row[:k] + row[k + 1:] + (image[z],) for z, row in enumerate(X.face_rows(n))}
    over: dict[tuple[int, ...], list[int]] = {}
    for y, row in enumerate(p.target.face_rows(n)):
        over.setdefault(row[:k] + row[k + 1:], []).append(y)

    def missing(values: tuple[int, ...]) -> Optional[int]:
        for y in over.get(tuple(below[v] for v in values), ()):
            if values + (y,) not in realized:
                return y
        return None

    return missing


class LiftTests(dict):
    """The lift test of each (n, k) horn shape of X over p, built on first use.

    A command that scans many edges makes one and passes it to each edge
    check, so each shape's test is built once; it is dropped with the
    command, and nothing is kept on the set.
    """

    def __init__(self, X: SemisimplicialSet, p: Optional[SemisimplicialMap] = None):
        super().__init__()
        self.X, self.p = X, p

    def __missing__(self, shape: tuple[int, int]):
        test = self[shape] = _lift_test(self.X, self.p, *shape)
        return test


def _scan(X: SemisimplicialSet, p: Optional[SemisimplicialMap],
          shapes: Iterable[tuple[int, int]]) -> tuple[int, Optional[tuple[Horn, SimplexRef]]]:
    """Horns checked, and the first that does not lift with the target it misses."""
    checked = 0
    for n, k in shapes:
        missing = _lift_test(X, p, n, k)
        for values in _face_values(X, n, k):
            checked += 1
            y = missing(values)
            if y is not None:
                return checked, (Horn(n, k, tuple(zip(_positions(n, k), values))), SimplexRef(n, y))
    return checked, None


def _inner_shapes(bound: int) -> Iterator[tuple[int, int]]:
    return ((n, k) for n in range(2, bound + 1) for k in range(n - 1, 0, -1))


def check_inner(X: SemisimplicialSet, D: Optional[int] = None) -> HornVerdict:
    """Every compatible inner horn (0 < k < n <= D) has at least one filler."""
    bound = X.dim if D is None else min(D, X.dim)
    checked, failure = _scan(X, None, _inner_shapes(bound))
    return HornVerdict(failure is None, bound, failure and failure[0], checked)


def check_kan(X: SemisimplicialSet, D: Optional[int] = None) -> HornVerdict:
    """Every compatible horn fills, outer horns and the two n = 1 shapes included."""
    bound = X.dim if D is None else min(D, X.dim)
    checked, failure = _scan(X, None, ((n, k) for n in range(1, bound + 1) for k in range(n, -1, -1)))
    return HornVerdict(failure is None, bound, failure and failure[0], checked)


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


def _edge_scan(X: SemisimplicialSet, p: Optional[SemisimplicialMap], f: SimplexRef,
               property: str, bound: int,
               lifts: Optional[LiftTests]) -> Optional[tuple[Horn, SimplexRef]]:
    """First horn of a cartesian (cocartesian) scan of f that does not lift, with its target.

    Cartesian scans visit the right horns whose last edge, read off x_0, is f;
    cocartesian scans the left horns whose first edge, read off x_n, is f.
    ``lifts`` holds the lift tests of X over p, or is None for a scan of its own.
    """
    if property not in ("cartesian", "cocartesian"):
        raise ValueError(f"unknown edge property {property!r}")
    lifts = LiftTests(X, p) if lifts is None else lifts
    for n in range(2, bound + 1):
        if property == "cartesian":
            k, slot, end, descending = n, 0, "last", False
        else:
            k, slot, end, descending = 0, n, "first", True
        pool = [j for j, e in enumerate(X.edges(n - 1, end)) if e == f.index]
        missing = lifts[n, k]
        for values in _face_values(X, n, k, restrict={slot: pool}, descending=descending):
            y = missing(values)
            if y is not None:
                return Horn(n, k, tuple(zip(_positions(n, k), values))), SimplexRef(n, y)
    return None


def edge_property(X: SemisimplicialSet, f: SimplexRef, property: str,
                  D: Optional[int] = None, lifts: Optional[LiftTests] = None) -> EdgeVerdict:
    """Cartesian: every right horn whose last edge is f fills; cocartesian dual.

    ``lifts``, the lift tests of X over the point, may be shared by the
    checks of one command.
    """
    bound = X.dim if D is None else min(D, X.dim)
    failure = _edge_scan(X, None, f, property, bound, lifts)
    return EdgeVerdict(f, property, bound, failure is None, failure and failure[0])


def is_equivalence(X: SemisimplicialSet, f: SimplexRef, D: Optional[int] = None,
                   lifts: Optional[LiftTests] = None) -> EdgeVerdict:
    """Conjunction of the cartesian and cocartesian verdicts at bound D."""
    cart = edge_property(X, f, "cartesian", D, lifts)
    if not cart.result:
        return EdgeVerdict(f, "equivalence", cart.bound, False, cart.witness)
    cocart = edge_property(X, f, "cocartesian", D, lifts)
    return EdgeVerdict(f, "equivalence", cocart.bound, cocart.result, cocart.witness)


def is_idempotent(X: SemisimplicialSet, f: SimplexRef) -> Optional[SimplexRef]:
    """First 2-simplex all of whose faces are f, or None."""
    if X.face_index(1, f.index, 0) != X.face_index(1, f.index, 1):
        raise NotASelfEdge(f"edge {f.index} has distinct endpoints")
    if X.dim < 2:
        return None
    matches = _filler_indices(X, 2, ((0, f.index), (1, f.index), (2, f.index)))
    return SimplexRef(2, matches[0]) if matches else None


def find_idempotent_equivalences(X: SemisimplicialSet, x: SimplexRef, D: Optional[int] = None,
                                 lifts: Optional[LiftTests] = None) -> list[tuple[SimplexRef, SimplexRef]]:
    """All idempotent-equivalence self-edges at a vertex, with their witnesses."""
    out = []
    if X.dim < 1:
        return out
    lifts = LiftTests(X) if lifts is None else lifts
    for j in X.with_face(1, 0, x.index):
        if X.face_index(1, j, 1) != x.index:
            continue
        f = SimplexRef(1, j)
        witness = is_idempotent(X, f)
        if witness is None:
            continue
        if is_equivalence(X, f, D, lifts).result:
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


def check_inner_fibration(p: SemisimplicialMap, D: Optional[int] = None) -> FibrationVerdict:
    """Every inner horn of the source lifts against every matching target simplex."""
    bound = p.depth if D is None else min(D, p.depth)
    checked, failure = _scan(p.source, p, _inner_shapes(bound))
    return FibrationVerdict(failure is None, bound, failure, checked)


def p_edge_property(p: SemisimplicialMap, f: SimplexRef, property: str,
                    D: Optional[int] = None, Y_degeneracies=None,
                    lifts: Optional[LiftTests] = None) -> EdgeVerdict:
    """Relative version of the edge properties over a map p.

    cartesian/cocartesian: the absolute horn condition with a lift demanded
    over every matching target simplex. idempotent: a 2-simplex with all
    faces f projecting to the doubly degenerate image of the base vertex.
    ``lifts``, the lift tests of p's source over p, may be shared by the
    checks of one command.
    """
    X = p.source
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
    failure = _edge_scan(X, p, f, property, bound, lifts)
    return EdgeVerdict(f, property, bound, failure is None, failure)
