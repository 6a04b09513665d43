"""Horn construction, filler search, and lifting-condition checkers.

All checkers are read-only scans: they fill a set's lookup caches but never
change its faces. Every scan runs through one column-wise enumerator: it
lists all compatible horns of a shape at once, one column per face, each
step a slot-pattern lookup over the whole frontier of partial horns. One lift
test then answers for the whole batch of columns. Verdicts are always "up to D":
nothing is extrapolated beyond the truncation, and a negative verdict
carries a concrete witness. Filler tie-breaking is everywhere the lowest
canonical index.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import eq, indexOf
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    DimensionTooLow,
    IncompatibleHorn,
    MissingDegeneracies,
    NotASelfEdge,
    ParseError,
)
from .sset import SemisimplicialMap, SemisimplicialSet, SimplexRef, _gather


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
    # intersect the with_face lists, starting from the scarcest face constraint
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


def _face_columns(X: SemisimplicialSet, n: int, k: int,
                  restrict: Optional[Mapping[int, Iterable[int]]] = None,
                  descending: bool = False) -> list[Sequence[int]]:
    """The compatible (n,k) horns as columns: one per face position, ascending.

    Row t of the columns is the t-th horn, lexicographic over the order the
    faces are assigned in: ascending positions, or descending with the flag.
    The faces already assigned fix some faces of the next one
    (d_j x_i = d_{i-1} x_j for j < i). Each step runs once over the whole
    frontier of partial horns: it gathers the values of the first one or two
    fixed slots, looks their candidates up in a slot index (ascending), expands
    the frontier by them, filters on the other fixed slots and on ``restrict``,
    and re-gathers the earlier columns through the rows that survive. A step
    that finds exactly one candidate for every partial horn and drops none
    re-gathers nothing.
    """
    positions = _positions(n, k)[::-1] if descending else _positions(n, k)
    if n < 1 or n > X.dim or X.cells[n - 1] == 0:
        return [[] for _ in positions]
    m = n - 1
    faces: dict[int, list[int]] = {}

    def face(r: int) -> list[int]:
        # d_r of every (n-1)-simplex, sliced once per scan
        if r not in faces:
            faces[r] = X.face_column(m, r)
        return faces[r]

    pools = {i: frozenset(pool) for i, pool in (restrict or {}).items()}
    columns: list[Sequence[int]] = []
    for p, i in enumerate(positions):
        # (slot of the new face, earlier position q, face r of x_q that fixes it)
        fixed = sorted((j, q, i - 1) if j < i else (j - 1, q, i)
                       for q, j in enumerate(positions[:p]))
        # parent[t] is the frontier row that new row t extends; None while that is row t
        new: Sequence[int] = range(X.cells[m])
        parent: Optional[Sequence[int]] = None
        if fixed:
            index = X.slot_index(m, tuple(slot for slot, _, _ in fixed[:2]))
            keys = [_gather(columns[q])(face(r)) for _, q, r in fixed[:2]]
            found = list(map(index.get, keys[0] if len(keys) == 1 else zip(*keys), repeat(())))
            new = list(chain.from_iterable(found))
            if len(new) != len(found) or not all(found):
                parent = list(chain.from_iterable(map(repeat, range(len(found)), map(len, found))))
            for slot, q, r in fixed[2:]:
                want = _gather(columns[q])(face(r))
                want = want if parent is None else _gather(parent)(want)
                new, parent = _kept(new, parent, list(map(eq, _gather(new)(face(slot)), want)))
        pool = pools.get(i)
        if pool is not None:
            new, parent = _kept(new, parent, list(map(pool.__contains__, new)))
        if parent is not None:
            at = _gather(parent)
            columns = [at(column) for column in columns]
        columns.append(new)
    return columns[::-1] if descending else columns


def _kept(new: Sequence[int], parent: Optional[Sequence[int]],
          keep: list[bool]) -> tuple[Sequence[int], Optional[Sequence[int]]]:
    """The rows of ``new`` that ``keep`` marks, with their parents."""
    if all(keep):
        return new, parent
    return list(compress(new, keep)), list(compress(range(len(keep)) if parent is None else parent, keep))


def _horn(n: int, k: int, columns: Sequence[Sequence[int]], t: int) -> Horn:
    return Horn(n, k, tuple(zip(_positions(n, k), (column[t] for column in columns))))


def compatible_horns(X: SemisimplicialSet, n: int, k: int,
                     restrict: Optional[Mapping[int, Iterable[int]]] = None,
                     descending: bool = False) -> Iterator[Horn]:
    """Enumerate every compatible (n,k) horn, in the order of :func:`_face_columns`.

    ``restrict`` limits the candidates at chosen face positions. Assignment
    runs over positions in ascending index order (descending with the flag);
    the yield order is deterministic either way.
    """
    order = _positions(n, k)
    for values in zip(*_face_columns(X, n, k, restrict, descending)):
        yield Horn(n, k, tuple(zip(order, values)))


class LiftFailure(NamedTuple):
    """A horn that does not lift, with the target simplex it misses (0 over the point)."""

    horn: Horn
    target: SimplexRef

    def to_json_dict(self) -> dict:
        return {"horn": self.horn.to_json_dict(), "target": self.target.index}


@dataclass
class HornVerdict:
    """Outcome of an exhaustive horn-filling or lifting scan up to a bound.

    The witness is the first horn that does not fill, or over a map the
    first lifting problem without a solution.
    """

    ok: bool
    bound: int
    witness: Optional[Union[Horn, LiftFailure]] = None
    checked: int = 0

    def to_json_dict(self) -> dict:
        out = {"result": self.ok, "bound": self.bound, "checked": self.checked}
        if self.witness is not None:
            out["witness"] = self.witness.to_json_dict()
        return out


def _lift_keys(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int,
               k: int) -> Iterator[tuple[int, ...]]:
    """Each n-simplex's face row without face k, followed by p(z) over a map, by index.

    This is the (n,k) horn a simplex fills, with the image it lies over: the
    key of the realized lifts here and of the synthesis engine's fill tables.
    """
    faces = [X.face_column(n, i) for i in _positions(n, k)]
    return zip(*faces) if p is None else zip(*faces, p.levels[n])


def _lift_test(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int, k: int):
    """For columns of (n,k) horns of X: the first row with no lift and its target, or None.

    A horn lifts when every target simplex over its image is the image of a
    filler; over the point (``p`` None) a lift is a filler, and the target is
    the point's simplex 0. Realized lifts are the :func:`_lift_keys` of X. A
    whole batch of horns is tested at once: one membership test per horn and
    target, in row order, targets ascending.
    """
    realized = set(_lift_keys(X, p, n, k))
    if p is None:

        def missing(columns: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
            t = _first_false(map(realized.__contains__, zip(*columns)))
            return None if t is None else (t, 0)

        return missing
    below = p.levels[n - 1]
    over: dict[tuple[int, ...], list[int]] = {}
    for y, key in enumerate(zip(*(p.target.face_column(n, i) for i in _positions(n, k)))):
        over.setdefault(key, []).append(y)

    def missing(columns: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
        found = list(map(over.get, zip(*(_gather(column)(below) for column in columns)), repeat(())))
        targets = list(chain.from_iterable(found))
        if len(targets) == len(found) and all(found):
            # one target per horn, as over J: row t tests against targets[t]
            owner: Sequence[int] = range(len(found))
        else:
            owner = list(chain.from_iterable(map(repeat, range(len(found)), map(len, found))))
            columns = [_gather(owner)(column) for column in columns]
        t = _first_false(map(realized.__contains__, zip(*columns, targets)))
        return None if t is None else (owner[t], targets[t])

    return missing


def _first_false(flags: Iterable[bool]) -> Optional[int]:
    try:
        return indexOf(flags, False)
    except ValueError:
        return None


class LiftTests(dict):
    """The lift test of each (n, k) horn shape of X over p, built on first use.

    A command that makes many scans makes one and passes it to each of them,
    so each shape's test is built once; it is dropped with the command, and
    nothing is kept on the set.
    """

    def __init__(self, X: SemisimplicialSet, p: Optional[SemisimplicialMap] = None):
        super().__init__()
        self.X, self.p = X, p

    def __missing__(self, shape: tuple[int, int]):
        test = self[shape] = _lift_test(self.X, self.p, *shape)
        return test


def _scan(X: SemisimplicialSet, p: Optional[SemisimplicialMap], shapes: Iterable[tuple[int, int]],
          lifts: Optional[LiftTests] = None) -> tuple[int, Optional[LiftFailure]]:
    """Horns checked up to the first that does not lift, and that horn with the target it misses.

    Without ``lifts`` each shape's lift test is built for its scan and dropped after it.
    """
    checked = 0
    for n, k in shapes:
        missing = _lift_test(X, p, n, k) if lifts is None else lifts[n, k]
        columns = _face_columns(X, n, k)
        failure = missing(columns)
        if failure is not None:
            t, y = failure
            return checked + t + 1, LiftFailure(_horn(n, k, columns, t), SimplexRef(n, y))
        checked += len(columns[0])
    return checked, None


def _inner_shapes(bound: int) -> Iterator[tuple[int, int]]:
    return ((n, k) for n in range(2, bound + 1) for k in range(n - 1, 0, -1))


def check_inner(X: SemisimplicialSet, D: Optional[int] = None) -> HornVerdict:
    """Every compatible inner horn (0 < k < n <= D) has at least one filler."""
    bound = X.dim if D is None else min(D, X.dim)
    checked, failure = _scan(X, None, _inner_shapes(bound))
    return HornVerdict(failure is None, bound, failure and failure.horn, checked)


def check_kan(X: SemisimplicialSet, D: Optional[int] = None,
              lifts: Optional[LiftTests] = None) -> HornVerdict:
    """Every compatible horn fills, outer horns and the two n = 1 shapes included.

    ``lifts``, the lift tests of X over the point, may be shared with the
    edge checks of one command.
    """
    bound = X.dim if D is None else min(D, X.dim)
    shapes = ((n, k) for n in range(1, bound + 1) for k in range(n, -1, -1))
    checked, failure = _scan(X, None, shapes, lifts)
    return HornVerdict(failure is None, bound, failure and failure.horn, checked)


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
        if isinstance(self.witness, (Horn, LiftFailure)):
            out["witness"] = self.witness.to_json_dict()
        elif isinstance(self.witness, SimplexRef):
            out["witness"] = {"dim": self.witness.dim, "index": self.witness.index}
        elif self.witness is not None:
            out["witness"] = self.witness
        return out


def _edge_scan(X: SemisimplicialSet, p: Optional[SemisimplicialMap], f: SimplexRef,
               property: str, bound: int,
               lifts: Optional[LiftTests]) -> Optional[LiftFailure]:
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
        columns = _face_columns(X, n, k, restrict={slot: pool}, descending=descending)
        failure = lifts[n, k](columns)
        if failure is not None:
            t, y = failure
            return LiftFailure(_horn(n, k, columns, t), SimplexRef(n, y))
    return None


def edge_property(X: SemisimplicialSet, f: SimplexRef, property: str,
                  D: Optional[int] = None, lifts: Optional[LiftTests] = None) -> EdgeVerdict:
    """Cartesian: every right horn whose last edge is f fills; cocartesian dual.

    ``lifts``, the lift tests of X over the point, may be shared by the
    checks of one command.
    """
    bound = X.dim if D is None else min(D, X.dim)
    failure = _edge_scan(X, None, f, property, bound, lifts)
    return EdgeVerdict(f, property, bound, failure is None, failure and failure.horn)


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


def check_inner_fibration(p: SemisimplicialMap, D: Optional[int] = None) -> HornVerdict:
    """Every inner horn of the source lifts against every matching target simplex."""
    bound = p.depth if D is None else min(D, p.depth)
    checked, failure = _scan(p.source, p, _inner_shapes(bound))
    return HornVerdict(failure is None, bound, failure, checked)


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
