"""Horn construction, filler search, and lifting-condition checkers.

All checkers are read-only scans: they fill a set's lookup caches but never
change its faces. Every scan runs through one column-wise enumerator: it
lists all compatible horns of a shape at once, one column per face, each
step a slot-pattern lookup over the whole frontier of partial horns. One loop
applies a lift test to each batch of columns. Verdicts are always "up to D":
nothing is extrapolated beyond the truncation, and a negative verdict
carries a concrete witness. Filler tie-breaking is everywhere the lowest
canonical index.

Every lift test reads one table per (n, k) horn shape, :func:`_lowest`: it
maps each horn that some n-simplex fills (over a map, with the image it lies
over) to the lowest such simplex. A table is built on first use and kept on
the set, or over a map on the map, so each shape is built once for the life
of the set, however many scans and runs read it.

Every scan of a shape (n, k), n >= 2, restricted or not, over the point or
over a map, is first put to one rule, :func:`_decided`. On a set that
``validate`` has passed, the spanning pair of :func:`_spanned`, three O(c_n)
passes over face columns, can show that the shape has c_n horns and that
each is the row of exactly one n-simplex. Over a map that ``validate_map``
has passed, into a set that ``validate`` has passed, the target's spanning
pair shows the same of the target's shape, and then every lifting problem
is solved. A decided scan passes with no frontier step, lift test or table:
it counts c_n horns, or for a scan restricted to an edge, the n-simplices
whose last (first) edge is the edge, one count over a column of edges.

The synthesis engine names every filler by one rule, :func:`_fill`: a shape
that the rule decides on the set, over the point or over a map, is filled
from the table of its spanning pair that the rule's separation test builds
(:func:`_spanned_fill`), and every other shape from its :func:`_lowest`
table. Over a projection that :func:`~degenforge.sset.product` marks with
its factor C, the same rule fills C's part of each row (:func:`_pair_fill`).

Every scan that the rule does not decide takes the ordered scan, which
names its first horn that does not lift. A set or map that has not passed
its check is always scanned in order. The rule's separation tests and
verdicts are made once and kept on the set, as the tables are.

An edge's cartesian (cocartesian) horns are the (n, n) ((n, 0)) horns whose
last (first) edge it is, so an edge passes whenever its shape is decided,
and :func:`edge_verdicts` scans every other shape once for every edge. A
question about one edge runs that edge's restricted scans.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import and_, eq, floordiv, indexOf, mod, not_
from typing import Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence, Union

from .errors import (
    DimensionTooLow,
    IncompatibleHorn,
    MissingDegeneracies,
    NotASelfEdge,
    ParseError,
)
from .sset import SemisimplicialMap, SemisimplicialSet, SimplexRef, _canonical, _gather, _is_index


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


def _lowest_witness(X: SemisimplicialSet, e: int, p: Optional[SemisimplicialMap] = None,
                    target: Optional[int] = None) -> Optional[int]:
    """The lowest 2-simplex all of whose faces are the edge e, over ``target`` on a map p; or None."""
    if X.dim < 2:
        return None
    found = _filler_indices(X, 2, ((0, e), (1, e), (2, e)))
    return next((z for z in found if p is None or p.apply_index(2, z) == target), None)


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


class _FaceColumns(dict):
    """d_r of every m-simplex, keyed by r: each column sliced once per enumeration."""

    def __init__(self, X: SemisimplicialSet, m: int):
        super().__init__()
        self.X, self.m = X, m

    def __missing__(self, r: int) -> list[int]:
        column = self[r] = self.X.face_column(self.m, r)
        return column


def _step(faces: _FaceColumns, assigned: Sequence[int], columns: list[Sequence[int]], i: int,
          pool: Optional[frozenset] = None) -> list[Sequence[int]]:
    """The frontier ``columns``, one per position in ``assigned``, extended by face position i.

    The faces already assigned fix some faces of the new one
    (d_j x_i = d_{i-1} x_j for j < i). The step runs once over the whole
    frontier of partial horns: it gathers the values of the slots that the
    first one or two assigned positions fix, looks their candidates up in a
    slot index (ascending), expands the frontier by them, filters on the
    other fixed slots and on ``pool``, and re-gathers the earlier columns
    through the rows that survive. A step that finds exactly one candidate
    for every partial horn and drops none re-gathers nothing. Which slots
    are looked up changes no row, only which slot indices the set keeps.
    """
    X, m = faces.X, faces.m
    # (slot of the new face, earlier position q, face r of x_q that fixes it)
    fixed = [(j, q, i - 1) if j < i else (j - 1, q, i) for q, j in enumerate(assigned)]
    # parent[t] is the frontier row that new row t extends; None while that is row t
    new: Sequence[int] = range(X.cells[m])
    parent: Optional[Sequence[int]] = None
    if fixed:
        lookup = sorted(fixed[:2])
        index = X.slot_index(m, tuple(slot for slot, _, _ in lookup))
        keys = [_gather(columns[q])(faces[r]) for _, q, r in lookup]
        found = list(map(index.get, keys[0] if len(keys) == 1 else zip(*keys), repeat(())))
        new = list(chain.from_iterable(found))
        if len(new) != len(found) or not all(found):
            parent = list(chain.from_iterable(map(repeat, range(len(found)), map(len, found))))
        for slot, q, r in fixed[2:]:
            want = _gather(columns[q])(faces[r])
            want = want if parent is None else _gather(parent)(want)
            new, parent = _kept(new, parent, list(map(eq, _gather(new)(faces[slot]), want)))
    if pool is not None:
        new, parent = _kept(new, parent, list(map(pool.__contains__, new)))
    if parent is not None:
        at = _gather(parent)
        columns = [at(column) for column in columns]
    return [*columns, new]


def _face_columns(X: SemisimplicialSet, n: int, k: int,
                  restrict: Optional[Mapping[int, Iterable[int]]] = None,
                  descending: bool = False) -> list[Sequence[int]]:
    """The compatible (n,k) horns as columns: one per face position, ascending.

    Row t of the columns is the t-th horn, lexicographic over the order the
    faces are assigned in: ascending positions, or descending with the flag.
    Each position is one :func:`_step`, filtered on ``restrict``.
    """
    positions = _positions(n, k)[::-1] if descending else _positions(n, k)
    if n < 1 or n > X.dim or X.cells[n - 1] == 0:
        return [[] for _ in positions]
    faces = _FaceColumns(X, n - 1)
    pools = {i: frozenset(pool) for i, pool in (restrict or {}).items()}
    columns: list[Sequence[int]] = []
    for p, i in enumerate(positions):
        columns = _step(faces, positions[:p], columns, i, pools.get(i))
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

    This is the (n,k) horn a simplex fills, with the image it lies over.
    """
    faces = [X.face_column(n, i) for i in _positions(n, k)]
    return zip(*faces) if p is None else zip(*faces, p.levels[n])


def _lowest(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int, k: int) -> dict:
    """Each (n,k) horn that an n-simplex of X fills, with its image over p, to the lowest such simplex.

    The one table of realized horns: the lift tests read its keys, and
    :func:`_fill` its values on the shapes that :func:`_decided` does not
    decide on X. It depends on the shape only, so it is built on first use
    and kept on X, or over a map on p, for the life of the set.
    """
    tables = X._lowest if p is None else p._lowest
    table = tables.get((n, k))
    if table is None:
        keys = list(_lift_keys(X, p, n, k))
        keys.reverse()
        table = tables[n, k] = dict(zip(keys, range(len(keys) - 1, -1, -1)))
    return table


def _over(p: SemisimplicialMap, n: int, k: int) -> dict:
    """Each (n, k) horn of p's target that some n-simplex fills, to those simplices, ascending.

    The one index of the target's horns over p: the lift tests look up the
    targets of a horn's image in it. It is built on first use and kept on p.
    """
    over = p._over.get((n, k))
    if over is None:
        over = p._over[n, k] = {}
        for y, key in enumerate(zip(*(p.target.face_column(n, i) for i in _positions(n, k)))):
            over.setdefault(key, []).append(y)
    return over


def _lift_test(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int, k: int):
    """The (n,k) lift test of X over p.

    The test takes columns of (n,k) horns of X to the first row with no lift
    and its target, or None. A horn lifts when every target simplex over its
    image is the image of a filler; over the point (``p`` None) a lift is a
    filler, and the target is the point's simplex 0. Realized lifts are the
    keys of :func:`_lowest`, and the targets over an image are read from
    :func:`_over`. A whole batch of horns is tested at once: one membership
    test per horn and target, in row order, targets ascending.
    """
    realized = _lowest(X, p, n, k)
    if p is None:

        def missing(columns: Sequence[Sequence[int]]) -> Optional[tuple[int, int]]:
            t = _first_false(map(realized.__contains__, zip(*columns)))
            return None if t is None else (t, 0)

        return missing
    below, over = p.levels[n - 1], _over(p, n, k)

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


def _separates(X: SemisimplicialSet, n: int, pair: tuple[int, int]) -> Optional[dict]:
    """Each n-simplex's faces at ``pair`` to the simplex, if they tell the n-simplices of X apart.

    None where two n-simplices share their faces at ``pair``. The answer is
    made once and kept on X, so that the rule's separation test and the
    engine's fills of a decided shape (:func:`_spanned_fill`) share one
    build. Without n-simplices the table is the empty dict, which separates:
    test the answer against None.
    """
    key = (n, pair)
    if key not in X._separated:
        faces = zip(X.face_column(n, pair[0]), X.face_column(n, pair[1]))
        table = dict(zip(faces, _canonical(X.cells[n])))
        X._separated[key] = table if len(table) == X.cells[n] else None
    return X._separated[key]


def _pair(n: int, k: int) -> tuple[int, int]:
    """The spanning pair of the (n, k) horns: their first and last faces."""
    return 1 if k == 0 else 0, n - 1 if k == n else n


def _spanned(X: SemisimplicialSet, n: int, pair: tuple[int, int]) -> bool:
    """Whether the (n, k) horns with spanning pair (a, b), n >= 2, are c_n and all fill.

    Only for a set that ``validate`` has passed. Each other face x_i of a
    compatible horn, a < i < b, has d_a x_i = d_{i-1} x_a and d_{b-1} x_i =
    d_i x_b. So if (i) faces (a, b) tell the n-simplices apart, (ii) for
    n > 2 slots (a, b-1) tell the (n-1)-simplices apart, and (iii) the pairs
    with d_{b-1} x_a = d_a x_b number c_n, then c_n <= realized horns <=
    horns <= pairs = c_n, and each horn is the row of exactly one n-simplex.
    The faces never change, so the verdict and both separation tests are
    made once and kept on X, as its :func:`_lowest` tables are. Where the
    verdict holds, the table of faces (a, b) that the first test built names
    each horn's one filler, and the engine fills the shape from it.
    """
    spanned = X._spanned.get((n, pair))
    if spanned is None:
        a, b = pair
        spanned = _separates(X, n, pair) is not None and (
            n == 2 or _separates(X, n - 1, (a, b - 1)) is not None)
        if spanned:
            below = Counter(X.face_column(n - 1, a))
            spanned = sum(map(below.__getitem__, X.face_column(n - 1, b - 1))) == X.cells[n]
        X._spanned[n, pair] = spanned
    return spanned


def _decided(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int, k: int) -> bool:
    """Whether the spanning pair decides that every (n, k) lifting problem of X over p is solved.

    Over the point (``p`` None) a problem is a compatible horn, and the rule
    is :func:`_spanned` on X, a set that ``validate`` has passed. Over a map
    that ``validate_map`` has passed, into a set that ``validate`` has
    passed, it also needs :func:`_spanned` on the target. A problem (h, y)
    is a horn h of X with a target n-simplex y that fills p(h). h has
    exactly one filler z, p(z) fills p(h) since p commutes with the faces,
    and p(h) has exactly one filler, so y = p(z). Either way the shape has
    c_n horns, each the row of exactly one n-simplex.
    """
    pair = _pair(n, k)
    return n >= 2 and X._valid and _spanned(X, n, pair) and (
        p is None or p._valid and p.target._valid and _spanned(p.target, n, pair))


def _spanned_fill(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int, k: int,
                  columns: Sequence[Sequence[Optional[int]]],
                  target: Optional[Sequence[int]]) -> list[Optional[int]]:
    """The filler of each row of (n, k) horns of X, over ``target`` on a map p, or None.

    Only for a shape that :func:`_decided` decides on X over the point. The
    horn's first and last columns are faces (a, b) of its spanning pair, and
    X's table of :func:`_separates` names the one n-simplex z with those
    faces. Any filler of the row has them, so z is the row's filler where
    its other faces are the row's, and over p where p(z) is the row's
    target; every other row has none. Row for row this is the value of the
    row in the shape's :func:`_lowest` table, which is not built.
    """
    found = list(map(_separates(X, n, _pair(n, k)).get, zip(columns[0], columns[-1])))
    if None in found:
        # a row whose faces (a, b) name no simplex has no filler; the others are answered alone
        rows = [t for t, z in enumerate(found) if z is not None]
        at = _gather(rows)
        filled = _spanned_fill(X, p, n, k, list(map(at, columns)), None if target is None else at(target))
        return list(map(dict(zip(rows, filled)).get, range(len(found))))
    at = _gather(found)
    sides = [(at(X.face_column(n, i)), column) for i, column in zip(_positions(n, k)[1:-1], columns[1:-1])]
    if p is not None:
        sides.append((at(p.levels[n]), target))
    fits: Optional[list[bool]] = None
    for got, want in sides:
        if got != tuple(want):
            fit = list(map(eq, got, want))
            fits = fit if fits is None else list(map(and_, fits, fit))
    return found if fits is None else [z if fit else None for z, fit in zip(found, fits)]


def _fill(X: SemisimplicialSet, p: Optional[SemisimplicialMap], n: int, k: int,
          columns: Sequence[Sequence[Optional[int]]], target: Optional[Sequence[int]]) -> list[Optional[int]]:
    """The lowest filler of each row of (n, k) horns of X, over ``target`` on a map p, or None.

    The one fill rule: the table of the spanning pair where :func:`_decided`
    decides the shape on X over the point (:func:`_spanned_fill`), else the
    shape's :func:`_lowest` table. Over a projection marked with its factor
    C the rule fills C's part of each row (:func:`_pair_fill`).
    """
    if p is not None and p.factor is not None:
        return _pair_fill(p.factor, p.target, n, k, columns, target)
    if _decided(X, None, n, k):
        return _spanned_fill(X, p, n, k, columns, target)
    lowest = _lowest(X, p, n, k)
    return list(map(lowest.get, zip(*columns) if target is None else zip(*columns, target)))


def _pair_fill(C: SemisimplicialSet, Y: SemisimplicialSet, n: int, k: int,
               columns: Sequence[Sequence[Optional[int]]], target: Sequence[int]) -> list[Optional[int]]:
    """The lowest filler of each row of (n, k) horns of C x Y over ``target`` on Y, or None.

    A filler over y is a pair (z, y), where z fills the row's C parts and the
    row's Y parts are y's faces. Row-major pair indices make the lowest one
    (lowest z, y), and :func:`_fill` on C names the lowest z.
    """
    if any(None in column for column in columns):
        # a row with an undefined face has no filler; the others are answered alone
        rows = [r for r, row in enumerate(zip(*columns)) if None not in row]
        at = _gather(rows)
        found = dict(zip(rows, _pair_fill(C, Y, n, k, list(map(at, columns)), at(target))))
        return list(map(found.get, range(len(target))))
    below, above = Y.cells[n - 1], Y.cells[n]
    at = _gather(target)
    fits: Sequence[bool] = [True] * len(target)
    for i, column in zip(_positions(n, k), columns):
        parts, want = tuple(map(mod, column, repeat(below))), at(Y.face_column(n, i))
        if parts != want:
            fits = list(map(and_, fits, map(eq, parts, want)))
    found = _fill(C, None, n, k, [list(map(floordiv, column, repeat(below))) for column in columns], None)
    return [None if z is None or not fit else z * above + y for z, fit, y in zip(found, fits, target)]


def _restriction(X: SemisimplicialSet, n: int,
                 edge: Optional[tuple[int, str, int]]) -> Optional[dict[int, list[int]]]:
    """The ``restrict`` of a scan's :func:`_face_columns` call: none, or face x_face's ``end`` edge e."""
    if edge is None:
        return None
    face, end, e = edge
    return {face: [j for j, x in enumerate(X.edges(n - 1, end)) if x == e]}


def _shapes(X: SemisimplicialSet, p: Optional[SemisimplicialMap],
            scans: Iterable[tuple]) -> Iterator[tuple[int, int, int, Optional[LiftFailure]]]:
    """Per scan, up to the first that fails: ``(n, k, horns checked, failure)``.

    Each scan is ``(n, k, edge, descending)``: the compatible (n, k) horns in
    the order of :func:`_face_columns`, all of them with ``edge`` None, or
    with ``edge`` = (face, end, e), n >= 2, those whose face x_face has e as
    its ``end`` edge (:func:`_edge_shapes` pairs face 0 with the last edge and
    face n with the first). A scan that fails checked its horns up to the
    failing one. Every scan of a shape reads the same :func:`_lowest` table.

    A scan of a shape that :func:`_decided` decides passes with no frontier
    step and no table: each of its horns is the row of exactly one
    n-simplex, whose ``end`` edge is that of its face x_face, so it counts
    c_n, or with ``edge`` the n-simplices whose ``end`` edge is e, counted in
    ``X.edges(n, end)``. Every other scan runs the ordered scan, which names
    the first horn that does not lift.
    """
    for n, k, edge, descending in scans:
        if _decided(X, p, n, k):
            yield n, k, X.cells[n] if edge is None else X.edges(n, edge[1]).count(edge[2]), None
            continue
        columns = _face_columns(X, n, k, _restriction(X, n, edge), descending)
        failure = _lift_test(X, p, n, k)(columns)
        if failure is not None:
            t, y = failure
            yield n, k, t + 1, LiftFailure(_horn(n, k, columns, t), SimplexRef(n, y))
            return
        yield n, k, len(columns[0]), None


def _scan(X: SemisimplicialSet, p: Optional[SemisimplicialMap],
          scans: Iterable[tuple]) -> tuple[int, Optional[LiftFailure]]:
    """Horns checked up to the first that does not lift, and that horn with the target it misses.

    The scans run through :func:`_shapes`: a scan of a shape that
    :func:`_decided` decides counts its horns, or the n-simplices it
    restricts to, and every other shape takes the ordered scan, so that
    ``checked`` is the counts of the earlier shapes plus the witness's
    position plus one, as an ordered scan of every shape gives.
    """
    checked = 0
    for _, _, horns, failure in _shapes(X, p, scans):
        checked += horns
        if failure is not None:
            return checked, failure
    return checked, None


def _inner_scans(bound: int) -> Iterator[tuple]:
    return ((n, k, None, False) for n in range(2, bound + 1) for k in range(n - 1, 0, -1))


def check_inner(X: SemisimplicialSet, D: Optional[int] = None) -> HornVerdict:
    """Every compatible inner horn (0 < k < n <= D) has at least one filler."""
    bound = X.dim if D is None else min(D, X.dim)
    checked, failure = _scan(X, None, _inner_scans(bound))
    return HornVerdict(failure is None, bound, failure and failure.horn, checked)


def check_kan(X: SemisimplicialSet, D: Optional[int] = None) -> HornVerdict:
    """Every compatible horn fills, outer horns and the two n = 1 shapes included.

    Its realized horns are the :func:`_lowest` tables kept on X, which the
    edge checks read too, and the synthesis engine on the shapes that
    :func:`_decided` does not decide.
    """
    bound = X.dim if D is None else min(D, X.dim)
    scans = ((n, k, None, False) for n in range(1, bound + 1) for k in range(n, -1, -1))
    checked, failure = _scan(X, None, scans)
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


def _require_edge(X: SemisimplicialSet, f: SimplexRef) -> None:
    # a ref that names no edge would pass every scan vacuously
    if f.dim != 1 or X.dim < 1 or not _is_index(f.index, X.cells[1]):
        raise ValueError(f"({f.dim},{f.index}) is not an edge of the checked set")


def _edge_shapes(property: str, bound: int) -> list[tuple[int, int, int, str, bool]]:
    """Per n up to the bound, the shape an edge property scans: ``(n, k, face, end, descending)``.

    Cartesian: the right horns (n, n), ascending, whose edge is the last edge
    of face 0, x_0; cocartesian: the left horns (n, 0), descending, whose edge
    is the first edge of face n, x_n.
    """
    if property == "cartesian":
        return [(n, n, 0, "last", False) for n in range(2, bound + 1)]
    if property == "cocartesian":
        return [(n, 0, n, "first", True) for n in range(2, bound + 1)]
    raise ValueError(f"unknown edge property {property!r}")


def _edge_scans(f: SimplexRef, property: str, bound: int) -> Iterator[tuple]:
    """The scans of f's cartesian (cocartesian) condition: each shape, restricted to f's horns."""
    for n, k, face, end, descending in _edge_shapes(property, bound):
        yield n, k, (face, end, f.index), descending


def edge_property(X: SemisimplicialSet, f: SimplexRef, property: str,
                  D: Optional[int] = None) -> EdgeVerdict:
    """Cartesian: every right horn whose last edge is f fills; cocartesian dual.

    On a set that ``validate`` has passed, a shape that :func:`_spanned`
    decides passes from the spanning pair, whose verdict is kept on X, with
    the n-simplices whose last (first) edge is f as its count. Every other
    shape is scanned in order, and the scans of every edge read the (n, n)
    or (n, 0) :func:`_lowest` tables kept on X, so each shape is built once
    for the life of the set.
    """
    _require_edge(X, f)
    bound = X.dim if D is None else min(D, X.dim)
    _, failure = _scan(X, None, _edge_scans(f, property, bound))
    return EdgeVerdict(f, property, bound, failure is None, failure and failure.horn)


def is_equivalence(X: SemisimplicialSet, f: SimplexRef, D: Optional[int] = None) -> EdgeVerdict:
    """Conjunction of the cartesian and cocartesian verdicts at bound D: one scan, cartesian first.

    Its scans are :func:`edge_property`'s, so on a set that ``validate`` has
    passed a shape that the spanning pair decides makes no frontier step and
    builds no table: the s0 check of every synthesis over the point runs it.
    """
    _require_edge(X, f)
    bound = X.dim if D is None else min(D, X.dim)
    scans = chain(_edge_scans(f, "cartesian", bound), _edge_scans(f, "cocartesian", bound))
    _, failure = _scan(X, None, scans)
    return EdgeVerdict(f, "equivalence", bound, failure is None, failure and failure.horn)


def edge_verdicts(X: SemisimplicialSet, property: str, D: Optional[int] = None) -> list[EdgeVerdict]:
    """Every edge's :func:`edge_property` or :func:`is_equivalence` verdict, by edge index.

    Each (n, n) or (n, 0) shape is read once for all edges. Where
    :func:`_decided` decides the shape, every edge passes at n. Otherwise it
    takes one unrestricted scan in the edge scans' order, and each failing
    row is charged to the edge of its x_0 (cartesian) or x_n (cocartesian).
    An edge's restricted scan visits a subsequence of that scan, so the
    first failing row of each edge is its witness; an equivalence's is its
    first cartesian failure, else its first cocartesian one.
    """
    props = ("cartesian", "cocartesian") if property == "equivalence" else (property,)
    bound = X.dim if D is None else min(D, X.dim)
    failed: list[dict[int, Horn]] = [{} for _ in props]
    for first, prop in zip(failed, props):
        for n, k, face, end, descending in _edge_shapes(prop, bound):
            if _decided(X, None, n, k):
                continue
            columns = _face_columns(X, n, k, descending=descending)
            ends = _gather(columns[_positions(n, k).index(face)])(X.edges(n - 1, end))
            unfilled = map(not_, map(_lowest(X, None, n, k).__contains__, zip(*columns)))
            for t in compress(range(len(ends)), unfilled):
                if ends[t] not in first:
                    first[ends[t]] = _horn(n, k, columns, t)
    verdicts = []
    for e in range(X.cells[1] if X.dim >= 1 else 0):
        witness = next((first[e] for first in failed if e in first), None)
        verdicts.append(EdgeVerdict(SimplexRef(1, e), property, bound, witness is None, witness))
    return verdicts


def is_idempotent(X: SemisimplicialSet, f: SimplexRef) -> Optional[SimplexRef]:
    """First 2-simplex all of whose faces are f, or None."""
    _require_edge(X, f)
    if X.face_index(1, f.index, 0) != X.face_index(1, f.index, 1):
        raise NotASelfEdge(f"edge {f.index} has distinct endpoints")
    w = _lowest_witness(X, f.index)
    return None if w is None else SimplexRef(2, w)


def find_idempotent_equivalences(X: SemisimplicialSet, x: SimplexRef, D: Optional[int] = None,
                                 limit: Optional[int] = None) -> list[tuple[SimplexRef, SimplexRef]]:
    """The idempotent-equivalence self-edges at a vertex, ascending, with their witnesses.

    All of them, or only the lowest ``limit``: the scan stops once it has them.
    """
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
            if len(out) == limit:
                break
    return out


def check_inner_fibration(p: SemisimplicialMap, D: Optional[int] = None) -> HornVerdict:
    """Every inner horn of the source lifts against every matching target simplex.

    A compatible (n, k) horn of C x Y is a pair of compatible horns, so over
    a projection marked with its factor C the passing verdict comes from C's
    inner scan, with ``checked`` the sum over shapes of h_C(n, k) * h_Y(n, k),
    the factors' compatible-horn counts: C's from its scan, and Y's c_n where
    :func:`_decided` decides the shape on Y, else the enumerator's count.
    :class:`SemisimplicialMap` states the rule.
    """
    bound = p.depth if D is None else min(D, p.depth)
    if p.factor is not None:
        Y, checked = p.target, 0
        for n, k, filled, failure in _shapes(p.factor, None, _inner_scans(bound)):
            if failure is not None:
                break
            horns = Y.cells[n] if _decided(Y, None, n, k) else len(_face_columns(Y, n, k)[0])
            checked += filled * horns
        else:
            return HornVerdict(True, bound, None, checked)
    checked, failure = _scan(p.source, p, _inner_scans(bound))
    return HornVerdict(failure is None, bound, failure, checked)


def p_edge_property(p: SemisimplicialMap, f: SimplexRef, property: str,
                    D: Optional[int] = None, Y_degeneracies=None) -> EdgeVerdict:
    """Relative version of the edge properties over a map p.

    cartesian/cocartesian: the absolute horn condition with a lift demanded
    over every matching target simplex, read from the :func:`_lowest` tables
    kept on p. idempotent: a 2-simplex with all faces f projecting to the
    doubly degenerate image of the base vertex.

    On a map that ``validate_map`` has passed, a shape that :func:`_decided`
    decides passes from both spanning pairs, with no frontier step and no
    table. Over a projection marked with its factor C, f is a pair (c, y),
    and a passing verdict comes from C's :func:`edge_property` at c, which
    reads the tables kept on C; :class:`SemisimplicialMap` states the rule.
    """
    X = p.source
    _require_edge(X, f)
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
        z = _lowest_witness(X, f.index, p, target)
        if z is not None:
            return EdgeVerdict(f, property, bound, True, SimplexRef(2, z))
        return EdgeVerdict(f, property, bound, False,
                           {"exhausted": {"dim2_scanned": X.cells[2] if X.dim >= 2 else 0}})
    if p.factor is not None:
        c = SimplexRef(1, f.index // p.target.cells[1])
        if edge_property(p.factor, c, property, bound).result:
            return EdgeVerdict(f, property, bound, True, None)
    _, failure = _scan(X, p, _edge_scans(f, property, bound))
    return EdgeVerdict(f, property, bound, failure is None, failure)
