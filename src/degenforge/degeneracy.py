"""Construction and verification of degeneracy operators by horn filling.

The builder runs one stage per degeneracy index N = 0..D-2. Each stage has
two steps: first extend the system by filling one prescribed horn per
simplex (every identity holds afterwards except d_{N+1} s_N = id), then
build a correction table of double-degeneracy candidates whose N-th faces
replace s_N and restore the missing identity.

Each step fills a whole level (N, n) at once. The level's horns are
prescribed as columns, one per face position, gathered from lower levels;
their lowest fillers come from one table per level, which maps every horn
that some simplex fills (over a map, with the image it lies over) to the
lowest such simplex and is dropped with the level. Only valid sets reach
the engine, so a horn that matches a simplex exactly is compatible.

Values forced by a subcomplex or by lower degeneracies are never searched:
they are computed from every available representation and the
representations are required to agree, turning the well-definedness of the
construction into a runtime check. A lower degeneracy forces s_N(x) through
s_N s_i = s_i s_{N-1} (i < N) where x = s_i(y); since d_i s_i = id, the only
candidate is y = d_i x, read off the face table. Every decision (fill,
forcing, witness) is recorded in an ordered certificate that replays
deterministically.

Working tables keep one provisional level above the verified range (the
stage-N step-one values at the top level feed later stages' forced values);
the returned table is restricted to the fully corrected levels n <= D-2.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field, replace
from itertools import filterfalse
from typing import Mapping, Optional, Sequence

from .errors import (
    CertificateMismatch,
    ConsistencyViolation,
    DegenforgeError,
    IncompatibleSubcomplexStructure,
    MissingDegeneracies,
    MissingWitness,
    NoIdempotentEquivalence,
    NotKan,
    NotQuasiSemicategory,
    ParseError,
    RestrictionMismatch,
    TruncationExhausted,
    UnfillableHorn,
)
from .horn import (
    Horn,
    LiftTests,
    _filler_indices,
    _lift_keys,
    _positions,
    check_inner,
    check_inner_fibration,
    check_kan,
    compatibility_failures,
    find_idempotent_equivalences,
    is_equivalence,
    is_idempotent,
    p_edge_property,
)
from .sset import (
    SemisimplicialMap,
    SemisimplicialSet,
    SimplexRef,
    Subcomplex,
    _canonical,
    _gather,
    _is_index,
    _require_valid,
    validate,
    validate_map,
)


class DegeneracyTable:
    """Partial table of degeneracy operators s_k over a fixed base set.

    ``value(k, n, j)`` is the index in dimension n+1 of s_k applied to the
    j-th n-simplex, or None where undefined. Each ``(k, n)`` level is stored
    once, as a list of length ``c_n`` with None where a value is undefined;
    a stored level holds at least one value. Lookups go one way: where
    d_k s_k = id holds, x = s_k(y) only for y = d_k x.
    """

    def __init__(self, base: SemisimplicialSet):
        self.base = base
        self._s: dict[tuple[int, int], list[Optional[int]]] = {}

    def set_value(self, k: int, n: int, j: int, value: int) -> None:
        level = self._s.get((k, n))
        if level is None:
            level = self._s[(k, n)] = [None] * self.base.cells[n]
        level[j] = value

    def set_level(self, k: int, n: int, level: list[int]) -> None:
        """Store a whole ``(k, n)`` level, one value per n-simplex."""
        self._s[(k, n)] = level

    def value(self, k: int, n: int, j: int) -> Optional[int]:
        level = self._s.get((k, n))
        return None if level is None else level[j]

    def domain(self):
        return self._s.keys()

    def entries(self):
        """All (k, n, j, value) assignments in canonical order."""
        for (k, n), level in sorted(self._s.items()):
            for j, v in enumerate(level):
                if v is not None:
                    yield k, n, j, v

    def level(self, k: int, n: int) -> Optional[list[Optional[int]]]:
        """The stored ``(k, n)`` level, indexed by j, or None; do not modify it."""
        return self._s.get((k, n))

    def copy(self) -> "DegeneracyTable":
        out = DegeneracyTable(self.base)
        out._s = {key: list(level) for key, level in self._s.items()}
        return out

    def restricted(self, max_level: int) -> "DegeneracyTable":
        out = DegeneracyTable(self.base)
        out._s = {(k, n): list(level) for (k, n), level in self._s.items() if n <= max_level}
        return out

    def to_json_dict(self) -> dict:
        if not self._s:
            return {"base_hash": self.base.content_hash(), "s": []}
        top_k = max(k for k, _ in self._s)
        top_n = max(n for _, n in self._s)
        table = []
        for k in range(top_k + 1):
            per_n: list = []
            for n in range(top_n + 1):
                level = self._s.get((k, n))
                if level is not None and None in level:
                    raise ValueError(f"level (k={k}, n={n}) is partial; only total levels serialize")
                per_n.append(None if level is None else list(level))
            table.append(per_n)
        return {"base_hash": self.base.content_hash(), "s": table}

    @classmethod
    def from_json_dict(cls, data: Mapping, base: SemisimplicialSet) -> "DegeneracyTable":
        try:
            base_hash = data["base_hash"]
            raw = data["s"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed degeneracy table: {exc}") from exc
        if base_hash != base.content_hash():
            raise ParseError("degeneracy table was emitted for a different base set")
        if not isinstance(raw, list):
            raise ParseError("a degeneracy table's \"s\" is an array of per-k arrays")
        out = cls(base)
        for k, per_n in enumerate(raw):
            if not isinstance(per_n, list):
                raise ParseError(f"s_{k} is not an array of levels")
            for n, level in enumerate(per_n):
                if level is None:
                    continue
                if not isinstance(level, list):
                    raise ParseError(f"level (k={k}, n={n}) is neither an array nor null")
                if k > n:
                    raise ParseError(f"level (k={k}, n={n}): s_{k} acts on n-simplices "
                                     f"only for k <= n")
                if n >= base.dim:
                    raise ParseError(f"level (k={k}, n={n}) maps into dimension {n + 1} "
                                     f"above the base's {base.dim}")
                if len(level) != base.cells[n]:
                    raise ParseError(f"level (k={k}, n={n}) has {len(level)} entries for {base.cells[n]} simplices")
                if not level:
                    continue  # a table holds no empty level
                limit = base.cells[n + 1]
                if set(map(type, level)) != {int} or not 0 <= min(level) <= max(level) < limit:
                    j, v = next((j, v) for j, v in enumerate(level) if not _is_index(v, limit))
                    raise ParseError(f"s_{k} of ({n},{j}) is {v!r}, not an index "
                                     f"in 0..{limit - 1}")
                out._s[(k, n)] = list(map(_canonical(limit).__getitem__, level))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, DegeneracyTable):
            return NotImplemented
        return self.base == other.base and self._s == other._s

    def __repr__(self) -> str:
        return f"DegeneracyTable(levels={sorted(self._s)})"


@dataclass
class TTable:
    """Double-degeneracy candidates for one stage, kept for audit."""

    N: int
    t: dict[int, list[int]]  # level n -> t(x_j) by j


@dataclass
class GoodSystem:
    """Degeneracies s_0..s_N with a staged validity status.

    ``almost`` means the stage-N identity d_{N+1} s_N = id is not yet
    required. The working table keeps the provisional top level (one
    dimension above the corrected range) until the final restriction.
    """

    table: DegeneracyTable
    N: int
    almost: bool = False
    t_table: Optional[TTable] = None

    @property
    def status(self) -> str:
        return f"almost-{self.N}-good" if self.almost else f"{self.N}-good"


@dataclass
class SynthesisInput:
    """Everything a synthesis run consumes.

    Without ``p`` the run is over the point: every fill is a plain filler.
    With it, ``p`` maps ``X`` into a base carrying the degeneracies ``Y_deg``
    and every fill is a lift over the image they prescribe. ``A``/``A_deg``
    describe a subcomplex whose structure the output must extend, in either
    case. ``s0`` (vertex index -> edge index) may be omitted where
    auto-discovery applies.
    """

    X: SemisimplicialSet
    p: Optional[SemisimplicialMap] = None
    Y_deg: Optional[DegeneracyTable] = None
    A: Optional[Subcomplex] = None
    A_deg: Optional[DegeneracyTable] = None
    s0: Optional[Mapping[int, int]] = None
    idempotency_witnesses: Optional[Mapping[int, int]] = None


@dataclass
class SynthesisResult:
    table: DegeneracyTable
    certificate: list
    verification: "SimplicialReport"
    s0: dict[int, int]
    witnesses: dict[int, int]
    bound: int
    stats: dict[str, int]


@dataclass
class SimplicialReport:
    """Exhaustive identity check over a degeneracy table."""

    ok: bool
    checked: int
    violations: list = field(default_factory=list)
    by_family: dict[str, int] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "checked": self.checked,
            "violations": [list(v) for v in self.violations],
            "by_family": dict(self.by_family),
        }


# ---------------------------------------------------------------------------
# forced values


def _forced_reps(table: DegeneracyTable, A: Optional[Subcomplex],
                 A_deg: Optional[DegeneracyTable], n: int, j: int,
                 target_k: int) -> list[tuple[str, int]]:
    reps: list[tuple[str, int]] = []
    if A is not None and A_deg is not None and A.contains(n, j):
        v = A_deg.value(target_k, n, j)
        if v is not None:
            reps.append(("subcomplex", v))
    for i in range(min(target_k, n)):
        # x_j is an image of s_i only as s_i d_i x_j, since d_i s_i = id
        y = table.base.face_index(n, j, i)
        if table.value(i, n - 1, y) != j:
            continue
        mid = table.value(target_k - 1, n - 1, y)
        if mid is None:
            continue
        v = table.value(i, n, mid)
        if v is not None:
            reps.append((f"degenerate:s_{i}", v))
    return reps


def _agree(reps: Sequence[tuple[str, int]], simplex, target_k: int) -> Optional[int]:
    if not reps:
        return None
    values = {v for _, v in reps}
    if len(values) > 1:
        raise ConsistencyViolation(
            f"representations of s_{target_k} at {simplex} disagree: {reps}",
            simplex=simplex, values=list(reps))
    return reps[0][1]


def forced_value(sys: GoodSystem, A_data, x: SimplexRef, target_k: int) -> Optional[SimplexRef]:
    """Value of s_{target_k}(x) forced by the subcomplex or lower degeneracies.

    Every available representation is computed; they must agree, otherwise
    ConsistencyViolation signals an invalid input (for valid inputs the
    overlaps are pull-backs, so agreement is guaranteed). Returns None when
    x is neither in the subcomplex nor a degeneracy image.
    """
    A, A_deg = A_data if A_data is not None else (None, None)
    reps = _forced_reps(sys.table, A, A_deg, x.dim, x.index, target_k)
    value = _agree(reps, (x.dim, x.index), target_k)
    return None if value is None else SimplexRef(x.dim + 1, value)


# ---------------------------------------------------------------------------
# the builder


def _through(level: Optional[Sequence[Optional[int]]], column: Sequence[Optional[int]]) -> Sequence:
    """level[v] for each v of ``column``: None where v is None or the level is undefined."""
    if level is None:
        return (None,) * len(column)
    if None in column:
        return tuple(None if v is None else level[v] for v in column)
    return _gather(column)(level)


class _Engine:
    """The two steps of every stage, a level ``(N, n)`` at a time.

    A level's horns are prescribed as columns, one per face position, over
    the level's simplices; over a map a last column holds each horn's target.
    Their lowest fillers come from one table per level, and the values'
    faces and images are checked against the columns. Rows are walked one at
    a time only to decide forced values, to write the records, and to name
    the first simplex that fails, in level order.
    """

    def __init__(self, inp: SynthesisInput, D: int):
        self.inp = inp
        self.X = inp.X
        self.D = D
        self.p = inp.p
        self.Ydeg = inp.Y_deg
        self.A = inp.A
        self.Adeg = inp.A_deg
        self.table = DegeneracyTable(self.X)
        self.t_levels: dict[int, list[int]] = {}
        self.records: list = []
        self.stats = {"forced": 0, "filled": 0, "witness": 0, "consistency_checks": 0}

    # -- shared helpers ------------------------------------------------------

    def _proj(self, n: int, j: int) -> int:
        return self.p.apply_index(n, j)

    def _y_deg(self, k: int, n: int, j: int) -> int:
        v = self.Ydeg.value(k, n, j)
        if v is None:
            raise MissingDegeneracies(
                f"target degeneracy s_{k} undefined at level {n}; the relative "
                f"run needs the target table up to level {self.D - 1}")
        return v

    def _face(self, n: int, i: int) -> list[int]:
        return self.X.face_column(n, i)

    def _level_order(self, n: int, stage: int) -> tuple[list[int], list[int], set[int]]:
        """The simplices that may be forced, the rest, and the degeneracy images.

        Subcomplex members come first, then the other images of s_i (i < stage)
        of level n-1, then the rest, each ascending; only the first two groups
        have a representation that can force a value.
        """
        c = self.X.cells[n]
        members = self.A.members[n] if self.A is not None and n <= self.A.ambient.dim else frozenset()
        images: set[int] = set()
        for i in range(stage):
            level = self.table.level(i, n - 1)
            if level is not None:
                images.update(level)
        images.discard(None)
        first = sorted(members.intersection(range(c)))
        second = sorted(images.difference(members).intersection(range(c)))
        rest = list(filterfalse(members.union(images).__contains__, range(c)))
        return first + second, rest, images

    def _forced(self, n: int, j: int, target_k: int) -> Optional[int]:
        reps = _forced_reps(self.table, self.A, self.Adeg, n, j, target_k)
        if len(reps) > 1:
            self.stats["consistency_checks"] += 1
        return _agree(reps, (n, j), target_k)

    def _forced_twice(self, n: int, j: int, N: int, image: bool) -> Optional[int]:
        # s_N s_N x_j, from the subcomplex table or, on a degeneracy image, from the table
        reps: list[tuple[str, int]] = []
        if self.A is not None and self.Adeg is not None and self.A.contains(n, j):
            a1 = self.Adeg.value(N, n, j)
            a2 = None if a1 is None else self.Adeg.value(N, n + 1, a1)
            if a2 is not None:
                reps.append(("subcomplex", a2))
        if image:
            s1 = self.table.value(N, n, j)
            s2 = None if s1 is None else self.table.value(N, n + 1, s1)
            if s2 is not None:
                reps.append(("degenerate", s2))
        if len(reps) > 1:
            self.stats["consistency_checks"] += 1
        return _agree(reps, (n, j), N)

    def _canonical_fill(self, m: int, k: int, columns: Sequence[Sequence[Optional[int]]],
                        target: Optional[Sequence[Optional[int]]]) -> list[Optional[int]]:
        """The lowest filler of each row of prescribed (m,k) horns, or None.

        Over a map a filler must lie over the row's target. One table, built
        for the call and dropped with it, maps each horn that some m-simplex
        fills to the lowest such simplex. A row is None where it has no filler
        or holds an undefined face. An incompatible row has no filler either:
        the faces of a simplex of a valid set are compatible, and only valid
        sets reach the engine.
        """
        keys = list(_lift_keys(self.X, self.p, m, k))
        keys.reverse()
        lowest = dict(zip(keys, range(len(keys) - 1, -1, -1)))
        return list(map(lowest.get, zip(*columns) if target is None else zip(*columns, target)))

    def _unfilled(self, m: int, k: int, row: Sequence[Optional[int]], target: Optional[int],
                  n: int, j: int, what: str) -> None:
        """Raise what the row's horn fails on: an undefined face, incompatibility, or no filler."""
        faces = tuple(zip(_positions(m, k), row))
        for i, v in faces:
            if v is None:
                raise ConsistencyViolation(
                    f"needed degeneracy value undefined while prescribing face {i} of the {what} horn at ({n},{j})")
        horn = Horn(m, k, faces)
        bad = compatibility_failures(self.X, horn)
        if bad:
            raise ConsistencyViolation(
                f"prescribed horn at level {n} is incompatible at {bad}; "
                "the current system violates an identity", simplex=(n, bad))
        raise UnfillableHorn(f"no admissible filler for the ({m},{k}) horn at level {n}",
                             horn=horn, level=n, target=target)

    def _level(self, N: int, step: int, n: int, columns: list[Sequence[Optional[int]]],
               target: Optional[Sequence[Optional[int]]]) -> list[int]:
        """Decide every value of level n in step ``step`` of stage N, write its records, check it.

        ``columns`` prescribe the faces of each value at the horn's positions,
        ascending, and ``target`` its image over a map. Step 1 fills (n+1, N+1)
        horns and step 2 (n+2, N) horns; at stage 0 the vertices take the
        degree-0 candidate in step 1 and an idempotency witness in step 2.
        """
        m, k = (n + 1, N + 1) if step == 1 else (n + 2, N)
        what = "extension" if step == 1 else "correction"
        head, rest, images = self._level_order(n, N)
        vertices = N == n == 0
        fills = None if vertices else self._canonical_fill(m, k, columns, target)
        rows = list(zip(*columns))
        names = list(map(str, _positions(m, k)))
        undefined = target is not None and None in target
        values: list = [None] * self.X.cells[n]
        forced: set[int] = set()
        records = self.records
        for position, j in enumerate(head + rest):
            if undefined and target[j] is None:
                # raises on the target table's first undefined level: n, or n+1 in step 2
                y = self._y_deg(N, n, self._proj(n, j))
                self._y_deg(N, n + 1, y)
            if position < len(head):
                value = self._forced(n, j, N) if step == 1 else self._forced_twice(n, j, N, j in images)
                if value is not None:
                    forced.add(j)
                    values[j] = value
                    records.append({"stage": {"N": N, "step": step}, "simplex": [n, j],
                                    "kind": "forced", "value": value})
                    continue
            goal = None if target is None else target[j]
            if vertices and step == 2:
                value = values[j] = self._idempotency_witness(j, self.inp.idempotency_witnesses, goal)
                records.append({"stage": {"N": 0, "step": 2}, "simplex": [0, j],
                                "kind": "witness", "value": value})
                continue
            value = self._s0_fill(j, goal) if vertices else fills[j]
            if value is None:
                self._unfilled(m, k, rows[j], goal, n, j, what)
            values[j] = value
            records.append({"stage": {"N": N, "step": step}, "simplex": [n, j], "kind": "filled",
                            "value": value, "horn": {"n": m, "k": k, "faces": dict(zip(names, rows[j]))}})
        done = len(forced)
        self.stats["forced"] += done
        self.stats["witness" if vertices and step == 2 else "filled"] += len(values) - done
        self._check_values(N, n, m, k, values, columns, target, forced)
        return values

    def _s0_fill(self, j: int, target: Optional[int]) -> int:
        s0 = self.inp.s0
        if s0 is None:
            raise ValueError("stage 0 requires the degree-0 degeneracy candidate s0")
        value = s0[j]
        if self.X.face_index(1, value, 0) != j or (target is not None and self._proj(1, value) != target):
            raise UnfillableHorn(
                f"s0 candidate {value} does not fill the base horn at vertex {j}",
                horn=Horn(1, 1, ((0, j),)), level=0, target=target)
        return value

    def _check_values(self, N: int, n: int, m: int, k: int, values: list[int],
                      columns: list[Sequence[Optional[int]]], target: Optional[Sequence[Optional[int]]],
                      forced: set[int]) -> None:
        # every value, forced or filled, must have its prescribed faces and image
        at = _gather(values)
        names: list = list(_positions(m, k))
        got = [at(self.X.face_column(m, i)) for i in names]
        want = [tuple(column) for column in columns]
        if target is not None:
            names.append("projection")
            got.append(at(self.p.levels[m]))
            want.append(tuple(target))
        if got == want:
            return
        for j in range(len(values)):
            for i, a, b in zip(names, got, want):
                if a[j] != b[j]:
                    self._blame(j in forced, N, n, j, i)

    def _blame(self, forced: bool, N: int, n: int, j: int, i) -> None:
        msg = f"s_{N} at simplex ({n},{j}) violates its defining equation at face {i}"
        if forced and self.A is not None and self.A.contains(n, j):
            raise IncompatibleSubcomplexStructure(msg, simplex=(n, j))
        raise ConsistencyViolation(msg, simplex=(n, j))

    # -- step one: extension -------------------------------------------------

    def _step1(self, N: int) -> None:
        """s_N on every level: the (n+1, N+1) horn with d_i = s_{N-1} d_i (i < N),
        d_N = id and d_i = s_N d_{i-1} (i > N+1), over s_N p(x) on a map."""
        if self.D < N + 1:
            raise TruncationExhausted(f"stage {N} needs truncation at least {N + 1}")
        for n in range(N, self.D):
            c = self.X.cells[n]
            lower, same = self.table.level(N - 1, n - 1), self.table.level(N, n - 1)
            columns = [_through(lower, self._face(n, i)) if i < N else range(c) if i == N
                       else _through(same, self._face(n, i - 1))
                       for i in range(n + 2) if i != N + 1]
            target = None
            if self.p is not None:
                target = _through(self.Ydeg.level(N, n), self.p.levels[n])
            self.table.set_level(N, n, self._level(N, 1, n, columns, target))

    # -- step two: correction -------------------------------------------------

    def _step2(self, N: int) -> None:
        """t on every level: the (n+2, N) horn with d_i = s_{N-1} s_{N-1} d_i (i < N),
        d_{N+1} = d_{N+2} = s_N and d_i = t d_{i-2} (i > N+2), over s_N s_N p(x)
        on a map; then s_N = d_N t below the top level."""
        if self.D < N + 2:
            raise TruncationExhausted(f"the stage-{N} correction needs truncation at least {N + 2}")
        t: dict[int, list[int]] = {}
        for n in range(N, self.D - 1):
            c = self.X.cells[n]
            lower, upper = self.table.level(N - 1, n - 1), self.table.level(N - 1, n)
            own = self.table.level(N, n) or (None,) * c
            columns = [_through(upper, _through(lower, self._face(n, i))) if i < N
                       else own if i <= N + 2 else _through(t[n - 1], self._face(n, i - 2))
                       for i in range(n + 3) if i != N]
            target = None
            if self.p is not None:
                once = _through(self.Ydeg.level(N, n), self.p.levels[n])
                target = _through(self.Ydeg.level(N, n + 1), once)
            t[n] = self._level(N, 2, n, columns, target)
        # correction: replace s_N below the provisional top level
        for n in range(N, self.D - 1):
            self.table.set_level(N, n, list(_gather(t[n])(self.X.face_column(n + 2, N))))
        self._check_corrected(N)
        self.t_levels = t

    def _idempotency_witness(self, j: int, witnesses, target: Optional[int]) -> int:
        f = self.table.value(0, 0, j)
        if witnesses is not None:
            w = witnesses.get(j) if hasattr(witnesses, "get") else witnesses[j]
            if w is not None:
                ok = all(self.X.face_index(2, w, i) == f for i in range(3))
                if ok and target is not None:
                    ok = self._proj(2, w) == target
                if not ok:
                    raise MissingWitness(
                        f"supplied idempotency witness {w} at vertex {j} is invalid", vertex=j)
                return w
        for w in _filler_indices(self.X, 2, ((0, f), (1, f), (2, f))):
            if target is None or self._proj(2, w) == target:
                return w
        raise MissingWitness(f"no idempotency witness found at vertex {j}", vertex=j)

    def _check_corrected(self, N: int) -> None:
        # d_{N+1} s_N = id, a level at a time
        for n in range(N, self.D - 1):
            level = self.table.level(N, n)
            got = _gather(level)(self.X.face_column(n + 1, N + 1))
            if got != tuple(range(len(level))):
                j = next(j for j, v in enumerate(got) if v != j)
                raise ConsistencyViolation(
                    f"correction failed: d_{N + 1} s_{N} != id at ({n},{j})", simplex=(n, j))

    # -- driver ----------------------------------------------------------------

    def run(self) -> tuple[DegeneracyTable, list]:
        for N in range(self.D - 1):
            self._step1(N)
            self._step2(N)
        return self.table.restricted(self.D - 2), self.records


# ---------------------------------------------------------------------------
# the spec'd staged operations


def step1_extend(sys: GoodSystem, inp: SynthesisInput, D: Optional[int] = None) -> GoodSystem:
    """Extend an (N-1)-good system to an almost-N-good one by horn filling."""
    engine = _Engine(*_prepared(inp, D))
    engine.table = sys.table.copy()
    engine._step1(sys.N + 1)
    return GoodSystem(table=engine.table, N=sys.N + 1, almost=True)


def step2_correct(sys: GoodSystem, inp: SynthesisInput, D: Optional[int] = None) -> GoodSystem:
    """Correct an almost-N-good system to an N-good one via its T-table."""
    engine = _Engine(*_prepared(inp, D))
    engine.table = sys.table.copy()
    engine._step2(sys.N)
    return GoodSystem(table=engine.table, N=sys.N, almost=False,
                      t_table=TTable(sys.N, engine.t_levels))


# ---------------------------------------------------------------------------
# entry points


def _as_vertex_map(source, count: int, limit: int, what: str) -> dict[int, int]:
    """``source`` as {vertex: edge}: exactly one edge index in 0..limit-1 per vertex."""
    out = {}
    for v in range(count):
        try:
            e = source[v]
        except (KeyError, IndexError, TypeError) as exc:
            raise ParseError(f"{what} must cover every vertex; missing {v}") from exc
        if not _is_index(e, limit):
            raise ParseError(f"{what}({v}) = {e!r} is not an edge index in 0..{limit - 1}")
        out[v] = e
    if len(source) != count:
        raise ParseError(f"{what} has {len(source)} entries for {count} vertices")
    return out


def _resolve_s0_absolute(X: SemisimplicialSet, inp: SynthesisInput, D: int):
    s0: dict[int, int] = {}
    witnesses: dict[int, int] = {}
    lifts = LiftTests(X)
    if inp.s0 is None:
        for v in range(X.cells[0]):
            found = find_idempotent_equivalences(X, SimplexRef(0, v), D, lifts)
            if not found:
                raise NoIdempotentEquivalence(
                    f"no idempotent equivalence at vertex {v}", vertex=v)
            edge, witness = found[0]
            s0[v] = edge.index
            witnesses[v] = witness.index
        return s0, witnesses
    s0 = dict(inp.s0)
    given = inp.idempotency_witnesses
    for v, e in s0.items():
        if X.face_index(1, e, 0) != v or X.face_index(1, e, 1) != v:
            raise NoIdempotentEquivalence(f"s0({v}) = {e} is not a self-edge", vertex=v)
        w = None
        if given is not None:
            w = given.get(v) if hasattr(given, "get") else given[v]
            if w is not None and not all(X.face_index(2, w, i) == e for i in range(3)):
                raise NoIdempotentEquivalence(
                    f"supplied witness {w} at vertex {v} is not an idempotency witness", vertex=v)
        if w is None:
            found = is_idempotent(X, SimplexRef(1, e))
            if found is None:
                raise NoIdempotentEquivalence(f"s0({v}) = {e} is not idempotent", vertex=v)
            w = found.index
        if not is_equivalence(X, SimplexRef(1, e), D, lifts).result:
            raise NoIdempotentEquivalence(f"s0({v}) = {e} is not an equivalence", vertex=v)
        witnesses[v] = w
    return s0, witnesses


def _relative_s0_check(inp: SynthesisInput, D: int, lifts: LiftTests, v: int, e: int,
                       w: Optional[int]):
    """The witness of e as s0(v) over ``inp.p`` (a supplied ``w`` skips its test), or e's first failure."""
    X, p, Ydeg, Adeg = inp.X, inp.p, inp.Y_deg, inp.A_deg
    if X.face_index(1, e, 0) != v or X.face_index(1, e, 1) != v:
        return NoIdempotentEquivalence(f"s0({v}) = {e} is not a self-edge", vertex=v)
    a_value = None if Adeg is None else Adeg.value(0, 0, v)
    if a_value is not None and a_value != e:
        return IncompatibleSubcomplexStructure(
            f"s0({v}) = {e} disagrees with the subcomplex value {a_value}", simplex=(0, v))
    want = Ydeg.value(0, 0, p.apply_index(0, v))
    if want is not None and p.apply_index(1, e) != want:
        return ConsistencyViolation(
            f"s0({v}) = {e} does not project to the target degeneracy", simplex=(0, v))
    if w is None:
        verdict = p_edge_property(p, SimplexRef(1, e), "idempotent", D, Ydeg)
        if not verdict.result:
            return NoIdempotentEquivalence(f"s0({v}) = {e} is not fiberwise idempotent", vertex=v)
        w = verdict.witness.index
    for prop in ("cartesian", "cocartesian"):
        if not p_edge_property(p, SimplexRef(1, e), prop, D, lifts=lifts).result:
            return NoIdempotentEquivalence(f"s0({v}) = {e} is not {prop} over the base", vertex=v)
    return w


def _resolve_s0_relative(inp: SynthesisInput, D: int):
    # each vertex once: an edge fixed by s0, or by the subcomplex table where it
    # defines s_0(v), must pass every check; otherwise the lowest edge that does is taken
    X, Adeg, given = inp.X, inp.A_deg, inp.idempotency_witnesses
    lifts = LiftTests(X, inp.p)
    s0: dict[int, int] = {}
    witnesses: dict[int, int] = {}
    for v in range(X.cells[0]):
        w = None
        if given is not None:
            w = given.get(v) if hasattr(given, "get") else given[v]
        e = inp.s0[v] if inp.s0 is not None else (None if Adeg is None else Adeg.value(0, 0, v))
        if e is not None:
            found = _relative_s0_check(inp, D, lifts, v, e, w)
            if isinstance(found, DegenforgeError):
                raise found
        else:
            # a search keeps the idempotent test even where a witness is supplied
            for e in X.with_face(1, 0, v):
                found = _relative_s0_check(inp, D, lifts, v, e, None)
                if not isinstance(found, DegenforgeError):
                    break
            else:
                raise NoIdempotentEquivalence(
                    f"no admissible degree-0 degeneracy found at vertex {v}", vertex=v)
        s0[v] = e
        witnesses[v] = found if w is None else w
    return s0, witnesses


def _prepared(inp: SynthesisInput, D: Optional[int],
              validated: bool = False) -> tuple[SynthesisInput, int]:
    """``inp`` with ``s0`` as one edge per vertex, and the bound; every way into the engine starts here.

    The set, target and map are validated before anything else is checked,
    unless ``validated`` says that the caller has already validated ``inp.X``.
    """
    X, p, A, Adeg = inp.X, inp.p, inp.A, inp.A_deg
    if not validated:
        _require_valid("input set", validate(X))
    bound = X.dim if D is None else min(D, X.dim)
    if p is not None:
        _require_valid("target set", validate(p.target))
        _require_valid("projection", validate_map(p))
        if inp.Y_deg is None:
            raise MissingDegeneracies("relative synthesis needs the target's degeneracy table")
        if p.source is not X and p.source != X:
            raise ValueError("the projection's source must be the synthesis input set")
        bound = min(bound, p.depth)
    if inp.s0 is not None:
        edges = X.cells[1] if X.dim else 0
        inp = replace(inp, s0=_as_vertex_map(inp.s0, X.cells[0], edges, "s0"))
    if A is not None:
        closure = A.validate()
        if not closure.ok:
            raise IncompatibleSubcomplexStructure(
                f"subcomplex is not face-closed: {closure.violations[:3]}")
        if Adeg is not None:
            _check_subcomplex_table(X, p, inp.Y_deg, A, Adeg)
    elif Adeg is not None:
        raise ParseError("a subcomplex table is given without its subcomplex")
    return inp, bound


def synthesize(inp: SynthesisInput, D: Optional[int] = None, *,
               _validated: bool = False) -> SynthesisResult:
    """Build a full degeneracy table, over the point or over ``inp.p``.

    Alternates extension and correction for N = 0..D-2 and returns the table
    on 0 <= k <= n <= D-2 together with its replayable certificate. Over a
    map every fill is a lift over the image prescribed by the target's
    degeneracies. Values on a subcomplex are taken from its table, and the
    output must restrict to it. Without a supplied ``s0``, each vertex gets
    the lowest-index idempotent equivalence; over a map, the subcomplex value
    where the subcomplex's table defines s_0, else the lowest fiberwise
    idempotent, cartesian and cocartesian self-edge. An input that fails
    validation gets no verdict, at any bound; ``_validated`` says that the
    caller has already validated ``inp.X``.
    """
    inp, bound = _prepared(inp, D, _validated)
    if bound < 2:
        raise TruncationExhausted(f"synthesis needs truncation at least 2, have {bound}")
    X, p, A, Adeg = inp.X, inp.p, inp.A, inp.A_deg
    if p is None:
        inner = check_inner(X, bound)
        if not inner.ok:
            raise NotQuasiSemicategory("an inner horn is unfillable", witness=inner.witness)
        s0, witnesses = _resolve_s0_absolute(X, inp, bound)
    else:
        fib = check_inner_fibration(p, bound)
        if not fib.ok:
            raise NotQuasiSemicategory("an inner lifting problem has no solution",
                                       witness=fib.witness)
        s0, witnesses = _resolve_s0_relative(inp, bound)
    resolved = replace(inp, s0=s0, idempotency_witnesses=witnesses)
    engine = _Engine(resolved, bound)
    table, records = engine.run()
    verification = verify_simplicial(X, table, bound, subcomplex=A, sub_table=Adeg,
                                     pmap=p, target_table=inp.Y_deg)
    if not verification.ok:
        families = {v[0] for v in verification.violations}
        if families <= {"restriction"}:
            raise RestrictionMismatch(
                f"output fails to restrict to the subcomplex table: {verification.violations[:3]}")
        raise ConsistencyViolation(
            f"synthesized table failed verification: {verification.violations[:3]}")
    return SynthesisResult(table=table, certificate=records, verification=verification,
                           s0=s0, witnesses=witnesses, bound=bound, stats=engine.stats)


def synthesize_relative(inp: SynthesisInput, D: Optional[int] = None) -> SynthesisResult:
    """:func:`synthesize` over the map ``inp.p``, which must be given."""
    if inp.p is None:
        raise ValueError("relative synthesis needs the projection map")
    return synthesize(inp, D)


def _check_subcomplex_table(X, p, Ydeg, A, Adeg) -> None:
    # the subcomplex table must stay inside the subcomplex and, over a map, project to the target table
    for k, n, j, v in Adeg.entries():
        if not A.contains(n, j):
            raise IncompatibleSubcomplexStructure(
                f"subcomplex table defined at non-member ({n},{j})", simplex=(n, j))
        if not A.contains(n + 1, v):
            raise IncompatibleSubcomplexStructure(
                f"subcomplex degeneracy s_{k}({n},{j}) leaves the subcomplex", simplex=(n, j))
        if p is None:
            continue
        want = Ydeg.value(k, n, p.apply_index(n, j))
        if want is not None and p.apply_index(n + 1, v) != want:
            raise IncompatibleSubcomplexStructure(
                f"subcomplex degeneracy s_{k}({n},{j}) does not project to the target table",
                simplex=(n, j))


def replay_certificate(inp: SynthesisInput, D: Optional[int], certificate: list, *,
                       _validated: bool = False) -> DegeneracyTable:
    """Re-run the synthesis and compare its records with ``certificate``.

    The first diverging record, or a certificate with fewer or more records
    than the run, raises CertificateMismatch at that position. ``_validated``
    says that the caller has already validated ``inp.X``, as ``verify`` does.
    """
    result = synthesize(inp, D, _validated=_validated)
    records = result.certificate
    for position, (expected, record) in enumerate(zip(certificate, records)):
        if expected != record:
            raise CertificateMismatch(
                f"record {position} diverges: expected {expected}, recomputed {record}",
                position=position)
    if len(certificate) < len(records):
        raise CertificateMismatch("certificate has fewer records than the run",
                                  position=len(certificate))
    if len(certificate) > len(records):
        raise CertificateMismatch("certificate has more records than the run",
                                  position=len(records))
    return result.table


# ---------------------------------------------------------------------------
# the automatic degree-0 candidate on Kan sets


@dataclass
class AddendumS0:
    s0: dict[int, int]
    witnesses: dict[int, int]
    bound: int


def addendum_s0(X: SemisimplicialSet, D: Optional[int] = None) -> AddendumS0:
    """On a Kan set, produce an idempotent-equivalence self-edge per vertex.

    Per vertex x: take the lowest-index edge e leaving x, fill the right
    (2,2)-horn with both faces e and read f off face 2 (a self-edge at x),
    then fill the right (3,3)-horn with all three faces equal to that filler
    and read the idempotency witness for f off face 3.
    """
    bound = X.dim if D is None else min(D, X.dim)
    if bound < 3:
        raise TruncationExhausted("the automatic construction needs truncation at least 3")
    lifts = LiftTests(X)
    kan = check_kan(X, bound, lifts)
    if not kan.ok:
        raise NotKan("a horn is unfillable", witness=kan.witness)
    s0: dict[int, int] = {}
    witnesses: dict[int, int] = {}
    for v in range(X.cells[0]):
        e = min(j for j in X.with_face(1, 1, v))
        sigma = _filler_indices(X, 2, ((0, e), (1, e)))[0]
        f = X.face_index(2, sigma, 2)
        z = _filler_indices(X, 3, ((0, sigma), (1, sigma), (2, sigma)))[0]
        w = X.face_index(3, z, 3)
        if any(X.face_index(2, w, i) != f for i in range(3)):
            raise ConsistencyViolation(
                f"witness read-off failed at vertex {v}; the face tables are inconsistent",
                simplex=(0, v))
        if not is_equivalence(X, SimplexRef(1, f), bound, lifts).result:
            raise ConsistencyViolation(
                f"edge {f} is not an equivalence despite the Kan condition", simplex=(1, f))
        s0[v] = f
        witnesses[v] = w
    return AddendumS0(s0=s0, witnesses=witnesses, bound=bound)


# ---------------------------------------------------------------------------
# verification


_FAMILIES = ("face_degeneracy", "degeneracy_degeneracy", "restriction", "projection")


def verify_simplicial(X: SemisimplicialSet, table: DegeneracyTable,
                      D: Optional[int] = None, *, subcomplex: Optional[Subcomplex] = None,
                      sub_table: Optional[DegeneracyTable] = None,
                      pmap: Optional[SemisimplicialMap] = None,
                      target_table: Optional[DegeneracyTable] = None) -> SimplicialReport:
    """Exhaustively check every identity instance whose terms are in range.

    The three families are the face/degeneracy exchange rules, the two
    identity-section rules, and the degeneracy/degeneracy exchange rule.
    Optionally re-checks the restriction to a subcomplex table and
    compatibility with a map into a base carrying its own table.

    Each ``(k, n)`` level is checked a term at a time: one gather reads a
    term's left side for every simplex with a defined s_k (d_i s_k from face
    column i of level n+1, say), a second gather its right side, and the two
    tuples are compared. Rows are walked only where a side may hold an
    undefined value or the sides differ. Violations are listed by family,
    then by ``(k, n, j, i)``.
    """
    bound = X.dim if D is None else min(D, X.dim)
    restrict = subcomplex is not None and sub_table is not None
    project = pmap is not None and target_table is not None
    s = table._s
    whole = functools.cache(lambda key: None not in s[key])  # the level has no undefined value
    found: dict[str, list] = {family: [] for family in _FAMILIES}
    checked = dict.fromkeys(_FAMILIES, 0)
    columns: dict[int, list] = {}  # face columns of levels n and n+1
    for k, n in sorted((key for key in s if key[1] + 1 <= bound), key=lambda key: (key[1], key[0])):
        for m in (n, n + 1):
            if m and m not in columns:
                columns[m] = [X.face_column(m, i) for i in range(m + 1)]
        columns.pop(n - 1, None)
        level = s[(k, n)]
        indices = _canonical(len(level))
        if whole((k, n)):
            js, vals, at_j = indices[:len(level)], level, tuple
        else:
            js = [j for j, v in zip(indices, level) if v is not None]
            vals, at_j = [level[j] for j in js], _gather(js)
        at_v = _gather(vals)  # s_k(x_j) picked out of a level-(n+1) sequence, per defined j

        def tally(family: str, got, want, *i: int, got_whole: bool = True) -> None:
            # equal sides are wholly defined when ``got`` is
            if got_whole and got == want:
                checked[family] += len(want)
                return
            both = [(p, a, b) for p, (a, b) in enumerate(zip(got, want))
                    if a is not None and b is not None]
            checked[family] += len(both)
            found[family] += [(family, k, n, js[p], *i) for p, a, b in both if a != b]

        # d_i s_k = s_{k-1} d_i (i < k), id (i = k, k+1), s_k d_{i-1} (i > k+1)
        ident = tuple(js)
        for i in range(n + 2):
            if k <= i <= k + 1:
                want = ident
            else:
                key = (k - 1, n - 1) if i < k else (k, n - 1)
                if key not in s:
                    continue
                want = _gather(at_j(columns[n][i if i < k else i - 1]))(s[key])
            tally("face_degeneracy", at_v(columns[n + 1][i]), want, i)
        # s_i s_k = s_{k+1} s_i (i <= k)
        upper = s.get((k + 1, n + 1))
        for i in range(k + 1 if upper is not None else 0):
            outer, inner = s.get((i, n + 1)), s.get((i, n))
            if outer is None or inner is None:
                continue
            mid = at_j(inner)
            if whole((i, n)):
                rhs = _gather(mid)(upper)
            else:
                rhs = tuple(None if x is None else upper[x] for x in mid)
            tally("degeneracy_degeneracy", at_v(outer), rhs, i, got_whole=whole((i, n + 1)))
        sub = sub_table.level(k, n) if restrict else None
        if sub is not None:
            inside, above = subcomplex.members[n], subcomplex.members[n + 1]
            for j, v, want in zip(js, vals, at_j(sub)):
                if want is not None and j in inside:
                    checked["restriction"] += 1
                    if v != want or v not in above:
                        found["restriction"].append(("restriction", k, n, j))
        target = target_table.level(k, n) if project else None
        if target is not None:
            tally("projection", at_v(pmap.levels[n + 1]), _gather(at_j(pmap.levels[n]))(target))
    violations = [v for family in _FAMILIES for v in sorted(found[family])]
    return SimplicialReport(not violations, sum(checked.values()), violations, checked)
