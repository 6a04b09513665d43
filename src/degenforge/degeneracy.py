"""Construction and verification of degeneracy operators by horn filling.

The builder runs one stage per degeneracy index N = 0..D-2. Each stage has
two steps: first extend the system by filling one prescribed horn per
simplex (every identity holds afterwards except d_{N+1} s_N = id), then
build a correction table of double-degeneracy candidates whose N-th faces
replace s_N and restore the missing identity.

Each step fills a whole level (N, n) at once. The level's horns are
prescribed as columns, one per face position, gathered from lower levels.
Their fillers are named by the one fill rule of the horn checks,
``horn._fill``, from tables kept on the set (or on a map) where the horn
checks read them too: the s0 checks, both steps of every stage and any
later run on the same set share them. Only valid sets reach the engine, so
a horn that matches a simplex exactly is compatible.

Values forced by a subcomplex or by lower degeneracies are never searched:
they are computed from every available representation and the
representations are required to agree, turning the well-definedness of the
construction into a runtime check. On every level, the vertices included,
each representation is a column over the level's simplices that may be
forced, so agreement is a column compare; :func:`forced_value` states the
same rule for one simplex. A lower degeneracy forces s_N(x) through
s_N s_i = s_i s_{N-1} (i < N) where x = s_i(y); since d_i s_i = id, the
only candidate is y = d_i x, read off the face table. Step 2 fills the
degeneracy images on level D-2 like any other simplex: their forced form
s_N s_N x reads level D-1, which no run builds. Every decision (fill,
forcing, witness) is recorded in an ordered certificate that replays
deterministically: one typed block per level, holding the level's j order,
kinds and values and one column per horn face, from which dict records are
made only when they are read. A run is a deterministic byte string, so a
certificate read from a file replays by one compare of its text with the
run's; it is parsed into records only where the texts differ or the run raises.
"""

from __future__ import annotations

import functools
import json
from collections.abc import Sequence as SequenceABC
from dataclasses import dataclass, field, replace
from itertools import chain, compress, filterfalse, repeat
from operator import add, is_, is_not, not_
from typing import Iterator, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    CertificateMismatch,
    ConsistencyViolation,
    DegenforgeError,
    IncompatibleSubcomplexStructure,
    InvalidDegeneracyTable,
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
from . import horn as _horn
from .horn import (
    Horn,
    _fill,
    _filler_indices,
    _lowest_witness,
    _positions,
    check_inner,
    check_inner_fibration,
    check_kan,
    compatibility_failures,
    is_equivalence,
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
    required.
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
    case; where ``A_deg`` defines s_0 of a vertex, that edge is the vertex's
    s0, over the point as over a map. ``s0`` (vertex index -> edge index) may
    be omitted where auto-discovery applies. ``idempotency_witnesses`` maps
    vertices to 2-simplex indices: a mapping over some vertices, or a
    sequence with one entry per vertex, where None means no witness.
    Anything else is a ``ParseError`` that names the vertex.
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
    certificate: "Certificate"
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
# certificates


FORCED, FILLED, WITNESS = "forced", "filled", "witness"
_KINDS = frozenset({FORCED, FILLED, WITNESS})
_FIELDS = frozenset({"stage", "simplex", "kind", "value"})
_HORNED = _FIELDS | {"horn"}
_STAGE, _HORN = frozenset({"N", "step"}), frozenset({"n", "k", "faces"})


def _horn_shape(N: int, step: int, n: int) -> tuple[int, int]:
    """The (m, k) horn that step ``step`` of stage N fills at level n."""
    return (n + 1, N + 1) if step == 1 else (n + 2, N)


class CertificateBlock(NamedTuple):
    """The records of one level ``(N, step, n)``, as columns.

    ``js``, ``kinds`` and ``values`` hold each record's simplex index, kind
    and value, in record order. A filled record carries the level's horn
    (:func:`_horn_shape`): ``faces`` holds one column per face position,
    ascending, over the filled records in order, and is empty where no record
    is filled.
    """

    N: int
    step: int
    n: int
    js: list
    kinds: list
    values: list
    faces: tuple

    def records(self) -> Iterator[dict]:
        """The block's dict records."""
        N, step, n = self.N, self.step, self.n
        m, k = _horn_shape(N, step, n)
        names = list(map(str, _positions(m, k))) if self.faces else []
        rows = zip(*self.faces)
        for j, kind, value in zip(self.js, self.kinds, self.values):
            record = {"stage": {"N": N, "step": step}, "simplex": [n, j], "kind": kind, "value": value}
            if kind == FILLED:
                record["horn"] = {"n": m, "k": k, "faces": dict(zip(names, next(rows)))}
            yield record

    def to_json(self) -> str:
        """The block's records as ``json.dumps`` writes them with sorted keys, comma-joined.

        One ``%`` template per kind holds the level's constant text; face keys
        sort as strings, so "10" comes before "2".
        """
        simplex = '"simplex":[' + str(self.n) + ',%d],"stage":{"N":' + str(self.N)
        tail = simplex + ',"step":' + str(self.step) + '},"value":%d}'
        kinds, js, values = self.kinds, self.js, self.values
        plain = ('{"kind":"%s",' + tail).__mod__
        if not self.faces:
            return ",".join(map(plain, zip(kinds, js, values)))
        m, k = _horn_shape(self.N, self.step, self.n)
        names = list(map(str, _positions(m, k)))
        order = sorted(range(len(names)), key=names.__getitem__)
        faces = ",".join('"%s":%%d' % names[i] for i in order)
        horn = ('{"horn":{"faces":{' + faces + '},"k":' + str(k) + ',"n":' + str(m)
                + '},"kind":"filled",' + tail).__mod__
        filled = list(map(is_, kinds, repeat(FILLED)))
        other = list(map(not_, filled))
        texts = (map(plain, zip(compress(kinds, other), compress(js, other), compress(values, other))),
                 map(horn, zip(*(self.faces[i] for i in order), compress(js, filled),
                               compress(values, filled))))
        # each record takes the next text of its kind
        return ",".join(map(next, map(texts.__getitem__, filled)))


class Certificate(SequenceABC):
    """The decisions of a run, read as a sequence of dict records.

    A record is ``{"stage": {"N", "step"}, "simplex": [n, j], "kind",
    "value"}``, and a filled one adds ``"horn": {"n", "k", "faces"}`` with
    its faces keyed by position. A run's certificate holds one
    :class:`CertificateBlock` per level, appended by the engine. A read one
    (:meth:`read`) holds its JSON ``text`` and is parsed on first use, unless
    a replay whose run writes that text gives it the run's blocks first.
    """

    def __init__(self):
        self.blocks: list[CertificateBlock] = []
        self.text: Optional[str] = None
        self._records: Optional[list] = None
        self._name: Optional[str] = None  # a read certificate's name while its text is unparsed

    @classmethod
    def read(cls, text: str, name: str) -> "Certificate":
        """The certificate written as ``text``; ``name`` (its path) opens its parse errors."""
        out = cls()
        out.text, out._name = text, name
        return out

    @classmethod
    def from_records(cls, records: list, *, name: Optional[str] = None) -> "Certificate":
        """The records, type-checked and kept as given; a ParseError names the first ill-typed one."""
        where = "" if name is None else f"{name}: "
        if not isinstance(records, list):
            raise ParseError(where + "a certificate is an ordered list of records")
        for position, record in enumerate(records):
            problem = _record_problem(record)
            if problem is not None:
                raise ParseError(f"{where}record {position} {problem}")
        out = cls()
        out._records = records
        return out

    def parse(self) -> None:
        """Parse and type-check a read certificate's text once: "cannot read <name>: ..." if it is
        not JSON, "<name>: record N ..." if a record is ill-typed (see :meth:`from_records`)."""
        if self._name is None:
            return
        try:
            records = json.loads(self.text)
        except (ValueError, RecursionError) as exc:
            raise ParseError(f"cannot read {self._name}: {exc}") from exc
        self._records, self._name = Certificate.from_records(records, name=self._name)._records, None

    def to_json(self) -> str:
        """The records as ``json.dumps`` writes them, compact with sorted keys: a run's a block at a time."""
        self.parse()
        if self._records is not None:
            return json.dumps(self._records, sort_keys=True, separators=(",", ":"))
        return "".join(self._texts())

    def _texts(self) -> Iterator[str]:
        """A run's :meth:`to_json`, a block of records at a time."""
        for i, block in enumerate(self.blocks):
            yield "," if i else "["
            yield block.to_json()
        yield "]" if self.blocks else "[]"

    def _written_as(self, text: str) -> bool:
        """Whether ``text``, less one final newline, is a run's :meth:`to_json`; neither is copied whole."""
        at = 0
        for piece in self._texts():
            if not text.startswith(piece, at):
                return False
            at += len(piece)
        return text[at:] in ("", "\n")

    def __len__(self) -> int:
        self.parse()
        if self._records is not None:
            return len(self._records)
        return sum(len(block.js) for block in self.blocks)

    def __iter__(self) -> Iterator[dict]:
        self.parse()
        if self._records is not None:
            return iter(self._records)
        return chain.from_iterable(block.records() for block in self.blocks)

    def __getitem__(self, index):
        return list(self)[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, (Certificate, list)):
            return list(self) == list(other)
        return NotImplemented


def _record_problem(record) -> Optional[str]:
    """What makes ``record`` ill-typed, or None."""
    keys = record.keys() if type(record) is dict else ()
    if keys != _FIELDS and keys != _HORNED:
        if not _FIELDS <= set(keys):
            return 'is not an object holding "stage", "simplex", "kind" and "value"'
        return 'has a field other than "stage", "simplex", "kind", "value" and "horn"'
    stage, simplex, kind = record["stage"], record["simplex"], record["kind"]
    if (type(stage) is not dict or stage.keys() != _STAGE
            or type(stage["N"]) is not int or type(stage["step"]) is not int):
        return 'has a "stage" that is not {"N", "step"} of ints'
    if (type(simplex) is not list or len(simplex) != 2
            or type(simplex[0]) is not int or type(simplex[1]) is not int):
        return 'has a "simplex" that is not a pair of ints'
    if type(kind) is not str or kind not in _KINDS:
        return 'has a "kind" other than "forced", "filled" and "witness"'
    if type(record["value"]) is not int:
        return 'has a "value" that is not an int'
    horn = record.get("horn")
    faces = horn.get("faces") if type(horn) is dict else None
    if "horn" in record and (type(horn) is not dict or horn.keys() != _HORN
                             or type(horn["n"]) is not int or type(horn["k"]) is not int
                             or type(faces) is not dict or not {int}.issuperset(map(type, faces.values()))
                             or not {str}.issuperset(map(type, faces))
                             or not all(map(str.isdigit, faces)) or not all(map(str.isascii, faces))):
        return 'has a "horn" that is not {"n", "k", "faces"} with int faces under digit-string keys'
    return None


# ---------------------------------------------------------------------------
# forced values


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
    table, n, j = sys.table, x.dim, x.index
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
        v = None if mid is None else table.value(i, n, mid)
        if v is not None:
            reps.append((f"degenerate:s_{i}", v))
    value = _agree(reps, (n, j), target_k)
    return None if value is None else SimplexRef(n + 1, value)


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
    Their lowest fillers are named by :func:`~degenforge.horn._fill`.
    The values' faces and images are checked against the columns. The values
    that may be forced are decided as columns too, on every level: each
    representation is a named column gathered over the level's head. At
    stage 0 the vertices take their decided s0 and idempotency witnesses as
    their fill column, checked as every fill is. A level's first failure in
    level order, a disagreement or a simplex left without a value, is raised
    once. Each level appends one block of columns to the certificate.
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
        self.certificate = Certificate()
        self.stats = {"forced": 0, "filled": 0, "witness": 0, "consistency_checks": 0}

    # -- shared helpers ------------------------------------------------------

    def _target(self, N: int, n: int, twice: bool) -> Optional[Sequence[int]]:
        """s_N (``twice``: s_N s_N) of every n-simplex's image over the map; None over the point.

        A target level that is missing, or undefined where the image meets it,
        refuses the run before any row of level n is decided.
        """
        if self.p is None:
            return None
        target = self.p.levels[n]
        for m in (n, n + 1) if twice else (n,):
            level = self.Ydeg.level(N, m)
            target = None if level is None else _gather(target)(level)
            if target is None or None in target:
                raise MissingDegeneracies(
                    f"target degeneracy s_{N} undefined at level {m}; the relative "
                    f"run needs the target table up to level {self.D - 1}")
        return target

    def _level_order(self, n: int, stage: int) -> tuple[list[int], list[int], list[int], set[int]]:
        """The subcomplex members, the other degeneracy images, the rest, and the images.

        Subcomplex members come first, then the other images of s_i (i < stage)
        of level n-1, then the rest, each ascending; only the first two groups,
        the level's head, have a representation that can force a value.
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
        return first, second, rest, images

    def _representations(self, N: int, step: int, n: int, members: list[int], head: list[int],
                         images: set[int]) -> list[tuple[str, Sequence[Optional[int]]]]:
        """Each representation of s_N (step 1) or s_N s_N (step 2) as a named column over ``head``.

        The columns are gathered through the tables, None where a
        representation is undefined: "subcomplex", the subcomplex table on
        the members, which open the head; then in step 1, for each i < N,
        "degenerate:s_i", the value s_i s_{N-1} y where x = s_i(y), and
        y = d_i x since d_i s_i = id; in step 2, "degenerate", s_N s_N x on
        the degeneracy images.
        """
        reps: list[tuple[str, Sequence[Optional[int]]]] = []
        others = (None,) * (len(head) - len(members))
        if self.Adeg is not None and members:
            sub = _through(self.Adeg.level(N, n), members)
            reps.append(("subcomplex", (sub if step == 1 else _through(self.Adeg.level(N, n + 1), sub)) + others))
        if step == 2:
            twice = _through(self.table.level(N, n + 1), _through(self.table.level(N, n), head))
            reps.append(("degenerate", [v if j in images else None for v, j in zip(twice, head)]))
            return reps
        for i in range(min(N, n)):
            y = _gather(head)(self.X.face_column(n, i))
            back = _through(self.table.level(i, n - 1), y)
            value = _through(self.table.level(i, n), _through(self.table.level(N - 1, n - 1), y))
            reps.append((f"degenerate:s_{i}", [v if b == j else None for v, b, j in zip(value, back, head)]))
        return reps

    def _forced_head(self, N: int, step: int, n: int, members: list[int], head: list[int],
                     images: set[int]) -> tuple[list, Optional[int], list]:
        """The forced value of each simplex of ``head``, None where nothing forces it; the first
        position whose representations disagree, or None; and that position's named values.

        Agreement of the representations is a column compare, and each row
        with more than one representation is a consistency check.
        """
        reps = self._representations(N, step, n, members, head, images)
        h = len(head)
        forced = list(reps[0][1]) if reps else [None] * h
        for _, column in reps[1:]:
            forced = [b if a is None else a for a, b in zip(forced, column)]
        if len(reps) > 1:
            defined = [0] * h
            for _, column in reps:
                defined = list(map(add, defined, map(is_not, column, repeat(None))))
            self.stats["consistency_checks"] += h - defined.count(0) - defined.count(1)
        first = min((next(compress(range(h), [b is not None and b != a for a, b in zip(forced, column)]), h)
                     for _, column in reps[1:]), default=h)
        if first == h:
            return forced, None, []
        return forced, first, [(name, column[first]) for name, column in reps if column[first] is not None]

    def _canonical_fill(self, m: int, k: int, columns: Sequence[Sequence[Optional[int]]],
                        target: Optional[Sequence[int]]) -> list[Optional[int]]:
        """The lowest filler of each row of prescribed (m,k) horns, or None: :func:`~degenforge.horn._fill`.

        Over a map a filler must lie over the row's target. A row is None
        where it has no filler or holds an undefined face. An incompatible
        row has no filler either: the faces of a simplex of a valid set are
        compatible, and only valid sets reach the engine.
        """
        return _fill(self.X, self.p, m, k, columns, target)

    def _unfilled(self, m: int, k: int, row: Sequence[Optional[int]], target: Optional[int],
                  n: int, j: int, what: str) -> None:
        """Raise what the row's horn fails on: an undefined face, incompatibility, or no filler."""
        faces = tuple(zip(_positions(m, k), row))
        for i, v in faces:
            if v is None:
                raise ConsistencyViolation(
                    f"needed degeneracy value undefined while prescribing face {i} of the {what} horn at ({n},{j})",
                    simplex=(n, j))
        horn = Horn(m, k, faces)
        bad = compatibility_failures(self.X, horn)
        if bad:
            raise ConsistencyViolation(
                f"prescribed horn at level {n} is incompatible at {bad}; "
                "the current system violates an identity", simplex=(n, j))
        raise UnfillableHorn(f"no admissible filler for the ({m},{k}) horn at level {n}",
                             horn=horn, level=n, target=target)

    def _level(self, N: int, step: int, n: int, columns: list[Sequence[Optional[int]]],
               target: Optional[Sequence[int]]) -> list[int]:
        """Decide every value of level n in step ``step`` of stage N, record the block, check it.

        ``columns`` prescribe the faces of each value at the horn's positions,
        ascending, and ``target`` its image over a map. Step 1 fills (n+1, N+1)
        horns and step 2 (n+2, N) horns; at stage 0 the vertices take their
        decided s0 in step 1 and their idempotency witnesses in step 2 in
        place of fillers. The simplices that may be forced, the level's head,
        are decided by columns (:meth:`_forced_head`), the vertices included.
        """
        m, k = _horn_shape(N, step, n)
        members, others, rest, images = self._level_order(n, N)
        head = members + others
        vertices = N == n == 0
        order = head + rest
        if vertices:
            chosen = self.inp.s0 if step == 1 else self.inp.idempotency_witnesses
            values = list(map((chosen or {}).get, range(self.X.cells[0])))
        else:
            values = self._canonical_fill(m, k, columns, target)
        kinds = [WITNESS if vertices and step == 2 else FILLED] * len(order)
        decided, clash, named = self._forced_head(N, step, n, members, head, images)
        forced: set[int] = set()
        for position in compress(range(len(head)), map(is_not, decided, repeat(None))):
            j = head[position]
            forced.add(j)
            values[j] = decided[position]
            kinds[position] = FORCED
        if clash is not None or None in values:
            # the first failure in level order: a disagreement, or a simplex left without a value
            unfilled = next((p for p, j in enumerate(order) if values[j] is None), len(order))
            if clash is not None and clash < unfilled:
                _agree(named, (n, head[clash]), N)  # raises: the representations disagree
            if vertices and step == 1 and self.inp.s0 is None:
                raise ValueError("stage 0 requires the degree-0 degeneracy candidate s0")
            j = order[unfilled]
            self._unfilled(m, k, [column[j] for column in columns], None if target is None else target[j],
                           n, j, "extension" if step == 1 else "correction")
        if order:
            filled = list(compress(order, map(is_, kinds, repeat(FILLED))))
            faces = tuple(list(map(column.__getitem__, filled)) for column in columns) if filled else ()
            self.certificate.blocks.append(CertificateBlock(
                N, step, n, order, kinds, list(map(values.__getitem__, order)), faces))
        done = len(forced)
        self.stats["forced"] += done
        self.stats["witness" if vertices and step == 2 else "filled"] += len(values) - done
        self._check_values(N, n, m, k, values, columns, target, forced)
        return values

    def _check_values(self, N: int, n: int, m: int, k: int, values: list[int],
                      columns: list[Sequence[Optional[int]]], target: Optional[Sequence[int]],
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
                    msg = f"s_{N} at simplex ({n},{j}) violates its defining equation at face {i}"
                    if j not in forced:
                        # a filler fits its horn, so only a vertex's decided value can fail here
                        horn = Horn(m, k, tuple(zip(names, (column[j] for column in columns))))
                        raise UnfillableHorn(msg, horn=horn, level=n,
                                             target=None if target is None else target[j])
                    if self.A is not None and self.A.contains(n, j):
                        raise IncompatibleSubcomplexStructure(msg, simplex=(n, j))
                    raise ConsistencyViolation(msg, simplex=(n, j))

    # -- step one: extension -------------------------------------------------

    def _step1(self, N: int) -> None:
        """s_N on every level: the (n+1, N+1) horn with d_i = s_{N-1} d_i (i < N),
        d_N = id and d_i = s_N d_{i-1} (i > N+1), over s_N p(x) on a map."""
        if self.D < N + 2:
            raise TruncationExhausted(f"the stage-{N} extension needs truncation at least {N + 2}")
        for n in range(N, self.D - 1):
            c = self.X.cells[n]
            lower, same = self.table.level(N - 1, n - 1), self.table.level(N, n - 1)
            columns = [_through(lower, self.X.face_column(n, i)) if i < N else range(c) if i == N
                       else _through(same, self.X.face_column(n, i - 1))
                       for i in range(n + 2) if i != N + 1]
            self.table.set_level(N, n, self._level(N, 1, n, columns, self._target(N, n, False)))

    # -- step two: correction -------------------------------------------------

    def _step2(self, N: int) -> dict[int, list[int]]:
        """t on every level: the (n+2, N) horn with d_i = s_{N-1} s_{N-1} d_i (i < N),
        d_{N+1} = d_{N+2} = s_N and d_i = t d_{i-2} (i > N+2), over s_N s_N p(x)
        on a map; then s_N = d_N t. Returns t by level."""
        if self.D < N + 2:
            raise TruncationExhausted(f"the stage-{N} correction needs truncation at least {N + 2}")
        t: dict[int, list[int]] = {}
        for n in range(N, self.D - 1):
            c = self.X.cells[n]
            lower, upper = self.table.level(N - 1, n - 1), self.table.level(N - 1, n)
            own = self.table.level(N, n) or (None,) * c
            columns = [_through(upper, _through(lower, self.X.face_column(n, i))) if i < N
                       else own if i <= N + 2 else _through(t[n - 1], self.X.face_column(n, i - 2))
                       for i in range(n + 3) if i != N]
            t[n] = self._level(N, 2, n, columns, self._target(N, n, True))
        for n in range(N, self.D - 1):
            self.table.set_level(N, n, list(_gather(t[n])(self.X.face_column(n + 2, N))))
        self._check_corrected(N)
        return t

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

    def run(self) -> tuple[DegeneracyTable, Certificate]:
        for N in range(self.D - 1):
            self._step1(N)
            self._step2(N)
        return self.table, self.certificate


# ---------------------------------------------------------------------------
# the spec'd staged operations


def step1_extend(sys: GoodSystem, inp: SynthesisInput, D: Optional[int] = None) -> GoodSystem:
    """Extend an (N-1)-good system to an almost-N-good one by horn filling."""
    engine = _Engine(*_prepared(inp, D))
    engine.table = sys.table.copy()
    engine._step1(sys.N + 1)
    return GoodSystem(table=engine.table, N=sys.N + 1, almost=True)


def step2_correct(sys: GoodSystem, inp: SynthesisInput, D: Optional[int] = None) -> GoodSystem:
    """Correct an almost-N-good system to an N-good one via its T-table.

    At stage 0 each vertex's idempotency witness is checked, or found, by :func:`_witness`.
    """
    engine = _Engine(*_prepared(inp, D))
    engine.table = sys.table.copy()
    if sys.N == 0:
        X, p, given = engine.X, engine.p, engine.inp.idempotency_witnesses
        target = engine._target(0, 0, True)
        for v, e in enumerate(engine.table.level(0, 0) or ()):
            goal = None if target is None else target[v]
            w = _witness(X, p, v, e, given.get(v), goal, staged=True)
            if w is None:
                raise MissingWitness(f"no idempotency witness found at vertex {v}", vertex=v)
            if isinstance(w, DegenforgeError):
                raise w
            given[v] = w
    t = engine._step2(sys.N)
    return GoodSystem(table=engine.table, N=sys.N, almost=False, t_table=TTable(sys.N, t))


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


def _as_witness_map(source, X: SemisimplicialSet) -> dict[int, int]:
    """``source`` as {vertex: 2-simplex index} where it names a witness; {} for None.

    A mapping may leave vertices out; a sequence has one entry per vertex. An
    entry is None (no witness) or a 2-simplex index.
    """
    if source is None:
        return {}
    count, limit = X.cells[0], X.cells[2] if X.dim >= 2 else 0
    given = source if hasattr(source, "get") else dict(enumerate(source))
    if given is not source and len(given) < count:
        raise ParseError(f"idempotency witnesses must cover every vertex; missing {len(given)}")
    for v, w in given.items():
        if not _is_index(v, count):
            raise ParseError(
                f"idempotency witness given at {v!r}, which is not a vertex in 0..{count - 1}")
        if w is not None and not _is_index(w, limit):
            raise ParseError(
                f"idempotency witness {w!r} at vertex {v} is not a 2-simplex index in 0..{limit - 1}")
    return {v: w for v, w in given.items() if w is not None}


def _witness(X, p, v: int, e: int, w: Optional[int], target: Optional[int], staged: bool = False):
    """The witness of e as s0(v), a 2-simplex with faces e, e, e over ``target`` on a map p: the
    supplied ``w`` or else e's lowest; None where e has none, or the refusal of a ``w`` that is not one.
    """
    if w is None:
        return _lowest_witness(X, e, p, target)
    if all(X.face_index(2, w, i) == e for i in range(3)) and (p is None or p.apply_index(2, w) == target):
        return w
    if p is None and not staged:
        return NoIdempotentEquivalence(f"supplied witness {w} at vertex {v} is not an idempotency witness", vertex=v)
    return MissingWitness(f"supplied idempotency witness {w} at vertex {v} is invalid", vertex=v)


def _s0_check(inp: SynthesisInput, D: int, v: int, e: int, w: Optional[int]):
    """The idempotency witness of e as s0(v), or e's first failure, over the point or over ``inp.p``.

    In order: e is a self-edge at v, agrees with the subcomplex table and,
    over a map, lies over s_0 p(v); e has a witness by :func:`_witness`, the
    supplied ``w`` or else e's lowest, over s_0 s_0 p(v) on a map; and e is an
    equivalence: over a map, cartesian and cocartesian over the base. Only the
    idempotent and equivalence tests and the refusal texts depend on the run.
    """
    X, p, Ydeg, Adeg = inp.X, inp.p, inp.Y_deg, inp.A_deg
    if X.face_index(1, e, 0) != v or X.face_index(1, e, 1) != v:
        return NoIdempotentEquivalence(f"s0({v}) = {e} is not a self-edge", vertex=v)
    a_value = None if Adeg is None else Adeg.value(0, 0, v)
    if a_value is not None and a_value != e:
        return IncompatibleSubcomplexStructure(
            f"s0({v}) = {e} disagrees with the subcomplex value {a_value}", simplex=(0, v))
    target = None
    if p is not None:
        want = Ydeg.value(0, 0, p.apply_index(0, v))
        if want is not None and p.apply_index(1, e) != want:
            return ConsistencyViolation(
                f"s0({v}) = {e} does not project to the target degeneracy", simplex=(0, v))
        target = None if want is None else Ydeg.value(0, 1, want)
        if target is None:
            raise MissingDegeneracies("target degeneracies undefined at the base vertex")
    w = _witness(X, p, v, e, w, target)
    if w is None:
        return NoIdempotentEquivalence(
            f"s0({v}) = {e} is not {'idempotent' if p is None else 'fiberwise idempotent'}", vertex=v)
    if isinstance(w, DegenforgeError):
        return w
    if p is None and not is_equivalence(X, SimplexRef(1, e), D).result:
        return NoIdempotentEquivalence(f"s0({v}) = {e} is not an equivalence", vertex=v)
    for prop in () if p is None else ("cartesian", "cocartesian"):
        if not p_edge_property(p, SimplexRef(1, e), prop, D).result:
            return NoIdempotentEquivalence(f"s0({v}) = {e} is not {prop} over the base", vertex=v)
    return w


def _resolve_s0(inp: SynthesisInput, D: int) -> tuple[dict[int, int], dict[int, int]]:
    """Each vertex's s0 edge and idempotency witness, over the point or over ``inp.p``.

    An edge fixed by ``s0``, or by the subcomplex table where it defines
    s_0(v), must pass :func:`_s0_check`; otherwise the lowest edge at v that
    passes is taken. The search keeps the idempotent test where a witness is
    supplied, and then checks that witness against the edge it found.
    """
    X, Adeg, given = inp.X, inp.A_deg, inp.idempotency_witnesses
    s0, witnesses = {}, {}
    for v in range(X.cells[0]):
        w = given.get(v)
        e = inp.s0[v] if inp.s0 is not None else (None if Adeg is None else Adeg.value(0, 0, v))
        if e is not None:
            found = _s0_check(inp, D, v, e, w)
        else:
            for e in X.with_face(1, 0, v):
                found = _s0_check(inp, D, v, e, None)
                if not isinstance(found, DegenforgeError):
                    break
            else:
                raise NoIdempotentEquivalence(
                    f"no idempotent equivalence at vertex {v}" if inp.p is None
                    else f"no admissible degree-0 degeneracy found at vertex {v}", vertex=v)
            if w is not None:
                # the witness found lies over the target that a supplied one must lie over
                found = _witness(X, inp.p, v, e, w, inp.p and inp.p.apply_index(2, found))
        if isinstance(found, DegenforgeError):
            raise found
        s0[v], witnesses[v] = e, found
    return s0, witnesses


# synthesize calls the one rule by one name per run; perfbench/tracer.py wraps both names here,
# and the two horn functions on the next line, which nothing here calls, so all four stay bound
_resolve_s0_absolute = _resolve_s0_relative = _resolve_s0
find_idempotent_equivalences, is_idempotent = _horn.find_idempotent_equivalences, _horn.is_idempotent


def _prepared(inp: SynthesisInput, D: Optional[int]) -> tuple[SynthesisInput, int]:
    """``inp`` with ``s0`` as one edge per vertex and its witnesses as a dict, and the bound.

    Every way into the engine starts here. The set, target and map are
    validated before anything else is checked, each unless it already holds
    a pass (see :func:`validate`). Every other input must be bound to the set
    it is read against, and is refused where it is first read.
    """
    X, p, A, Adeg = inp.X, inp.p, inp.A, inp.A_deg
    if not X._valid:
        _require_valid("input set", validate(X))
    bound = X.dim if D is None else min(D, X.dim)
    if p is not None:
        if not p.target._valid:
            _require_valid("target set", validate(p.target))
        if not p._valid:
            _require_valid("projection", validate_map(p))
        if inp.Y_deg is None:
            raise MissingDegeneracies("relative synthesis needs the target's degeneracy table")
        _require_same("the projection's source must be the synthesis input set", p.source, X)
        _require_same("the target table's base must be the projection's target", inp.Y_deg.base, p.target)
        bound = min(bound, p.depth)
    elif inp.Y_deg is not None:
        raise ParseError("a target table is given without its map")
    if inp.s0 is not None:
        edges = X.cells[1] if X.dim else 0
        inp = replace(inp, s0=_as_vertex_map(inp.s0, X.cells[0], edges, "s0"))
    inp = replace(inp, idempotency_witnesses=_as_witness_map(inp.idempotency_witnesses, X))
    if A is not None:
        _require_same("the subcomplex's ambient set must be the synthesis input set", A.ambient, X)
        closure = A.validate()
        if not closure.ok:
            raise IncompatibleSubcomplexStructure(
                f"subcomplex is not face-closed: {closure.violations[:3]}")
        if Adeg is not None:
            _require_same("the subcomplex table's base must be the synthesis input set", Adeg.base, X)
            _check_subcomplex_table(X, p, inp.Y_deg, A, Adeg)
    elif Adeg is not None:
        raise ParseError("a subcomplex table is given without its subcomplex")
    return inp, bound


def _require_same(text: str, given: SemisimplicialSet, expected: SemisimplicialSet) -> None:
    # an input bound to another set would be read out of its range
    if given is not expected and given != expected:
        raise ValueError(text)


def _degree_zero_refusal(table: DegeneracyTable, label: str) -> Optional[InvalidDegeneracyTable]:
    """The refusal of ``table``, named ``label``, where it lacks s_0 of a vertex of its base; else None.

    A vertex count is not paid for by the file, so no list is built from it.
    """
    edges = table.level(0, 0)
    if edges is None and table.base.cells[0]:
        return InvalidDegeneracyTable(f"{label} lacks a degree-0 value at vertex 0")
    if edges is not None and None in edges:
        return InvalidDegeneracyTable(f"{label} lacks a degree-0 value at vertex {edges.index(None)}")
    return None


def synthesize(inp: SynthesisInput, D: Optional[int] = None) -> SynthesisResult:
    """Build a full degeneracy table, over the point or over ``inp.p``.

    Alternates extension and correction for N = 0..D-2 and returns the table
    on 0 <= k <= n <= D-2 together with its replayable certificate. Over a
    map every fill is a lift over the image prescribed by the target's
    degeneracies. Values on a subcomplex are taken from its table, and the
    output must restrict to it. Without a supplied ``s0``, each vertex gets
    the subcomplex value where the subcomplex's table defines s_0, over the
    point as over a map, checked as a supplied edge is; else the lowest-index
    idempotent equivalence, or over a map the lowest fiberwise idempotent,
    cartesian and cocartesian self-edge. An input that fails validation gets
    no verdict, at any bound.
    """
    inp, bound = _prepared(inp, D)
    if bound < 2:
        raise TruncationExhausted(f"synthesis needs truncation at least 2, have {bound}")
    X, p, A, Adeg = inp.X, inp.p, inp.A, inp.A_deg
    if p is None:
        inner = check_inner(X, bound)
        if not inner.ok:
            raise NotQuasiSemicategory("an inner horn is unfillable", witness=inner.witness)
        s0, witnesses = _resolve_s0_absolute(inp, bound)
    else:
        fib = check_inner_fibration(p, bound)
        if not fib.ok:
            raise NotQuasiSemicategory("an inner lifting problem has no solution",
                                       witness=fib.witness)
        s0, witnesses = _resolve_s0_relative(inp, bound)
    resolved = replace(inp, s0=s0, idempotency_witnesses=witnesses)
    engine = _Engine(resolved, bound)
    table, certificate = engine.run()
    verification = verify_simplicial(X, table, bound, subcomplex=A, sub_table=Adeg,
                                     pmap=p, target_table=inp.Y_deg)
    if not verification.ok:
        families = {v[0] for v in verification.violations}
        if families <= {"restriction"}:
            raise RestrictionMismatch(
                f"output fails to restrict to the subcomplex table: {verification.violations[:3]}")
        raise ConsistencyViolation(
            f"synthesized table failed verification: {verification.violations[:3]}")
    return SynthesisResult(table=table, certificate=certificate, verification=verification,
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


def replay_certificate(inp: SynthesisInput, D: Optional[int], certificate) -> DegeneracyTable:
    """Re-run the synthesis and compare its records with ``certificate``.

    ``certificate`` is a :class:`Certificate` or a list of records. A read one
    whose text, less one final newline, is the run's ``to_json`` passes on
    that compare, made a block of the run at a time, and takes the run's
    blocks as its records. Otherwise, or when the synthesis raises, it is
    parsed first; then the first diverging record, or a certificate with fewer
    or more records than the run, raises CertificateMismatch at that position.
    """
    if not isinstance(certificate, Certificate):
        certificate = Certificate.from_records(certificate)
    try:
        result = synthesize(inp, D)
    except DegenforgeError:
        certificate.parse()
        raise
    run = result.certificate
    if certificate.text is not None and run._written_as(certificate.text):
        certificate.blocks, certificate._name = run.blocks, None  # its records are the run's, unparsed
        return result.table
    for position, (expected, record) in enumerate(zip(certificate, run)):
        if expected != record:
            raise CertificateMismatch(
                f"record {position} diverges: expected {expected}, recomputed {record}",
                position=position)
    if len(certificate) != len(run):
        raise CertificateMismatch(f"certificate has {'fewer' if len(certificate) < len(run) else 'more'} "
                                  "records than the run", position=min(len(certificate), len(run)))
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
    and read the idempotency witness for f off face 3. Each f is an
    equivalence up to the bound without a further scan: its cartesian and
    cocartesian horns are (n, n) and (n, 0) horns, which the Kan scan filled.
    """
    bound = X.dim if D is None else min(D, X.dim)
    if bound < 3:
        raise TruncationExhausted("the automatic construction needs truncation at least 3")
    kan = check_kan(X, bound)
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
    compatibility with a map into a base carrying its own table. A subcomplex
    table or a target table given without its subcomplex or map, and a map
    given without its target table, are refused, never skipped.

    Each ``(k, n)`` level is checked a term at a time: one gather reads a
    term's left side for every simplex with a defined s_k (d_i s_k from face
    column i of level n+1, say), a second gather its right side, and the two
    tuples are compared. Rows are walked only where a side may hold an
    undefined value or the sides differ. Violations are listed by family,
    then by ``(k, n, j, i)``.
    """
    if sub_table is not None and subcomplex is None:
        raise ParseError("a subcomplex table is given without its subcomplex")
    if target_table is not None and pmap is None:
        raise ParseError("a target table is given without its map")
    if pmap is not None and target_table is None:
        raise MissingDegeneracies("a check over a map needs the target's degeneracy table")
    _require_same("the table's base must be the checked set", table.base, X)
    if subcomplex is not None:
        _require_same("the subcomplex's ambient set must be the checked set", subcomplex.ambient, X)
    if sub_table is not None:
        _require_same("the subcomplex table's base must be the checked set", sub_table.base, X)
    if pmap is not None:
        _require_same("the map's source must be the checked set", pmap.source, X)
        _require_same("the target table's base must be the map's target", target_table.base, pmap.target)
    bound = X.dim if D is None else min(D, X.dim)
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
        sub = None if sub_table is None else sub_table.level(k, n)
        if sub is not None:
            inside, above = subcomplex.members[n], subcomplex.members[n + 1]
            for j, v, want in zip(js, vals, at_j(sub)):
                if want is not None and j in inside:
                    checked["restriction"] += 1
                    if v != want or v not in above:
                        found["restriction"].append(("restriction", k, n, j))
        target = None if pmap is None else target_table.level(k, n)
        if target is not None:
            tally("projection", at_v(pmap.levels[n + 1]), _gather(at_j(pmap.levels[n]))(target))
    violations = [v for family in _FAMILIES for v in sorted(found[family])]
    return SimplicialReport(not violations, sum(checked.values()), violations, checked)
