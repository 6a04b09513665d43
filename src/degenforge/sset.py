"""Finite, dimension-truncated semisimplicial sets.

A set carries all data up to its truncation dimension D and nothing above:
cell counts ``c_0..c_D`` and, for every n >= 1, a dense face level where
entry ``(n, j, i)`` is the index of the i-th face of the j-th n-simplex.
Each level is one flat list, row after row, so that entry sits at position
``j*(n+1) + i``: ``face_column(n, i)``, d_i of every n-simplex, is the slice
``[i::n+1]``, and ``faces_of(n, j)`` is a row slice. The identity checks,
the horn scans and the synthesis engine read a level a face position at a
time, from columns; no row tuple is stored. The face data is immutable
after construction. Derived lookups that only the horn scans need
(face-slot indices, per-level first and last edges) are caches, filled on
first use and kept for the life of the set; a set that is only loaded,
validated and verified never builds them.

Simplex indices are canonical ints. A module-wide pool holds one int object
per index, and every face level, map level and loaded degeneracy level whose
entries are all in range stores the pool's objects, not the ones its input
came with; so do the lazy slot indices and edge arrays. A level with any
entry out of range, such as -1 or c_{n-1} among the faces of n-simplices, is
stored as given. So is a level whose largest entry would grow the pool by
more than the level's length, such as a vertex 10**9 named in a file of a
few bytes: the pool never holds more ints than the inputs held entries.
Interning changes no value: reports, hashes and files are the same bytes
either way. The constructor takes each level's min and max once and records
the face levels out of range; ``validate`` walks only those to name their
entries.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from itertools import chain, count
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

from .errors import DimensionTooLow, ParseError


def _is_int(value) -> bool:
    """An int; bools, floats and strings are not."""
    return type(value) is int


def _is_index(value, limit: int) -> bool:
    """An integer in 0..limit-1; bools and floats are not indices."""
    return _is_int(value) and 0 <= value < limit


# The canonical int object of every simplex index handed out so far, grown on
# demand and never shrunk. With one object per distinct index, column gathers
# read ints that lie together and tuple compares stop at the identity test.
# Position i always holds i, so sharing the pool changes no value anyone reads.
_CANONICAL: list[int] = []


def _canonical(count: int) -> list[int]:
    """The pool of canonical ints, holding at least 0..count-1.

    ``count`` must be one the input paid for with as many entries of its own,
    such as a row count or a level's length; a vertex count is not, since a
    few bytes can name any number of vertices.
    """
    if len(_CANONICAL) < count:
        _CANONICAL.extend(range(len(_CANONICAL), count))
    return _CANONICAL


def _interned(values: Sequence[int], limit: int) -> tuple[Iterable[int], bool]:
    """The canonical ints of ``values``, and whether every one is in 0..limit-1.

    ``values`` holds ints only. A sequence with an entry out of range, such as
    -1 or ``limit``, is handed back as given: it is never read through the
    pool, where -1 would index from the end. So is one whose largest entry
    would grow the pool by more than ``len(values)``: neither ``limit`` nor
    that entry is bounded by the size of the input, so the pool stays within
    the number of entries that were ever interned.
    """
    if not values:
        return values, True
    top = max(values)
    if min(values) < 0 or top >= limit:
        return values, False
    if top >= len(_CANONICAL) + len(values):
        return values, True
    return map(_canonical(top + 1).__getitem__, values), True


@dataclass(frozen=True, order=True)
class SimplexRef:
    """A simplex addressed by (dimension, position within that dimension)."""

    dim: int
    index: int


@dataclass
class ValidationReport:
    """Outcome of an exhaustive identity check: ok flag plus named witnesses."""

    ok: bool
    checked: int
    violations: list = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {"ok": self.ok, "checked": self.checked, "violations": list(self.violations)}


class SemisimplicialSet:
    """Truncated semisimplicial set with dense, flat face levels.

    ``faces`` is given per dimension n = 1..D; ``faces[n-1][j]`` lists the
    indices of d_0(x_j), ..., d_n(x_j). Empty dimensions (including an empty
    vertex set) are allowed. Level n is stored as one flat list, row after
    row: entry ``j*(n+1) + i`` is d_i(x_j), so :meth:`face_column` is a slice.
    """

    def __init__(self, cells: Sequence[int], faces: Sequence[Sequence[Sequence[int]]]):
        self._store(cells, len(faces), map(_flattened, count(1), faces, cells[1:]))

    @classmethod
    def _from_flat(cls, cells: Sequence[int], levels: Sequence[list[int]]) -> "SemisimplicialSet":
        """The set whose level n is the flat list ``levels[n-1]``, row after row."""
        X = cls.__new__(cls)
        X._store(cells, len(levels), levels)
        return X

    def _store(self, cells: Sequence[int], depth: int, levels: Iterable[list[int]]) -> None:
        # the one way face data is stored: checked, then interned level by level
        if len(cells) == 0:
            raise ValueError("a semisimplicial set has at least dimension 0")
        self.dim = len(cells) - 1
        self.cells = tuple(cells)
        if not all(_is_int(c) and c >= 0 for c in self.cells):
            raise ValueError(f"cell counts must be non-negative integers, got {list(self.cells)}")
        if depth != self.dim:
            raise ValueError(f"expected {self.dim} face levels, got {depth}")
        stored: list[list[int]] = [[]]
        # levels with an entry outside 0..c_{n-1}-1, stored as given; only they need a range pass
        self._out_of_range: set[int] = set()
        for n, flat in enumerate(levels, 1):
            if set(map(type, flat)) - {int}:
                raise ValueError(f"dimension {n}: every face entry must be an integer")
            values, in_range = _interned(flat, self.cells[n - 1])
            if not in_range:
                self._out_of_range.add(n)
            stored.append(list(values))
        self._faces = stored
        # (n, i) -> {v: n-simplices with d_i = v}; (n, a, b) -> {(v, w): ... d_a = v, d_b = w}
        self._index: dict = {}
        self._edges: dict = {}

    # -- access -----------------------------------------------------------

    def face_index(self, n: int, j: int, i: int) -> int:
        return self._faces[n][j * (n + 1) + i]

    def faces_of(self, n: int, j: int) -> list[int]:
        """d_0, ..., d_n of the j-th n-simplex."""
        return self._faces[n][j * (n + 1):(j + 1) * (n + 1)]

    def face_column(self, n: int, i: int) -> list[int]:
        """d_i of every n-simplex, by index."""
        return self._faces[n][i::n + 1]

    def slot_index(self, n: int, slots: tuple[int, ...]) -> dict:
        """The n-simplices by their faces at one or two ``slots``, each list ascending.

        Keyed by the face value for one slot and by the pair of values for two.
        Filled on first use and kept; a key of at most two slots bounds each
        index by the level's size.
        """
        key = (n, *slots)
        index = self._index.get(key)
        if index is None:
            found: dict = {}
            columns = [self.face_column(n, i) for i in slots]
            for j, value in zip(_canonical(self.cells[n]), columns[0] if len(slots) == 1 else zip(*columns)):
                found.setdefault(value, []).append(j)
            index = self._index[key] = {value: tuple(js) for value, js in found.items()}
        return index

    def with_face(self, n: int, i: int, value: int) -> tuple[int, ...]:
        """All n-simplices whose i-th face is ``value``, ascending."""
        return self.slot_index(n, (i,)).get(value, ())

    def edges(self, n: int, end: str) -> tuple[int, ...]:
        """Per n-simplex, the index of its ``"last"`` or ``"first"`` edge.

        Level n is derived from level n-1 through d_0 (last) or d_n (first).
        """
        if end not in ("last", "first"):
            raise ValueError(f"edge end must be 'last' or 'first', got {end!r}")
        key = (n, end)
        found = self._edges.get(key)
        if found is None:
            if n == 1:
                found = tuple(_canonical(self.cells[1])[:self.cells[1]])
            else:
                found = _gather(self.face_column(n, 0 if end == "last" else n))(self.edges(n - 1, end))
            self._edges[key] = found
        return found

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "cells": list(self.cells),
            # each row cut once from the flat level, n + 1 entries at a time
            "faces": [list(map(list, zip(*[iter(flat)] * (n + 1))))
                      for n, flat in enumerate(self._faces[1:], 1)],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SemisimplicialSet":
        try:
            dim = data["dim"]
            cells = list(data["cells"])
            faces = list(data["faces"])
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed semisimplicial set: {exc}") from exc
        if not _is_int(dim):
            raise ParseError(f"dim {dim!r} is not an integer")
        if len(cells) != dim + 1:
            raise ParseError(f"dim {dim} disagrees with {len(cells)} cell counts")
        if len(faces) != dim:
            raise ParseError(f"dim {dim} disagrees with {len(faces)} face levels")
        try:
            return cls(cells, faces)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from exc

    def content_hash(self) -> str:
        # the bytes json.dumps(to_json_dict(), sort_keys=True, separators=(",", ":")) writes,
        # each level formatted from its flat list by one template
        levels = []
        for n, flat in enumerate(self._faces[1:], 1):
            row = "[" + ",".join(["%d"] * (n + 1)) + "]"
            levels.append(("[" + ",".join([row] * self.cells[n]) + "]") % tuple(flat))
        blob = '{"cells":[%s],"dim":%d,"faces":[%s]}' % (",".join(map(str, self.cells)), self.dim,
                                                          ",".join(levels))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemisimplicialSet):
            return NotImplemented
        return self.cells == other.cells and self._faces == other._faces

    def __repr__(self) -> str:
        return f"SemisimplicialSet(cells={list(self.cells)})"


def _flattened(n: int, level: Sequence[Sequence[int]], simplices: int) -> list[int]:
    """The face rows of ``simplices`` n-simplices as one flat list, row after row."""
    flat = list(chain.from_iterable(level))
    if len(level) != simplices:
        raise ValueError(f"dimension {n}: {len(level)} face rows for {simplices} simplices")
    if set(map(len, level)) - {n + 1}:
        j, row = next((j, row) for j, row in enumerate(level) if len(row) != n + 1)
        raise ValueError(f"simplex ({n},{j}) needs {n + 1} faces, got {len(row)}")
    return flat


def _gather(indices: Sequence[int]):
    """A function taking a sequence t to the tuple of t[v] for v in ``indices``."""
    if len(indices) > 1:
        return itemgetter(*indices)
    return lambda t: tuple(t[v] for v in indices)


def validate(X: SemisimplicialSet) -> ValidationReport:
    """Check every face reference and every face-commutation identity.

    A violation of d_i d_k = d_{k-1} d_i (i < k) is reported as
    ``("face_commutation", n, j, i, k)``; out-of-range references as
    ``("range", n, j, i)``. Violations are report content, not exceptions,
    listed by n, then j, then k, then i.

    The ranges were taken when the set was stored, so only a level it
    recorded as out of range is walked for its range witnesses. Then each
    level is checked at once: two gathered face columns, d_i d_k and
    d_{k-1} d_i of every simplex, per identity. Rows are walked only to name
    the witnesses of a level that fails.
    """
    violations = []
    checked = sum(X.cells[n] * (n + 1) for n in range(1, X.dim + 1))
    for n in sorted(X._out_of_range):
        limit, width = X.cells[n - 1], n + 1
        violations += [("range", n, *divmod(entry, width)) for entry, v in enumerate(X._faces[n])
                       if not 0 <= v < limit]
    if violations:
        return ValidationReport(False, checked, violations)
    columns: list = []
    for n in range(1, X.dim + 1):
        below = columns
        columns = [X.face_column(n, i) for i in range(n + 1)]
        if n == 1 or not X.cells[n]:
            continue
        checked += X.cells[n] * n * (n + 1) // 2
        at = [_gather(column) for column in columns]
        bad = []
        for k in range(1, n + 1):
            for i in range(k):
                lhs, rhs = at[k](below[i]), at[i](below[k - 1])
                if lhs != rhs:
                    bad += [(j, k, i) for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b]
        violations += [("face_commutation", n, j, i, k) for j, k, i in sorted(bad)]
    return ValidationReport(not violations, checked, violations)


def _require_valid(label: str, report: ValidationReport) -> None:
    # no verdict and no synthesis on inputs that fail their identities
    if not report.ok:
        raise ParseError(f"{label} fails validation: {report.violations[:3]}")


def last_edge(X: SemisimplicialSet, s: SimplexRef) -> SimplexRef:
    """The edge on the last two vertices: d_0 applied (dim - 1) times."""
    if s.dim < 1:
        raise DimensionTooLow("a vertex has no last edge")
    return SimplexRef(1, X.edges(s.dim, "last")[s.index])


def first_edge(X: SemisimplicialSet, s: SimplexRef) -> SimplexRef:
    """The edge on the first two vertices: successively drop the top vertex."""
    if s.dim < 1:
        raise DimensionTooLow("a vertex has no first edge")
    return SimplexRef(1, X.edges(s.dim, "first")[s.index])


class SemisimplicialMap:
    """Levelwise function between semisimplicial sets.

    Levels run up to the common truncation min(dim source, dim target);
    commutation with the face operators is checked by :func:`validate_map`.
    """

    def __init__(self, source: SemisimplicialSet, target: SemisimplicialSet,
                 levels: Sequence[Sequence[int]]):
        self.source = source
        self.target = target
        self.depth = min(source.dim, target.dim)
        if len(levels) != self.depth + 1:
            raise ValueError(f"expected {self.depth + 1} levels, got {len(levels)}")
        norm = []
        for n, level in enumerate(levels):
            row = tuple(level)
            if len(row) != source.cells[n]:
                raise ValueError(f"level {n}: {len(row)} values for {source.cells[n]} simplices")
            if set(map(type, row)) - {int}:
                raise ValueError(f"level {n}: every value must be an integer")
            norm.append(tuple(_interned(row, target.cells[n])[0]))
        self.levels = tuple(norm)

    def apply_index(self, n: int, j: int) -> int:
        return self.levels[n][j]

    def to_json_dict(self) -> dict:
        return {"levels": [list(level) for level in self.levels]}

    @classmethod
    def from_json_dict(cls, data: Mapping, source: SemisimplicialSet,
                       target: SemisimplicialSet) -> "SemisimplicialMap":
        try:
            levels = data["levels"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed map: {exc}") from exc
        if not isinstance(levels, list):
            raise ParseError("a map's \"levels\" is an array of per-dimension arrays")
        try:
            return cls(source, target, levels)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from exc

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemisimplicialMap):
            return NotImplemented
        return self.levels == other.levels


def identity_map(X: SemisimplicialSet) -> SemisimplicialMap:
    return SemisimplicialMap(X, X, [list(range(c)) for c in X.cells])


def validate_map(F: SemisimplicialMap) -> ValidationReport:
    """Check ranges and commutation F(d_i x) = d_i F(x) on every level.

    Violations are ``("range", n, j)`` or ``("face_commutation", n, j, i)``,
    listed by n, then j, then i. Each level is checked at once: a min and a
    max for the ranges, and per face i the gathered columns F(d_i x) and
    d_i F(x) of every simplex. Rows are walked only to name the witnesses of
    a level that fails.
    """
    violations = []
    checked = 0
    for n, level in enumerate(F.levels):
        limit = F.target.cells[n]
        checked += len(level)
        if level and not 0 <= min(level) <= max(level) < limit:
            violations += [("range", n, j) for j, v in enumerate(level) if not 0 <= v < limit]
    if violations:
        return ValidationReport(False, checked, violations)
    for n in range(1, F.depth + 1):
        level, below = F.levels[n], F.levels[n - 1]
        if not level:
            continue
        checked += len(level) * (n + 1)
        at_image = _gather(level)
        bad = []
        for i in range(n + 1):
            lhs = _gather(F.source.face_column(n, i))(below)
            rhs = at_image(F.target.face_column(n, i))
            if lhs != rhs:
                bad += [(j, i) for j, (a, b) in enumerate(zip(lhs, rhs)) if a != b]
        violations += [("face_commutation", n, j, i) for j, i in sorted(bad)]
    return ValidationReport(not violations, checked, violations)


class Subcomplex:
    """A face-closed selection of simplices of an ambient set."""

    def __init__(self, ambient: SemisimplicialSet, members: Sequence[Iterable[int]]):
        self.ambient = ambient
        padded = [tuple(level) for level in members] + [()] * (ambient.dim + 1 - len(members))
        if len(padded) != ambient.dim + 1:
            raise ValueError("more member levels than ambient dimensions")
        for n, level in enumerate(padded):
            if set(map(type, level)) - {int}:
                raise ValueError(f"level {n}: every member must be an integer")
        self.members = tuple(frozenset(level) for level in padded)

    def contains(self, n: int, j: int) -> bool:
        return n <= self.ambient.dim and j in self.members[n]

    def validate(self) -> ValidationReport:
        """Ranges plus closure under every face operator."""
        violations = []
        checked = 0
        for n, level in enumerate(self.members):
            for j in level:
                checked += 1
                if not 0 <= j < self.ambient.cells[n]:
                    violations.append(("range", n, j))
                elif n >= 1:
                    for i in range(n + 1):
                        checked += 1
                        if self.ambient.face_index(n, j, i) not in self.members[n - 1]:
                            violations.append(("closure", n, j, i))
        return ValidationReport(not violations, checked, violations)

    def to_json_dict(self) -> dict:
        return {"members": [sorted(level) for level in self.members]}

    @classmethod
    def from_json_dict(cls, data: Mapping, ambient: SemisimplicialSet) -> "Subcomplex":
        try:
            members = data["members"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed subcomplex: {exc}") from exc
        if not isinstance(members, list):
            raise ParseError("a subcomplex's \"members\" is an array of per-dimension arrays")
        try:
            sub = cls(ambient, members)
        except (TypeError, ValueError) as exc:
            raise ParseError(str(exc)) from exc
        for n, level in enumerate(sub.members):
            outside = [j for j in level if not 0 <= j < ambient.cells[n]]
            if outside:
                raise ParseError(f"level {n}: member {min(outside)} is not an index "
                                 f"in 0..{ambient.cells[n] - 1}")
        return sub

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subcomplex):
            return NotImplemented
        return self.members == other.members


@dataclass
class ProductBundle:
    """Levelwise product together with its two projections.

    Pair indices are row-major: ``(j_left, j_right)`` at dimension n maps to
    ``j_left * c_n(right) + j_right``, which fixes the canonical order.
    """

    sset: SemisimplicialSet
    left: SemisimplicialMap
    right: SemisimplicialMap
    left_factor: SemisimplicialSet
    right_factor: SemisimplicialSet

    def pair_index(self, n: int, j_left: int, j_right: int) -> int:
        return j_left * self.right_factor.cells[n] + j_right

    def split_index(self, n: int, j: int) -> tuple[int, int]:
        c = self.right_factor.cells[n]
        return divmod(j, c)


def product(X: SemisimplicialSet, Y: SemisimplicialSet) -> ProductBundle:
    """Levelwise product truncated at min(dim X, dim Y); faces act coordinatewise."""
    dim = min(X.dim, Y.dim)
    cells = [X.cells[n] * Y.cells[n] for n in range(dim + 1)]
    faces = []
    for n in range(1, dim + 1):
        # d_i of the pair (jx, jy) is the pair (d_i jx, d_i jy), built a face column at a time
        flat: list = [None] * (cells[n] * (n + 1))
        for i in range(n + 1):
            right = Y.face_column(n, i)
            flat[i::n + 1] = [a + b for a in map(Y.cells[n - 1].__mul__, X.face_column(n, i)) for b in right]
        faces.append(flat)
    Z = SemisimplicialSet._from_flat(cells, faces)
    proj_left = SemisimplicialMap(Z, X, [[j // Y.cells[n] for j in range(cells[n])] for n in range(dim + 1)])
    proj_right = SemisimplicialMap(Z, Y, [[j % Y.cells[n] for j in range(cells[n])] for n in range(dim + 1)])
    return ProductBundle(Z, proj_left, proj_right, X, Y)
