"""Finite, dimension-truncated semisimplicial sets.

A set carries all data up to its truncation dimension D and nothing above:
cell counts ``c_0..c_D`` and, for every n >= 1, a dense face table where
entry ``(n, j, i)`` is the index of the i-th face of the j-th n-simplex.
The face data is immutable after construction. Derived lookups that only
the horn scans need (slot-pattern indices, per-level first and last edges)
are caches, filled on first use and kept for the life of the set; a set
that is only loaded, validated and verified never builds them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .errors import DimensionTooLow, ParseError


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
    """Truncated semisimplicial set with dense face tables.

    ``faces`` is given per dimension n = 1..D; ``faces[n-1][j]`` lists the
    indices of d_0(x_j), ..., d_n(x_j). Empty dimensions (including an empty
    vertex set) are allowed.
    """

    def __init__(self, cells: Sequence[int], faces: Sequence[Sequence[Sequence[int]]]):
        if len(cells) == 0:
            raise ValueError("a semisimplicial set has at least dimension 0")
        self.dim = len(cells) - 1
        self.cells = tuple(int(c) for c in cells)
        if any(c < 0 for c in self.cells):
            raise ValueError("cell counts must be non-negative")
        if len(faces) != self.dim:
            raise ValueError(f"expected {self.dim} face levels, got {len(faces)}")
        levels: list[tuple[tuple[int, ...], ...]] = [()]
        for n in range(1, self.dim + 1):
            level = faces[n - 1]
            if len(level) != self.cells[n]:
                raise ValueError(f"dimension {n}: {len(level)} face rows for {self.cells[n]} simplices")
            rows = []
            for j, row in enumerate(level):
                entry = tuple(int(v) for v in row)
                if len(entry) != n + 1:
                    raise ValueError(f"simplex ({n},{j}) needs {n + 1} faces, got {len(entry)}")
                rows.append(entry)
            levels.append(tuple(rows))
        self._faces = tuple(levels)
        self._by_face = self._build_face_index()
        self._pair_index: dict = {}
        self._edges: dict = {}

    def _build_face_index(self):
        # by_face[n][i][v] = sorted indices of n-simplices whose d_i is v
        index: list = [()]
        for n in range(1, self.dim + 1):
            maps: list[dict[int, list[int]]] = [{} for _ in range(n + 1)]
            for j, row in enumerate(self._faces[n]):
                for i, v in enumerate(row):
                    maps[i].setdefault(v, []).append(j)
            index.append(tuple({v: tuple(js) for v, js in m.items()} for m in maps))
        return tuple(index)

    # -- access -----------------------------------------------------------

    def face_index(self, n: int, j: int, i: int) -> int:
        return self._faces[n][j][i]

    def faces_of(self, n: int, j: int) -> tuple[int, ...]:
        return self._faces[n][j]

    def face(self, s: SimplexRef, i: int) -> SimplexRef:
        if s.dim < 1:
            raise DimensionTooLow("vertices have no faces")
        return SimplexRef(s.dim - 1, self._faces[s.dim][s.index][i])

    def face_rows(self, n: int) -> tuple[tuple[int, ...], ...]:
        """Every n-simplex's face row, by index."""
        return self._faces[n]

    def with_face(self, n: int, i: int, value: int) -> tuple[int, ...]:
        """All n-simplices whose i-th face is ``value``, ascending."""
        return self._by_face[n][i].get(value, ())

    def matching(self, n: int, slots: Sequence[int], values: Sequence[int]) -> Sequence[int]:
        """All n-simplices whose faces at ``slots`` equal ``values``, ascending.

        One dict lookup on the first two slots, then a row filter on the rest.
        The index for a pair of slots is built on first use; keys never hold
        more than two slots, which bounds the index by the level's size.
        """
        if not slots:
            return range(self.cells[n])
        if len(slots) == 1:
            return self._by_face[n][slots[0]].get(values[0], ())
        a, b = slots[0], slots[1]
        index = self._pair_index.get((n, a, b))
        if index is None:
            pairs: dict[tuple[int, int], list[int]] = {}
            for j, row in enumerate(self._faces[n]):
                pairs.setdefault((row[a], row[b]), []).append(j)
            index = self._pair_index[(n, a, b)] = {key: tuple(js) for key, js in pairs.items()}
        found = index.get((values[0], values[1]), ())
        if len(slots) == 2:
            return found
        rest = tuple(zip(slots[2:], values[2:]))
        rows = self._faces[n]
        return [z for z in found if all(rows[z][i] == v for i, v in rest)]

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
                found = tuple(range(self.cells[1]))
            else:
                below = self.edges(n - 1, end)
                i = 0 if end == "last" else n
                found = tuple(below[row[i]] for row in self._faces[n])
            self._edges[key] = found
        return found

    def simplices(self, n: int) -> Iterator[SimplexRef]:
        for j in range(self.cells[n]):
            yield SimplexRef(n, j)

    def in_range(self, s: SimplexRef) -> bool:
        return 0 <= s.dim <= self.dim and 0 <= s.index < self.cells[s.dim]

    # -- serialization ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "dim": self.dim,
            "cells": list(self.cells),
            "faces": [[list(row) for row in self._faces[n]] for n in range(1, self.dim + 1)],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "SemisimplicialSet":
        try:
            dim = int(data["dim"])
            cells = [int(c) for c in data["cells"]]
            faces = data["faces"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed semisimplicial set: {exc}") from exc
        if len(cells) != dim + 1:
            raise ParseError(f"dim {dim} disagrees with {len(cells)} cell counts")
        if len(faces) != dim:
            raise ParseError(f"dim {dim} disagrees with {len(faces)} face levels")
        try:
            return cls(cells, faces)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def content_hash(self) -> str:
        blob = json.dumps(self.to_json_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemisimplicialSet):
            return NotImplemented
        return self.cells == other.cells and self._faces == other._faces

    def __repr__(self) -> str:
        return f"SemisimplicialSet(cells={list(self.cells)})"


def validate(X: SemisimplicialSet) -> ValidationReport:
    """Check every face reference and every face-commutation identity.

    A violation of d_i d_k = d_{k-1} d_i (i < k) is reported as
    ``("face_commutation", n, j, i, k)``; out-of-range references as
    ``("range", n, j, i)``. Violations are report content, not exceptions.
    """
    violations = []
    checked = 0
    for n in range(1, X.dim + 1):
        limit = X.cells[n - 1]
        for j in range(X.cells[n]):
            for i, v in enumerate(X.faces_of(n, j)):
                checked += 1
                if not 0 <= v < limit:
                    violations.append(("range", n, j, i))
    if violations:
        return ValidationReport(False, checked, violations)
    for n in range(2, X.dim + 1):
        for j in range(X.cells[n]):
            row = X.faces_of(n, j)
            for k in range(1, n + 1):
                for i in range(k):
                    checked += 1
                    if X.face_index(n - 1, row[k], i) != X.face_index(n - 1, row[i], k - 1):
                        violations.append(("face_commutation", n, j, i, k))
    return ValidationReport(not violations, checked, violations)


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
            row = tuple(int(v) for v in level)
            if len(row) != source.cells[n]:
                raise ValueError(f"level {n}: {len(row)} values for {source.cells[n]} simplices")
            norm.append(row)
        self.levels = tuple(norm)

    def apply_index(self, n: int, j: int) -> int:
        return self.levels[n][j]

    def apply(self, s: SimplexRef) -> SimplexRef:
        return SimplexRef(s.dim, self.levels[s.dim][s.index])

    def to_json_dict(self) -> dict:
        return {"levels": [list(level) for level in self.levels]}

    @classmethod
    def from_json_dict(cls, data: Mapping, source: SemisimplicialSet,
                       target: SemisimplicialSet) -> "SemisimplicialMap":
        try:
            levels = data["levels"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"malformed map: {exc}") from exc
        try:
            return cls(source, target, levels)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    def __eq__(self, other) -> bool:
        if not isinstance(other, SemisimplicialMap):
            return NotImplemented
        return self.levels == other.levels


def identity_map(X: SemisimplicialSet) -> SemisimplicialMap:
    return SemisimplicialMap(X, X, [list(range(c)) for c in X.cells])


def validate_map(F: SemisimplicialMap) -> ValidationReport:
    """Check ranges and commutation F(d_i x) = d_i F(x) on every level."""
    violations = []
    checked = 0
    for n in range(F.depth + 1):
        limit = F.target.cells[n]
        for j in range(F.source.cells[n]):
            checked += 1
            if not 0 <= F.apply_index(n, j) < limit:
                violations.append(("range", n, j))
    if violations:
        return ValidationReport(False, checked, violations)
    for n in range(1, F.depth + 1):
        for j in range(F.source.cells[n]):
            fj = F.apply_index(n, j)
            for i in range(n + 1):
                checked += 1
                if F.apply_index(n - 1, F.source.face_index(n, j, i)) != F.target.face_index(n, fj, i):
                    violations.append(("face_commutation", n, j, i))
    return ValidationReport(not violations, checked, violations)


class Subcomplex:
    """A face-closed selection of simplices of an ambient set."""

    def __init__(self, ambient: SemisimplicialSet, members: Sequence[Iterable[int]]):
        self.ambient = ambient
        padded = list(members) + [()] * (ambient.dim + 1 - len(members))
        if len(padded) != ambient.dim + 1:
            raise ValueError("more member levels than ambient dimensions")
        self.members = tuple(frozenset(int(j) for j in level) for level in padded)

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
        try:
            return cls(ambient, members)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

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
        cy, cy1 = Y.cells[n], Y.cells[n - 1]
        level = []
        for jx in range(X.cells[n]):
            fx = X.faces_of(n, jx)
            for jy in range(Y.cells[n]):
                fy = Y.faces_of(n, jy)
                level.append([fx[i] * cy1 + fy[i] for i in range(n + 1)])
        faces.append(level)
    Z = SemisimplicialSet(cells, faces)
    proj_left = SemisimplicialMap(Z, X, [[j // Y.cells[n] for j in range(cells[n])] for n in range(dim + 1)])
    proj_right = SemisimplicialMap(Z, Y, [[j % Y.cells[n] for j in range(cells[n])] for n in range(dim + 1)])
    return ProductBundle(Z, proj_left, proj_right, X, Y)
