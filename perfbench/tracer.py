"""Outside-in tracing: spans and counts at the boundaries between degenforge modules.

Nothing in ``src/`` changes. ``Tracer.install`` rebinds each function at the
module that calls it (``cli.validate``, ``degeneracy.check_inner``,
``degeneracy._filler_indices``, ...) or on its class, to a wrapper that
records a span and, where the program reports one, an exact count read off
the return value (``checked``, ``stats``, the certificate). ``remove`` puts
every original back. A target the program no longer has is skipped and
listed in ``missing``, a count it no longer reports is listed in
``unread``, and their metrics read 0.

A span is ``(id, name, layer, start, end, parent, op)``. Spans opened in a
worker thread of ``cli edges`` attach to the op's root span. A layer's self
time is the duration of its spans minus the part of each interval that the
span's children cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import os
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("cli", "sset", "horn", "degeneracy", "nerve")

# per-layer metric -> the span name whose inclusive time it sums
SPAN_TIMES = {
    "sset.from_json_s": "sset.from_json_dict",
    "sset.validate_s": "sset.validate",
    "sset.content_hash_s": "sset.content_hash",
    "sset.product_s": "sset.product",
    "horn.check_inner_s": "horn.check_inner",
    "horn.check_kan_s": "horn.check_kan",
    "horn.fibration_s": "horn.check_inner_fibration",
    "horn.edge_s": "horn.edge",
    "degeneracy.synthesize_s": "degeneracy.synthesize",
    "degeneracy.s0_s": "degeneracy.resolve_s0",
    "degeneracy.fill_s": "degeneracy.fill",
    "degeneracy.verify_s": "degeneracy.verify_simplicial",
    "degeneracy.replay_s": "degeneracy.replay_certificate",
    "degeneracy.addendum_s0_s": "degeneracy.addendum_s0",
    "nerve.nerve_s": "nerve.nerve",
}

# per-layer metric -> the span names whose self time it sums
SELF_TIMES = {
    "degeneracy.engine_self_s": ("degeneracy.engine", "degeneracy.fill"),
    "nerve.uniqueness_demo_self_s": ("nerve.uniqueness_demo",),
}

COUNTS = (
    "cli.bytes_in", "cli.bytes_out",
    "sset.validate_calls", "sset.content_hash_calls", "sset.face_lookups",
    "horn.check_inner_horns", "horn.check_kan_horns", "horn.fibration_horns",
    "horn.edge_calls", "horn.filler_queries",
    "degeneracy.fill_queries", "degeneracy.identities_checked", "degeneracy.records",
    "degeneracy.filled", "degeneracy.forced", "degeneracy.consistency_checks",
)

LOAD_SPANS = ("cli.load", "cli.read_json")

METRICS = (("cli.load_s",) + tuple(f"{layer}.self_s" for layer in LAYERS)
           + tuple(SPAN_TIMES) + tuple(SELF_TIMES) + COUNTS)


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    op: int


def _one(key):
    return lambda result, args: {key: 1}


def _checked(key):
    return lambda result, args: {key: result.checked}


def _synthesis(result, args):
    stats = result.stats
    return {"degeneracy.records": len(result.certificate), "degeneracy.filled": stats["filled"],
            "degeneracy.forced": stats["forced"],
            "degeneracy.consistency_checks": stats["consistency_checks"]}


def _replayed(result, args):
    return {"degeneracy.records": len(args[2])}


def _bytes(key):
    return lambda result, args: {key: os.path.getsize(args[0])}


# (module, attribute path in it, span name, layer, tally) for every traced boundary
_EDGE = ("horn.edge", "horn", _one("horn.edge_calls"))
_SYNTH = ("degeneracy.synthesize", "degeneracy", _synthesis)
_VERIFY = ("degeneracy.verify_simplicial", "degeneracy", _checked("degeneracy.identities_checked"))
_VALIDATE = ("sset.validate", "sset", _one("sset.validate_calls"))
_INNER = ("horn.check_inner", "horn", _checked("horn.check_inner_horns"))
_KAN = ("horn.check_kan", "horn", _checked("horn.check_kan_horns"))
_FIBRATION = ("horn.check_inner_fibration", "horn", _checked("horn.fibration_horns"))
TARGETS = (
    *(("cli", attr, "cli.load", "cli", None)
      for attr in ("load_sset", "load_map", "load_table", "load_subcomplex", "_load_s0")),
    ("cli", "_load_json", "cli.read_json", "cli", _bytes("cli.bytes_in")),
    ("cli", "_dump_json", "cli.write_json", "cli", _bytes("cli.bytes_out")),
    ("cli", "validate", *_VALIDATE),
    ("cli", "check_inner", *_INNER),
    ("cli", "check_kan", *_KAN),
    ("cli", "check_inner_fibration", *_FIBRATION),
    ("cli", "is_equivalence", *_EDGE),
    ("cli", "edge_property", *_EDGE),
    ("cli", "is_idempotent", *_EDGE),
    ("cli", "synthesize", *_SYNTH),
    ("cli", "synthesize_relative", *_SYNTH),
    ("cli", "addendum_s0", "degeneracy.addendum_s0", "degeneracy", None),
    ("cli", "verify_simplicial", *_VERIFY),
    ("cli", "replay_certificate", "degeneracy.replay_certificate", "degeneracy", _replayed),
    ("cli", "uniqueness_demo", "nerve.uniqueness_demo", "nerve", None),
    ("degeneracy", "validate", *_VALIDATE),
    ("degeneracy", "validate_map", "sset.validate_map", "sset", None),
    ("degeneracy", "check_inner", *_INNER),
    ("degeneracy", "check_kan", *_KAN),
    ("degeneracy", "check_inner_fibration", *_FIBRATION),
    ("degeneracy", "is_equivalence", *_EDGE),
    ("degeneracy", "is_idempotent", *_EDGE),
    ("degeneracy", "p_edge_property", *_EDGE),
    ("degeneracy", "find_idempotent_equivalences", *_EDGE),
    ("degeneracy", "_filler_indices", "horn._filler_indices", "horn", _one("horn.filler_queries")),
    ("degeneracy", "compatibility_failures", "horn.compatibility_failures", "horn", None),
    ("degeneracy", "_resolve_s0_absolute", "degeneracy.resolve_s0", "degeneracy", None),
    ("degeneracy", "_resolve_s0_relative", "degeneracy.resolve_s0", "degeneracy", None),
    ("degeneracy", "verify_simplicial", *_VERIFY),
    ("degeneracy", "_Engine.run", "degeneracy.engine", "degeneracy", None),
    ("degeneracy", "_Engine._canonical_fill", "degeneracy.fill", "degeneracy",
     _one("degeneracy.fill_queries")),
    ("nerve", "nerve", "nerve.nerve", "nerve", None),
    ("nerve", "product", "sset.product", "sset", None),
    ("nerve", "synthesize_relative", *_SYNTH),
    ("nerve", "verify_simplicial", *_VERIFY),
    ("sset", "SemisimplicialSet.from_json_dict", "sset.from_json_dict", "sset", None),
    ("sset", "SemisimplicialSet.content_hash", "sset.content_hash", "sset",
     _one("sset.content_hash_calls")),
)


def _resolve(module: str, path: str):
    """(owner, attribute) for ``path`` in ``degenforge.<module>``, or None if it is gone."""
    # the package rebinds the name ``nerve`` to the function, so import the module by name
    owner = importlib.import_module(f"degenforge.{module}")
    *outer, attr = path.split(".")
    for name in outer:
        owner = getattr(owner, name, None)
    if owner is None or attr not in vars(owner):
        return None
    return owner, attr


class Tracer:
    """Spans and counts for the ops run while it is installed."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._undo: list = []
        self.missing: list[str] = []
        self.unread: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._face_lookups = itertools.count()
        self._op = -1
        self._root: int | None = None

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, name, layer, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else self._root
        sid = next(self._ids)
        stack.append(sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, layer, start, end, parent, self._op))

    def _wrap(self, fn, name, layer, tally):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer._call(name, layer, fn, args, kwargs)
            if tally is not None:
                try:
                    counts = tally(result, args)
                except (AttributeError, KeyError, TypeError, OSError):
                    tracer.unread.add(name)  # the program no longer reports this count
                    return result
                with tracer._lock:
                    tracer.counts.update(counts)
            return result

        return traced

    def run_op(self, op: int, fn, *args):
        """Run one op under a root span ``cli.run``; worker-thread spans attach to it."""
        self._op = op
        sid = next(self._ids)
        self._root = sid
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            end = perf_counter()
            self._root = None
            self.spans.append(Span(sid, "cli.run", "cli", start, end, None, op))

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every target that exists; the others are listed in ``missing``."""
        for module, path, name, layer, tally in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, attr = found
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(raw.__func__, name, layer, tally))
            else:
                wrapped = self._wrap(raw, name, layer, tally)
            self._undo.append((owner, attr, raw))
            setattr(owner, attr, wrapped)

        found = _resolve("sset", "SemisimplicialSet.with_face")
        if found is None:
            self.missing.append("sset.SemisimplicialSet.with_face")
            return
        owner, attr = found
        with_face = vars(owner)[attr]
        tracer = self

        @functools.wraps(with_face)
        def counted(self_, *args):
            next(tracer._face_lookups)
            return with_face(self_, *args)

        self._undo.append((owner, attr, with_face))
        setattr(owner, attr, counted)

    def remove(self) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    # -- reading ---------------------------------------------------------------

    def face_lookups(self) -> int:
        """Calls to ``with_face`` since the last reset; read it once per reset."""
        return next(self._face_lookups)

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent].append((span.start, span.end))
        out = {}
        for span in self.spans:
            covered, reach = 0.0, span.start
            for start, end in sorted(children[span.sid]):
                start = max(start, reach)
                if end > start:
                    covered += end - start
                    reach = end
            out[span.sid] = span.end - span.start - covered
        return out

    def metrics(self, self_time: dict[int, float] | None = None) -> dict[str, float]:
        """Every per-layer metric over the spans and counts recorded since the last reset."""
        self_time = self.self_times() if self_time is None else self_time
        by_id = {span.sid: span for span in self.spans}
        out = {name: 0.0 for name in METRICS}
        names = {span_name: metric for metric, span_name in SPAN_TIMES.items()}
        for span in self.spans:
            duration = span.end - span.start
            out[f"{span.layer}.self_s"] += self_time[span.sid]
            if span.name in names:
                out[names[span.name]] += duration
            for metric, span_names in SELF_TIMES.items():
                if span.name in span_names:
                    out[metric] += self_time[span.sid]
            if span.name in LOAD_SPANS:
                parent = by_id.get(span.parent)
                if parent is None or parent.name not in LOAD_SPANS:
                    out["cli.load_s"] += duration
        for key in COUNTS:
            out[key] = self.counts.get(key, 0)
        out["sset.face_lookups"] = self.face_lookups()
        return out

    def op_breakdown(self, self_time: dict[int, float] | None = None) -> dict[int, dict]:
        """Op -> self time per layer and inclusive time per span name."""
        self_time = self.self_times() if self_time is None else self_time
        out: dict[int, dict] = {}
        for span in self.spans:
            row = out.setdefault(span.op, {"self_s": dict.fromkeys(LAYERS, 0.0), "spans_s": {}})
            row["self_s"][span.layer] += self_time[span.sid]
            row["spans_s"][span.name] = row["spans_s"].get(span.name, 0.0) + span.end - span.start
        return out
