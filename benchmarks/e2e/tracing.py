"""Outside-in spans: the tracer of the benchmark's traced run.

No span lives in ``src/``.  :class:`Tracer` wraps the layer entry
points listed in :mod:`layers` — module functions and methods of public
classes — with a timer for the duration of the traced phase, then puts
the originals back.  A span is ``(id, name, start, end, parent, op,
value)``: spans of one operation share ``op``; ``parent`` is the span
that was open when this one started (tracked per thread and per asyncio
task through a context variable), or the operation's root span for work
picked up on another thread — a shard's handler thread, the
coordinator's loop.  The load is one closed-loop client, so exactly one
operation is open at any time and that attribution is unambiguous.

A span's *self* time is its duration minus the part of that interval
its children cover (children on other threads may overlap each other,
so coverage is the union of their intervals).  Self times of all spans
of an operation therefore sum to the operation's wall time plus the
time sibling spans overlapped — zero on one thread, the GIL hand-offs
between shard threads otherwise — which ``run.py`` prints as its own
line, so the table adds up exactly.

An awaited coroutine (``is_async``) is a *window*, not work: three
``read_frame`` calls wait side by side for three shards.  Windows are
recorded (the RPC-in-flight time is their union) but are transparent in
the tree: their children count as children of the window's parent and
they have no self time.
"""

from __future__ import annotations

import contextvars
import importlib
import itertools
import json
import sys
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    value: object


@dataclass(frozen=True)
class Layer:
    """One traced entry point.

    ``target`` is ``"module:function"`` or ``"module:Class.method"``.
    ``before(args, kwargs)`` may return replacement kwargs (used to hand
    ``permits_encoded`` a ``PermissionStats`` to fill);
    ``value(result, args, kwargs)`` is stored on the span.
    """

    span: str
    target: str
    before: Callable | None = None
    value: Callable | None = None
    is_async: bool = False

    @property
    def layer(self) -> str:
        """The module the span belongs to: its name minus the verb."""
        return self.span.rsplit(".", 1)[0]


class Tracer:
    def __init__(self, layers: list[Layer]):
        self.layers = layers
        #: raw span tuples (``Span`` field order), appended by the wrappers
        self.spans: list[tuple] = []
        self.warnings: list[str] = []
        #: spans whose entry point is gone: their metrics read "absent"
        self.missing: set[str] = set()
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "e2e_span", default=None
        )
        self._root: int | None = None
        self._op = -1
        self._patches: list[tuple] | None = None

    # -- patching ---------------------------------------------------------------------

    def install(self) -> None:
        """Wrap every resolvable layer entry point.  One that no longer
        exists is a warning and a hole in the table, never an error: a
        later PR may move a function without breaking the yardstick.
        What to patch is worked out on the first call; ``uninstall`` and
        ``install`` then switch the wrappers off and on between passes."""
        if self._patches is None:
            self._patches = []
            for layer in self.layers:
                try:
                    self._patches.extend(self._resolve(layer))
                except (ImportError, AttributeError, KeyError) as exc:
                    self.missing.add(layer.span)
                    self.warnings.append(
                        f"layer entry point {layer.target} is gone "
                        f"({type(exc).__name__}: {exc}); "
                        f"{layer.span} is not measured"
                    )
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def _resolve(self, layer: Layer) -> list[tuple]:
        """``(owner, attribute, original, wrapper)`` for every place the
        entry point is bound."""
        module_name, _, path = layer.target.partition(":")
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, method = path.split(".")
            owner = getattr(module, class_name)
            original = owner.__dict__[method]
            return [(owner, method, original, self._wrap(original, layer))]
        original = getattr(module, path)
        wrapper = self._wrap(original, layer)
        # ``from x import f`` copies the reference: patch every copy,
        # the benchmark's own modules' included
        return [
            (other, attr, original, wrapper)
            for other in list(sys.modules.values())
            for attr, bound in list(getattr(other, "__dict__", {}).items())
            if bound is original
        ]

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches or ()):
            setattr(owner, attr, original)

    def _wrap(self, fn, layer: Layer):
        """The timing wrapper, written out flat: a permission check is
        ~30 us, so every call and attribute lookup in here shows up in
        ``trace.overhead_ratio``."""
        name, before, value = layer.span, layer.before, layer.value
        append, next_id = self.spans.append, self._ids.__next__
        get, set_, reset = (self._current.get, self._current.set,
                            self._current.reset)
        tracer = self

        if layer.is_async:
            async def async_wrapper(*args, **kwargs):
                parent = get()
                span_id = next_id()
                token = set_(span_id)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    stop = perf_counter()
                    reset(token)
                    append((span_id, name, start, stop,
                            tracer._root if parent is None else parent,
                            tracer._op, None))

            return async_wrapper

        def wrapper(*args, **kwargs):
            if before is not None:
                kwargs = before(args, kwargs)
            parent = get()
            span_id = next_id()
            token = set_(span_id)
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                stop = perf_counter()
                reset(token)
                append((span_id, name, start, stop,
                        tracer._root if parent is None else parent,
                        tracer._op,
                        None if value is None or result is None
                        else value(result, args, kwargs)))

        return wrapper

    # -- operations -------------------------------------------------------------------

    def call(self, name: str, fn, *args):
        """Run ``fn`` under a root span ``name``; returns
        ``(result, seconds)``."""
        span_id = next(self._ids)
        self._op = next(self._ops)
        self._root = span_id
        token = self._current.set(span_id)
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            stop = perf_counter()
            self._current.reset(token)
            self._root = None
            self.spans.append(
                (span_id, name, start, stop, None, self._op, None)
            )
        return result, stop - start

    def take(self) -> list[Span]:
        """The spans recorded so far; the tracer starts a fresh list."""
        taken = [Span(*fields) for fields in self.spans]
        self.spans.clear()
        return taken


class Aggregate:
    """Per-name totals over a list of spans."""

    def __init__(self, spans: list[Span], missing: set[str] = frozenset(),
                 windows: set[str] = frozenset()):
        self.spans = spans
        self.missing = missing
        self.by_id = {s.id: s for s in spans}
        self.self_seconds = _self_times(spans, windows)
        self._self: dict[str, float] = defaultdict(float)
        self._inclusive: dict[str, float] = defaultdict(float)
        self._count: dict[str, int] = defaultdict(int)
        self.values: dict[str, list] = defaultdict(list)
        for span in spans:
            self._self[span.name] += self.self_seconds[span.id]
            self._inclusive[span.name] += span.end - span.start
            self._count[span.name] += 1
            if span.value is not None:
                self.values[span.name].append(span.value)

    def _absent(self, name: str) -> bool:
        return name in self.missing

    def self_s(self, name: str) -> float | None:
        return None if self._absent(name) else self._self.get(name, 0.0)

    def inclusive_s(self, name: str) -> float | None:
        return None if self._absent(name) else self._inclusive.get(name, 0.0)

    def count(self, name: str) -> int | None:
        return None if self._absent(name) else self._count.get(name, 0)

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def under(self, names: set[str], parent_name: str) -> list[Span]:
        """Spans named in ``names`` whose parent span is ``parent_name``."""
        out = []
        for span in self.spans:
            if span.name in names and span.parent is not None:
                parent = self.by_id.get(span.parent)
                if parent is not None and parent.name == parent_name:
                    out.append(span)
        return out

    def union_s(self, *names: str) -> float | None:
        """Seconds during which at least one span of ``names`` was open."""
        if any(self._absent(name) for name in names):
            return None
        return _covered(sorted(
            (s.start, s.end) for s in self.spans if s.name in names
        ))

    def roots(self) -> list[Span]:
        return [s for s in self.spans if s.parent is None]

    def layer_shares(self, layer_of: dict[str, str]) -> dict[str, float]:
        """Self seconds per layer (a root span is its own layer)."""
        out: dict[str, float] = defaultdict(float)
        for name, seconds in self._self.items():
            out[layer_of.get(name, name)] += seconds
        return dict(out)


def _covered(intervals: list[tuple[float, float]],
             low: float = float("-inf"), high: float = float("inf")) -> float:
    """Length of the union of sorted ``intervals`` clipped to [low, high]."""
    covered = 0.0
    cursor = low
    for start, end in intervals:
        start = max(start, cursor)
        end = min(end, high)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def _self_times(spans: list[Span], windows: set[str]) -> dict[int, float]:
    window_parent = {s.id: s.parent for s in spans if s.name in windows}
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        parent = span.parent
        while parent in window_parent:
            parent = window_parent[parent]
        if parent is not None and span.id not in window_parent:
            children[parent].append((span.start, span.end))
    return {
        span.id: 0.0 if span.id in window_parent
        else (span.end - span.start) - _covered(
            sorted(children.get(span.id, ())), span.start, span.end
        )
        for span in spans
    }


def write_spans(path, spans: list[Span], limit: int) -> None:
    """The first ``limit`` spans as JSON (a whole traced phase is a few
    hundred thousand; the head shows the shape of every operation)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({
        "fields": list(Span._fields[:-1]),
        "total_spans": len(spans),
        "spans": [list(s[:-1]) for s in spans[:limit]],
    }))
