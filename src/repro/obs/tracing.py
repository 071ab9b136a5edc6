"""Span tracing: nested, clock-injectable, JSONL-exportable.

A *span* is one timed unit of work with a name, attributes and a parent
— ``proposition.retract`` inside ``consistency.check_batch`` inside
``gkbms.execute``.  Spans form per-thread trees (a thread-local stack
supplies the parent), wall time comes from an injectable clock (tests
pass a fake and get deterministic durations), and finished spans export
as one JSON object per line — the trace artifact the ``obs-smoke`` CI
job uploads and ``python -m repro.obs`` parses.

Every instrumented call site asks :func:`get_tracer` for its tracer
when it opens a span.  That is the current context's tracer while an
EXPLAIN capture (:class:`~repro.obs.explain.QueryExplain`) runs in it,
and the process default otherwise.  The process default is
**disabled**: a span site costs one context-variable read and a shared
no-op context manager until somebody turns tracing on (:func:`enable`
or :func:`set_tracer`).  Subsystem attribution is by name prefix: the
segment before the first dot (``proposition``, ``deduction``,
``consistency``, ``wal``, ``store``, ``models``, ``server``,
``decisions``) is the subsystem, mirroring the metric name schema of
:mod:`repro.obs.metrics`.
"""

from __future__ import annotations

import contextvars
import json
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, TextIO, Union

from repro.errors import ReproError


class TraceError(ReproError):
    """Malformed trace files or span misuse."""


class Span:
    """One timed unit of work; use via ``with tracer.span(...)``."""

    __slots__ = ("tracer", "name", "span_id", "parent_id", "start", "end",
                 "attrs", "status")

    def __init__(self, tracer: "Tracer", name: str, span_id: int,
                 parent_id: Optional[int], start: float,
                 attrs: Dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self.status = "ok"

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    @property
    def subsystem(self) -> str:
        return self.name.split(".", 1)[0]

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes mid-span (counts, cache verdicts, sizes)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        self.tracer._pop(self)
        return False

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:
        return (f"<Span {self.name} id={self.span_id} "
                f"parent={self.parent_id} {self.status}>")


class _NoopSpan:
    """Shared do-nothing span for disabled tracers (zero allocation)."""

    __slots__ = ()
    name = ""
    attrs: Dict[str, Any] = {}

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NoopSpan":
        return self


_NOOP_SPAN = _NoopSpan()


class Tracer:
    """Produces spans and records the finished ones, in start order.

    ``clock`` is any zero-argument callable returning a float; the
    default is :func:`time.perf_counter`.  ``max_spans`` bounds memory:
    past it the tracer keeps timing (nesting still works) but drops the
    records and counts them in :attr:`dropped`.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None,
                 enabled: bool = True, max_spans: int = 100_000) -> None:
        self.clock = clock if clock is not None else time.perf_counter
        self.enabled = enabled
        self.max_spans = max_spans
        # A bare leaf lock (like the metric locks): span finish runs
        # under it from every serving thread and must never feed back
        # into the sanitizer's own bookkeeping.
        self.spans: List[Span] = []  # guarded-by: _lock
        self.dropped = 0  # guarded-by: _lock
        self._next_id = 1  # guarded-by: _lock
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- span lifecycle ----------------------------------------------------

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _allocate_id(self) -> int:
        # Locked allocation: server worker threads open spans
        # concurrently, and span ids must stay unique for the parent
        # links in exported trees to resolve.
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
            return span_id

    def span(self, name: str, **attrs: Any) -> Union[Span, _NoopSpan]:
        """A context-manager span; nests under the current span."""
        if not self.enabled:
            return _NOOP_SPAN
        stack = self._stack()
        parent_id = stack[-1].span_id if stack else None
        return Span(self, name, self._allocate_id(), parent_id,
                    self.clock(), attrs)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        else:  # out-of-order exit: recover rather than corrupt the stack
            try:
                stack.remove(span)
            except ValueError:
                pass
        with self._lock:
            if len(self.spans) < self.max_spans:
                self.spans.append(span)
            else:
                self.dropped += 1

    # -- inspection and export ---------------------------------------------

    def clear(self) -> None:
        with self._lock:
            self.spans = []
            self.dropped = 0

    def subsystem_counts(self) -> Dict[str, int]:
        """Finished spans per subsystem (name prefix before the dot)."""
        counts: Dict[str, int] = {}
        with self._lock:
            for span in self.spans:
                counts[span.subsystem] = counts.get(span.subsystem, 0) + 1
        return counts

    def export_jsonl(self, target: Union[str, TextIO]) -> int:
        """Write finished spans, one JSON object per line; returns the
        span count.  ``target`` is a path or an open text stream."""
        with self._lock:
            records = [span.to_json() for span in self.spans]
        if isinstance(target, str):
            with open(target, "w", encoding="utf-8") as handle:
                for record in records:
                    handle.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            for record in records:
                target.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)


def load_jsonl(source: Union[str, Iterable[str]]) -> List[Dict[str, Any]]:
    """Parse a JSONL trace back into span records (dicts).

    Raises :class:`TraceError` on unparsable lines or records missing
    the required fields — the ``repro.obs check`` gate depends on a
    malformed trace failing loudly, not half-loading.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    else:
        lines = list(source)
    records: List[Dict[str, Any]] = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceError(f"trace line {lineno}: not JSON ({exc})") from exc
        if not isinstance(record, dict) or "name" not in record \
                or "span_id" not in record:
            raise TraceError(
                f"trace line {lineno}: not a span record (need name/span_id)"
            )
        records.append(record)
    return records


def span_tree(records: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Arrange span records into forests: each record gains a
    ``children`` list; the returned list holds the roots, in start
    order.  Orphans (parent outside the record set) become roots."""
    by_id: Dict[Any, Dict[str, Any]] = {}
    for record in records:
        copy = dict(record)
        copy["children"] = []
        by_id[copy["span_id"]] = copy
    roots: List[Dict[str, Any]] = []
    for record in by_id.values():
        parent = by_id.get(record.get("parent_id"))
        if parent is None:
            roots.append(record)
        else:
            parent["children"].append(record)
    def start_key(rec: Dict[str, Any]) -> float:
        start = rec.get("start")
        return start if isinstance(start, (int, float)) else 0.0
    for record in by_id.values():
        record["children"].sort(key=start_key)
    roots.sort(key=start_key)
    return roots


def render_tree(roots: List[Dict[str, Any]], max_depth: int = 12) -> str:
    """ASCII rendering of a span forest (the EXPLAIN display form)."""
    lines: List[str] = []

    def visit(record: Dict[str, Any], depth: int) -> None:
        duration = record.get("duration")
        timing = f" {duration * 1000:.3f}ms" if isinstance(
            duration, (int, float)) else ""
        attrs = record.get("attrs") or {}
        detail = "".join(
            f" {key}={attrs[key]}" for key in sorted(attrs)
        )
        marker = "" if depth == 0 else "└─ "
        lines.append(f"{'   ' * depth}{marker}{record['name']}"
                     f"{timing}{detail}")
        if depth + 1 < max_depth:
            for child in record["children"]:
                visit(child, depth + 1)

    for root in roots:
        visit(root, 0)
    return "\n".join(lines)


#: The process-default tracer: off until someone enables it, so the
#: instrumented hot paths cost a predicate and a shared no-op object.
_DEFAULT = Tracer(enabled=False)

#: The current context's tracer, set only for the span of an EXPLAIN
#: capture (:meth:`repro.obs.explain.QueryExplain.capture`), so that a
#: capture records its own thread's work and no other's.  Unset, span
#: sites fall back to the process default.
_CONTEXT_TRACER: "contextvars.ContextVar[Tracer]" = contextvars.ContextVar(
    "repro_obs_context_tracer"
)


def get_tracer() -> Tracer:
    """The tracer a span site opens its span on: the current context's
    EXPLAIN tracer if a capture installed one, else the process default
    (disabled until :func:`enable`)."""
    return _CONTEXT_TRACER.get(_DEFAULT)


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the process-default tracer; returns the previous one."""
    global _DEFAULT
    previous = _DEFAULT
    _DEFAULT = tracer
    return previous


def enable(clock: Optional[Callable[[], float]] = None,
           max_spans: int = 100_000) -> Tracer:
    """Install and return a fresh enabled process-default tracer."""
    tracer = Tracer(clock=clock, enabled=True, max_spans=max_spans)
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Restore the disabled default (instrumentation back to no-ops)."""
    set_tracer(Tracer(enabled=False))
