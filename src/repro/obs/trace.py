"""Nested-span tracing with a deterministic JSONL export.

A :class:`Tracer` hands out spans — named intervals with attributes,
measured on the monotonic clock, nested via a thread-local context
stack so ``engine.run`` > ``engine.cell`` > ``mpx.profile`` >
``mpx.chunk`` forms a tree without any explicit parent plumbing.  Three
properties drive the design:

* **disabled means free.**  The shipped default tracer is disabled;
  instrumented hot loops receive ``tracer=None`` and pay one ``is not
  None`` check per block.  Code that can afford a context manager uses
  :meth:`Tracer.span`, which is a no-op ``yield`` when disabled.
* **deterministic apart from the clock.**  Span ids are sequential in
  start order, export order is completion order, attributes are the
  caller's values, and the JSONL schema is fixed — so two identical
  runs produce traces that differ *only* in ``start_us``/
  ``duration_us``.  :func:`canonical_records` strips exactly those
  fields; the determinism test diffs the remainder byte-for-byte.
* **one session per thread.**  :func:`tracing_session` installs a
  tracer and a registry for the calling thread only, so cells that run
  at once on several threads each trace into their own session.  The
  engine's cell threads do that, on the caller's ``epoch``, and return
  ``tracer.export()`` with the result; the caller's :meth:`Tracer.adopt`
  splices those records under the current span, remapping ids in grid
  order — so the merged trace is identical to the serial one whichever
  thread finished first, and its spans share one timeline.

Trace files are JSON Lines: a ``header`` record, one ``span`` record
per finished span, and a final ``metrics`` record embedding the
session's counters, gauges, and histogram *counts* (not quantiles —
those are wall-clock-derived and would break the determinism contract).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager

from .registry import MetricsRegistry, pop_registry, push_registry

__all__ = [
    "Span",
    "Tracer",
    "get_tracer",
    "tracing_session",
    "write_trace",
    "canonical_records",
    "TRACE_SCHEMA",
]

TRACE_SCHEMA = "repro-trace/1"

# span record fields that carry wall-clock and nothing else; stripping
# them (canonical_records) must make two identical runs byte-identical
TIMING_FIELDS = ("start_us", "duration_us")


def _clean_attrs(attrs: dict) -> dict:
    """Coerce attribute values to JSON scalars (repr() anything else)."""
    out = {}
    for key, value in attrs.items():
        if isinstance(value, (str, int, float, bool)) or value is None:
            out[key] = value
        else:
            out[key] = repr(value)
    return out


class Span:
    """One named interval; finished spans become JSONL records."""

    __slots__ = ("id", "parent", "name", "attrs", "error", "_start", "_record")

    def __init__(
        self, span_id: int, parent: int | None, name: str, attrs: dict
    ) -> None:
        self.id = span_id
        self.parent = parent
        self.name = name
        self.attrs = _clean_attrs(attrs)
        self.error: str | None = None
        self._start = time.perf_counter()
        self._record: dict | None = None

    def set(self, **attrs) -> None:
        """Attach more attributes to a live span."""
        self.attrs.update(_clean_attrs(attrs))

    def record_error(self, error: BaseException) -> None:
        self.error = f"{type(error).__name__}: {error}"


class Tracer:
    """Span factory with a thread-local context stack.

    ``enabled=False`` (the process default) turns every entry point into
    a near-free no-op; the real cost only exists when a ``--trace`` run
    or a test asks for it.  ``epoch`` is the ``time.perf_counter()``
    reading a span's ``start_us`` counts from: by default when the
    tracer is made, and the adopter's own for a tracer whose records
    another tracer adopts.
    """

    def __init__(
        self, *, enabled: bool = True, epoch: float | None = None
    ) -> None:
        self.enabled = enabled
        self.epoch = time.perf_counter() if epoch is None else epoch
        self._lock = threading.Lock()
        self._next_id = 1
        self._records: list[dict] = []
        self._local = threading.local()

    # -- context stack ------------------------------------------------

    def _stack(self) -> "list[Span]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> Span | None:
        stack = self._stack()
        return stack[-1] if stack else None

    # -- explicit start/finish (for hot loops) ------------------------

    def start_span(self, name: str, **attrs) -> Span:
        stack = self._stack()
        parent = stack[-1].id if stack else None
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        span = Span(span_id, parent, name, attrs)
        stack.append(span)
        return span

    def end_span(self, span: Span) -> None:
        end = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] is not span:
            top = stack[-1].name if stack else None
            raise RuntimeError(
                f"span {span.name!r} ended out of order "
                f"(top of stack: {top!r})"
            )
        stack.pop()
        record = {
            "kind": "span",
            "id": span.id,
            "parent": span.parent,
            "name": span.name,
            "attrs": span.attrs,
            "error": span.error,
            "start_us": int((span._start - self.epoch) * 1e6),
            "duration_us": int((end - span._start) * 1e6),
        }
        span._record = record
        with self._lock:
            self._records.append(record)

    # -- context-manager form -----------------------------------------

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield None
            return
        span = self.start_span(name, **attrs)
        try:
            yield span
        except BaseException as error:
            span.record_error(error)
            raise
        finally:
            self.end_span(span)

    # -- export / adoption --------------------------------------------

    def export(self) -> "list[dict]":
        """Finished span records, completion order (copies)."""
        with self._lock:
            return [dict(record) for record in self._records]

    def adopt(self, records: "list[dict]") -> None:
        """Splice a child tracer's exported records under the current span.

        Engine cells and kernel shards trace with their own
        :class:`Tracer` on their own threads and return ``export()``;
        the caller adopts each one's records in grid (or shard) order.
        Ids are remapped to fresh sequential ids and roots are
        re-parented onto the caller's current span, so the merged tree
        — ids included — matches what a serial run would produce.  The
        timing fields are kept as they are: a child tracer made with
        this tracer's ``epoch`` measured them on this tracer's clock.
        """
        if not self.enabled or not records:
            return
        current = self.current()
        parent_id = current.id if current is not None else None
        id_map: dict[int, int] = {}
        adopted = []
        with self._lock:
            for record in records:
                new_id = self._next_id
                self._next_id += 1
                id_map[record["id"]] = new_id
                adopted.append({**record, "id": new_id})
            for record in adopted:
                old_parent = record["parent"]
                record["parent"] = (
                    id_map[old_parent]
                    if old_parent in id_map
                    else parent_id
                )
            self._records.extend(adopted)


def write_trace(
    path,
    tracer: Tracer,
    *,
    registry: MetricsRegistry | None = None,
    argv: "list[str] | None" = None,
) -> int:
    """Write header + spans + metrics as JSON Lines; returns span count.

    Every ``json.dumps`` uses ``sort_keys``, so the only bytes that can
    differ between two identical runs live in the timing fields.
    """
    records = tracer.export()
    header = {
        "kind": "header",
        "schema": TRACE_SCHEMA,
        "spans": len(records),
    }
    if argv is not None:
        header["argv"] = list(argv)
    lines = [json.dumps(header, sort_keys=True)]
    lines.extend(json.dumps(record, sort_keys=True) for record in records)
    if registry is not None:
        lines.append(
            json.dumps(
                {
                    "kind": "metrics",
                    **registry.snapshot(histogram_values=False),
                },
                sort_keys=True,
            )
        )
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(records)


def canonical_records(records: "list[dict]") -> "list[dict]":
    """Records with the timing fields removed — the determinism view."""
    return [
        {k: v for k, v in record.items() if k not in TIMING_FIELDS}
        for record in records
    ]


# -- the current tracer: one session stack per thread ----------------

class _Sessions(threading.local):
    """Each thread's stack of session tracers (``__init__`` runs once
    per thread)."""

    def __init__(self) -> None:
        self.tracers: list[Tracer] = []


# what a thread with no open session reports to: disabled, so code
# outside a session pays nothing
_ROOT_TRACER = Tracer(enabled=False)
_sessions = _Sessions()


def get_tracer() -> Tracer:
    """The tracer instrumented code on this thread reports to.

    The innermost :func:`tracing_session` the calling thread opened, else
    the process root (disabled).
    """
    stack = _sessions.tracers
    return stack[-1] if stack else _ROOT_TRACER


@contextmanager
def tracing_session(*, enabled: bool = True, epoch: float | None = None):
    """Install a fresh tracer *and* a fresh default metrics registry.

    ``repro run --trace`` wraps the run in one of these so the exported
    trace covers exactly that invocation: two CLI calls in the same
    process cannot bleed span ids or counter values into each other,
    which is what makes the trace-determinism contract testable.  The
    session belongs to the calling thread: other threads keep reporting
    to their own sessions (an engine cell thread opens one per cell),
    or to the process root.  ``epoch`` is the tracer's (see
    :class:`Tracer`).  Yields ``(tracer, registry)``.
    """
    tracer = Tracer(enabled=enabled, epoch=epoch)
    registry = push_registry()
    stack = _sessions.tracers
    stack.append(tracer)
    try:
        yield tracer, registry
    finally:
        stack.pop()
        pop_registry()
