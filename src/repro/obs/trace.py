"""Span tracing: where a batch, an epoch, or a recovery spent its time.

The metrics layer (:mod:`repro.obs.registry`) answers *how many*; this
module answers *where*.  A :class:`Tracer` records named spans — scoped
intervals with explicit parent/child structure — through the whole
pipeline: batch ingest, bulk hashing, the slab fold, shard pipe hops,
WAL appends and fsyncs, checkpoint writes, recovery replay, the slab
query sweep, and monitor epoch rotation.  Every instrumentation point
in the library uses a name from :data:`SPAN_NAMES`, which is checked
against ``docs/observability.md`` by ``tools/check_obs_docs.py``.

Design rules, matching the rest of ``repro.obs``:

* **Integer clock.** Timestamps are ``time.monotonic_ns()`` integers —
  never wall-clock dates.  This module is the telemetry boundary that
  reprolint RL003 allowlists; algorithm modules call :func:`span` and
  stay clock-free themselves.
* **Off by default, ~free when off.** The process-wide default is
  :data:`NULL_TRACER`; :func:`span` then returns a shared no-op context
  manager, so uninstrumented runs pay one method call per site (the
  trace bench gates < 5% overhead at 1% sampling on the fig9 path).
* **Head sampling.** ``sample_every=n`` records one in ``n`` *root*
  spans; a sampled root records its entire subtree and a skipped root
  suppresses it, so recorded traces are always coherent trees.
* **Per-process buffers.** Each process (parent and every shard
  worker) buffers its own spans in a bounded ring; worker buffers
  travel over the ``process_pool`` pipe protocol and merge via
  :meth:`Tracer.extend` — span identity is ``(pid, span_id)``.

Example:
    >>> tracer = Tracer(sample_every=1, capacity=16)
    >>> with tracer.span("sketch.update_batch"):
    ...     with tracer.span("sketch.scatter"):
    ...         pass
    >>> [s["name"] for s in tracer.spans()]
    ['sketch.scatter', 'sketch.update_batch']
    >>> tracer.spans()[0]["parent"] == tracer.spans()[1]["id"]
    True
"""

from __future__ import annotations

import os
import time
from collections import deque
from types import TracebackType
from typing import Deque, Dict, Iterable, List, Optional, Type, Union

from ..exceptions import ParameterError
from .catalog import MetricSpec
from .instruments import Histogram
from .registry import Registry, registry_or_null

#: One exported span: ``name``, ``id``, ``parent`` (0 for roots),
#: ``pid``, ``start_ns`` (monotonic), ``dur_ns``.
SpanDict = Dict[str, Union[int, str]]

#: Every span name the library emits, sorted.  Instrumentation sites
#: must use names from this tuple (``tools/check_obs_docs.py`` checks
#: both directions against the docs), mirroring how metric names are
#: pinned by :data:`repro.obs.catalog.CATALOG`.
SPAN_NAMES = (
    "arena.decode_slab",
    "checkpoint.write",
    "monitor.window_advance",
    "recovery.replay",
    "sharded.delta_sync",
    "sharded.pipe_recv",
    "sharded.pipe_send",
    "sketch.base_topk",
    "sketch.dsample_sweep",
    "sketch.hash_bulk",
    "sketch.scatter",
    "sketch.update_batch",
    "wal.append",
    "wal.fsync",
    "worker.ingest",
)


class _NullSpan:
    """The shared no-op span: enters and exits without recording."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        return False


#: Shared no-op span (what :data:`NULL_TRACER` and unsampled subtrees
#: hand back); safe to enter reentrantly from anywhere.
NULL_SPAN = _NullSpan()

#: What :meth:`Tracer.span` can hand back: a recording span, the
#: suppression placeholder under an unsampled root, or the shared
#: no-op span from the null tracer.
AnySpan = Union["Span", "_SuppressedSpan", _NullSpan]


class _SuppressedSpan:
    """Span handed out under an unsampled root: keeps depth so nested
    calls don't masquerade as fresh roots, records nothing."""

    __slots__ = ("_tracer",)

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer

    def __enter__(self) -> "_SuppressedSpan":
        self._tracer._suppressed += 1
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        self._tracer._suppressed -= 1
        return False


class Span:
    """One live span; finishes (and is buffered) when its ``with``
    block exits.  Created by :meth:`Tracer.span`, never directly."""

    __slots__ = ("name", "span_id", "parent_id", "start_ns", "_tracer", "_metric")

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        span_id: int,
        parent_id: int,
        metric: Optional[MetricSpec],
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start_ns = 0
        self._metric = metric

    def __enter__(self) -> "Span":
        tracer = self._tracer
        tracer._stack.append(self.span_id)
        self.start_ns = tracer._clock()
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> bool:
        tracer = self._tracer
        end_ns = tracer._clock()
        tracer._stack.pop()
        tracer._finish(self, end_ns)
        return False


class Tracer:
    """A bounded per-process buffer of sampled spans.

    Args:
        sample_every: record one in this many root spans (``1`` =
            record everything; ``100`` = 1% head sampling).  A skipped
            root suppresses its whole subtree, so buffered traces are
            always complete trees.
        capacity: ring-buffer size; oldest finished spans fall off.
        obs: optional :class:`~repro.obs.Registry` — spans created with
            a ``metric=`` spec (e.g. the slab-sweep latency histogram)
            observe their duration in microseconds into it on finish.
    """

    def __init__(
        self,
        *,
        sample_every: int = 1,
        capacity: int = 4096,
        obs: Optional[Registry] = None,
    ) -> None:
        if sample_every < 1:
            raise ParameterError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.sample_every = sample_every
        self.capacity = capacity
        self.obs: Registry = registry_or_null(obs)
        self._clock = time.monotonic_ns
        self._buffer: Deque[SpanDict] = deque(maxlen=capacity)
        self._stack: List[int] = []
        self._suppressed = 0
        self._suppressed_span = _SuppressedSpan(self)
        self._roots = 0
        self._next_id = 1
        self._pid = os.getpid()
        self._histograms: Dict[str, Histogram] = {}

    @property
    def enabled(self) -> bool:
        """Whether this tracer records anything (``False`` on the null
        tracer only)."""
        return True

    def span(
        self, name: str, metric: Optional[MetricSpec] = None
    ) -> AnySpan:
        """A context manager timing one named interval.

        Inside a sampled root every nested call records a child span
        (parent ids link them); at the top level the head-sampling
        decision is made.  ``metric`` optionally names a catalogue
        histogram that receives the span's duration (µs) on finish.
        """
        if self._suppressed:
            return self._suppressed_span
        if not self._stack:
            sampled = self._roots % self.sample_every == 0
            self._roots += 1
            if not sampled:
                return self._suppressed_span
        span_id = self._next_id
        self._next_id += 1
        parent_id = self._stack[-1] if self._stack else 0
        return Span(self, name, span_id, parent_id, metric)

    def _finish(self, span: Span, end_ns: int) -> None:
        self._buffer.append(
            {
                "name": span.name,
                "id": span.span_id,
                "parent": span.parent_id,
                "pid": self._pid,
                "start_ns": span.start_ns,
                "dur_ns": end_ns - span.start_ns,
            }
        )
        if span._metric is not None:
            histogram = self._histograms.get(span._metric.name)
            if histogram is None:
                histogram = self.obs.histogram_from(span._metric)
                self._histograms[span._metric.name] = histogram
            histogram.observe((end_ns - span.start_ns) // 1000)

    # -- buffer access ------------------------------------------------------

    def spans(self) -> List[SpanDict]:
        """Finished spans, oldest first (copies; safe to mutate)."""
        return [dict(entry) for entry in self._buffer]

    def drain(self) -> List[SpanDict]:
        """Return and clear the buffer (workers ship drained buffers
        over the shard pipe; the parent merges with :meth:`extend`)."""
        out = [dict(entry) for entry in self._buffer]
        self._buffer.clear()
        return out

    def extend(self, spans: Iterable[SpanDict]) -> None:
        """Merge externally recorded spans (e.g. a worker's drained
        buffer) into this buffer.  Span identity is ``(pid, id)``, so
        ids from other processes cannot collide with local ones."""
        for entry in spans:
            self._buffer.append(dict(entry))

    def clear(self) -> None:
        """Drop all buffered spans."""
        self._buffer.clear()

    def __len__(self) -> int:
        return len(self._buffer)

    def __repr__(self) -> str:
        return (
            f"Tracer(sample_every={self.sample_every}, "
            f"capacity={self.capacity}, buffered={len(self)})"
        )


class NullTracer(Tracer):
    """The no-op tracer: every span is the shared null span, nothing
    is buffered, merges are dropped.  The process-wide default."""

    @property
    def enabled(self) -> bool:
        """Always ``False``: the null tracer records nothing."""
        return False

    def span(
        self, name: str, metric: Optional[MetricSpec] = None
    ) -> AnySpan:
        """Return the shared no-op span."""
        return NULL_SPAN

    def extend(self, spans: Iterable[SpanDict]) -> None:
        """Drop external spans."""

    def _finish(self, span: Span, end_ns: int) -> None:
        raise AssertionError("null tracer never finishes spans")


#: The process-wide default tracer (records nothing).
NULL_TRACER = NullTracer()

_ACTIVE: Tracer = NULL_TRACER


def install_tracer(tracer: Tracer) -> Tracer:
    """Make ``tracer`` the process-wide tracer; returns the previous
    one so callers (and tests) can restore it.

    Components read the active tracer *at call time* through
    :func:`span`, so installation takes effect immediately — but shard
    worker processes inherit tracing only if the pool is built while a
    tracer is installed (the sampling rate ships with the spawn args).
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def uninstall_tracer() -> Tracer:
    """Restore the no-op default; returns the tracer that was active."""
    return install_tracer(NULL_TRACER)


def current_tracer() -> Tracer:
    """The process-wide tracer (:data:`NULL_TRACER` unless installed)."""
    return _ACTIVE


def span(name: str, metric: Optional[MetricSpec] = None) -> AnySpan:
    """Open a span on the process-wide tracer (library call sites use
    this; it is a shared no-op unless a tracer is installed)."""
    return _ACTIVE.span(name, metric)
