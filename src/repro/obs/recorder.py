"""Crash flight recorder: the last N spans and events, dumped post-mortem.

A :class:`FlightRecorder` is a bounded ring of structured events —
worker deaths and respawns, WAL torn-tail repairs, threshold crossings,
degrade-to-sync transitions — that the resilience layer records as
they happen.  When something dies (:class:`~repro.sketch.process_pool.
WorkerDied`, :class:`~repro.resilience.wal.WalCorruption`, or an
unclean ``with``-block exit), :class:`~repro.resilience.supervisor.
ShardSupervisor` and :class:`~repro.resilience.durable.DurableSketch`
dump the recorder — events plus the tracer's recent spans — to a
CRC-framed post-mortem file that ``repro-ddos blackbox`` pretty-prints
and diffs.

The dump format is the WAL's record framing (:mod:`repro._framing`),
so a dump written moments before a crash is still readable: a flat
sequence of records, each ``b"FR" | length (4B LE) | crc32 (4B LE) |
JSON payload``.  The first record is a header (version, reason, pid,
counts); a torn or corrupted tail truncates the record list but never
the parse (:func:`load_blackbox` reports ``torn=True``).

Like tracing, recording is process-global and off by default:
:func:`current_recorder` returns :data:`NULL_RECORDER` until
:func:`install_recorder` is called, and the null recorder's
:meth:`~FlightRecorder.record` is a no-op.

Example:
    >>> recorder = FlightRecorder(capacity=8)
    >>> recorder.record("worker_died", shard=2, detail="SIGKILL")
    >>> recorder.events()[0]["kind"]
    'worker_died'
"""

from __future__ import annotations

import json
import os
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Union

from .._framing import frame, parse_frames
from ..exceptions import ParameterError
from .trace import SpanDict, current_tracer

#: One recorded event: ``seq``, ``kind``, plus caller fields.
EventDict = Dict[str, Union[int, str]]

#: Frame magic for post-mortem dump records.
DUMP_MAGIC = b"FR"

#: Dump format version written into every header record.
DUMP_VERSION = 1


def _frame(record: Dict[str, Any]) -> bytes:
    """One dump record: ``record`` as sorted ASCII JSON, framed."""
    payload = json.dumps(record, sort_keys=True).encode("ascii")
    return frame(DUMP_MAGIC, payload)


@dataclass(frozen=True)
class BlackboxDump:
    """A parsed post-mortem dump.

    Attributes:
        header: the dump header record (version, reason, pid, counts).
        events: recorded events, oldest first.
        spans: the tracer's buffered spans at dump time, oldest first.
        torn: ``True`` when the file ended mid-record or failed a CRC —
            the records up to that point are still trustworthy.
    """

    header: Dict[str, Union[int, str]]
    events: List[EventDict]
    spans: List[SpanDict]
    torn: bool

    @property
    def reason(self) -> str:
        """Why the dump was written (``worker-died`` etc.)."""
        return str(self.header.get("reason", "unknown"))


class FlightRecorder:
    """A bounded ring buffer of structured pipeline events.

    Args:
        capacity: events retained; older ones fall off the ring.
    """

    def __init__(self, *, capacity: int = 512) -> None:
        if capacity < 1:
            raise ParameterError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._events: Deque[EventDict] = deque(maxlen=capacity)
        self._seq = 0
        self._dumps = 0

    @property
    def enabled(self) -> bool:
        """Whether this recorder keeps events (``False`` only on the
        null recorder)."""
        return True

    def record(self, kind: str, **fields: Union[int, str]) -> None:
        """Append one event (``kind`` plus integer/string fields)."""
        self._seq += 1
        event: EventDict = {"seq": self._seq, "kind": kind}
        event.update(fields)
        self._events.append(event)

    def events(self) -> List[EventDict]:
        """Recorded events, oldest first (copies; safe to mutate)."""
        return [dict(event) for event in self._events]

    def clear(self) -> None:
        """Drop all buffered events (the sequence counter keeps going)."""
        self._events.clear()

    def __len__(self) -> int:
        return len(self._events)

    # -- post-mortem dumps --------------------------------------------------

    def dump(
        self,
        path: Path,
        *,
        reason: str,
        spans: Optional[List[SpanDict]] = None,
    ) -> Path:
        """Write a CRC-framed post-mortem file and return its path.

        ``spans`` defaults to the process-wide tracer's buffer.  The
        write is a plain sequential append of framed records — no
        rename dance, because a dump races a crash by design; the CRC
        framing makes a torn tail detectable instead.
        """
        if spans is None:
            spans = current_tracer().spans()
        events = self.events()
        self._dumps += 1
        header = {
            "record": "header",
            "version": DUMP_VERSION,
            "reason": reason,
            "pid": os.getpid(),
            "events": len(events),
            "spans": len(spans),
        }
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as handle:
            handle.write(_frame(header))
            for event in events:
                record = {"record": "event"}
                record.update(event)
                handle.write(_frame(record))
            for entry in spans:
                span_record = {"record": "span"}
                span_record.update(entry)
                handle.write(_frame(span_record))
            handle.flush()
        return path

    def next_dump_path(self, directory: Path) -> Path:
        """A fresh dump path under ``directory`` (``blackbox-<pid>-<n>.
        bin``) — deterministic per process, no clock involved."""
        return Path(directory) / f"blackbox-{os.getpid()}-{self._dumps}.bin"

    def __repr__(self) -> str:
        return (
            f"FlightRecorder(capacity={self.capacity}, "
            f"buffered={len(self)})"
        )


class NullFlightRecorder(FlightRecorder):
    """The no-op recorder: records nothing, dumps nothing."""

    @property
    def enabled(self) -> bool:
        """Always ``False``: the null recorder keeps no events."""
        return False

    def record(self, kind: str, **fields: Union[int, str]) -> None:
        """Drop the event."""

    def dump(
        self,
        path: Path,
        *,
        reason: str,
        spans: Optional[List[SpanDict]] = None,
    ) -> Path:
        """Write nothing; returns ``path`` unchanged."""
        return Path(path)


#: The process-wide default recorder (drops everything).
NULL_RECORDER = NullFlightRecorder()

_ACTIVE: FlightRecorder = NULL_RECORDER


def install_recorder(recorder: FlightRecorder) -> FlightRecorder:
    """Make ``recorder`` the process-wide recorder; returns the
    previous one so callers (and tests) can restore it."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = recorder
    return previous


def uninstall_recorder() -> FlightRecorder:
    """Restore the no-op default; returns the recorder that was active."""
    return install_recorder(NULL_RECORDER)


def current_recorder() -> FlightRecorder:
    """The process-wide recorder (:data:`NULL_RECORDER` unless
    installed)."""
    return _ACTIVE


def load_blackbox(path: Path) -> BlackboxDump:
    """Parse a post-mortem dump, verifying each record's CRC.

    Parsing stops at the first missing/mismatched frame (``torn=True``)
    — everything before it is intact.  A file whose *header* record is
    unreadable, or holding an intact record that is not an ASCII JSON
    object, raises :class:`~repro.exceptions.ParameterError`.
    """
    payloads, _, torn = parse_frames(DUMP_MAGIC, Path(path).read_bytes())
    records: List[Dict[str, Union[int, str]]] = []
    for index, payload in enumerate(payloads):
        try:
            record = json.loads(payload.decode("ascii"))
        except ValueError as error:  # UnicodeDecodeError is one too
            raise ParameterError(
                f"{path}: record {index} is not ASCII JSON: {error}"
            ) from error
        if not isinstance(record, dict):
            raise ParameterError(
                f"{path}: record {index} is not a JSON object"
            )
        records.append(record)
    if not records or records[0].get("record") != "header":
        raise ParameterError(f"{path}: not a blackbox dump (no header)")
    header = dict(records[0])
    header.pop("record", None)
    events: List[EventDict] = []
    spans: List[SpanDict] = []
    for record in records[1:]:
        body = dict(record)
        record_kind = body.pop("record", None)
        if record_kind == "event":
            events.append(body)
        elif record_kind == "span":
            spans.append(body)
    return BlackboxDump(header=header, events=events, spans=spans, torn=torn)
