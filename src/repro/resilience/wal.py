"""Segmented write-ahead logging of the flow-update stream.

Durability here leans entirely on the paper's stream semantics: the
sketch is a deterministic, order-invariant, delete-impervious function
of the update multiset (Section 3), so a durable *suffix* of the stream
plus a checkpoint of the synopsis state at the suffix's start
reconstructs the exact sketch — bit-identical, not approximately.

The log is a directory of append-only segment files.  Each record
frames one appended batch:

``RW | length (4B LE) | crc32 (4B LE) | payload``

where the payload is compact ASCII JSON ``[first_seq, [[source, dest,
delta], ...]]``.  Every update carries an implicit monotone sequence
number (its position in the log); checkpoint manifests reference these
sequence numbers, and recovery replays everything at or beyond the
checkpoint's ``wal_count``.

Crash behaviour:

* a **torn tail** (process died mid-write) is expected: replay stops at
  the first bad record of the *final* segment, and the next writer
  truncates the tail back to the last good byte before appending;
* corruption anywhere *before* the final segment is not a crash
  artifact and raises :class:`WalCorruption`.

Flushing is batched (``flush_every`` updates per ``flush()``); fsync is
policy-driven (``"always"`` / ``"batch"`` / ``"never"``) because the
durability-vs-throughput trade-off is an operator decision — see
``docs/recovery.md``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Iterable, Iterator, List, Optional, Sequence, Tuple

from .._framing import HEADER_BYTES, frame, parse_frames
from ..exceptions import ParameterError, ReproError
from ..obs.catalog import WAL_RECORDS
from ..obs.recorder import current_recorder
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..types import FlowUpdate

#: Two-byte magic prefix of every WAL record.
RECORD_MAGIC = b"RW"

#: Valid ``fsync_policy`` values.
FSYNC_POLICIES = ("always", "batch", "never")

#: Segment file name pattern: first sequence number, zero-padded.
SEGMENT_PATTERN = "wal-{:020d}.seg"


class WalCorruption(ReproError, RuntimeError):
    """A WAL record failed its frame or CRC check before the log tail,
    or a CRC-valid record holds a malformed payload."""


def _encode_record(first_seq: int, updates: Sequence[FlowUpdate]) -> bytes:
    """Frame one batch of updates as a WAL record."""
    payload = json.dumps(
        [first_seq, [[u.source, u.dest, u.delta] for u in updates]],
        separators=(",", ":"),
    ).encode("ascii")
    return frame(RECORD_MAGIC, payload)


def _logged_update(source: Any, dest: Any, delta: Any) -> FlowUpdate:
    """One decoded update triple, checked before it is built.

    Addresses must be plain non-negative ``int`` and the delta the
    ``int`` +1 or -1 (``type`` rather than ``isinstance``: JSON's
    true/false load as bools).

    Raises:
        WalCorruption: for any other triple.
    """
    if (
        {type(source), type(dest), type(delta)} != {int}
        or source < 0
        or dest < 0
        or delta not in (1, -1)
    ):
        raise WalCorruption(
            f"CRC-valid record with malformed update {[source, dest, delta]!r}"
        )
    return FlowUpdate(source, dest, delta)


def _decode_records(
    data: bytes,
) -> Tuple[List[Tuple[int, List[FlowUpdate]]], int, bool]:
    """Parse a segment's bytes.

    Returns ``(records, good_bytes, torn)`` where ``records`` is a list
    of ``(first_seq, updates)`` batches, ``good_bytes`` is the offset of
    the first undecodable byte, and ``torn`` reports whether trailing
    bytes were left undecoded.

    Raises:
        WalCorruption: for an intact (CRC-valid) record whose payload
            is not ``[first_seq, [[source, dest, delta], ...]]`` with a
            non-negative integer ``first_seq``, non-negative integer
            addresses and a delta of +1 or -1.
    """
    payloads, good_bytes, torn = parse_frames(RECORD_MAGIC, data)
    records: List[Tuple[int, List[FlowUpdate]]] = []
    for payload in payloads:
        try:
            first_seq, triples = json.loads(payload.decode("ascii"))
            batch = [_logged_update(*triple) for triple in triples]
        except (ValueError, TypeError) as error:
            raise WalCorruption(
                f"CRC-valid record with malformed payload: {error}"
            ) from error
        # type() rather than isinstance: JSON's true/false load as bools.
        if type(first_seq) is not int or first_seq < 0:
            raise WalCorruption(
                "CRC-valid record with malformed sequence number "
                f"{first_seq!r}"
            )
        records.append((first_seq, batch))
    return records, good_bytes, torn


def _segment_paths(directory: Path) -> List[Path]:
    """All segment files in the directory, in sequence order."""
    return sorted(directory.glob("wal-*.seg"))


def replay_wal(
    directory: Path, start_seq: int = 0
) -> Iterator[Tuple[int, FlowUpdate]]:
    """Yield ``(seq, update)`` for every logged update with
    ``seq >= start_seq``.

    Tolerates a torn tail in the final segment (replay simply stops
    there); a bad record in any earlier segment raises
    :class:`WalCorruption`, because a non-tail hole would silently
    desynchronise the recovered sketch from the stream.
    """
    paths = _segment_paths(Path(directory))
    for position, path in enumerate(paths):
        records, good_bytes, torn = _decode_records(path.read_bytes())
        if torn and position != len(paths) - 1:
            raise WalCorruption(
                f"{path.name}: undecodable record at byte {good_bytes} "
                "before the log tail"
            )
        for first_seq, batch in records:
            for index, update in enumerate(batch):
                seq = first_seq + index
                if seq >= start_seq:
                    yield seq, update


class WriteAheadLog:
    """Append-only, segmented log of flow updates.

    Args:
        directory: segment directory (created if absent).
        segment_bytes: rotate to a fresh segment once the current one
            reaches this size.
        flush_every: buffered updates that trigger an automatic
            :meth:`flush` (1 flushes every append).
        fsync_policy: ``"always"`` fsyncs on every flush (strongest
            durability, slowest), ``"batch"`` fsyncs only on
            :meth:`sync` / rotation / :meth:`close` (the default:
            crash-consistent, may lose the OS-buffered tail on power
            loss), ``"never"`` leaves fsync to the OS entirely.
        obs: optional :class:`~repro.obs.Registry`; appended updates
            count under ``repro_wal_records_total``.

    Reopening an existing directory repairs any torn tail (truncating
    the final segment to its last good record) and continues the
    sequence numbering where the log left off.
    """

    def __init__(
        self,
        directory: Path,
        *,
        segment_bytes: int = 1 << 20,
        flush_every: int = 64,
        fsync_policy: str = "batch",
        obs: Optional[Registry] = None,
    ) -> None:
        if segment_bytes < HEADER_BYTES + 2:
            raise ParameterError(
                f"segment_bytes must be >= {HEADER_BYTES + 2}, "
                f"got {segment_bytes}"
            )
        if flush_every < 1:
            raise ParameterError(
                f"flush_every must be >= 1, got {flush_every}"
            )
        if fsync_policy not in FSYNC_POLICIES:
            raise ParameterError(
                f"fsync_policy must be one of {FSYNC_POLICIES}, "
                f"got {fsync_policy!r}"
            )
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = segment_bytes
        self.flush_every = flush_every
        self.fsync_policy = fsync_policy
        self.obs: Registry = registry_or_null(obs)
        self._obs_records = self.obs.counter_from(WAL_RECORDS)
        self._next_seq = self._repair_and_scan()
        self._pending: List[bytes] = []
        self._pending_updates = 0
        self._segment_path: Optional[Path] = None
        self._segment_size = 0
        self._closed = False

    def _repair_and_scan(self) -> int:
        """Truncate any torn tail; return the next sequence number."""
        next_seq = 0
        paths = _segment_paths(self.directory)
        for position, path in enumerate(paths):
            data = path.read_bytes()
            records, good_bytes, torn = _decode_records(data)
            if torn:
                if position != len(paths) - 1:
                    raise WalCorruption(
                        f"{path.name}: undecodable record at byte "
                        f"{good_bytes} before the log tail"
                    )
                current_recorder().record(
                    "wal_repair",
                    segment=path.name,
                    truncated_to=good_bytes,
                    dropped_bytes=len(data) - good_bytes,
                )
                with path.open("r+b") as handle:
                    handle.truncate(good_bytes)
            for first_seq, batch in records:
                next_seq = max(next_seq, first_seq + len(batch))
        return next_seq

    # -- appending ---------------------------------------------------------------

    @property
    def next_seq(self) -> int:
        """Sequence number the next appended update will receive."""
        return self._next_seq

    def append(self, update: FlowUpdate) -> int:
        """Append one update; returns its sequence number."""
        return self.append_batch([update])

    def append_batch(self, updates: Iterable[FlowUpdate]) -> int:
        """Append a batch as one record; returns the first sequence
        number (``next_seq`` unchanged when the batch is empty)."""
        if self._closed:
            raise ParameterError("write-ahead log is closed")
        batch = list(updates)
        first_seq = self._next_seq
        if not batch:
            return first_seq
        with trace_span("wal.append"):
            self._pending.append(_encode_record(first_seq, batch))
            self._pending_updates += len(batch)
            self._next_seq += len(batch)
            self._obs_records.inc(len(batch))
            if self._pending_updates >= self.flush_every:
                self.flush()
        return first_seq

    def flush(self, sync: Optional[bool] = None) -> None:
        """Write buffered records to the current segment.

        ``sync`` forces (or suppresses) an fsync regardless of the
        configured policy; ``None`` follows the policy.
        """
        if not self._pending:
            if sync:
                self.sync()
            return
        data = b"".join(self._pending)
        first_unwritten = self._next_seq - self._pending_updates
        self._pending = []
        self._pending_updates = 0
        if self._segment_path is None:
            self._segment_path = self.directory / SEGMENT_PATTERN.format(
                first_unwritten
            )
            self._segment_size = 0
        path = self._segment_path
        with path.open("ab") as handle:
            handle.write(data)
            do_sync = (
                sync if sync is not None else self.fsync_policy == "always"
            )
            if do_sync:
                with trace_span("wal.fsync"):
                    handle.flush()
                    os.fsync(handle.fileno())
        self._segment_size += len(data)
        if self._segment_size >= self.segment_bytes:
            self._rotate()

    def sync(self) -> None:
        """Flush buffered records and fsync the current segment."""
        if self._pending:
            self.flush(sync=True)
            return
        if self._segment_path is not None and self._segment_path.exists():
            with self._segment_path.open("ab") as handle:
                with trace_span("wal.fsync"):
                    handle.flush()
                    os.fsync(handle.fileno())

    def _rotate(self) -> None:
        """Seal the current segment (fsync unless ``never``) and start
        a new one on the next flush."""
        if self._segment_path is not None and self.fsync_policy != "never":
            with self._segment_path.open("ab") as handle:
                with trace_span("wal.fsync"):
                    handle.flush()
                    os.fsync(handle.fileno())
        self._segment_path = None
        self._segment_size = 0

    # -- reading and pruning -----------------------------------------------------

    def replay(self, start_seq: int = 0) -> Iterator[Tuple[int, FlowUpdate]]:
        """Yield ``(seq, update)`` for logged updates with
        ``seq >= start_seq`` (buffered records are flushed first)."""
        self.flush()
        return replay_wal(self.directory, start_seq)

    def prune(self, upto_seq: int) -> int:
        """Delete segments whose every record precedes ``upto_seq``.

        The active (final) segment is never deleted.  Returns the
        number of segments removed.
        """
        self.flush()
        paths = _segment_paths(self.directory)
        removed = 0
        # A segment's records end where the next segment begins.
        for path, successor in zip(paths, paths[1:]):
            boundary = int(successor.stem.split("-")[1])
            if boundary <= upto_seq and path != self._segment_path:
                path.unlink()
                removed += 1
        return removed

    def segment_count(self) -> int:
        """Number of segment files currently on disk."""
        return len(_segment_paths(self.directory))

    def close(self) -> None:
        """Flush (and, unless ``fsync_policy="never"``, fsync) and
        refuse further appends; idempotent."""
        if self._closed:
            return
        self.flush(sync=self.fsync_policy != "never")
        self._closed = True

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog(next_seq={self._next_seq}, "
            f"segments={self.segment_count()}, "
            f"fsync={self.fsync_policy!r})"
        )
