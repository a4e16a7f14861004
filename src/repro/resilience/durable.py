"""Crash-safe sketch ingestion: checkpoint + WAL-tail recovery.

The recovery identity this module packages (and the chaos suite
asserts) is a direct corollary of Section 3: the sketch is a linear,
order-invariant, delete-impervious function of the update multiset, so

    load(checkpoint at wal_count = C)  +  replay(WAL records seq >= C)

is *bit-identical* — ``structurally_equal``, same top-k — to a sketch
that processed the whole stream uninterrupted.  No other summary
structure gets this for free; sliding-window and burst monitors
(Memento, ALBUS) lean on the same replay-the-suffix trick for
long-lived deployments.

:class:`DurableSketch` is the single-process packaging: open a
directory, and you either get a fresh sketch (first run) or the exact
pre-crash state (checkpoint + replayed tail).  Sharded deployments get
the same via :class:`~repro.resilience.supervisor.ShardSupervisor`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Optional, Union

from ..exceptions import ParameterError
from ..obs.catalog import WAL_RECORDS_REPLAYED
from ..obs.recorder import current_recorder
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..sketch import serialize
from ..sketch.dcs import DistinctCountSketch
from ..sketch.params import SketchParams
from ..sketch.tracking import TrackingDistinctCountSketch
from ..types import AddressDomain, FlowUpdate, cut_stream
from .checkpoint import CheckpointInfo, CheckpointStore
from .wal import WalCorruption, WriteAheadLog

#: Subdirectory of a durability directory holding checkpoints.
CHECKPOINT_SUBDIR = "checkpoints"

#: Subdirectory of a durability directory holding WAL segments.
WAL_SUBDIR = "wal"

#: Updates replayed per ``update_batch`` call during recovery.
REPLAY_BATCH = 1024


@dataclass(frozen=True)
class RecoveryResult:
    """Outcome of one checkpoint-plus-WAL-tail recovery.

    Attributes:
        sketch: the reconstructed sketch.
        checkpoint: the manifest the recovery started from, or ``None``
            when no usable checkpoint existed (pure WAL replay).
        records_replayed: WAL updates re-applied on top.
        wal_count: WAL position the sketch now reflects.
    """

    sketch: serialize.AnySketch
    checkpoint: Optional[CheckpointInfo]
    records_replayed: int
    wal_count: int


def replay_into(
    sketch: serialize.AnySketch,
    wal: WriteAheadLog,
    start_seq: int,
    *,
    obs: Optional[Registry] = None,
) -> int:
    """Re-apply WAL updates with ``seq >= start_seq`` to a sketch.

    Batches the replay through ``update_batch`` and counts it under
    ``repro_wal_records_replayed_total``.  Returns the number of
    updates applied.
    """
    counter = registry_or_null(obs).counter_from(WAL_RECORDS_REPLAYED)
    with trace_span("recovery.replay"):
        replayed = sketch.process_stream(
            (update for _, update in wal.replay(start_seq)), REPLAY_BATCH
        )
    if replayed:
        counter.inc(replayed)
    return replayed


def recover_sketch(
    directory: Path,
    *,
    label: str = "sketch",
    backend: str = "packed",
    obs: Optional[Registry] = None,
) -> RecoveryResult:
    """Reconstruct a sketch from a durability directory.

    Loads the newest CRC-valid checkpoint for ``label`` (falling back
    to older generations past corruption) and replays the WAL tail.
    Raises :class:`~repro.exceptions.ParameterError` when the directory
    holds no usable checkpoint — without one the sketch parameters are
    unknown (use :class:`DurableSketch` with explicit params instead).
    """
    directory = Path(directory)
    store = CheckpointStore(directory / CHECKPOINT_SUBDIR, obs=obs)
    loaded = store.load_latest(label, backend=backend)
    if loaded is None:
        raise ParameterError(
            f"no usable checkpoint for label {label!r} under {directory}"
        )
    sketch, info = loaded
    wal = WriteAheadLog(directory / WAL_SUBDIR, obs=obs)
    try:
        replayed = replay_into(sketch, wal, info.wal_count, obs=obs)
    finally:
        wal.close()
    return RecoveryResult(
        sketch=sketch,
        checkpoint=info,
        records_replayed=replayed,
        wal_count=info.wal_count + replayed,
    )


class DurableSketch:
    """A sketch whose ingestion survives process death.

    Opening a directory either creates a fresh sketch (writing an
    initial checkpoint so later recoveries never need parameters) or
    recovers the pre-crash state exactly.  Every ingested update is
    framed into the write-ahead log *before* it is applied; periodic
    :meth:`checkpoint` calls bound the replay tail and prune the log.

    Args:
        directory: durability directory (``checkpoints/`` + ``wal/``).
        params: sketch shape (or an :class:`AddressDomain`) — required
            on first open, ignored when recovering.
        kind: ``"tracking"`` (default) or ``"basic"`` — which sketch
            class a fresh open builds.
        seed, r, s: fresh-sketch parameters (ignored when recovering).
        backend: storage backend of the (fresh or restored) sketch.
        checkpoint_every: automatic checkpoint cadence in updates
            (0 disables; call :meth:`checkpoint` manually).
        keep_checkpoints: checkpoint generations retained for fallback.
        wal_segment_bytes / wal_flush_every / fsync_policy: forwarded
            to :class:`~repro.resilience.wal.WriteAheadLog`.
        obs: optional :class:`~repro.obs.Registry` for the durability
            metrics (checkpoint duration/bytes, WAL appended/replayed).
            The *recovered* sketch itself is uninstrumented — sketch
            instruments bind at construction, which recovery bypasses.

    Example:
        >>> import tempfile
        >>> from repro.types import AddressDomain, FlowUpdate
        >>> root = tempfile.mkdtemp()
        >>> with DurableSketch(root, AddressDomain(2 ** 16)) as durable:
        ...     for source in range(100):
        ...         durable.process(FlowUpdate(source, 7, 1))
        ...     _ = durable.checkpoint()
        >>> DurableSketch(root).sketch.track_topk(1).destinations
        [7]
    """

    def __init__(
        self,
        directory: Union[str, Path],
        params: Union[SketchParams, AddressDomain, None] = None,
        *,
        kind: str = "tracking",
        seed: int = 0,
        r: int = 3,
        s: int = 128,
        backend: str = "packed",
        checkpoint_every: int = 0,
        keep_checkpoints: int = 2,
        wal_segment_bytes: int = 1 << 20,
        wal_flush_every: int = 64,
        fsync_policy: str = "batch",
        obs: Optional[Registry] = None,
    ) -> None:
        if kind not in ("tracking", "basic"):
            raise ParameterError(
                f"kind must be 'tracking' or 'basic', got {kind!r}"
            )
        if checkpoint_every < 0:
            raise ParameterError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        self.directory = Path(directory)
        self.label = "sketch"
        self.checkpoint_every = checkpoint_every
        self.obs: Registry = registry_or_null(obs)
        self.checkpoints = CheckpointStore(
            self.directory / CHECKPOINT_SUBDIR,
            keep=keep_checkpoints,
            obs=obs,
        )
        #: Manifest recovery started from (None on a fresh open).
        self.recovered_from: Optional[CheckpointInfo] = None
        #: WAL updates re-applied while opening.
        self.records_replayed = 0
        try:
            self.wal = WriteAheadLog(
                self.directory / WAL_SUBDIR,
                segment_bytes=wal_segment_bytes,
                flush_every=wal_flush_every,
                fsync_policy=fsync_policy,
                obs=obs,
            )
            loaded = self.checkpoints.load_latest(
                self.label, backend=backend
            )
            if loaded is not None:
                self.sketch, self.recovered_from = loaded
                start = self.recovered_from.wal_count
            else:
                if params is None:
                    raise ParameterError(
                        "params are required on first open (no checkpoint "
                        f"found under {self.directory})"
                    )
                cls = (
                    TrackingDistinctCountSketch
                    if kind == "tracking"
                    else DistinctCountSketch
                )
                self.sketch = cls(
                    params, r=r, s=s, seed=seed, backend=backend
                )
                start = 0
            self.records_replayed = replay_into(
                self.sketch, self.wal, start, obs=obs
            )
        except WalCorruption as error:
            # Record and dump the flight recorder, then re-raise: a
            # non-tail WAL hole is unrecoverable data loss, never
            # swallowed — but the post-mortem preserves what led up
            # to it.
            current_recorder().record("wal_corruption", detail=str(error))
            self._dump_blackbox("wal-corruption")
            raise
        self._since_checkpoint = 0
        self._closed = False
        if loaded is None:
            # Initial checkpoint: later recoveries never need params.
            self.checkpoint()

    @property
    def recovered(self) -> bool:
        """True when opening restored state (checkpoint or WAL tail)."""
        return self.recovered_from is not None or self.records_replayed > 0

    # -- ingestion (write-ahead) -------------------------------------------------

    def process(self, update: FlowUpdate) -> None:
        """Log one update, then apply it to the sketch."""
        self.wal.append(update)
        self.sketch.process(update)
        self._bump(1)

    def update_batch(self, updates: Iterable[FlowUpdate]) -> int:
        """Log a batch as one WAL record, then apply it; returns the
        number of updates ingested."""
        batch = list(updates)
        if not batch:
            return 0
        self.wal.append_batch(batch)
        self.sketch.update_batch(batch)
        self._bump(len(batch))
        return len(batch)

    def process_stream(
        self, updates: Iterable[FlowUpdate], batch_size: int = 1024
    ) -> int:
        """Ingest a whole stream; returns the update count.

        Chunks of ``batch_size`` ride through :meth:`update_batch`
        (one WAL record per chunk), so automatic checkpoints land
        within one chunk of each ``checkpoint_every`` multiple.
        """
        total = 0
        for chunk in cut_stream(updates, batch_size):
            total += self.update_batch(chunk)
        return total

    def _bump(self, count: int) -> None:
        self._since_checkpoint += count
        if (
            self.checkpoint_every
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()

    # -- durability --------------------------------------------------------------

    def checkpoint(self) -> CheckpointInfo:
        """Write a checkpoint generation and prune the covered WAL.

        The WAL is fsynced first so the manifest's ``wal_count`` can
        never reference records that might not survive a crash.
        """
        self.wal.sync()
        info = self.checkpoints.save(
            self.sketch, wal_count=self.wal.next_seq, label=self.label
        )
        retained = self.checkpoints.manifests(self.label)
        if retained:
            self.wal.prune(retained[0].wal_count)
        self._since_checkpoint = 0
        return info

    def _dump_blackbox(self, reason: str) -> Path:
        """Dump the installed flight recorder next to the WAL (a no-op
        path when only the null recorder is installed)."""
        recorder = current_recorder()
        return recorder.dump(
            recorder.next_dump_path(self.directory / "blackbox"),
            reason=reason,
        )

    def close(self) -> None:
        """Flush and close the WAL; idempotent.  Does not checkpoint —
        a clean shutdown recovers via WAL replay alone."""
        if self._closed:
            return
        self._closed = True
        self.wal.close()

    def __enter__(self) -> "DurableSketch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        exc_type = exc_info[0] if exc_info else None
        if exc_type is not None and not self._closed:
            # Unclean exit: preserve the recorder's view before the
            # exception propagates (the WAL still closes cleanly below).
            current_recorder().record(
                "unclean_exit",
                error=getattr(exc_type, "__name__", str(exc_type)),
            )
            self._dump_blackbox("unclean-exit")
        self.close()

    def __repr__(self) -> str:
        return (
            f"DurableSketch({str(self.directory)!r}, "
            f"wal_seq={self.wal.next_seq}, "
            f"recovered={self.recovered})"
        )
