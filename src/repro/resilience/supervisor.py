"""Supervised sharded ingestion: respawn, restore, degrade.

A ``backend="process"`` :class:`~repro.sketch.sharded.ShardedSketch`
loses a shard's entire synopsis if its worker dies mid-stream.  The
supervisor closes that hole with three cooperating mechanisms:

* a single **global WAL** of the routed stream — routing is a
  deterministic function of ``(seq, update)`` (round-robin is
  ``seq % shards``; by-destination is a stateless hash), so any
  shard's sub-stream can be re-derived from the log alone.  Live
  batches and replayed ones go through the same whole-batch router
  (:meth:`~repro.sketch.sharded.ShardedSketch.route`, positioned at
  the batch's first sequence number);
* **per-shard checkpoints** (labels ``shard-0`` … ``shard-N-1``) taken
  from worker snapshots, each manifest recording the global WAL
  position it is aligned to;
* a **respawn loop** with capped exponential backoff: a dead worker is
  replaced, restored from its newest good checkpoint, and fed the
  replayed WAL tail routed to it — bit-identical recovery by the
  Section 3 linearity/delete-imperviousness argument.  After
  ``max_restarts`` consecutive failures on a shard the supervisor
  stops fighting the platform and **degrades to the sync backend**,
  rebuilding every shard in-process from snapshot-or-checkpoint+tail.

Because all durable state lives in the directory, constructing a
supervisor over a *fresh* sharded sketch and an existing directory
recovers the whole deployment — that is what ``repro-ddos recover``
does after a monitor host restart.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Callable, Iterable, List, Optional, Union

from ..exceptions import ParameterError
from ..obs.catalog import WAL_RECORDS_REPLAYED, WORKER_RESTARTS
from ..obs.recorder import current_recorder
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..sketch import serialize
from ..sketch.dcs import encode_batch
from ..sketch.estimate import TopKResult
from ..sketch.process_pool import PoolUnavailable, WorkerDied
from ..sketch.sharded import ShardedSketch
from ..sketch.tracking import TrackingDistinctCountSketch
from ..types import FlowUpdate, cut_stream
from .checkpoint import CheckpointInfo, CheckpointStore
from .durable import CHECKPOINT_SUBDIR, REPLAY_BATCH, WAL_SUBDIR
from .wal import WalCorruption, WriteAheadLog


def _shard_label(index: int) -> str:
    """Checkpoint label of one shard."""
    return f"shard-{index}"


class ShardSupervisor:
    """Crash-safe wrapper around a :class:`ShardedSketch`.

    Args:
        sharded: the sketch bank to supervise.  Pass it *freshly
            constructed*: when ``directory`` already holds state, the
            constructor restores every shard from checkpoint + WAL
            tail before accepting new updates.
        directory: durability directory (``checkpoints/`` + ``wal/``).
        checkpoint_every: automatic checkpoint cadence in updates
            (0 disables; call :meth:`checkpoint` manually or align it
            with epoch rotation — see ``docs/recovery.md``).
        max_restarts: consecutive respawn failures on one shard before
            degrading to the sync backend.
        backoff_base / backoff_cap: capped exponential backoff (in
            seconds) between respawn attempts:
            ``min(cap, base * 2**(attempt-1))``.
        keep_checkpoints: checkpoint generations retained per shard.
        wal_segment_bytes / wal_flush_every / fsync_policy: forwarded
            to :class:`~repro.resilience.wal.WriteAheadLog`.
        obs: optional :class:`~repro.obs.Registry` — respawns count
            under ``repro_worker_restarts_total{shard=...}``, replays
            under ``repro_wal_records_replayed_total``.
        sleep: injectable sleep (tests pass a no-op).
    """

    def __init__(
        self,
        sharded: ShardedSketch,
        directory: Union[str, Path],
        *,
        checkpoint_every: int = 0,
        max_restarts: int = 3,
        backoff_base: float = 0.05,
        backoff_cap: float = 1.0,
        keep_checkpoints: int = 2,
        wal_segment_bytes: int = 1 << 20,
        wal_flush_every: int = 64,
        fsync_policy: str = "batch",
        obs: Optional[Registry] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if checkpoint_every < 0:
            raise ParameterError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if max_restarts < 1:
            raise ParameterError(
                f"max_restarts must be >= 1, got {max_restarts}"
            )
        self.sharded = sharded
        self.directory = Path(directory)
        self.checkpoint_every = checkpoint_every
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self._sleep = sleep
        self.obs: Registry = registry_or_null(obs)
        self.checkpoints = CheckpointStore(
            self.directory / CHECKPOINT_SUBDIR,
            keep=keep_checkpoints,
            obs=obs,
        )
        self.wal = WriteAheadLog(
            self.directory / WAL_SUBDIR,
            segment_bytes=wal_segment_bytes,
            flush_every=wal_flush_every,
            fsync_policy=fsync_policy,
            obs=obs,
        )
        shards = sharded.num_shards
        self._failures = [0] * shards
        self._restart_count = 0
        self._since_checkpoint = 0
        self._closed = False
        restarts = self.obs.counter_from(WORKER_RESTARTS)
        self._obs_restarts = [
            restarts.labels(shard=str(index)) for index in range(shards)
        ]
        self._obs_replayed = self.obs.counter_from(WAL_RECORDS_REPLAYED)
        if self.wal.next_seq > 0 or any(
            self.checkpoints.manifests(_shard_label(index))
            for index in range(shards)
        ):
            try:
                self._recover_all()
            except (OSError, RuntimeError, ValueError):
                # Construction failed after the WAL opened: nobody else
                # holds a reference, so close it here or the segment
                # handle (and its buffered tail) outlives the wreck.
                self.wal.close()
                raise

    # -- ingestion ---------------------------------------------------------------

    def process(self, update: FlowUpdate) -> None:
        """Log and route one update."""
        self.update_batch([update])

    def update_batch(self, updates: Iterable[FlowUpdate]) -> int:
        """Log a batch as one WAL record, then route it shard-by-shard.

        The batch is encoded and validated first, so a malformed update
        raises before anything is logged or routed.  Routing is the
        sharded sketch's whole-batch router positioned at the record's
        first sequence number, one frame per touched shard.  A shard
        whose worker turns out to be dead is recovered inline (respawn
        + checkpoint restore + WAL-tail replay, which includes this
        very batch — already logged); ingestion then continues.
        Returns the number of updates ingested.
        """
        if self._closed:
            raise ParameterError("supervisor is closed")
        batch = list(updates)
        if not batch:
            return 0
        codes, deltas = encode_batch(self.sharded.domain, batch)
        first = self.wal.append_batch(batch)
        frames = self.sharded.route(codes, deltas, first)
        for index, (shard_codes, shard_deltas) in enumerate(frames):
            if not len(shard_codes):
                continue
            self._send(index, shard_codes, shard_deltas)
        self._since_checkpoint += len(batch)
        if (
            self.checkpoint_every
            and self._since_checkpoint >= self.checkpoint_every
        ):
            self.checkpoint()
        return len(batch)

    def process_stream(
        self, updates: Iterable[FlowUpdate], batch_size: int = 1024
    ) -> int:
        """Ingest a whole stream in WAL-record-sized chunks."""
        total = 0
        for chunk in cut_stream(updates, batch_size):
            total += self.update_batch(chunk)
        return total

    def _send(self, index: int, codes: Any, deltas: Any) -> None:
        """Feed one shard its frame, detecting and recovering a dead
        worker."""
        try:
            self.sharded.ingest_frame(index, codes, deltas)
            alive = self.sharded.worker_alive(index)
        except WorkerDied:
            alive = False
        if alive:
            self._failures[index] = 0
        else:
            # The group is already logged; recovery replays it.
            self._recover_shard(index)

    # -- recovery ----------------------------------------------------------------

    def _load_shard_checkpoint(
        self, index: int
    ) -> "tuple[Optional[bytes], int, int]":
        """Newest good checkpoint of a shard: (payload, wal_count,
        routed tally); zeros when none exists."""
        loaded = self.checkpoints.load_latest_payload(_shard_label(index))
        if loaded is None:
            return None, 0, 0
        payload, info = loaded
        return payload, info.wal_count, info.extra.get("routed", 0)

    def _replay_shard(self, index: int, start_seq: int) -> None:
        """Re-apply the WAL tail routed to one shard.

        The log is re-routed in chunks through the same router as live
        ingest, each positioned at its first sequence number, and only
        the shard's frame is applied (through ``ingest_frame``, which
        also counts it in the shard's tally).

        Raises:
            WorkerDied: when the freshly-respawned worker dies again
                mid-replay (the caller retries with backoff).
            WalCorruption: when the replayed sequence numbers have a
                gap (a lost segment): the partition could not be
                re-derived.
        """
        replayed = 0
        sharded = self.sharded
        with trace_span("recovery.replay"):
            for chunk in cut_stream(self.wal.replay(start_seq), REPLAY_BATCH):
                first = chunk[0][0]
                if chunk[-1][0] - first != len(chunk) - 1:
                    raise WalCorruption(
                        f"WAL sequence gap in records {first}..{chunk[-1][0]}"
                    )
                codes, deltas = encode_batch(
                    sharded.domain, [update for _, update in chunk]
                )
                shard_codes, shard_deltas = sharded.route(
                    codes, deltas, first
                )[index]
                replayed += sharded.ingest_frame(
                    index, shard_codes, shard_deltas
                )
        if replayed:
            self._obs_replayed.inc(replayed)

    def _recover_shard(self, index: int) -> None:
        """Respawn + restore + replay one shard, with capped backoff.

        Exhausting ``max_restarts`` consecutive attempts degrades the
        whole bank to the sync backend instead of failing ingestion.
        """
        self.wal.flush()
        # Post-mortem first: the dump captures the event ring and span
        # buffer as they stood when the death was detected, before the
        # respawn loop overwrites the picture.
        recorder = current_recorder()
        recorder.record("worker_died", shard=index)
        recorder.dump(
            recorder.next_dump_path(self.directory / "blackbox"),
            reason="worker-died",
        )
        while True:
            self._failures[index] += 1
            if self._failures[index] > self.max_restarts:
                self._degrade_to_sync()
                return
            delay = min(
                self.backoff_cap,
                self.backoff_base * (2 ** (self._failures[index] - 1)),
            )
            if delay > 0:
                self._sleep(delay)
            self._restart_count += 1
            self._obs_restarts[index].inc()
            recorder.record(
                "worker_respawn",
                shard=index,
                attempt=self._failures[index],
            )
            payload, start, routed = self._load_shard_checkpoint(index)
            try:
                self.sharded.restore_shard(
                    index, payload, processed_count=routed
                )
                self._replay_shard(index, start)
                if self.sharded.worker_alive(index):
                    self._failures[index] = 0
                    return
            except (WorkerDied, PoolUnavailable):
                continue

    def _recover_all(self) -> None:
        """Restore every shard from its checkpoint + WAL tail (used
        when the supervisor itself restarts over existing state)."""
        for index in range(self.sharded.num_shards):
            payload, start, routed = self._load_shard_checkpoint(index)
            try:
                self.sharded.restore_shard(
                    index, payload, processed_count=routed
                )
                self._replay_shard(index, start)
            except (WorkerDied, PoolUnavailable):
                self._recover_shard(index)

    def _degrade_to_sync(self) -> None:
        """Rebuild every shard in-process and abandon the worker pool."""
        current_recorder().record(
            "degrade_to_sync", shards=self.sharded.num_shards
        )
        self.wal.flush()
        shards = self.sharded.num_shards
        payloads: List[Optional[bytes]] = []
        starts: List[int] = []
        routeds: List[int] = []
        for index in range(shards):
            payload: Optional[bytes] = None
            start = 0
            routed = 0
            if self.sharded.backend == "process" and (
                self.sharded.worker_alive(index)
            ):
                try:
                    payload = serialize.dumps(self.sharded.shard(index))
                    start = self.wal.next_seq
                    routed = self.sharded.shard_update_counts()[index]
                except WorkerDied:
                    payload = None
            if payload is None:
                payload, start, routed = self._load_shard_checkpoint(
                    index
                )
            payloads.append(payload)
            starts.append(start)
            routeds.append(routed)
        self.sharded.degrade_to_sync(payloads, routeds)
        for index in range(shards):
            self._replay_shard(index, starts[index])
            self._failures[index] = 0

    # -- durability --------------------------------------------------------------

    def checkpoint(self) -> List[CheckpointInfo]:
        """Checkpoint every shard against one WAL position.

        The WAL is fsynced first; each worker snapshot is taken after
        all its pending ingest (FIFO pipe), so every manifest's
        ``wal_count`` is exact.  Covered WAL segments are pruned.
        """
        self.wal.sync()
        wal_count = self.wal.next_seq
        infos: List[CheckpointInfo] = []
        for index in range(self.sharded.num_shards):
            payload = self._snapshot_shard(index)
            infos.append(
                self.checkpoints.save_payload(
                    payload,
                    wal_count=wal_count,
                    label=_shard_label(index),
                    extra={
                        "routed": self.sharded.shard_update_counts()[index]
                    },
                )
            )
        oldest = [
            manifests[0].wal_count
            for manifests in (
                self.checkpoints.manifests(_shard_label(index))
                for index in range(self.sharded.num_shards)
            )
            if manifests
        ]
        if oldest:
            self.wal.prune(min(oldest))
        self._since_checkpoint = 0
        return infos

    def _snapshot_shard(self, index: int) -> bytes:
        """Serialized current state of one shard, recovering it first
        when its worker is found dead."""
        for _ in range(2):
            try:
                return serialize.dumps(self.sharded.shard(index))
            except WorkerDied:
                self._recover_shard(index)
        # After recovery (possibly degraded to sync) this cannot fail.
        return serialize.dumps(self.sharded.shard(index))

    # -- queries and lifecycle ---------------------------------------------------

    def combined(self) -> TrackingDistinctCountSketch:
        """The merged global sketch (see :meth:`ShardedSketch.combined`),
        recovering any dead worker before merging."""
        if self.sharded.backend == "process":
            for index in range(self.sharded.num_shards):
                if not self.sharded.worker_alive(index):
                    self._recover_shard(index)
        try:
            return self.sharded.combined()
        except WorkerDied as error:
            self._recover_shard(error.shard)
            return self.sharded.combined()

    def track_topk(self, k: int) -> TopKResult:
        """Global top-k over the supervised bank."""
        return self.combined().track_topk(k)

    @property
    def backend(self) -> str:
        """The supervised sketch's resolved backend (may have degraded
        from ``"process"`` to ``"sync"``)."""
        return self.sharded.backend

    @property
    def restarts(self) -> int:
        """Total respawn attempts since construction."""
        return self._restart_count

    def routed_counts(self) -> List[int]:
        """Updates routed per shard since WAL sequence 0 (the sharded
        sketch's tally, which recovery restores from the checkpoints
        and the replayed WAL tail)."""
        return self.sharded.shard_update_counts()

    def close(self) -> None:
        """Flush and close the WAL and shut down workers; idempotent.
        No final checkpoint — reopening replays the WAL tail."""
        if self._closed:
            return
        self._closed = True
        self.wal.close()
        self.sharded.close()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardSupervisor(shards={self.sharded.num_shards}, "
            f"backend={self.backend!r}, wal_seq={self.wal.next_seq})"
        )
