"""Sharded ingestion: scaling the monitor across workers.

At ISP volumes ("AT&T's IP backbone alone generates 500 GBytes of
NetFlow data per day", Section 2), one ingestion thread is not enough.
Because the sketch is a linear transform of the update multiset, the
stream can be *partitioned arbitrarily* across workers, each feeding a
private sketch, with the global answer obtained by merging — no
coordination, no locks, and bit-exact equivalence to a single sketch.

:class:`ShardedSketch` packages that pattern with two partition
policies:

* ``round-robin`` — maximal balance, any update anywhere (valid
  because of linearity);
* ``by-destination`` — all updates of a destination on one shard, the
  policy a real multi-process deployment would use so per-shard answers
  are themselves meaningful.

and two execution backends:

* ``sync`` — shard sketches live in-process and are updated inline
  (Python threads would serialize on the GIL anyway; this backend is
  about partition/merge correctness);
* ``process`` — each shard is a worker process holding a private
  packed sketch (:mod:`repro.sketch.process_pool`), fed one frame of
  raw int64 pair codes and deltas per batch over its pipe.  If a pool
  cannot be started on the platform the sketch silently degrades to
  ``sync`` (check the resolved :attr:`backend` attribute).

Routing works on whole arrays: a batch is encoded and validated once
(:func:`~repro.sketch.dcs.encode_batch`, so a malformed update raises
before any shard moves), every update's shard is computed at once
(:meth:`ShardedSketch.route`), and one stable sort splits the batch
into one ``(pair codes, deltas)`` frame per shard.

The process backend syncs shard state by delta: workers track the
buckets touched since the last sync and ship only those signed counter
deltas; the parent folds them into a *running* combined sketch by
addition (linearity), making :meth:`combined` O(changed buckets)
between queries.  Epoch-tagged replies detect missed syncs and trigger
an exact full resync.  The fold needs packed storage and pair codes of
at most 64 bits, so the process backend requires both.  The result is
bit-identical to a single-process sketch — the fuzz suite in
``tests/sketch/test_shard_transport.py`` proves it.
"""

from __future__ import annotations

from typing import Any, Iterable, List, Optional, Sequence, Tuple

from .._accel import np as _np
from ..exceptions import ParameterError
from ..hashing import TabulationHash, derive_seed
from ..obs.catalog import (
    SHARDED_DELTA_BYTES,
    SHARDED_FULL_RESYNCS,
    SHARDED_MERGES,
    SHARDED_SHARDS,
    SHARDED_SYNC_DURATION,
    SHARDED_UPDATES,
)
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import current_tracer
from ..obs.trace import span as trace_span
from ..types import AddressDomain, FlowUpdate, cut_stream
from .dcs import encode_batch
from .estimate import TopKResult
from .params import SketchParams
from .process_pool import PoolUnavailable, ProcessShardPool, WorkerDied
from .serialize import loads as _loads
from .tracking import TrackingDistinctCountSketch

#: Valid values for the ``backend`` constructor argument.
SHARD_BACKENDS = ("sync", "process")


class ShardedSketch:
    """A bank of tracking sketches fed by a partitioned stream.

    Args:
        domain: address domain.
        shards: number of partitions.
        policy: ``"round-robin"`` or ``"by-destination"``.
        seed: sketch seed — identical across shards so they merge.
        r, s: sketch shape.
        obs: optional :class:`~repro.obs.Registry`, shared with every
            shard sketch — per-sketch counters therefore aggregate
            across shards, and ``repro_sharded_updates_total{shard=i}``
            gives the per-shard load-balance breakdown.  With the
            process backend only the router-level counters are visible
            (worker sketches live in other processes).
        backend: ``"sync"`` (default) or ``"process"``; see the module
            docstring.  The resolved value (after any fallback) is the
            :attr:`backend` attribute.
        sketch_backend: storage backend of every shard sketch —
            ``"packed"`` (default) or ``"reference"``
            (see :class:`~repro.sketch.dcs.DistinctCountSketch`).  The
            process backend requires ``"packed"`` and a pair domain of
            at most 64 bits; anything else raises
            :class:`ParameterError`.
    """

    def __init__(
        self,
        domain: AddressDomain,
        shards: int = 4,
        policy: str = "by-destination",
        seed: int = 0,
        r: int = 3,
        s: int = 128,
        obs: Optional[Registry] = None,
        backend: str = "sync",
        sketch_backend: str = "packed",
    ) -> None:
        if shards < 1:
            raise ParameterError(f"shards must be >= 1, got {shards}")
        if policy not in ("round-robin", "by-destination"):
            raise ParameterError(
                "policy must be 'round-robin' or 'by-destination', "
                f"got {policy!r}"
            )
        if backend not in SHARD_BACKENDS:
            raise ParameterError(
                f"backend must be one of {SHARD_BACKENDS}, got {backend!r}"
            )
        self.domain = domain
        self.policy = policy
        self.seed = seed
        self.params = SketchParams(domain, r=r, s=s)
        self.sketch_backend = sketch_backend
        if backend == "process" and (
            sketch_backend != "packed" or self.params.pair_bits > 64
        ):
            raise ParameterError(
                "backend='process' requires sketch_backend='packed' and "
                "a pair domain of at most 64 bits (got sketch_backend="
                f"{sketch_backend!r}, pair_bits={self.params.pair_bits})"
            )
        #: Observability registry (the null registry when ``obs=None``).
        self.obs: Registry = registry_or_null(obs)
        #: Resolved execution backend ("process" may degrade to "sync").
        self.backend = "sync"
        self._pool: Optional[ProcessShardPool] = None
        if backend == "process":
            # Workers inherit tracing from whatever tracer is installed
            # at pool construction: only the sampling rate crosses the
            # process boundary (an int survives fork *and* spawn).
            tracer = current_tracer()
            trace_every = tracer.sample_every if tracer.enabled else 0
            try:
                self._pool = ProcessShardPool(
                    self.params, seed, shards, trace_every=trace_every
                )
                self.backend = "process"
            except PoolUnavailable:
                self._pool = None
        self._shards: List[TrackingDistinctCountSketch] = []
        if self._pool is None:
            self._shards = [
                TrackingDistinctCountSketch(
                    self.params, seed=seed, obs=obs, backend=sketch_backend
                )
                for _ in range(shards)
            ]
        self._num_shards = shards
        #: Router-side per-shard update tally (authoritative for the
        #: process backend, mirrors ``updates_processed`` for sync).
        self._shard_counts = [0] * shards
        self._route_hash = TabulationHash(
            range_size=shards, seed=derive_seed(seed, "shard-route")
        )
        self._cursor = 0
        # combined() memoization: valid until the next update.
        self._combined_cache: Optional[TrackingDistinctCountSketch] = None
        # Process backend: the running combined sum (survives updates —
        # only deltas since the last sync are folded in) and the last
        # sync epoch seen per shard (proves no drain was missed).
        self._running: Optional[TrackingDistinctCountSketch] = None
        self._sync_epochs = [0] * shards
        shard_updates = self.obs.counter_from(SHARDED_UPDATES)
        self._obs_shard_updates = [
            shard_updates.labels(shard=str(index))
            for index in range(shards)
        ]
        self._obs_merges = self.obs.counter_from(SHARDED_MERGES)
        self._obs_delta_bytes = self.obs.histogram_from(SHARDED_DELTA_BYTES)
        self._obs_full_resyncs = self.obs.counter_from(SHARDED_FULL_RESYNCS)
        self.obs.gauge_from(SHARDED_SHARDS).set(shards)

    @property
    def transport(self) -> Optional[str]:
        """How shard state reaches the parent: ``"delta"`` while a
        worker pool runs, ``None`` on the sync backend."""
        return "delta" if self._pool is not None else None

    @property
    def num_shards(self) -> int:
        """Number of partitions."""
        return self._num_shards

    def shard_for(self, update: FlowUpdate) -> int:
        """The shard index this update routes to (per-update routing:
        :meth:`route` is its whole-batch form)."""
        if self.policy == "by-destination":
            return self._route_hash(update.dest)
        index = self._cursor
        self._cursor = (self._cursor + 1) % self._num_shards
        return index

    def process(self, update: FlowUpdate) -> None:
        """Route one update to its shard."""
        self.ingest_shard(self.shard_for(update), [update])

    def route(
        self, codes: Any, deltas: Any, position: int
    ) -> List[Tuple[Any, Any]]:  # hot-path
        """Split an encoded batch into one ``(codes, deltas)`` frame per shard.

        The whole-batch router.  ``codes``/``deltas`` are
        :func:`~repro.sketch.dcs.encode_batch` output; ``position`` is
        the stream position of the batch's first update, which the
        ``round-robin`` policy maps to shard ``position % shards``
        (``by-destination`` hashes each update's destination and
        ignores it).  One stable argsort of the shard column keeps each
        frame in stream order.  Frames are ndarray slices of the codes
        and deltas.  Reads no cursor: the caller supplies the position.
        """
        count = len(codes)
        shards = self._num_shards
        if self.policy == "by-destination":
            # A mask of the codes' own scalar type: uint64 for uint64
            # codes (numpy < 2 promotes a uint64/int64 mix to float64),
            # a Python int for object codes.
            dests = codes & codes.dtype.type(self.domain.m - 1)
            owners = self._route_hash.hash_many(dests)
        else:
            owners = (_np.arange(count) + position % shards) % shards
        order = _np.argsort(owners, kind="stable")
        bounds = [0] + _np.cumsum(
            _np.bincount(owners, minlength=shards)
        ).tolist()
        codes = codes[order]
        deltas = deltas[order]
        return [
            (codes[lo:hi], deltas[lo:hi])
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def ingest_frame(self, index: int, codes: Any, deltas: Any) -> int:
        """Apply one routed frame to one shard, bypassing routing.

        The primitive every ingest path (and the recovery replay in
        :mod:`repro.resilience.supervisor`) funnels through: it feeds
        the shard — one raw-bytes pipe message on the process backend,
        :meth:`~repro.sketch.dcs.DistinctCountSketch.update_encoded` on
        sync — maintains the per-shard tallies and observability
        counters, and invalidates the :meth:`combined` memo.  The
        frame must come from :meth:`route` or
        :func:`~repro.sketch.dcs.encode_batch` (it is not validated
        again).  Returns the number of updates applied.

        Raises:
            WorkerDied: process backend, when the shard's worker pipe
                is broken (the caller may :meth:`restore_shard`).
        """
        count = len(codes)
        if not count:
            return 0
        if self._pool is not None:
            self._pool.ingest(index, codes, deltas)
        else:
            self._shards[index].update_encoded(codes, deltas)
        self._shard_counts[index] += count
        self._obs_shard_updates[index].inc(count)
        self._combined_cache = None
        return count

    def ingest_shard(
        self, index: int, updates: Sequence[FlowUpdate]
    ) -> int:
        """Apply a pre-routed batch to one shard, bypassing routing.

        The batch is encoded and validated as a whole first (a
        malformed update raises before the shard moves), then applied
        as one frame by :meth:`ingest_frame`.  Returns the number of
        updates applied.

        Raises:
            WorkerDied: process backend, when the shard's worker pipe
                is broken (the caller may :meth:`restore_shard`).
        """
        batch = list(updates)
        if not batch:
            return 0
        codes, deltas = encode_batch(self.domain, batch)
        return self.ingest_frame(index, codes, deltas)

    def process_stream(
        self, updates: Iterable[FlowUpdate], batch_size: int = 1024
    ) -> int:
        """Route a whole stream; returns the update count.

        Updates are cut into chunks of ``batch_size`` and routed
        through :meth:`update_batch` (one pipe message per touched
        shard and chunk on the process backend).
        """
        total = 0
        for chunk in cut_stream(updates, batch_size):
            total += self.update_batch(chunk)
        return total

    def update_batch(self, updates: Iterable[FlowUpdate]) -> int:
        """Route a batch of updates, one frame per touched shard.

        Equivalent to calling :meth:`process` per update (the
        round-robin cursor advances identically), but the batch is
        encoded and validated once — a malformed update raises what
        :meth:`~repro.sketch.dcs.DistinctCountSketch.update_batch`
        raises before any shard, tally or worker moves — and routed
        whole (:meth:`route`): one pipe message per touched shard on
        the process backend, one
        :meth:`~repro.sketch.dcs.DistinctCountSketch.update_encoded`
        call per touched shard on the sync backend.  Returns the
        number of updates routed.
        """
        batch = updates if isinstance(updates, list) else list(updates)
        if not batch:
            return 0
        codes, deltas = encode_batch(self.domain, batch)
        position = self._cursor
        if self.policy == "round-robin":
            self._cursor = (position + len(batch)) % self._num_shards
        count = 0
        frames = self.route(codes, deltas, position)
        for index, (shard_codes, shard_deltas) in enumerate(frames):
            count += self.ingest_frame(index, shard_codes, shard_deltas)
        return count

    def combined(self) -> TrackingDistinctCountSketch:
        """Merge all shards into one sketch (the global view).

        The result is bit-identical to a single sketch that processed
        the whole stream — the linearity guarantee.  The merged sketch
        is deliberately *not* attached to the shared registry (it is
        ephemeral and would double every pull gauge).

        The merge is memoized: repeated calls between updates return
        the *same* sketch object, so treat it as read-only (queries are
        fine — they never mutate sketch state).  Any routed update
        invalidates the cache.  On the process backend the returned
        object is additionally the *running* sum that later calls fold
        deltas into — successive calls may return the same (evolved)
        object; the read-only contract is the same.

        Raises:
            WorkerDied: process backend, when a worker died before
                answering the sync (callers may :meth:`restore_shard`
                and retry; no folded state is lost — the next delta
                sync re-reads absolute shard state).
        """
        if self._combined_cache is not None:
            return self._combined_cache
        if self._pool is not None:
            merged = self._combined_delta()
        else:
            merged = TrackingDistinctCountSketch(
                self.params, seed=self.seed, backend=self.sketch_backend
            )
            for shard in self._shards:
                merged.merge(shard)
        self._obs_merges.inc(self._num_shards)
        self._combined_cache = merged
        return merged

    def _combined_delta(self) -> TrackingDistinctCountSketch:
        """Sync the running combined sum via delta propagation.

        First sync (or after invalidation) collects absolute rows — a
        *full resync*; later syncs collect only the buckets each worker
        touched since its last drain.  Worker replies carry a per-shard
        epoch; any gap (a drain this parent never folded, e.g. an
        injected torn sync) discards the running sum and re-reads
        absolute state, so the fold can never silently diverge.
        """
        pool = self._pool
        assert pool is not None
        with trace_span("sharded.delta_sync", metric=SHARDED_SYNC_DURATION):
            running = self._running
            full = running is None
            try:
                replies = pool.collect_deltas(full=full)
                if not full and any(
                    reply["epoch"] != self._sync_epochs[shard] + 1
                    for shard, reply in enumerate(replies)
                ):
                    # Stale epoch: the incremental window is unusable
                    # (and already drained) — fall back to absolute.
                    full = True
                    replies = pool.collect_deltas(full=True)
            except WorkerDied:
                # Any reply already drained is lost with the pipe; the
                # running sum no longer matches the workers' dirty
                # indexes, so the next sync must re-read everything.
                self._running = None
                raise
            if full:
                running = TrackingDistinctCountSketch(
                    self.params, seed=self.seed, backend=self.sketch_backend
                )
                self._obs_full_resyncs.inc()
            assert running is not None
            stride = self.params.pair_bits + 1
            synced_bytes = 0
            for shard, reply in enumerate(replies):
                self._sync_epochs[shard] = reply["epoch"]
                keys = _np.frombuffer(reply["keys"], dtype=_np.int64)
                rows = _np.frombuffer(reply["rows"], dtype=_np.int64)
                running.apply_bucket_deltas(
                    keys, rows.reshape(len(keys), stride)
                )
                synced_bytes += len(reply["keys"]) + len(reply["rows"])
            running.updates_processed = sum(
                reply["updates"] for reply in replies
            )
            running.net_total = sum(reply["net"] for reply in replies)
            self._obs_delta_bytes.observe(synced_bytes)
            self._running = running
        return running

    def track_topk(self, k: int) -> TopKResult:
        """Global top-k (merges shards, memoized; O(total sketch size))."""
        return self.combined().track_topk(k)

    def base_topk(self, k: int) -> TopKResult:
        """Global BaseTopk over the merged view (Figure 3 on the union).

        Identical to :meth:`track_topk`'s answer by the tracking
        consistency invariant, but runs the Figure 3 distinct-sample
        walk instead of reading tracked heaps — with
        ``sketch_backend="packed"`` that walk decodes whole slabs at a
        time (see ``docs/performance.md``).  Uses the same memoized
        merge as :meth:`track_topk`.
        """
        return self.combined().base_topk(k)

    def shard(self, index: int) -> TrackingDistinctCountSketch:
        """One shard's sketch: live for sync, a snapshot copy for process."""
        if self._pool is not None:
            sketch = _loads(
                self._pool.snapshot(index), backend=self.sketch_backend
            )
            assert isinstance(sketch, TrackingDistinctCountSketch)
            return sketch
        return self._shards[index]

    def shard_update_counts(self) -> List[int]:
        """Updates processed per shard (load-balance inspection)."""
        return list(self._shard_counts)

    # -- worker-side observability (process backend) -----------------------------

    def absorb_worker_obs(self) -> int:
        """Pull every worker's registry snapshot into this registry.

        Each worker keeps its own counters (``repro_worker_updates_total``
        labelled by shard); this fetches the cumulative snapshots over
        the pipe and absorbs them under stable keys (``shard-<i>``) via
        :meth:`repro.obs.Registry.absorb`.  Absorption *replaces* the
        previous contribution per key, so calling this repeatedly — or
        after a worker respawn rebuilt its counters from restored state
        — never double-counts.  Returns the number of snapshots
        absorbed (0 on the sync backend, where shard sketches already
        share the parent registry).

        Raises:
            WorkerDied: when any worker died before answering.
        """
        if self._pool is None:
            return 0
        snapshots = self._pool.obs_snapshots()
        for index, snapshot in enumerate(snapshots):
            self.obs.absorb(f"shard-{index}", snapshot)
        return len(snapshots)

    def drain_worker_traces(self) -> int:
        """Merge every worker's drained span buffer into the installed
        tracer (see :func:`repro.obs.trace.current_tracer`).

        Workers buffer spans locally; each call moves the buffered
        spans to the parent exactly once and returns how many arrived
        (0 on the sync backend, or when no tracer is installed to
        receive them — the null tracer drops merges).

        Raises:
            WorkerDied: when any worker died before answering.
        """
        tracer = current_tracer()
        if self._pool is None or not tracer.enabled:
            return 0
        spans = self._pool.drain_traces()
        tracer.extend(spans)
        return len(spans)

    # -- worker lifecycle (crash recovery surface) -------------------------------

    def worker_alive(self, index: int) -> bool:
        """Liveness of a shard's worker (always True on sync)."""
        if self._pool is not None:
            return self._pool.is_alive(index)
        return True

    def worker_pid(self, index: int) -> Optional[int]:
        """OS pid of a shard's worker process (None on sync) — the
        fault-injection surface :mod:`repro.resilience.faults` targets."""
        if self._pool is not None:
            return self._pool.pid(index)
        return None

    def restore_shard(
        self,
        index: int,
        payload: Optional[bytes] = None,
        processed_count: Optional[int] = None,
    ) -> None:
        """Replace one shard's sketch state (crash recovery).

        On the process backend the worker is respawned and, when
        ``payload`` (a :mod:`repro.sketch.serialize` snapshot) is
        given, restored from it; on the sync backend the in-process
        sketch is swapped.  ``processed_count`` resets the shard's
        update tally to what the restored state reflects (a recovery
        supervisor follows up with replayed updates, which re-count
        through :meth:`ingest_shard`).

        Restoring *always* invalidates the :meth:`combined` memo *and*
        the delta sync's running sum: a respawned or restored
        worker holds different state than the cached merge, even
        though no update was routed — the next sync re-reads absolute
        shard state (a full resync).

        Raises:
            PoolUnavailable: process backend, when the replacement
                worker cannot be started.
        """
        if self._pool is not None:
            self._pool.respawn(index, payload)
        else:
            if payload is not None:
                sketch = _loads(payload, backend=self.sketch_backend)
                assert isinstance(sketch, TrackingDistinctCountSketch)
            else:
                sketch = TrackingDistinctCountSketch(
                    self.params,
                    seed=self.seed,
                    backend=self.sketch_backend,
                )
            self._shards[index] = sketch
        if processed_count is not None:
            self._shard_counts[index] = processed_count
        self._combined_cache = None
        self._running = None

    def degrade_to_sync(
        self,
        payloads: Sequence[Optional[bytes]],
        processed_counts: Optional[Sequence[int]] = None,
    ) -> None:
        """Abandon the process backend: rebuild every shard in-process.

        ``payloads`` supplies one serialized snapshot per shard
        (``None`` entries start from an empty sketch — the caller is
        expected to replay their WAL tail afterwards), and
        ``processed_counts`` optionally resets the per-shard update
        tallies to match.  The worker pool is shut down and
        :attr:`backend` becomes ``"sync"``; the :meth:`combined` memo
        is invalidated.  No-op data-wise on an already-sync sketch
        (payloads are still applied).
        """
        if len(payloads) != self._num_shards:
            raise ParameterError(
                f"expected {self._num_shards} payloads, "
                f"got {len(payloads)}"
            )
        if processed_counts is not None and (
            len(processed_counts) != self._num_shards
        ):
            raise ParameterError(
                f"expected {self._num_shards} processed_counts, "
                f"got {len(processed_counts)}"
            )
        shards: List[TrackingDistinctCountSketch] = []
        for payload in payloads:
            if payload is not None:
                sketch = _loads(payload, backend=self.sketch_backend)
                assert isinstance(sketch, TrackingDistinctCountSketch)
            else:
                sketch = TrackingDistinctCountSketch(
                    self.params,
                    seed=self.seed,
                    backend=self.sketch_backend,
                )
            shards.append(sketch)
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._shards = shards
        if processed_counts is not None:
            self._shard_counts = list(processed_counts)
        self.backend = "sync"
        self._combined_cache = None
        self._running = None

    def close(self) -> None:
        """Shut down worker processes (no-op on the sync backend).

        Idempotent, exception-safe (also invoked by ``__exit__`` and a
        GC finalizer).
        """
        if self._pool is not None:
            self._pool.close()

    def __enter__(self) -> "ShardedSketch":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"ShardedSketch(shards={self._num_shards}, "
            f"policy={self.policy!r}, backend={self.backend!r})"
        )
