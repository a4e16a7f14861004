"""Worker-process pool backing ``ShardedSketch(backend="process")``.

Each worker owns a private packed :class:`TrackingDistinctCountSketch`
and drains a FIFO command pipe — ``ingest`` (one frame: the raw int64
words of a batch's pair codes, then of its deltas), ``delta`` (ship the
buckets touched since the last sync), ``snapshot``
(serialize the whole sketch), ``load`` (replace it from a snapshot),
``obs``/``trace`` (observability pulls), ``close``.  All shard sketches
share params and seed, so the parent combines them by bucket-wise
addition into the exact sketch a single-process run would have
produced (linearity, Section 3).

Shard state reaches the parent by delta only: every worker slab keeps
a dirty-key index (:meth:`~repro.sketch.DistinctCountSketch.
track_deltas`), and a ``delta`` request drains it as one ``(keys,
signed counter delta rows)`` run of raw int64 bytes.  Every reply is epoch-tagged:
the parent detects a missed or stale sync and asks for absolute rows
instead (a full resync), so the running sum it folds the runs into is
always exact.  Whole :mod:`repro.sketch.serialize` snapshots remain the
payload for checkpoints and for respawning a worker with restored
state.

The pool prefers the ``fork`` start method (cheap, no import replay) and
falls back to ``spawn``; if no start method is usable at all it raises
:class:`PoolUnavailable` and the caller degrades to the synchronous
backend.  No third-party dependencies: plain ``multiprocessing`` pipes
carrying raw frame and delta bytes and serialized snapshots.
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, List, Optional, Tuple

from .._accel import np as _np
from ..obs.trace import SpanDict
from ..obs.trace import span as trace_span
from .params import SketchParams


class PoolUnavailable(RuntimeError):
    """Raised when a worker pool cannot be started on this platform."""


class WorkerDied(RuntimeError):
    """A shard worker's pipe broke: the process is gone or wedged.

    Carries the shard index so a supervisor can respawn exactly the
    failed worker (see :mod:`repro.resilience.supervisor`).
    """

    def __init__(self, shard: int, detail: str = "") -> None:
        super().__init__(
            f"shard {shard} worker died{': ' + detail if detail else ''}"
        )
        self.shard = shard


def frame_bytes(codes: Any, deltas: Any) -> bytes:
    """One ingest frame as raw bytes: the batch's pair codes as uint64
    words, then its deltas as int64 words (see :func:`read_frame`)."""
    return b"".join((
        _np.ascontiguousarray(codes, dtype=_np.uint64),
        _np.ascontiguousarray(deltas, dtype=_np.int64),
    ))


def read_frame(payload: bytes) -> Tuple[Any, Any]:  # hot-path
    """The ``(uint64 pair codes, int64 deltas)`` views of a frame.

    Zero-copy (read-only views into ``payload``), for
    :meth:`~repro.sketch.dcs.DistinctCountSketch.update_encoded`.

    Raises:
        ValueError: when the payload is not a whole number of
            ``(code, delta)`` word pairs.
    """
    if len(payload) % 16:
        raise ValueError(
            f"ingest frame of {len(payload)} bytes is not whole "
            "(code, delta) word pairs"
        )
    words = _np.frombuffer(payload, dtype=_np.int64)
    count = len(words) // 2
    return words[:count].view(_np.uint64), words[count:]


def _worker_main(
    conn: Any,
    params: SketchParams,
    seed: int,
    shard: int,
    trace_every: int,
) -> None:
    """Worker loop: apply ingest chunks, answer sync requests."""
    # Imported here so ``spawn`` workers pay the import in the child.
    from ..obs.catalog import WORKER_UPDATES
    from ..obs.registry import Registry
    from ..obs.trace import Tracer, install_tracer
    from . import serialize
    from .tracking import TrackingDistinctCountSketch

    tracer: Optional[Tracer] = None
    if trace_every > 0:
        tracer = Tracer(sample_every=trace_every)
        install_tracer(tracer)

    def fresh_registry() -> Tuple[Registry, Any]:
        registry = Registry()
        counter = registry.counter_from(WORKER_UPDATES).labels(
            shard=str(shard)
        )
        return registry, counter

    registry, updates_total = fresh_registry()
    sketch = TrackingDistinctCountSketch(params, seed=seed, backend="packed")
    sketch.track_deltas()
    #: Monotonic sync counter: one tick per delta reply, so the parent
    #: can prove no other drain slipped in between its own syncs.
    epoch = 0
    try:
        while True:
            try:
                command, payload = conn.recv()
            except EOFError:
                break
            if command == "ingest":
                with trace_span("worker.ingest"):
                    codes, deltas = read_frame(payload)
                    sketch.update_encoded(codes, deltas)
                updates_total.inc(len(codes))
            elif command == "snapshot":
                conn.send(serialize.dumps(sketch))
            elif command == "delta":
                epoch += 1
                if payload:  # full resync: absolute rows
                    sketch.reset_deltas()
                    keys, rows = sketch._export_rows()
                else:
                    keys, rows = sketch.drain_deltas()
                conn.send(
                    {
                        "epoch": epoch,
                        "full": bool(payload),
                        "keys": keys.tobytes(),
                        "rows": rows.tobytes(),
                        "updates": sketch.updates_processed,
                        "net": sketch.net_total,
                    }
                )
            elif command == "load":
                # Replace the sketch wholesale (checkpoint restore).
                loaded = serialize.loads(payload, backend="packed")
                assert isinstance(loaded, TrackingDistinctCountSketch)
                sketch = loaded
                # Fresh dirty indexes: the parent invalidated its
                # running sum on restore and will full-resync.
                sketch.track_deltas()
                # Rebuild the observability state from the restored
                # sketch: ``updates_processed`` travels in the wire
                # format, so the counter restarts exactly where the
                # snapshot left off and the parent's replace-by-key
                # merge can never double-count across a respawn.
                registry, updates_total = fresh_registry()
                updates_total.inc(sketch.updates_processed)
            elif command == "obs":
                conn.send(registry.snapshot())
            elif command == "trace":
                conn.send(tracer.drain() if tracer is not None else [])
            elif command == "close":
                break
    finally:
        conn.close()


def _cleanup(connections: List[Any], processes: List[Any]) -> None:
    """Best-effort teardown used by both ``close`` and the finalizer."""
    for conn in connections:
        try:
            conn.send(("close", None))
        except (OSError, ValueError, BrokenPipeError):
            pass
        try:
            conn.close()
        except OSError:
            pass
    for process in processes:
        process.join(timeout=5)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)


class ProcessShardPool:
    """One pipe-fed worker process per shard, each on packed storage.

    Args:
        params: sketch shape shared by every worker (pair domain of at
            most 64 bits — :class:`~repro.sketch.sharded.ShardedSketch`
            checks it).
        seed: sketch seed shared by every worker (required for merging).
        shards: number of worker processes.
        trace_every: worker-side span sampling rate — each worker
            installs its own :class:`~repro.obs.trace.Tracer` keeping 1
            in ``trace_every`` root spans (0 disables worker tracing).
            A plain int so it survives both ``fork`` and ``spawn``.

    Raises:
        PoolUnavailable: when no multiprocessing start method works.
    """

    def __init__(
        self,
        params: SketchParams,
        seed: int,
        shards: int,
        trace_every: int = 0,
    ) -> None:
        context = None
        try:
            import multiprocessing

            for method in ("fork", "spawn"):
                try:
                    context = multiprocessing.get_context(method)
                    break
                except ValueError:
                    continue
        except ImportError as error:
            raise PoolUnavailable(str(error)) from error
        if context is None:
            raise PoolUnavailable("no usable multiprocessing start method")
        self._context = context
        self._params = params
        self._seed = seed
        self._trace_every = trace_every
        self._connections: List[Any] = []
        self._processes: List[Any] = []
        try:
            for shard in range(shards):
                parent_conn, process = self._spawn(shard)
                self._connections.append(parent_conn)
                self._processes.append(process)
        except (OSError, ValueError) as error:
            _cleanup(self._connections, self._processes)
            raise PoolUnavailable(str(error)) from error
        self._closed = False
        self._finalizer = weakref.finalize(
            self, _cleanup, self._connections, self._processes
        )

    def _spawn(self, shard: int) -> Tuple[Any, Any]:
        """Start one worker; returns its (parent pipe, process)."""
        parent_conn, child_conn = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_conn,
                self._params,
                self._seed,
                shard,
                self._trace_every,
            ),
            daemon=True,
        )
        process.start()
        child_conn.close()
        return parent_conn, process

    @property
    def num_shards(self) -> int:
        """Number of worker processes."""
        return len(self._processes)

    def is_alive(self, shard: int) -> bool:
        """True when the shard's worker process is still running."""
        if self._closed:
            return False
        return bool(self._processes[shard].is_alive())

    def pid(self, shard: int) -> Optional[int]:
        """OS process id of the shard's worker (None once closed)."""
        if self._closed:
            return None
        pid = self._processes[shard].pid
        return int(pid) if pid is not None else None

    def respawn(self, shard: int, payload: Optional[bytes] = None) -> None:
        """Replace a (dead) worker with a fresh process.

        ``payload`` — a :mod:`repro.sketch.serialize` snapshot — is
        loaded into the new worker before it accepts ingest, restoring
        the shard's sketch state (checkpoint restore).  Without it the
        worker starts from an empty sketch.  Either way the new worker
        starts at sync epoch 0 with an empty dirty index.

        Raises:
            PoolUnavailable: when the replacement process cannot start.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        old_conn = self._connections[shard]
        old_process = self._processes[shard]
        try:
            old_conn.close()
        except OSError:
            pass
        old_process.join(timeout=1)
        if old_process.is_alive():
            old_process.terminate()
            old_process.join(timeout=5)
        try:
            parent_conn, process = self._spawn(shard)
        except (OSError, ValueError) as error:
            raise PoolUnavailable(str(error)) from error
        try:
            if payload is not None:
                parent_conn.send(("load", payload))
        except (OSError, ValueError, BrokenPipeError) as error:
            # The replacement worker never became usable: release its
            # pipe end and reap the process before reporting failure,
            # or every failed respawn leaks a pipe pair and a zombie.
            parent_conn.close()
            process.terminate()
            process.join(timeout=5)
            raise PoolUnavailable(str(error)) from error
        self._connections[shard] = parent_conn
        self._processes[shard] = process

    def ingest(self, shard: int, codes: Any, deltas: Any) -> None:
        """Queue one encoded batch on one worker (non-blocking).

        ``codes``/``deltas`` are validated pair codes (at most 64 bits)
        and their deltas — a :meth:`~repro.sketch.sharded.ShardedSketch.
        route` frame or :func:`~repro.sketch.dcs.encode_batch` output;
        they cross the pipe as one raw-bytes frame (:func:`frame_bytes`).

        Raises:
            WorkerDied: when the worker's pipe is broken.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        payload = frame_bytes(codes, deltas)
        try:
            with trace_span("sharded.pipe_send"):
                self._connections[shard].send(("ingest", payload))
        except (OSError, ValueError, BrokenPipeError) as error:
            raise WorkerDied(shard, str(error)) from error

    def snapshot(self, shard: int) -> bytes:
        """Serialized state of one worker's sketch (drains its queue).

        Raises:
            WorkerDied: when the worker died before answering.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        payload = self._request_one(shard, "snapshot", None)
        assert isinstance(payload, bytes)
        return payload

    def snapshots(self) -> List[bytes]:
        """Serialized state of every worker, request-all then drain-all.

        Raises:
            WorkerDied: when any worker died before answering.
        """
        return self._request_all("snapshot")

    # -- delta sync -----------------------------------------------------------

    def collect_delta(self, shard: int, full: bool = False) -> Dict[str, Any]:
        """Drain one worker's delta run (epoch-tagged).

        The reply carries the worker's sync epoch, its cumulative
        ``updates``/``net`` totals, and one run of int64 bytes: the
        touched slab ``keys`` and their delta ``rows`` — absolute rows
        when ``full``.

        Raises:
            WorkerDied: when the worker died before answering.
        """
        if self._closed:
            raise PoolUnavailable("pool is closed")
        reply = self._request_one(shard, "delta", bool(full))
        assert isinstance(reply, dict)
        return reply

    def collect_deltas(self, full: bool = False) -> List[Dict[str, Any]]:
        """Drain every worker's delta run (request-all then drain-all).

        The broadcast-then-drain shape is the sync barrier: every
        worker drains against the same logical cut of its stream, and
        a worker death surfaces as :class:`WorkerDied` *before* any
        reply is applied (the caller discards its running sum).

        Raises:
            WorkerDied: when any worker died before answering.
        """
        return self._request_all("delta", bool(full))

    # -- observability ------------------------------------------------------------

    def obs_snapshots(self) -> List[Dict[str, Any]]:
        """Cumulative registry snapshot from every worker.

        Each element is a :meth:`repro.obs.Registry.snapshot` document
        carrying the worker's own counters (``repro_worker_updates_total``
        labelled by shard).  Snapshots are cumulative since the worker's
        last (re)start, sized for replace-by-key absorption into the
        parent registry (:meth:`repro.obs.Registry.absorb`).

        Raises:
            WorkerDied: when any worker died before answering.
        """
        return self._request_all("obs")

    def drain_traces(self) -> List[SpanDict]:
        """Drain every worker's span buffer into one flat list.

        Workers buffer spans locally (see the ``trace_every`` pool
        argument); draining moves them to the parent exactly once, so
        repeated calls never duplicate a span.  Spans carry the worker
        ``pid``, keeping per-process trees separable after the merge.

        Raises:
            WorkerDied: when any worker died before answering.
        """
        merged: List[SpanDict] = []
        for spans in self._request_all("trace"):
            merged.extend(spans)
        return merged

    def _request_one(self, shard: int, command: str, payload: Any) -> Any:
        """Send one command to one worker and await its reply."""
        conn = self._connections[shard]
        try:
            with trace_span("sharded.pipe_send"):
                conn.send((command, payload))
            with trace_span("sharded.pipe_recv"):
                return conn.recv()
        except (OSError, EOFError, ValueError, BrokenPipeError) as error:
            raise WorkerDied(shard, str(error)) from error

    def _request_all(self, command: str, payload: Any = None) -> List[Any]:
        """Broadcast ``command`` then collect one reply per worker."""
        if self._closed:
            raise PoolUnavailable("pool is closed")
        for shard, conn in enumerate(self._connections):
            try:
                with trace_span("sharded.pipe_send"):
                    conn.send((command, payload))
            except (OSError, ValueError, BrokenPipeError) as error:
                raise WorkerDied(shard, str(error)) from error
        replies: List[Any] = []
        for shard, conn in enumerate(self._connections):
            try:
                with trace_span("sharded.pipe_recv"):
                    replies.append(conn.recv())
            except (OSError, EOFError, ValueError, BrokenPipeError) as error:
                raise WorkerDied(shard, str(error)) from error
        return replies

    def close(self) -> None:
        """Shut every worker down; idempotent."""
        if self._closed:
            return
        self._closed = True
        self._finalizer.detach()
        _cleanup(self._connections, self._processes)

    def __enter__(self) -> "ProcessShardPool":
        return self

    def __exit__(self, *exc_info: Any) -> Optional[bool]:
        self.close()
        return None

    def __repr__(self) -> str:
        state = "closed" if self._closed else "open"
        return f"ProcessShardPool(shards={self.num_shards}, {state})"
