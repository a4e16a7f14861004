"""The four pipelines under test, driven through repro's public API.

Every pipeline runs the same closed loop: one caller hands it the next
input batch only when the previous call has returned.  A pipeline is
built, fed the workload's clean prefix and taught its baseline
(:meth:`Pipeline.setup`, timed as ``setup_s``), then fed one batch per
cycle (:meth:`Pipeline.cycle`, each call timed as one cycle).  Every
sketch is built with ``backend="packed"`` / ``sketch_backend="packed"``;
every other option keeps its default, so the process-sharded pipeline
syncs over the ``auto`` transport, which resolves to delta.

After the stream ends, :meth:`Pipeline.output_failures` checks the
pipeline's state against independent references; each pipeline lists
the public entry points the traced run wraps in spans
(:meth:`Pipeline.entry_points`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.monitor import (
    ActivityProfile,
    Alarm,
    AlarmSeverity,
    AlarmSink,
    DDoSMonitor,
    MonitorConfig,
    SlidingWindowSketch,
)
from repro.netsim.records import FlowRecord, TcpFlag, records_to_updates
from repro.obs import Registry
from repro.sketch import DistinctCountSketch, TrackingDistinctCountSketch
from repro.sketch.sharded import ShardedSketch
from repro.types import AddressDomain, FlowUpdate

import workloads

DOMAIN = AddressDomain(2 ** 32)

#: One traced entry point: (object, method name, span name).
EntryPoint = Tuple[Any, str, str]


@dataclass(frozen=True)
class Spec:
    """How one workload drives its pipeline.

    Attributes:
        name: workload name.
        family: input family (see :mod:`workloads`).
        unit: what one input event is (``records`` or ``updates``).
        cycle: input events handed over per cycle.
        check_interval: updates between detection passes.

    Why each workload exists is recorded once, in ``BENCHMARK.json``.
    """

    name: str
    family: str
    unit: str
    cycle: int
    check_interval: int


SPECS: Dict[str, Spec] = {
    spec.name: spec
    for spec in (
        Spec("netflow_records", "netflow", "records", 256, 25),
        Spec("flows_churn", "churn", "updates", 250, 250),
        Spec("carpet_window", "carpet", "updates", 250, 250),
        Spec("sharded_churn", "churn", "updates", 250, 250),
    )
}


class Prepared:
    """A workload's input as pipeline-ready objects, built once per run.

    Attributes:
        spec: the workload.
        inputs: the generated input and its ground truth.
        updates: the whole update stream the monitor sees, prefix
            included (for records, the stream they must convert to).
        records: the records (``netflow`` only).
        prefix: clean-prefix length, in input events.
        batches: the timed phase, one input batch per cycle: update
            lists, or for records the record count each cycle ends at.
        batch_events: input events in each batch.
    """

    def __init__(self, spec: Spec, inputs: workloads.Inputs) -> None:
        self.spec = spec
        self.inputs = inputs
        self.prefix = inputs.prefix
        columns = inputs.columns
        self.records: List[FlowRecord] = []
        if spec.unit == "records":
            self.records = [
                FlowRecord(source, dest, packets, TcpFlag(flags), first, last)
                for source, dest, packets, flags, first, last in zip(
                    columns["source"].tolist(),
                    columns["dest"].tolist(),
                    columns["packets"].tolist(),
                    columns["flags"].tolist(),
                    columns["first"].tolist(),
                    columns["last"].tolist(),
                )
            ]
            stream = workloads.expected_updates(columns)
        else:
            stream = (columns["source"], columns["dest"], columns["delta"])
        self.updates = [
            FlowUpdate(source, dest, delta)
            for source, dest, delta in zip(
                stream[0].tolist(), stream[1].tolist(), stream[2].tolist()
            )
        ]
        events = inputs.events
        ends = list(range(self.prefix + spec.cycle, events, spec.cycle))
        ends.append(events)
        starts = [self.prefix] + ends[:-1]
        self.batch_events = [end - start for start, end in zip(starts, ends)]
        if spec.unit == "records":
            self.batches: List[Any] = ends
        else:
            self.batches = [
                self.updates[start:end] for start, end in zip(starts, ends)
            ]


class Pipeline:
    """Base class: one freshly built pipeline per repetition."""

    def __init__(self, data: Prepared, obs: Optional[Registry]) -> None:
        self.data = data
        self.obs = obs
        self.config = MonitorConfig(check_interval=data.spec.check_interval)

    def setup(self) -> None:
        """Ingest the clean prefix and learn the baseline."""
        raise NotImplementedError

    def cycle(self, batch: Any) -> None:
        """Hand the pipeline one input batch; returns when it is done."""
        raise NotImplementedError

    def alarms(self) -> List[Alarm]:
        """Every alarm raised so far, in firing order."""
        raise NotImplementedError

    def progress(self) -> Dict[str, int]:
        """Work done so far: ``updates`` ingested, ``records`` converted
        and ``window`` updates fed to a sliding window."""
        raise NotImplementedError

    def entry_points(self) -> List[EntryPoint]:
        """Public entry points the traced run wraps in ``bench.*`` spans."""
        raise NotImplementedError

    def output_failures(self) -> List[str]:
        """Check the end state against references; returns failures."""
        raise NotImplementedError

    def worker_pids(self) -> List[int]:
        """Pids of the pipeline's worker processes."""
        return []

    def drain_worker_spans(self) -> int:
        """Move worker processes' buffered spans into this process's
        tracer; returns how many arrived."""
        return 0

    def absorb_worker_counts(self) -> None:
        """Fold worker processes' instrument counts into the registry."""

    def close(self) -> None:
        """Release workers and other resources."""


# -- monitor pipelines --------------------------------------------------------


class _Counted:
    """An iterator over records that counts how many were consumed."""

    def __init__(self, records: List[FlowRecord]) -> None:
        self._records = iter(records)
        self.consumed = 0

    def __iter__(self) -> "_Counted":
        return self

    def __next__(self) -> FlowRecord:
        record = next(self._records)
        self.consumed += 1
        return record


class MonitorPipeline(Pipeline):
    """``DDoSMonitor(backend="packed")`` fed update batches."""

    def __init__(self, data: Prepared, obs: Optional[Registry]) -> None:
        super().__init__(data, obs)
        self.window: Optional[SlidingWindowSketch] = None
        self.monitor = self._build_monitor()

    def _build_monitor(self) -> DDoSMonitor:
        return DDoSMonitor(
            DOMAIN, self.config, obs=self.obs, backend="packed"
        )

    def setup(self) -> None:
        self.monitor.observe_batch(self.data.updates[:self.data.prefix])
        self.monitor.learn_baseline()

    def cycle(self, batch: Any) -> None:
        self.monitor.observe_batch(batch)

    def alarms(self) -> List[Alarm]:
        return self.monitor.alarms.alarms

    def progress(self) -> Dict[str, int]:
        return {
            "updates": self.monitor.updates_seen, "records": 0, "window": 0,
        }

    def entry_points(self) -> List[EntryPoint]:
        monitor = self.monitor
        return [
            (monitor, "observe_batch", "bench.monitor.observe_batch"),
            (monitor, "check_now", "bench.monitor.check_now"),
            (monitor.sketch, "update_batch", "bench.sketch.update_batch"),
            (monitor.sketch, "track_topk", "bench.sketch.track_topk"),
        ]

    def output_failures(self) -> List[str]:
        failures: List[str] = []
        reference = TrackingDistinctCountSketch(DOMAIN, backend="reference")
        reference.update_batch(self.data.updates)
        sketch = self.monitor.sketch
        if not sketch.structurally_equal(reference):
            failures.append(
                "packed tracking sketch differs from the reference sketch"
            )
        k = self.config.k
        if sketch.track_topk(k) != reference.track_topk(k):
            failures.append("track_topk differs from the reference sketch")
        return failures


class NetflowPipeline(MonitorPipeline):
    """NetFlow records → ``records_to_updates`` → ``DDoSMonitor``.

    All records stream through one ``records_to_updates`` generator,
    which keeps the half-open state that pairs completions with earlier
    records.  A cycle pulls updates until the converter has consumed
    the cycle's last record; an update that comes from a later record
    waits for the cycle that owns that record.
    """

    def __init__(self, data: Prepared, obs: Optional[Registry]) -> None:
        super().__init__(data, obs)
        self.records = _Counted(data.records)
        self._updates: Iterator[FlowUpdate] = records_to_updates(self.records)
        self._carry: Optional[Tuple[int, FlowUpdate]] = None

    def convert(self, end: int) -> List[FlowUpdate]:
        """Updates converted from the records up to record ``end``."""
        batch: List[FlowUpdate] = []
        if self._carry is not None:
            index, update = self._carry
            if index > end:
                return batch
            batch.append(update)
            self._carry = None
        for update in self._updates:
            index = self.records.consumed
            if index > end:
                self._carry = (index, update)
                break
            batch.append(update)
        return batch

    def setup(self) -> None:
        self.monitor.observe_batch(self.convert(self.data.prefix))
        self.monitor.learn_baseline()

    def cycle(self, batch: Any) -> None:
        self.monitor.observe_batch(self.convert(batch))

    def progress(self) -> Dict[str, int]:
        return {**super().progress(), "records": self.records.consumed}

    def entry_points(self) -> List[EntryPoint]:
        return [(self, "convert", "bench.records_to_updates")] + (
            super().entry_points()
        )

    def output_failures(self) -> List[str]:
        # The reference is fed the stream the records must convert to,
        # so this also checks the conversion.
        failures = super().output_failures()
        if self.records.consumed != len(self.data.records):
            failures.append(
                f"converter consumed {self.records.consumed} of "
                f"{len(self.data.records)} records"
            )
        return failures


class WindowPipeline(MonitorPipeline):
    """``DDoSMonitor`` with a ``SlidingWindowSketch`` attached."""

    SUBEPOCH = 1_000
    SUBEPOCHS = 8

    def _build_monitor(self) -> DDoSMonitor:
        self.window = SlidingWindowSketch(
            DOMAIN,
            subepoch_length=self.SUBEPOCH,
            window_subepochs=self.SUBEPOCHS,
            backend="packed",
            obs=self.obs,
        )
        return DDoSMonitor(
            DOMAIN,
            self.config,
            obs=self.obs,
            backend="packed",
            window=self.window,
        )

    def progress(self) -> Dict[str, int]:
        assert self.window is not None
        return {**super().progress(), "window": self.window.updates_seen}

    def entry_points(self) -> List[EntryPoint]:
        window = self.window
        assert window is not None
        return super().entry_points() + [
            (window, "observe_batch", "bench.window.observe_batch"),
            (window.window_sum, "base_topk", "bench.sketch.base_topk"),
        ]

    def output_failures(self) -> List[str]:
        failures = super().output_failures()
        window = self.window
        assert window is not None
        fed = window.updates_seen
        closed = fed // self.SUBEPOCH
        in_window = fed % self.SUBEPOCH + self.SUBEPOCH * min(
            closed, self.SUBEPOCHS - 1
        )
        scratch = DistinctCountSketch(
            DOMAIN, seed=window.seed, backend="reference"
        )
        scratch.update_batch(self.data.updates[fed - in_window:fed])
        if not window.window_sum.structurally_equal(scratch):
            failures.append(
                "window sum differs from a from-scratch sketch of the "
                f"last {in_window} updates"
            )
        return failures


# -- process-sharded pipeline -------------------------------------------------


class ShardedPipeline(Pipeline):
    """``ShardedSketch(backend="process")`` plus check_now-style scoring.

    The loop ``repro-ddos serve --shards`` builds outside the monitor:
    each cycle routes one batch with ``update_batch``, then queries
    ``track_topk(k)`` and scores the answer against the baseline profile
    exactly as :meth:`repro.monitor.DDoSMonitor.check_now` does.
    """

    SHARDS = 2

    def __init__(self, data: Prepared, obs: Optional[Registry]) -> None:
        super().__init__(data, obs)
        self.sharded = ShardedSketch(
            DOMAIN,
            shards=self.SHARDS,
            obs=obs,
            backend="process",
            sketch_backend="packed",
        )
        self.profile = ActivityProfile()
        self.sink = AlarmSink()
        self.routed = 0

    def setup(self) -> None:
        prefix = self.data.updates[:self.data.prefix]
        self.routed += self.sharded.update_batch(prefix)
        self.profile.learn({
            entry.dest: entry.estimate
            for entry in self.sharded.track_topk(self.config.k)
        })

    def cycle(self, batch: Any) -> None:
        self.routed += self.sharded.update_batch(batch)
        self.check()

    def check(self) -> None:
        """One detection pass over the merged top-k."""
        config = self.config
        for entry in self.sharded.track_topk(config.k):
            if entry.estimate < config.absolute_floor:
                continue
            ratio = self.profile.anomaly_score(entry.dest, entry.estimate)
            if ratio >= config.critical_ratio:
                severity = AlarmSeverity.CRITICAL
            elif ratio >= config.warning_ratio:
                severity = AlarmSeverity.WARNING
            else:
                continue
            alarm = Alarm(
                dest=entry.dest,
                estimated_frequency=entry.estimate,
                baseline_frequency=self.profile.baseline(entry.dest),
                severity=severity,
                updates_seen=self.routed,
            )
            self.sink.offer(alarm)

    def alarms(self) -> List[Alarm]:
        return self.sink.alarms

    def progress(self) -> Dict[str, int]:
        return {"updates": self.routed, "records": 0, "window": 0}

    def entry_points(self) -> List[EntryPoint]:
        sharded = self.sharded
        return [
            (sharded, "update_batch", "bench.sharded.update_batch"),
            (self, "check", "bench.monitor.check_now"),
            (sharded, "track_topk", "bench.sketch.track_topk"),
            (sharded, "combined", "bench.sharded.combined"),
        ]

    def output_failures(self) -> List[str]:
        failures: List[str] = []
        sharded = self.sharded
        if sharded.backend != "process" or sharded.transport != "delta":
            # A degraded pool applied the stream, but not through the
            # pipeline this workload measures.
            failures.append(
                f"sharded pipeline degraded: backend={sharded.backend}, "
                f"transport={sharded.transport}"
            )
        single = TrackingDistinctCountSketch(DOMAIN, backend="packed")
        single.update_batch(self.data.updates)
        combined = self.sharded.combined()
        if not combined.structurally_equal(single):
            failures.append(
                "combined() differs from one packed sketch of the stream"
            )
        k = self.config.k
        if combined.track_topk(k) != single.track_topk(k):
            failures.append("merged track_topk differs from one sketch's")
        return failures

    def drain_worker_spans(self) -> int:
        return self.sharded.drain_worker_traces()

    def absorb_worker_counts(self) -> None:
        self.sharded.absorb_worker_obs()

    def worker_pids(self) -> List[int]:
        pids = []
        for shard in range(self.SHARDS):
            pid = self.sharded.worker_pid(shard)
            if pid is not None:
                pids.append(pid)
        return pids

    def close(self) -> None:
        self.sharded.close()


PIPELINES: Dict[str, Callable[[Prepared, Optional[Registry]], Pipeline]] = {
    "netflow_records": NetflowPipeline,
    "flows_churn": MonitorPipeline,
    "carpet_window": WindowPipeline,
    "sharded_churn": ShardedPipeline,
}


def probe_cpus(workload: str) -> List[int]:
    """vCPUs to probe the host's speed on after each cycle: none (probe
    where the benchmark runs) for a single-process pipeline, every vCPU
    for one whose worker processes run beside it."""
    if PIPELINES[workload] is ShardedPipeline:
        return sorted(os.sched_getaffinity(0))
    return []


def peak_rss_mib(pids: List[int]) -> float:
    """Largest peak resident set (``VmHWM``) among ``pids``, in MiB."""
    peak_kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        peak_kib = max(peak_kib, int(line.split()[1]))
        except OSError:
            continue
    return peak_kib / 1024.0

