"""Host-speed scaling for the pipeline benchmark's timings.

On a shared virtual machine the speed a process gets from its vCPU
changes by up to 2x within seconds and stays changed for seconds to
hours, while the process's CPU time still equals its wall time (no
steal is reported): neighbours on the host take part of the physical
core.  Each vCPU changes on its own.  Two runs of the same code then
differ by far more than any regression bound, and no statistic over one
run's cycles removes it.

The benchmark therefore runs :func:`probe`, a fixed pure-Python loop
that touches none of the program under test, after every untraced
cycle and around every set-up, off the clock.  A single-process
pipeline is probed where it runs; a pipeline with worker processes is
probed on every vCPU in turn.  The probe slows down with the host, so
:func:`scale` rescales each cycle's time by ``REFERENCE_PROBE_NS /
pace``, where the pace is the median probe time of the cycle's
neighbourhood on the slowest vCPU probed (a sharded cycle waits for its
slowest worker).  A scaled time reads what the cycle would have taken
on a host where the probe takes :data:`REFERENCE_PROBE_NS`.  A change to
the program moves the scaled times as much as the raw ones; a change of
host speed moves both the cycle and the probe and cancels.

The clock is read in ``bench_pipeline.py``; this module only holds the
probe's work and the arithmetic.  A probe series is one vCPU's probe
times, one per timed interval.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Sequence

#: Probe time at the reference host speed: about the probe's time in the
#: fast state of the shared 2-vCPU Xeon VM the benchmark was tuned on.
REFERENCE_PROBE_NS = 120_000

#: Loop iterations of one probe.
PROBE_ITERATIONS = 1_000

#: Probes on each side of a cycle whose median gives the host speed
#: during that cycle.
HALF_WINDOW = 16


def probe() -> int:
    """Fixed interpreter work: integer arithmetic and dict stores, as
    in the pipelines' Python layers.  Returns a checksum."""
    table: Dict[int, int] = {}
    total = 0
    for index in range(PROBE_ITERATIONS):
        total += index * index % 7
        table[index & 255] = total
    return total + len(table)


def local_medians(values: Sequence[int], half_width: int) -> List[float]:
    """Median of each value's neighbourhood: itself and up to
    ``half_width`` values on each side."""
    return [
        float(statistics.median(
            values[max(0, index - half_width):index + half_width + 1]
        ))
        for index in range(len(values))
    ]


def pace(series: Sequence[Sequence[int]]) -> List[float]:
    """Per interval, the slowest vCPU's local median probe time (ns)."""
    return [
        max(column)
        for column in zip(*(
            local_medians(values, HALF_WINDOW) for values in series
        ))
    ]


def scale(
    times_ns: Sequence[int], series: Sequence[Sequence[int]]
) -> List[float]:
    """``times_ns[i]`` at the reference host speed, judged by the probes
    run right after it (``series[c][i]`` on the ``c``-th vCPU probed)."""
    if not series or any(len(values) != len(times_ns) for values in series):
        raise ValueError("one probe per timed interval and vCPU is needed")
    return [
        time_ns * REFERENCE_PROBE_NS / speed
        for time_ns, speed in zip(times_ns, pace(series))
    ]


def factor(series: Sequence[Sequence[int]]) -> float:
    """Scale factor to the reference speed for an interval the probe
    series bracket; the slowest vCPU's median sets it."""
    return REFERENCE_PROBE_NS / max(
        statistics.median(values) for values in series
    )
