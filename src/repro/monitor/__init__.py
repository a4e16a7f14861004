"""The DDoS MONITOR application layer (Figure 1).

Wraps the tracking sketch into the operational tool the paper
describes: continuous top-k tracking over one or more flow-update
streams, comparison "against 'baseline' profiles of network activity
created over longer periods of time" (Section 2), and alarm generation
for destinations whose half-open distinct-source frequency is anomalous.

* :class:`DDoSMonitor` — the facade: feed updates, poll for alarms.
* :class:`ActivityProfile` — per-destination baseline frequencies with
  an anomaly test.
* :class:`Alarm` / :class:`AlarmSink` — alarm records and collection.
* :class:`ThresholdWatch` — the footnote-3 variant: watch for any
  destination crossing a fixed frequency threshold tau.
* :class:`SlidingWindowSketch` / :class:`WindowedThresholdWatch` — the
  exact subtract-merge sliding window and burst-aware crossing
  detection over it (``docs/windowing.md``).
"""

from .alarms import Alarm, AlarmSeverity, AlarmSink
from .monitor import DDoSMonitor, MonitorConfig
from .portscan import PortScanDetector
from .profile import ActivityProfile
from .report import Incident, IncidentReporter
from .threshold import CrossingEvent, ThresholdWatch
from .timeline import MonitorTimeline, Snapshot
from .window import SlidingWindowSketch, WindowedThresholdWatch

__all__ = [
    "ActivityProfile",
    "Alarm",
    "AlarmSeverity",
    "AlarmSink",
    "CrossingEvent",
    "DDoSMonitor",
    "Incident",
    "IncidentReporter",
    "MonitorConfig",
    "MonitorTimeline",
    "PortScanDetector",
    "SlidingWindowSketch",
    "Snapshot",
    "ThresholdWatch",
    "WindowedThresholdWatch",
]
