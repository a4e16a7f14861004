"""Flow records: the NetFlow-style export format, one level more real.

Section 2 suggests generating the update stream "by deploying Cisco's
NetFlow tool or AT&T's ... GigaScope probe to monitor egress-flow
traffic (and corresponding TCP flags)".  Real NetFlow does not emit
per-packet events: it aggregates packets into *flow records* carrying
cumulative TCP flags, and exports a record when the flow goes idle
(inactive timeout), lives too long (active timeout), or the cache
overflows.

This module models that pipeline:

* :class:`FlowRecord` — the exported record: addresses, packet count,
  OR-ed TCP flags, first/last timestamps.
* :class:`RecordExporter` — packets in, flow records out, with active
  and inactive timeouts.
* :func:`records_to_updates` — the monitor-side conversion the paper
  implies: a record whose flags show a SYN *without* a completing ACK
  is a half-open flow (insert); a record showing the handshake
  completed contributes nothing net (insert immediately cancelled), and
  a record that completes a *previously exported* half-open flow emits
  the deletion.

The packet-level :class:`~repro.netsim.netflow.FlowExporter` remains the
reference path (it sees every transition immediately); the record path
trades latency for realism, and the tests check both agree on the final
frequencies once all records are flushed.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Set, Tuple

from ..exceptions import ParameterError
from ..types import FlowUpdate
from .packets import Packet, PacketKind


class TcpFlag(enum.IntFlag):
    """Cumulative TCP flags carried by a flow record."""

    NONE = 0
    SYN = 1
    ACK = 2
    FIN = 4
    RST = 8


# Plain-int masks: ``enum.IntFlag`` ``&``/``|`` build a flag member per
# operation, which dominated the per-record conversion cost.
_SYN = int(TcpFlag.SYN)
_COMPLETION = int(TcpFlag.ACK | TcpFlag.RST)
_OPEN_MASK = _SYN | _COMPLETION

_KIND_TO_FLAGS = {
    PacketKind.SYN: TcpFlag.SYN,
    PacketKind.SYN_ACK: TcpFlag.SYN | TcpFlag.ACK,
    PacketKind.ACK: TcpFlag.ACK,
    PacketKind.FIN: TcpFlag.FIN,
    PacketKind.RST: TcpFlag.RST,
    PacketKind.DATA: TcpFlag.NONE,
}


@dataclass(frozen=True)
class FlowRecord:
    """One exported flow record.

    Attributes:
        source, dest: the flow's address pair (client, server).
        packets: packets aggregated into the record.
        flags: OR of all observed TCP flags.
        first, last: timestamps of the first and last packet.
    """

    source: int
    dest: int
    packets: int
    flags: TcpFlag
    first: float
    last: float

    @property
    def is_half_open(self) -> bool:
        """SYN seen but no completing ACK and no reset/close."""
        return int(self.flags) & _OPEN_MASK == _SYN

    @property
    def completes_handshake(self) -> bool:
        """The record carries the client ACK (or RST teardown)."""
        return bool(int(self.flags) & _COMPLETION)


class RecordExporter:
    """Aggregates packets into flow records with NetFlow-style timeouts.

    Args:
        inactive_timeout: export a flow after this much idle time.
        active_timeout: export (and restart) a flow that has lived this
            long even if still active.
    """

    def __init__(
        self,
        inactive_timeout: float = 15.0,
        active_timeout: float = 120.0,
    ) -> None:
        if inactive_timeout <= 0 or active_timeout <= 0:
            raise ParameterError("timeouts must be positive")
        if active_timeout < inactive_timeout:
            raise ParameterError(
                "active_timeout must be >= inactive_timeout"
            )
        self.inactive_timeout = inactive_timeout
        self.active_timeout = active_timeout
        # key -> [packets, flags, first, last]
        self._cache: Dict[Tuple[int, int], List] = {}
        self.records_exported = 0

    def observe(self, packet: Packet) -> List[FlowRecord]:
        """Feed one packet; returns any records exported by timeouts."""
        exported = self._expire(packet.time)
        key = (packet.source, packet.dest)
        entry = self._cache.get(key)
        flags = _KIND_TO_FLAGS[packet.kind]
        if entry is None:
            self._cache[key] = [1, flags, packet.time, packet.time]
        else:
            entry[0] += 1
            entry[1] |= flags
            entry[3] = packet.time
        return exported

    def _expire(self, now: float) -> List[FlowRecord]:
        exported: List[FlowRecord] = []
        for key, entry in list(self._cache.items()):
            packets, flags, first, last = entry
            if (now - last >= self.inactive_timeout
                    or now - first >= self.active_timeout):
                exported.append(self._export(key, entry))
        return exported

    def _export(self, key: Tuple[int, int], entry: List) -> FlowRecord:
        del self._cache[key]
        self.records_exported += 1
        return FlowRecord(
            source=key[0],
            dest=key[1],
            packets=entry[0],
            flags=TcpFlag(entry[1]),
            first=entry[2],
            last=entry[3],
        )

    def flush(self) -> List[FlowRecord]:
        """Export every cached flow (end of observation)."""
        return [
            self._export(key, entry)
            for key, entry in list(self._cache.items())
        ]

    def export_all(self, packets: Iterable[Packet]) -> List[FlowRecord]:
        """Feed a whole packet stream; returns all records incl. flush."""
        records: List[FlowRecord] = []
        for packet in packets:
            records.extend(self.observe(packet))
        records.extend(self.flush())
        return records

    @property
    def cached_flows(self) -> int:
        """Flows currently aggregating in the cache."""
        return len(self._cache)

    def __repr__(self) -> str:
        return (
            f"RecordExporter(cached={len(self._cache)}, "
            f"exported={self.records_exported})"
        )


def records_to_updates(
    records: Iterable[FlowRecord],
) -> Iterator[FlowUpdate]:
    """Convert flow records into the monitor's update stream.

    Per-record logic (the monitor keeps one bit per exported half-open
    pair to pair later completions with their insertion):

    * half-open record (SYN, no ACK/RST) -> ``+1``;
    * completing record for a pair previously exported half-open
      (the flow was split across records by a timeout) -> ``-1``;
    * self-contained completed record (SYN and ACK in one record) ->
      nothing: the flow was never half-open from the monitor's view.
    """
    half_open: Set[Tuple[int, int]] = set()
    for record in records:
        key = (record.source, record.dest)
        # The flags as a plain int, tested against int masks (the
        # ``is_half_open`` / ``completes_handshake`` rules).
        flags = int(record.flags)
        if flags & _OPEN_MASK == _SYN:
            if key not in half_open:
                half_open.add(key)
                yield FlowUpdate(record.source, record.dest, +1)
        elif flags & _COMPLETION:
            if key in half_open:
                half_open.discard(key)
                yield FlowUpdate(record.source, record.dest, -1)
            elif flags & _SYN:
                # Self-contained: SYN and completion in one record.
                # Net contribution is zero; emit nothing.
                continue
