"""Atomic, CRC-checked checkpoints of sketch state.

A checkpoint is the serialized synopsis (:mod:`repro.sketch.serialize`
wire format — backend-agnostic, so a packed-arena sketch restores as
packed via the ``backend=`` load kwarg) written with the classic
crash-safe dance:

1. payload → ``<name>.tmp``, flushed and fsynced;
2. ``os.replace`` onto the final ``.ckpt`` name (atomic on POSIX);
3. a small JSON **manifest** recording the payload's byte size and
   CRC-32 alongside the ``wal_count`` it is aligned to, written with
   the same tmp-then-rename dance.

Readers trust only the manifest: a checkpoint whose payload is missing,
truncated, or CRC-mismatched is skipped and the previous one is used —
recovery then simply replays a longer WAL tail.  ``keep`` retains that
many generations per label for exactly this fallback.

This module is the one place in :mod:`repro.resilience` allowed to read
the wall clock (reprolint RL003): checkpoint durations are operator
telemetry about the I/O boundary, not algorithmic state.
"""

from __future__ import annotations

import json
import os
import time
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from ..exceptions import ParameterError
from ..obs.catalog import CHECKPOINT_BYTES, CHECKPOINT_DURATION
from ..obs.registry import Registry, registry_or_null
from ..obs.trace import span as trace_span
from ..sketch import serialize

#: Manifest format version written into every manifest.
MANIFEST_VERSION = 1


@dataclass(frozen=True)
class CheckpointInfo:
    """One checkpoint generation, as described by its manifest.

    Attributes:
        label: logical stream the checkpoint belongs to (one label per
            sketch; a sharded deployment uses one label per shard).
        wal_count: the checkpoint reflects exactly the WAL updates with
            ``seq < wal_count`` (routed to this label's sketch).
        nbytes: payload size in bytes.
        crc32: CRC-32 of the payload.
        extra: caller-supplied integers carried through the manifest
            (e.g. the supervisor's per-shard routed-update tally).
    """

    label: str
    wal_count: int
    nbytes: int
    crc32: int
    extra: Dict[str, int]


def _fsync_write(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically and durably.

    Protocol: write to a temp file, flush, fsync the file, rename over
    the target, then fsync the parent directory — the rename itself is
    not durable until the directory entry is synced, so omitting the
    last step can lose a "committed" checkpoint on power failure.
    """
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    dir_fd = os.open(str(path.parent), os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class CheckpointStore:
    """A directory of checkpoint generations, newest-wins with fallback.

    Args:
        directory: checkpoint directory (created if absent).
        keep: generations to retain per label (older ones are deleted
            on :meth:`save`); at least 1.
        obs: optional :class:`~repro.obs.Registry` —
            ``repro_checkpoint_duration_us`` and
            ``repro_checkpoint_bytes`` are observed per save.
    """

    def __init__(
        self,
        directory: Path,
        *,
        keep: int = 2,
        obs: Optional[Registry] = None,
    ) -> None:
        if keep < 1:
            raise ParameterError(f"keep must be >= 1, got {keep}")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = keep
        self.obs: Registry = registry_or_null(obs)
        self._obs_duration = self.obs.histogram_from(CHECKPOINT_DURATION)
        self._obs_bytes = self.obs.histogram_from(CHECKPOINT_BYTES)

    # -- naming -------------------------------------------------------------------

    def _data_path(self, label: str, wal_count: int) -> Path:
        return self.directory / f"{label}-{wal_count:020d}.ckpt"

    def _manifest_path(self, label: str, wal_count: int) -> Path:
        return self.directory / f"{label}-{wal_count:020d}.json"

    # -- writing ------------------------------------------------------------------

    def save(
        self,
        sketch: serialize.AnySketch,
        *,
        wal_count: int,
        label: str = "sketch",
        extra: Optional[Dict[str, int]] = None,
    ) -> CheckpointInfo:
        """Checkpoint a sketch; see :meth:`save_payload`."""
        return self.save_payload(
            serialize.dumps(sketch),
            wal_count=wal_count,
            label=label,
            extra=extra,
        )

    def save_payload(
        self,
        payload: bytes,
        *,
        wal_count: int,
        label: str = "sketch",
        extra: Optional[Dict[str, int]] = None,
    ) -> CheckpointInfo:
        """Write one checkpoint generation atomically.

        The payload lands first (tmp + fsync + rename), the manifest
        second — a crash between the two leaves a payload without a
        manifest, which readers ignore.  Older generations beyond
        ``keep`` are pruned afterwards.
        """
        if wal_count < 0:
            raise ParameterError(
                f"wal_count must be >= 0, got {wal_count}"
            )
        started = time.perf_counter_ns()
        info = CheckpointInfo(
            label=label,
            wal_count=wal_count,
            nbytes=len(payload),
            crc32=zlib.crc32(payload) & 0xFFFFFFFF,
            extra=dict(extra or {}),
        )
        with trace_span("checkpoint.write"):
            _fsync_write(self._data_path(label, wal_count), payload)
            manifest = {
                "manifest_version": MANIFEST_VERSION,
                "label": info.label,
                "wal_count": info.wal_count,
                "bytes": info.nbytes,
                "crc32": info.crc32,
                "extra": info.extra,
            }
            _fsync_write(
                self._manifest_path(label, wal_count),
                json.dumps(manifest, separators=(",", ":")).encode("ascii"),
            )
            self._prune(label)
        elapsed_us = (time.perf_counter_ns() - started) // 1000
        self._obs_duration.observe(elapsed_us)
        self._obs_bytes.observe(info.nbytes)
        return info

    def _prune(self, label: str) -> None:
        """Drop generations beyond ``keep`` (manifest first, then data)."""
        manifests = self.manifests(label)
        for info in manifests[: max(0, len(manifests) - self.keep)]:
            self._manifest_path(label, info.wal_count).unlink(
                missing_ok=True
            )
            self._data_path(label, info.wal_count).unlink(missing_ok=True)

    # -- reading ------------------------------------------------------------------

    def manifests(self, label: str = "sketch") -> List[CheckpointInfo]:
        """Parseable manifests for a label, oldest first."""
        infos: List[CheckpointInfo] = []
        for path in sorted(self.directory.glob(f"{label}-*.json")):
            try:
                raw = json.loads(path.read_text(encoding="ascii"))
                if raw.get("manifest_version") != MANIFEST_VERSION:
                    continue
                if raw.get("label") != label:
                    continue
                infos.append(
                    CheckpointInfo(
                        label=label,
                        wal_count=int(raw["wal_count"]),
                        nbytes=int(raw["bytes"]),
                        crc32=int(raw["crc32"]),
                        extra={
                            str(k): int(v)
                            for k, v in dict(raw.get("extra") or {}).items()
                        },
                    )
                )
            except (ValueError, KeyError, TypeError, OSError):
                # An unreadable manifest disqualifies its generation
                # only; recovery falls back to an older one.
                continue
        infos.sort(key=lambda info: info.wal_count)
        return infos

    def load_latest_payload(
        self, label: str = "sketch"
    ) -> Optional[Tuple[bytes, CheckpointInfo]]:
        """The newest checkpoint whose payload passes size+CRC checks.

        Walks generations newest-first; a missing, truncated, or
        corrupted payload is skipped.  Returns ``None`` when no good
        generation exists (recovery then replays the WAL from zero).
        """
        for info in reversed(self.manifests(label)):
            path = self._data_path(label, info.wal_count)
            try:
                payload = path.read_bytes()
            except OSError:
                continue
            if len(payload) != info.nbytes:
                continue
            if (zlib.crc32(payload) & 0xFFFFFFFF) != info.crc32:
                continue
            return payload, info
        return None

    def load_latest(
        self, label: str = "sketch", *, backend: str = "packed"
    ) -> Optional[Tuple[serialize.AnySketch, CheckpointInfo]]:
        """Deserialize the newest good checkpoint for a label.

        ``backend`` selects the storage backend of the restored sketch
        (the payload is backend-agnostic; ``"reference"`` restores the
        oracle store).
        """
        loaded = self.load_latest_payload(label)
        if loaded is None:
            return None
        payload, info = loaded
        return serialize.loads(payload, backend=backend), info

    def __repr__(self) -> str:
        return (
            f"CheckpointStore({str(self.directory)!r}, keep={self.keep})"
        )
