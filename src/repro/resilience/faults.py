"""Fault injection for chaos-testing the resilience layer.

These helpers inflict the three failure classes the recovery design
must survive, so the chaos suite can assert the recovered sketch is
``structurally_equal`` to an uninterrupted run:

* :func:`kill_shard_worker` — SIGKILL a shard's worker process
  mid-stream (no cleanup handlers run, exactly like an OOM kill);
* :func:`truncate_wal_tail` — chop bytes off the newest WAL segment,
  simulating a torn write at crash time (recovery must drop only the
  torn record and keep everything framed before it);
* :func:`corrupt_latest_checkpoint` — flip a byte inside the newest
  checkpoint payload (recovery must notice the CRC mismatch and fall
  back to the previous generation plus a longer WAL tail);
* :func:`drop_delta_sync` — drain one worker's dirty-bucket delta run
  and throw it away, simulating a torn/lost shard sync (the epoch gap
  must force the parent into an exact full resync instead of silently
  diverging).

They are shipped in the package — not buried in ``tests/`` — so
operators can run the same drills against a staging deployment; see
``docs/recovery.md``.
"""

from __future__ import annotations

import os
import signal
import time
from pathlib import Path
from typing import Union

from ..exceptions import ParameterError
from ..sketch.sharded import ShardedSketch

#: How long :func:`kill_shard_worker` waits for the process to die.
KILL_WAIT_SECONDS = 5.0


def kill_shard_worker(
    sharded: ShardedSketch, index: int, sig: int = signal.SIGKILL
) -> int:
    """SIGKILL one shard's worker and wait until it is gone.

    Returns the killed pid.  Raises
    :class:`~repro.exceptions.ParameterError` on the sync backend
    (there is no process to kill) or if the worker refuses to die
    within ``KILL_WAIT_SECONDS``.
    """
    pid = sharded.worker_pid(index)
    if pid is None:
        raise ParameterError(
            f"shard {index} has no worker process (backend is "
            f"{sharded.backend!r})"
        )
    os.kill(pid, sig)
    # ``worker_alive`` goes through Process.is_alive(), which reaps the
    # zombie; poll it rather than os.kill(pid, 0).
    deadline = int(KILL_WAIT_SECONDS / 0.01)
    for _ in range(deadline):
        if not sharded.worker_alive(index):
            return pid
        time.sleep(0.01)
    raise ParameterError(
        f"shard {index} worker (pid {pid}) survived signal {sig}"
    )


def drop_delta_sync(sharded: ShardedSketch, index: int) -> int:
    """Drain one shard's delta run and discard it (torn sync).

    The worker's dirty index is emptied and its sync epoch advances,
    but the parent's running combined sum never sees the window — the
    exact state a crash between drain and fold would leave.  The next
    ``combined()`` must detect the epoch gap and fall back to a full
    resync.  Returns the number of bytes discarded.

    Raises:
        ParameterError: unless the sketch runs a worker pool.
    """
    pool = sharded._pool
    if pool is None:
        raise ParameterError(
            "drop_delta_sync requires backend='process' (got "
            f"backend={sharded.backend!r})"
        )
    reply = pool.collect_delta(index)
    return len(reply["keys"]) + len(reply["rows"])


def truncate_wal_tail(
    wal_directory: Union[str, Path], drop_bytes: int = 5
) -> Path:
    """Chop ``drop_bytes`` off the newest WAL segment (torn write).

    Returns the truncated segment path.  Raises
    :class:`~repro.exceptions.ParameterError` when the directory holds
    no segments or ``drop_bytes`` is not positive.
    """
    if drop_bytes < 1:
        raise ParameterError(
            f"drop_bytes must be >= 1, got {drop_bytes}"
        )
    segments = sorted(Path(wal_directory).glob("wal-*.seg"))
    if not segments:
        raise ParameterError(
            f"no WAL segments under {wal_directory}"
        )
    target = segments[-1]
    size = target.stat().st_size
    with target.open("r+b") as handle:
        handle.truncate(max(0, size - drop_bytes))
    return target


def corrupt_latest_checkpoint(
    checkpoint_directory: Union[str, Path],
    label: str = "sketch",
    offset: int = 64,
) -> Path:
    """Flip one payload byte in the newest checkpoint for a label.

    The manifest is left intact, so the corruption is only detectable
    through the CRC check — exactly the bit-rot / partial-write case
    the manifest exists for.  Returns the corrupted payload path.
    """
    checkpoints = sorted(
        Path(checkpoint_directory).glob(f"{label}-*.ckpt")
    )
    if not checkpoints:
        raise ParameterError(
            f"no checkpoints for label {label!r} under "
            f"{checkpoint_directory}"
        )
    target = checkpoints[-1]
    data = bytearray(target.read_bytes())
    if not data:
        raise ParameterError(f"checkpoint {target} is empty")
    position = min(offset, len(data) - 1)
    data[position] ^= 0xFF
    target.write_bytes(bytes(data))
    return target
