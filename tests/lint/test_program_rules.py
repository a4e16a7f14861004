"""RL009-RL013 positive/negative fixture pairs.

Every rule gets at least one fixture that must fire and one that must
stay quiet — the quiet ones encode the idioms the real codebase uses
(ownership transfer, retry loops, teardown suppression, zero tests in
linear code), so a regression here means false positives on ``src/``.
"""

from __future__ import annotations

import textwrap
from typing import List, Tuple

from repro.lint import LintRunner, Violation


def run_rule(rule_id: str, *sources: Tuple[str, str]) -> List[Violation]:
    """Lint the given (path, source) pairs with exactly one rule."""
    pairs = [(path, textwrap.dedent(text)) for path, text in sources]
    return LintRunner(select=[rule_id]).run_sources(pairs)


class TestRL009ProcessBoundary:
    def test_fails_on_lock_through_send(self):
        violations = run_rule("RL009", (
            "src/repro/sketch/demo.py",
            """
            import threading

            def ship(conn):
                lock = threading.Lock()
                conn.send(lock)
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL009"]
        assert "lock" in violations[0].message

    def test_fails_on_rng_in_spawn_args(self):
        violations = run_rule("RL009", (
            "src/repro/sketch/demo.py",
            """
            import random
            from multiprocessing import Process

            def launch(worker):
                rng = random.Random(7)
                return Process(target=worker, args=(rng,))
            """,
        ))
        assert len(violations) == 1
        assert "rng" in violations[0].message

    def test_fails_on_lambda_target(self):
        violations = run_rule("RL009", (
            "src/repro/sketch/demo.py",
            """
            from multiprocessing import Process

            def launch():
                return Process(target=lambda: None)
            """,
        ))
        assert len(violations) == 1
        assert "lambda" in violations[0].message

    def test_fails_on_closure_capturing_open_handle(self):
        violations = run_rule("RL009", (
            "src/repro/sketch/demo.py",
            """
            from multiprocessing import Process

            def launch(path):
                handle = open(path, "rb")

                def worker():
                    return handle.read()

                return Process(target=worker)
            """,
        ))
        assert any("closes over" in v.message for v in violations)

    def test_passes_on_plain_data_and_connection_args(self):
        violations = run_rule("RL009", (
            "src/repro/sketch/demo.py",
            """
            from multiprocessing import Pipe, Process

            def launch(worker, params):
                parent_conn, child_conn = Pipe()
                process = Process(
                    target=worker, args=(child_conn, params, 42)
                )
                process.start()
                child_conn.close()
                return parent_conn, process
            """,
        ))
        assert violations == []


class TestRL010ResourceLifecycle:
    def test_fails_on_handle_open_at_raise(self):
        violations = run_rule("RL010", (
            "src/repro/resilience/demo.py",
            """
            def load(path):
                handle = open(path, "rb")
                data = handle.read()
                if not data:
                    raise ValueError("empty")
                handle.close()
                return data
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL010"]
        assert "handle" in violations[0].message

    def test_fails_on_leak_through_private_spawn_helper(self):
        # The interprocedural summary: _spawn() returns a fresh pipe
        # end, so the caller owns it and must close it on the error
        # path — this is the exact shape of the process_pool bug.
        violations = run_rule("RL010", (
            "src/repro/sketch/demo.py",
            """
            from multiprocessing import Pipe


            class Pool:
                def _spawn(self):
                    parent_conn, child_conn = Pipe()
                    child_conn.close()
                    return parent_conn, None

                def respawn(self, payload):
                    try:
                        parent_conn, process = self._spawn()
                        parent_conn.send(("load", payload))
                    except (OSError, ValueError) as error:
                        raise RuntimeError(str(error)) from error
                    self._conn = parent_conn
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL010"]
        assert "parent_conn" in violations[0].message

    def test_passes_when_error_path_closes_before_reraise(self):
        violations = run_rule("RL010", (
            "src/repro/sketch/demo.py",
            """
            from multiprocessing import Pipe


            class Pool:
                def _spawn(self):
                    parent_conn, child_conn = Pipe()
                    child_conn.close()
                    return parent_conn, None

                def respawn(self, payload):
                    try:
                        parent_conn, process = self._spawn()
                    except (OSError, ValueError) as error:
                        raise RuntimeError(str(error)) from error
                    try:
                        parent_conn.send(("load", payload))
                    except (OSError, ValueError) as error:
                        parent_conn.close()
                        raise RuntimeError(str(error)) from error
                    self._conn = parent_conn
            """,
        ))
        assert violations == []

    def test_passes_on_with_block_and_ownership_transfer(self):
        violations = run_rule("RL010", (
            "src/repro/resilience/demo.py",
            """
            def read(path):
                with open(path, "rb") as handle:
                    return handle.read()

            def acquire(path):
                handle = open(path, "rb")
                return handle
            """,
        ))
        assert violations == []


class TestRL011DurabilityProtocol:
    def test_fails_on_rename_without_fsync_before(self):
        violations = run_rule("RL011", (
            "src/repro/resilience/demo.py",
            """
            import os

            def publish(tmp, path, data):
                with open(tmp, "wb") as handle:
                    handle.write(data)
                os.replace(tmp, path)
            """,
        ))
        messages = " ".join(v.message for v in violations)
        assert "flush+fsync" in messages

    def test_fails_on_rename_without_directory_fsync(self):
        violations = run_rule("RL011", (
            "src/repro/resilience/demo.py",
            """
            import os

            def publish(tmp, path, data):
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
            """,
        ))
        assert len(violations) == 1
        assert "directory fsync" in violations[0].message

    def test_passes_on_full_protocol(self):
        violations = run_rule("RL011", (
            "src/repro/resilience/demo.py",
            """
            import os

            def publish(tmp, path, data):
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    handle.flush()
                    os.fsync(handle.fileno())
                os.replace(tmp, path)
                dir_fd = os.open(str(path), os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)
            """,
        ))
        assert violations == []

    def test_protocol_satisfied_through_helper_call(self):
        # `_fsync_write`-style helpers: the caller's rename protocol
        # events include one level of resolved in-project callees.
        violations = run_rule("RL011", (
            "src/repro/resilience/demo.py",
            """
            import os

            def _sync(handle):
                handle.flush()
                os.fsync(handle.fileno())

            def _sync_dir(path):
                dir_fd = os.open(str(path), os.O_RDONLY)
                try:
                    os.fsync(dir_fd)
                finally:
                    os.close(dir_fd)

            def publish(tmp, path, data):
                with open(tmp, "wb") as handle:
                    handle.write(data)
                    _sync(handle)
                os.replace(tmp, path)
                _sync_dir(path)
            """,
        ))
        assert violations == []

    def test_fails_on_loads_of_unverified_disk_bytes(self):
        violations = run_rule("RL011", (
            "src/repro/resilience/demo.py",
            """
            import pickle

            def load(path):
                payload = path.read_bytes()
                return pickle.loads(payload)
            """,
        ))
        assert len(violations) == 1
        assert "CRC" in violations[0].message

    def test_passes_on_crc_verified_read(self):
        violations = run_rule("RL011", (
            "src/repro/resilience/demo.py",
            """
            import pickle
            import zlib

            def load(path, expected):
                payload = path.read_bytes()
                if zlib.crc32(payload) != expected:
                    raise ValueError("checksum mismatch")
                return pickle.loads(payload)
            """,
        ))
        assert violations == []


class TestRL012ExceptionIntegrity:
    def test_fails_on_swallowed_worker_died(self):
        violations = run_rule("RL012", (
            "src/repro/resilience/demo.py",
            """
            def poll(pool):
                try:
                    pool.step()
                except WorkerDied:
                    pass
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL012"]

    def test_fails_on_suppress_of_wal_corruption(self):
        violations = run_rule("RL012", (
            "src/repro/resilience/demo.py",
            """
            import contextlib

            def replay(wal):
                with contextlib.suppress(WalCorruption):
                    wal.replay()
            """,
        ))
        assert len(violations) == 1

    def test_fails_on_broken_pipe_pass_outside_teardown(self):
        violations = run_rule("RL012", (
            "src/repro/sketch/demo.py",
            """
            def ingest(conn, batch):
                try:
                    conn.send(batch)
                except BrokenPipeError:
                    pass
            """,
        ))
        assert len(violations) == 1

    def test_passes_on_teardown_suppression_of_broken_pipe(self):
        violations = run_rule("RL012", (
            "src/repro/sketch/demo.py",
            """
            def _cleanup(connections):
                for conn in connections:
                    try:
                        conn.close()
                    except (OSError, BrokenPipeError):
                        pass
            """,
        ))
        assert violations == []

    def test_passes_on_retry_loop_continue(self):
        violations = run_rule("RL012", (
            "src/repro/resilience/demo.py",
            """
            def recover(pool, shards):
                for shard in shards:
                    try:
                        pool.respawn(shard)
                    except (WorkerDied, PoolUnavailable):
                        continue
            """,
        ))
        assert violations == []

    def test_passes_on_handler_that_reraises(self):
        violations = run_rule("RL012", (
            "src/repro/resilience/demo.py",
            """
            def step(pool):
                try:
                    pool.step()
                except WorkerDied as error:
                    raise RuntimeError(str(error)) from error
            """,
        ))
        assert violations == []


class TestRL013LinearityGuard:
    def test_fails_on_float_literal(self):
        violations = run_rule("RL013", (
            "src/repro/sketch/demo.py",
            """
            # linear
            def merge(a, b):
                for i, value in enumerate(b):
                    a[i] += value * 1.0
                return a
            """,
        ))
        assert [v.rule_id for v in violations] == ["RL013"]
        assert "float" in violations[0].message

    def test_fails_on_sign_branch_and_truncation(self):
        violations = run_rule("RL013", (
            "src/repro/sketch/demo.py",
            """
            # linear
            def merge(a, b):
                for i, value in enumerate(b):
                    if value > 0:
                        a[i] += value // 2
                return a
            """,
        ))
        kinds = {v.message.split()[0] for v in violations}
        assert len(violations) == 2
        assert any("sign" in v.message for v in violations)
        assert any(
            "truncation" in v.message or "floor" in v.message
            for v in violations
        )

    def test_fails_on_float_in_unmarked_callee(self):
        violations = run_rule("RL013", (
            "src/repro/sketch/demo.py",
            """
            def scale(value):
                return value * 0.5

            # linear
            def merge(a, b):
                for i, value in enumerate(b):
                    a[i] += scale(value)
                return a
            """,
        ))
        assert len(violations) == 1
        assert "scale" in violations[0].message

    def test_passes_on_exact_integer_merge(self):
        violations = run_rule("RL013", (
            "src/repro/sketch/demo.py",
            """
            # linear
            def merge(a, b):
                for i, value in enumerate(b):
                    if value == 0:
                        continue
                    a[i] += value
                return a
            """,
        ))
        assert violations == []

    def test_passes_on_structural_len_comparison(self):
        violations = run_rule("RL013", (
            "src/repro/sketch/demo.py",
            """
            # linear
            def merge(a, b):
                if len(b) > 0:
                    for i, value in enumerate(b):
                        a[i] += value
                return a
            """,
        ))
        assert violations == []

    def test_unmarked_functions_are_not_checked(self):
        violations = run_rule("RL013", (
            "src/repro/sketch/demo.py",
            """
            def estimate(a):
                return len(a) * 0.5
            """,
        ))
        assert violations == []
