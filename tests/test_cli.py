"""Tests for the command-line interface."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.cli import main


def framed(magic: bytes, payload: bytes) -> bytes:
    """One CRC-valid WAL (``RW``) or dump (``FR``) record."""
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    return magic + struct.pack("<II", len(payload), crc) + payload


class TestSpaceCommand:
    def test_prints_paper_numbers(self, capsys):
        assert main(["space", "--pairs", "8000000"]) == 0
        output = capsys.readouterr().out
        assert "8,000,000" in output
        assert "basic DCS space" in output
        assert "brute-force space" in output

    def test_custom_shape(self, capsys):
        assert main(["space", "--pairs", "1000000", "--r", "4",
                     "--s", "64"]) == 0
        assert "gain" in capsys.readouterr().out


class TestTopkCommand:
    def test_runs_small_workload(self, capsys):
        assert main([
            "topk", "--pairs", "5000", "--destinations", "100",
            "--skew", "1.5", "--k", "5", "--seed", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "top-5 recall" in output
        assert "avg relative error" in output


class TestSynfloodCommand:
    def test_detects_victim(self, capsys):
        assert main([
            "synflood", "--flood-size", "1500", "--crowd-size", "1000",
            "--background-sessions", "500", "--seed", "2",
        ]) == 0
        output = capsys.readouterr().out
        assert "ALARM" in output
        assert "198.51.100.10" in output
        assert "correctly NOT alarmed" in output


class TestTraceCommands:
    def test_generate_and_replay(self, tmp_path, capsys):
        path = str(tmp_path / "demo.trace")
        assert main([
            "trace", "generate", path, "--pairs", "2000",
            "--destinations", "40", "--skew", "2.0", "--seed", "3",
        ]) == 0
        assert "wrote 2000 updates" in capsys.readouterr().out
        assert main(["trace", "replay", path, "--k", "3"]) == 0
        output = capsys.readouterr().out
        assert "replayed 2000 updates" in output
        assert "rank" in output

    def test_generate_with_deletions(self, tmp_path, capsys):
        path = str(tmp_path / "churn.trace")
        assert main([
            "trace", "generate", path, "--pairs", "1000",
            "--destinations", "20", "--deletion-rate", "0.5",
            "--seed", "4",
        ]) == 0
        out = capsys.readouterr().out
        assert "wrote 1500 updates" in out

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["trace"])


#: Trace files the library rejects: an unparseable token (a
#: ``StreamError``) and an address outside the IPv4 domain (a
#: ``DomainError``).
MALFORMED_TRACES = {
    "token": "10.0.0.1 10.0.0.2 +1\nnot-an-address 10.0.0.2 +1\n",
    "domain": "1 2 +1\n4294967296 2 +1\n",
}


class TestMalformedTraces:
    """Malformed trace input ends in one stderr line, exit status 1."""

    @pytest.mark.parametrize("problem", sorted(MALFORMED_TRACES))
    @pytest.mark.parametrize(
        "command",
        [["trace", "replay"], ["describe"]],
        ids=["replay", "describe"],
    )
    def test_exits_one_with_one_line(self, problem, command, tmp_path, capsys):
        path = tmp_path / "bad.trace"
        path.write_text(MALFORMED_TRACES[problem])
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro-ddos {command[0]}: ")
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("where", ["missing", "directory", "non-ascii"])
    @pytest.mark.parametrize(
        "command",
        [["trace", "replay"], ["describe"]],
        ids=["replay", "describe"],
    )
    def test_unreadable_trace_exits_one_with_one_line(
        self, where, command, tmp_path, capsys
    ):
        path = tmp_path / "flows.trace"
        if where == "directory":
            path.mkdir()
        elif where == "non-ascii":
            path.write_bytes(b"1 2 1\n\xff\xfe 3 1\n")
        assert main([*command, str(path)]) == 1
        captured = capsys.readouterr()
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro-ddos {command[0]}: ")
        if where == "non-ascii":
            assert "line 2" in err[0]
        assert "Traceback" not in captured.err


class TestPlanCommand:
    def test_prints_both_flavors(self, capsys):
        assert main([
            "plan", "--pairs", "1000000", "--kth-frequency", "10000",
        ]) == 0
        output = capsys.readouterr().out
        assert "[calibrated]" in output
        assert "[theorem-4.4]" in output
        assert "predicted space" in output

    def test_requires_workload_arguments(self):
        with pytest.raises(SystemExit):
            main(["plan"])


class TestDescribeCommand:
    def test_describes_a_trace_built_sketch(self, tmp_path, capsys):
        path = str(tmp_path / "d.trace")
        assert main([
            "trace", "generate", path, "--pairs", "1000",
            "--destinations", "30", "--seed", "1",
        ]) == 0
        capsys.readouterr()
        assert main(["describe", path]) == 0
        output = capsys.readouterr().out
        assert "TrackingDistinctCountSketch" in output
        assert "buckets:" in output
        assert "estimated distinct active pairs" in output
        assert "actual Python memory" in output


class TestExperimentCommand:
    def test_fig8_prints_grid(self, capsys):
        assert main([
            "experiment", "fig8", "--pairs", "5000", "--runs", "1",
        ]) == 0
        output = capsys.readouterr().out
        assert "Figure 8 grid" in output
        assert "z=1.0" in output

    def test_fig9_prints_sweep(self, capsys):
        assert main(["experiment", "fig9", "--pairs", "2000"]) == 0
        output = capsys.readouterr().out
        assert "Figure 9 sweep" in output
        assert "tracking" in output

    def test_latency_reports_detection(self, capsys):
        assert main([
            "experiment", "latency", "--pairs", "30000", "--seed", "2",
        ]) == 0
        assert "detected" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["experiment", "fig99"])


class TestStatsCommand:
    def test_prometheus_snapshot(self, capsys):
        assert main([
            "stats", "--updates", "800", "--format", "prometheus",
            "--seed", "5",
        ]) == 0
        output = capsys.readouterr().out
        assert "# ingested" in output
        assert "# TYPE repro_sketch_updates_total counter" in output
        assert 'repro_sketch_updates_total{op="insert"}' in output
        assert "repro_monitor_checks_total" in output
        assert 'repro_transport_updates_total{outcome="delivered"}' in output

    def test_json_snapshot(self, capsys):
        import json

        assert main([
            "stats", "--updates", "500", "--format", "json", "--seed", "5",
        ]) == 0
        output = capsys.readouterr().out
        payload = json.loads(output[output.index("{"):])
        names = [i["name"] for i in payload["instruments"]]
        assert "repro_sketch_updates_total" in names
        assert "repro_monitor_updates_total" in names
        assert names == sorted(names)

    def test_both_formats_and_flood_detection(self, capsys):
        assert main(["stats", "--updates", "2000", "--seed", "5"]) == 0
        output = capsys.readouterr().out
        # The quickstart workload stages a SYN flood the monitor catches.
        assert 'repro_monitor_alarms_total{severity="critical"}' in output
        assert '"repro_monitor_alarms_total"' in output

    def test_watch_lines(self, capsys):
        assert main([
            "stats", "--updates", "600", "--watch", "200",
            "--format", "json", "--seed", "5",
        ]) == 0
        output = capsys.readouterr().out
        watch_lines = [line for line in output.splitlines()
                       if line.startswith("[watch]")]
        assert len(watch_lines) >= 2
        assert "delivered=200" in watch_lines[0]
        assert "occupied_buckets=" in watch_lines[0]

    def test_zipf_workload(self, capsys):
        assert main([
            "stats", "--workload", "zipf", "--updates", "400",
            "--format", "prometheus", "--seed", "6",
        ]) == 0
        output = capsys.readouterr().out
        assert "workload=zipf" in output
        assert "repro_sketch_occupied_buckets" in output


    @pytest.mark.parametrize("flag", ["--watch", "--updates"])
    def test_negative_count_is_a_usage_error(self, flag, capsys):
        # --watch -1 used to print a line per update, --updates -5 to
        # ingest nothing and exit 0.
        assert main(["stats", flag, "-1"]) == 2
        assert f"{flag} must be >= 0" in capsys.readouterr().err


class TestCheckpointRoundTrip:
    """stats --checkpoint-dir writes what recover restores."""

    @staticmethod
    def _top_rows(output):
        start = output.index("rank  destination")
        return output[start:].splitlines()

    def test_stats_then_recover(self, tmp_path, capsys):
        directory = str(tmp_path / "durable")
        assert main([
            "stats", "--updates", "2000", "--seed", "5",
            "--format", "json", "--checkpoint-dir", directory,
            "--checkpoint-every", "700",
        ]) == 0
        output = capsys.readouterr().out
        ingested = int(output.split("# ingested ")[1].split()[0])
        assert ingested > 0
        assert main(["recover", directory]) == 0
        packed = capsys.readouterr().out
        assert f"sketch reflects wal position: {ingested}" in packed
        assert main(["recover", directory, "--backend", "reference"]) == 0
        reference = capsys.readouterr().out
        assert f"sketch reflects wal position: {ingested}" in reference
        assert self._top_rows(packed) == self._top_rows(reference)
        assert len(self._top_rows(packed)) > 1
        assert main([
            "stats", "--updates", "300", "--seed", "6",
            "--format", "json", "--checkpoint-dir", directory,
        ]) == 0
        assert "# resumed from checkpoint" in capsys.readouterr().out

    def test_recover_reports_a_corrupt_wal(self, tmp_path, capsys):
        directory = tmp_path / "durable"
        assert main([
            "stats", "--updates", "500", "--seed", "5",
            "--format", "json", "--checkpoint-dir", str(directory),
        ]) == 0
        capsys.readouterr()
        segment = sorted((directory / "wal").glob("wal-*.seg"))[-1]
        with segment.open("ab") as handle:
            handle.write(framed(b"RW", b'["x",[]]'))
        assert main(["recover", str(directory)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("recovery failed:")
        assert err.count("\n") == 1


    def test_recover_leaves_a_missing_directory_missing(
        self, tmp_path, capsys
    ):
        directory = tmp_path / "absent" / "durable"
        assert main(["recover", str(directory)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("recovery failed:")
        assert err.count("\n") == 1
        assert not (tmp_path / "absent").exists()

    def test_recover_reports_a_malformed_update(self, tmp_path, capsys):
        directory = tmp_path / "durable"
        assert main([
            "stats", "--updates", "500", "--seed", "5",
            "--format", "json", "--checkpoint-dir", str(directory),
        ]) == 0
        out = capsys.readouterr().out
        wal_seq = int(out.split("wal_seq=")[1].split(";")[0])
        segment = sorted((directory / "wal").glob("wal-*.seg"))[-1]
        with segment.open("ab") as handle:
            handle.write(framed(b"RW", f'[{wal_seq},[["a",2,1]]]'.encode()))
        assert main(["recover", str(directory)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("recovery failed:")
        assert "malformed update" in err
        assert err.count("\n") == 1


class TestBlackboxCommand:
    def test_malformed_record_exits_1(self, tmp_path, capsys):
        path = tmp_path / "bad.bin"
        path.write_bytes(framed(b"FR", b"not json"))
        assert main(["blackbox", str(path)]) == 1
        assert "cannot read dump" in capsys.readouterr().err


class TestServeCommand:
    @pytest.mark.parametrize(
        "flag", ["--shards", "--sample-every", "--max-requests", "--updates"]
    )
    def test_negative_count_is_a_usage_error(self, flag, capsys):
        # Rejected before any ingest or socket: no silent fallback to
        # a single in-process sketch.
        assert main(["serve", "--updates", "100", flag, "-1"]) == 2
        assert f"{flag} must be >= 0" in capsys.readouterr().err


class TestLibraryRejections:
    """A ParameterError raised by the library is a usage error."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--checkpoint-every", "-3", "--checkpoint-dir", "D"],
            ["topk", "--pairs", "0"],
            ["synflood", "--flood-size", "-1"],
            ["serve", "--workload", "zipf", "--updates", "0"],
        ],
        ids=["checkpoint-every", "pairs", "flood-size", "zipf-updates"],
    )
    def test_exits_two_with_one_line(self, argv, tmp_path, capsys):
        argv = [str(tmp_path / "d") if arg == "D" else arg for arg in argv]
        assert main(argv) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"repro-ddos {argv[0]}: ")
        assert not (tmp_path / "d").exists()


class TestArgumentHandling:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit):
            main(["nope"])


class TestLintCommand:
    def test_src_repro_passes(self, capsys):
        assert main(["lint", "src/repro"]) == 0
        assert "all checks passed" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        assert main(["lint", "--format", "json", "src/repro"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"]["errors"] == 0
        assert len(payload["rules"]) >= 7

    def test_reports_violations_in_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "streams" / "demo.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import random\n\n\ndef f():\n    return random.random()\n"
        )
        assert main(["lint", str(bad)]) == 1
        output = capsys.readouterr().out
        assert "RL001" in output

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        assert "RL007" in capsys.readouterr().out
