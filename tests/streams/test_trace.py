"""Tests for the flow-trace file format."""

from __future__ import annotations

import pytest

from repro.exceptions import StreamError
from repro.streams import read_trace, trace_from_string, write_trace
from repro.streams.trace import format_update, parse_line
from repro.types import FlowUpdate


class TestParseLine:
    def test_dotted_quad(self):
        update = parse_line("10.0.0.1 192.168.1.1 +1")
        assert update == FlowUpdate(0x0A000001, 0xC0A80101, +1)

    def test_integer_addresses(self):
        assert parse_line("5 7 -1") == FlowUpdate(5, 7, -1)

    def test_bare_one_is_insert(self):
        assert parse_line("1 2 1").delta == +1

    @pytest.mark.parametrize(
        "bad",
        ["1 2", "1 2 3 4", "x y +1", "1 2 +2", "1 2 0", "-5 2 +1"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(StreamError):
            parse_line(bad)


class TestFormatUpdate:
    def test_dotted_output(self):
        line = format_update(FlowUpdate(0x0A000001, 0xC0A80101, -1))
        assert line == "10.0.0.1 192.168.1.1 -1"

    def test_integer_output(self):
        line = format_update(FlowUpdate(5, 7, +1), dotted=False)
        assert line == "5 7 +1"

    def test_roundtrip(self):
        update = FlowUpdate(123456, 654321, -1)
        assert parse_line(format_update(update)) == update


class TestTraceFromString:
    def test_skips_comments_and_blanks(self):
        updates = trace_from_string(
            "# header\n\n1 2 +1\n  \n# mid comment\n3 4 -1\n"
        )
        assert updates == [FlowUpdate(1, 2, +1), FlowUpdate(3, 4, -1)]

    def test_error_reports_line_number(self):
        with pytest.raises(StreamError, match="line 3"):
            trace_from_string("# ok\n1 2 +1\nbogus line here\n")


class TestFileRoundTrip:
    def test_write_and_read(self, tmp_path):
        path = tmp_path / "flows.trace"
        updates = [
            FlowUpdate(0x0A000001, 0xC0A80101, +1),
            FlowUpdate(0x0A000002, 0xC0A80101, +1),
            FlowUpdate(0x0A000001, 0xC0A80101, -1),
        ]
        count = write_trace(path, updates, header="test trace\nv1")
        assert count == 3
        assert read_trace(path) == updates

    def test_integer_format_roundtrip(self, tmp_path):
        path = tmp_path / "flows.trace"
        updates = [FlowUpdate(1, 2, +1), FlowUpdate(3, 4, -1)]
        write_trace(path, updates, dotted=False)
        assert read_trace(path) == updates

    def test_header_lines_are_comments(self, tmp_path):
        path = tmp_path / "flows.trace"
        write_trace(path, [FlowUpdate(1, 2, +1)], header="a\nb")
        content = path.read_text()
        assert content.startswith("# a\n# b\n")

    def test_non_ascii_byte_names_its_line(self, tmp_path):
        path = tmp_path / "flows.trace"
        path.write_bytes(b"1 2 1\n\xff\xfe 3 1\n")
        with pytest.raises(StreamError, match=r"line 2: .*ASCII"):
            read_trace(path)

    def test_trace_feeds_a_sketch(self, tmp_path):
        from repro import AddressDomain, TrackingDistinctCountSketch

        path = tmp_path / "flows.trace"
        updates = [FlowUpdate(source, 9, +1) for source in range(60)]
        write_trace(path, updates)
        sketch = TrackingDistinctCountSketch(AddressDomain(2 ** 32),
                                             seed=1)
        sketch.process_stream(read_trace(path))
        assert sketch.track_topk(1).destinations == [9]
