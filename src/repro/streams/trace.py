"""Flow-trace files: a plain-text interchange format for update streams.

Real deployments feed the monitor from NetFlow/GigaScope exports; for
reproducible experiments and offline analysis we define a minimal
line-oriented trace format:

    # comment lines and blank lines are ignored
    <source> <dest> <delta>

where addresses are either dotted-quad IPv4 (``10.0.0.1``) or plain
integers, and delta is ``+1``/``-1`` (``1`` is accepted for ``+1``).

:func:`write_trace` / :func:`read_trace` round-trip streams through
files; :func:`parse_line` / :func:`format_update` are the per-record
codecs, exposed for streaming use.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import IO, Iterable, Iterator, List, Union

from ..exceptions import StreamError
from ..netsim.addresses import format_ip, parse_ip
from ..types import FlowUpdate

PathLike = Union[str, Path]


def _parse_address(token: str) -> int:
    """Parse one address token: dotted-quad or plain integer."""
    if "." in token:
        return parse_ip(token)
    try:
        value = int(token)
    except ValueError:
        raise StreamError(f"unparseable address token: {token!r}") from None
    if value < 0:
        raise StreamError(f"negative address: {token!r}")
    return value


def parse_line(line: str) -> FlowUpdate:
    """Parse one trace line into a :class:`FlowUpdate`."""
    tokens = line.split()
    if len(tokens) != 3:
        raise StreamError(
            f"trace line needs 3 fields (source dest delta): {line!r}"
        )
    source = _parse_address(tokens[0])
    dest = _parse_address(tokens[1])
    delta_token = tokens[2]
    if delta_token in ("+1", "1"):
        delta = 1
    elif delta_token == "-1":
        delta = -1
    else:
        raise StreamError(f"delta must be +1 or -1, got {delta_token!r}")
    return FlowUpdate(source, dest, delta)


def format_update(update: FlowUpdate, dotted: bool = True) -> str:
    """Format one update as a trace line (without newline)."""
    if dotted:
        source = format_ip(update.source)
        dest = format_ip(update.dest)
    else:
        source = str(update.source)
        dest = str(update.dest)
    sign = "+1" if update.delta > 0 else "-1"
    return f"{source} {dest} {sign}"


def iter_trace(stream: IO[str]) -> Iterator[FlowUpdate]:
    """Yield updates from an open text stream, skipping comments.

    Raises:
        StreamError: naming the line, for a line that is not ASCII (the
            trace format is) or does not parse.
    """
    for line_number, raw in enumerate(stream, start=1):
        line = raw.strip()
        if not line.isascii():
            text = line.encode("utf-8", "surrogateescape")
            raise StreamError(
                f"line {line_number}: trace lines must be ASCII, got {text!r}"
            )
        if not line or line.startswith("#"):
            continue
        try:
            yield parse_line(line)
        except StreamError as error:
            raise StreamError(f"line {line_number}: {error}") from error


def read_trace(path: PathLike) -> List[FlowUpdate]:
    """Read a whole trace file into memory.

    A byte outside ASCII reaches :func:`iter_trace` as a lone surrogate
    (``surrogateescape``), which rejects its line by number.
    """
    with open(
        path, "r", encoding="ascii", errors="surrogateescape"
    ) as handle:
        return list(iter_trace(handle))


def write_trace(
    path: PathLike,
    updates: Iterable[FlowUpdate],
    dotted: bool = True,
    header: str = "",
) -> int:
    """Write updates to a trace file; returns the record count."""
    count = 0
    with open(path, "w", encoding="ascii") as handle:
        if header:
            for header_line in header.splitlines():
                handle.write(f"# {header_line}\n")
        for update in updates:
            handle.write(format_update(update, dotted=dotted))
            handle.write("\n")
            count += 1
    return count


def trace_from_string(text: str) -> List[FlowUpdate]:
    """Parse a trace from an in-memory string (tests, docs)."""
    return list(iter_trace(io.StringIO(text)))
