"""Core value types shared across the library.

The paper's stream model (Section 2) abstracts every observation as a
*flow update* ``(source, dest, +/-1)`` where both addresses live in an
integer domain ``[m] = {0, ..., m - 1}`` and the pair is encoded into
``[m^2]`` by concatenating the two addresses.  This module provides the
small, immutable types that carry those values through the rest of the
library, plus the encoding/decoding helpers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from operator import index
from typing import Iterable, Iterator, List, Tuple, TypeVar

from .exceptions import DomainError, ParameterError, StreamError

#: Update delta for an insertion (e.g. an observed SYN packet).
INSERT = 1
#: Update delta for a deletion (e.g. the matching ACK legitimising a flow).
DELETE = -1


@dataclass(frozen=True)
class AddressDomain:
    """The integer domain ``[m]`` of IP addresses used by a sketch.

    ``m`` must be a power of two: the count-signature layout stores one
    counter per bit of the *pair* encoding, so a pair needs exactly
    ``2 * log2(m)`` bits (Section 3).

    Attributes:
        m: domain size; source and destination addresses are integers in
            ``[0, m)``.
    """

    m: int

    def __post_init__(self) -> None:
        if self.m < 2 or (self.m & (self.m - 1)) != 0:
            raise DomainError(
                f"address domain size must be a power of two >= 2, got {self.m}"
            )

    @property
    def address_bits(self) -> int:
        """Number of bits needed for one address (``log2 m``)."""
        return self.m.bit_length() - 1

    @property
    def pair_bits(self) -> int:
        """Number of bits needed for a source-destination pair (``2 log m``)."""
        return 2 * self.address_bits

    @property
    def pair_domain(self) -> int:
        """Size of the pair domain ``m^2``."""
        return self.m * self.m

    def validate_address(self, address: int) -> None:
        """Raise :class:`DomainError` unless ``address`` is in ``[0, m)``."""
        if not 0 <= address < self.m:
            raise DomainError(
                f"address {address} outside domain [0, {self.m})"
            )

    def encode_pair(self, source: int, dest: int) -> int:
        """Encode ``(source, dest)`` into the integer pair domain ``[m^2]``.

        The source occupies the high bits and the destination the low
        bits, mirroring the paper's "concatenating the two addresses".
        The code is a plain ``int`` whatever integer type the addresses
        have (``bool``, ``IntEnum`` and numpy integers encode as their
        value); a non-integer address raises ``TypeError``.
        """
        self.validate_address(source)
        self.validate_address(dest)
        return (index(source) << self.address_bits) | index(dest)

    def decode_pair(self, pair: int) -> Tuple[int, int]:
        """Invert :meth:`encode_pair`, returning ``(source, dest)``."""
        if not 0 <= pair < self.pair_domain:
            raise DomainError(
                f"pair code {pair} outside domain [0, {self.pair_domain})"
            )
        return pair >> self.address_bits, pair & (self.m - 1)


@dataclass(frozen=True)
class FlowUpdate:
    """One element of a flow-update stream: ``(source, dest, delta)``.

    ``delta`` is ``+1`` for an insertion (a potentially-malicious flow
    appeared, e.g. a SYN) and ``-1`` for a deletion (the flow was
    legitimised, e.g. the client's ACK completed the handshake).
    """

    source: int
    dest: int
    delta: int = INSERT

    def __post_init__(self) -> None:
        if self.delta not in (INSERT, DELETE):
            raise StreamError(
                f"flow-update delta must be +1 or -1, got {self.delta}"
            )

    @property
    def is_insert(self) -> bool:
        """True when this update inserts the flow."""
        return self.delta == INSERT

    @property
    def is_delete(self) -> bool:
        """True when this update deletes the flow."""
        return self.delta == DELETE

    def inverted(self) -> "FlowUpdate":
        """Return the update that exactly cancels this one."""
        return FlowUpdate(self.source, self.dest, -self.delta)

    def as_tuple(self) -> Tuple[int, int, int]:
        """Return the plain ``(source, dest, delta)`` tuple."""
        return (self.source, self.dest, self.delta)


def iter_updates(
    triples: Iterator[Tuple[int, int, int]],
) -> Iterator[FlowUpdate]:
    """Wrap an iterator of raw triples into :class:`FlowUpdate` objects."""
    for source, dest, delta in triples:
        yield FlowUpdate(source, dest, delta)


_Item = TypeVar("_Item")


def cut_stream(
    updates: Iterable[_Item], interval: int, position: int = 0
) -> Iterator[List[_Item]]:
    """Cut a stream into lists that end at every multiple of ``interval``.

    Stream positions count from ``position`` (the updates a consumer
    has already seen), so feeding the chunks to a batch engine places a
    chunk boundary exactly where per-update feeding would reach each
    multiple — the poll, check or sync point.  Lazy: at most one chunk
    is materialised at a time.

    Example:
        >>> stream = [FlowUpdate(source, 1) for source in range(7)]
        >>> [len(chunk) for chunk in cut_stream(stream, 3, position=1)]
        [2, 3, 2]
    """
    if interval < 1:
        raise ParameterError(f"interval must be >= 1, got {interval}")
    iterator = iter(updates)
    room = interval - position % interval
    while True:
        chunk = list(islice(iterator, room))
        if chunk:
            yield chunk
        if len(chunk) < room:
            return
        room = interval
