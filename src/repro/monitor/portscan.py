"""Port-scan / worm-propagation detection: the footnote-1 application.

Footnote 1 of the paper: "Our top-k distinct frequencies tracking
algorithms can also be used to identify hosts that contact many distinct
destinations during port scans (mostly for worm propagation)."

The trick is pure symmetry: feed the sketch the pair ``(dest, source)``
instead of ``(source, dest)`` and the tracked quantity becomes the
number of distinct *destinations* each *source* contacts — the
superspreader/scanner metric.  :class:`PortScanDetector` packages that,
including the deletion convention (a completed, legitimate exchange can
be removed so long-lived busy clients don't look like scanners).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from ..exceptions import ParameterError
from ..sketch import TrackingDistinctCountSketch
from ..sketch.estimate import TopKResult
from ..types import AddressDomain, FlowUpdate


class PortScanDetector:
    """Track top-k sources by distinct contacted destinations.

    Args:
        domain: address domain.
        seed, r, s: underlying sketch configuration.

    Example:
        >>> from repro.types import AddressDomain
        >>> detector = PortScanDetector(AddressDomain(2 ** 16), seed=1)
        >>> for dest in range(300):
        ...     detector.record_contact(source=9, dest=dest)
        >>> detector.top_scanners(1).destinations
        [9]
    """

    def __init__(
        self,
        domain: AddressDomain,
        seed: int = 0,
        r: int = 3,
        s: int = 128,
    ) -> None:
        self.domain = domain
        # The sketch is direction-agnostic; we simply swap the roles.
        self.sketch = TrackingDistinctCountSketch(domain, r=r, s=s,
                                                  seed=seed)

    def record_contact(self, source: int, dest: int) -> None:
        """A source contacted a destination (e.g. sent a SYN)."""
        self.sketch.insert(dest, source)

    def discount_contact(self, source: int, dest: int) -> None:
        """Remove a contact established as legitimate."""
        self.sketch.delete(dest, source)

    def observe(self, update: FlowUpdate) -> None:
        """Consume a flow update, swapping the pair roles."""
        self.sketch.update(update.dest, update.source, update.delta)

    def observe_stream(self, updates: Iterable[FlowUpdate]) -> int:
        """Consume a whole update stream in batches; returns the count."""
        return self.sketch.process_stream(
            FlowUpdate(update.dest, update.source, update.delta)
            for update in updates
        )

    def top_scanners(self, k: int) -> TopKResult:
        """Top-k sources by estimated distinct contacted destinations.

        The returned entries' ``dest`` field holds the *source* address
        (the sketch's destination role), per the role swap.
        """
        if k < 1:
            raise ParameterError(f"k must be >= 1, got {k}")
        return self.sketch.track_topk(k)

    def scanners_above(self, tau: int) -> List[Tuple[int, int]]:
        """All sources contacting at least ~tau distinct destinations."""
        if tau < 1:
            raise ParameterError(f"tau must be >= 1, got {tau}")
        result = self.sketch.track_threshold(tau)
        return [(entry.dest, entry.estimate) for entry in result]

    def space_bytes(self) -> int:
        """Model space of the underlying sketch."""
        return self.sketch.space_bytes()

    def __repr__(self) -> str:
        return f"PortScanDetector(sketch={self.sketch!r})"
