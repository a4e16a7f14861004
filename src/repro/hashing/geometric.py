"""The geometric first-level hash of the Distinct-Count Sketch.

Section 3 (footnote 5) prescribes a hash ``h : [m^2] -> {0..Theta(log m)}``
with ``Pr[h(x) = l] = 2^-(l+1)``, built by composing a uniform randomizer
``f`` with the least-significant-set-bit (LSB) operator:
``h(x) = LSB(f(x))``.  Half of all values land in level 0, a quarter in
level 1, and so on — the Flajolet-Martin trick the sketch generalizes.

We randomize with a tabulation hash (64 uniform output bits, far wider
than ``m^2`` for realistic ``m``, so the map is injective w.h.p. as the
footnote requires) and clamp the level to ``max_level`` so the sketch's
first-level array has a fixed size.
"""

from __future__ import annotations

from typing import Any

from .._accel import np as _np
from ..exceptions import ParameterError
from .seeds import derive_seed
from .tabulation import TabulationHash


def _build_tz_table() -> Any:
    """Trailing-zero lookup keyed by ``(1 << k) % 67``.

    67 is prime and 2 is a primitive root mod 67, so the 64 residues
    ``2^k mod 67`` are distinct and never zero — a perfect hash from an
    isolated low bit to its index.  Index 0 (the all-zero word) carries
    the :func:`lsb_index` convention of 63.
    """
    table = [63] * 67
    for k in range(64):
        table[(1 << k) % 67] = k
    return _np.array(table, dtype=_np.int64)


_TZ_TABLE: Any = _build_tz_table()


def lsb_index(value: int) -> int:
    """Index of the least-significant set bit of ``value``.

    ``lsb_index(0b1011) == 0``, ``lsb_index(0b1000) == 3``.  The all-zero
    word (probability ``2^-64``) conventionally maps to bit 63.
    """
    if value == 0:
        return 63
    return (value & -value).bit_length() - 1


class GeometricLevelHash:
    """Maps pair codes to sketch levels with geometric probabilities.

    Args:
        max_level: highest level index; outputs are in ``[0, max_level]``.
            The paper sizes this as ``Theta(log m)``; callers typically
            pass ``2 * log2(m) + 1`` so that level probabilities cover
            the whole pair domain.  ``max_level = 0`` is the degenerate
            single-level hash (every value maps to level 0).
        seed: seed for the underlying uniform randomizer.
    """

    __slots__ = ("max_level", "seed", "_randomizer", "_levels")

    def __init__(self, max_level: int, seed: int) -> None:
        if max_level < 0:
            raise ParameterError(
                f"max_level must be >= 0, got {max_level}"
            )
        self.max_level = max_level
        self.seed = seed
        self._randomizer = TabulationHash(
            range_size=1, seed=derive_seed(seed, "geometric-randomizer")
        )
        # The trailing-zero table with the clamp to max_level folded in.
        self._levels = _np.minimum(_TZ_TABLE, max_level)

    @property
    def num_levels(self) -> int:
        """Number of distinct levels produced (``max_level + 1``)."""
        return self.max_level + 1

    def __call__(self, value: int) -> int:
        """Return the level of ``value``: LSB of its randomized word."""
        level = lsb_index(self._randomizer.word(value))
        return level if level < self.max_level else self.max_level

    def levels_many(self, values: Any) -> Any:  # hot-path
        """Levels for a batch of values, bit-identical to ``self(v)``.

        Tabulated words (:meth:`TabulationHash.words_many`), then the
        isolated low bit ``w & -w`` mapped to its clamped index through
        the mod-67 perfect-hash table (integer-only — no float log2, no
        version-gated popcount).  Returns a numpy ``int64`` array.
        """
        words = self._randomizer.words_many(values)
        residues = (words & -words) % _np.uint64(67)
        return self._levels.take(residues.view(_np.int64))

    def level_probability(self, level: int) -> float:
        """Exact probability that a uniformly random value maps to ``level``.

        Levels below ``max_level`` have probability ``2^-(level+1)``; the
        top level absorbs the remaining tail mass.
        """
        if not 0 <= level <= self.max_level:
            raise ParameterError(
                f"level {level} outside [0, {self.max_level}]"
            )
        if level < self.max_level:
            return 2.0 ** -(level + 1)
        return 2.0 ** -self.max_level

    def __repr__(self) -> str:
        return (
            f"GeometricLevelHash(max_level={self.max_level}, seed={self.seed})"
        )
