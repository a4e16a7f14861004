"""Carter-Wegman universal hashing over a Mersenne-prime field.

The second-level hash tables of a Distinct-Count Sketch need mutually
independent hashes ``g_i : [m^2] -> [s]`` that map the pair domain
uniformly onto ``s`` buckets (Section 3).  We implement the classic
polynomial construction ``h(x) = ((a * x + b) mod p) mod s`` with
``p = 2^61 - 1``, which is pairwise independent and extremely fast to
evaluate because reduction modulo a Mersenne prime needs only shifts and
adds.

Higher-degree polynomials (k-wise independence) are available through
:class:`PairwiseHashFamily` with ``degree > 2``; the sketch analysis
only needs pairwise independence, but property tests use higher degrees
to confirm the implementation generalizes.
"""

from __future__ import annotations

import random
from typing import Any, List, Sequence

from .._accel import np as _np
from .._accel import to_uint64_array as _to_uint64_array
from ..exceptions import ParameterError
from .seeds import derive_seed

#: The Mersenne prime 2^61 - 1 used as the hash field modulus.
MERSENNE_61 = (1 << 61) - 1

#: Limb width of the vectorized evaluation
#: (:meth:`CarterWegmanBank.hash_many`).
_LIMB = 31

# Its constants as uint64 scalars: no operand of the uint64 arithmetic
# may be a Python int (numpy < 2 would promote the pair to float64).
_P = _np.uint64(MERSENNE_61)
_LIMB_BITS = _np.uint64(_LIMB)
_LIMB_MASK = _np.uint64((1 << _LIMB) - 1)
_MID_BITS = _np.uint64(61 - _LIMB)
_MID_MASK = _np.uint64((1 << (61 - _LIMB)) - 1)


def _mod_mersenne_61(value: int) -> int:
    """Reduce ``value`` modulo ``2^61 - 1`` without division.

    Works for any non-negative ``value`` below ``2^122``, which covers
    the products formed during polynomial evaluation.
    """
    value = (value & MERSENNE_61) + (value >> 61)
    if value >= MERSENNE_61:
        value -= MERSENNE_61
    return value


class CarterWegmanHash:
    """A pairwise-independent hash ``[universe] -> [range_size]``.

    Args:
        range_size: number of output buckets ``s``; must be positive.
        seed: integer seed determining the random coefficients.
        universe: (optional) size of the input domain, used only for
            sanity checks; inputs are reduced mod the field regardless.
    """

    __slots__ = ("range_size", "seed", "_a", "_b")

    def __init__(self, range_size: int, seed: int, universe: int = 0) -> None:
        if range_size < 1:
            raise ParameterError(
                f"hash range must be >= 1, got {range_size}"
            )
        if universe and universe > MERSENNE_61:
            raise ParameterError(
                "universe exceeds the 2^61 - 1 hash field; "
                "use TabulationHash for wider domains"
            )
        self.range_size = range_size
        self.seed = seed
        rng = random.Random(derive_seed(seed, "carter-wegman"))
        # a must be nonzero for the map to be pairwise independent.
        self._a = rng.randrange(1, MERSENNE_61)
        self._b = rng.randrange(0, MERSENNE_61)

    def __call__(self, value: int) -> int:
        """Hash ``value`` into ``[0, range_size)``."""
        return _mod_mersenne_61(self._a * (value % MERSENNE_61) + self._b) % self.range_size

    def hash_many(self, values: Any) -> Any:  # hot-path
        """Hash a batch of values into ``[0, range_size)``.

        Bit-identical to calling the hash once per value: the one-row
        case of :class:`CarterWegmanBank`.  Returns a numpy ``int64``
        array.
        """
        return CarterWegmanBank([self]).hash_many(values)[0]

    def field_value(self, value: int) -> int:
        """Return the full field element before the final mod-range step.

        Exposed for the geometric hash, which needs the raw randomized
        value rather than a bucket index.
        """
        return _mod_mersenne_61(self._a * (value % MERSENNE_61) + self._b)

    def __repr__(self) -> str:
        return (
            f"CarterWegmanHash(range_size={self.range_size}, seed={self.seed})"
        )


def _column(values: List[int]) -> Any:
    """``values`` as an ``(len(values), 1)`` uint64 column."""
    return _np.array(values, dtype=_np.uint64).reshape(-1, 1)


class CarterWegmanBank:
    """Several :class:`CarterWegmanHash` functions evaluated as one.

    The ``r`` second-level hashes of a Distinct-Count Sketch all see
    the same pair codes.  :meth:`hash_many` evaluates every one of them
    in one broadcast: the coefficients are ``(r, 1)`` uint64 columns
    against the ``(n,)`` codes, so a batch pays each numpy call once
    rather than once per table.  :meth:`CarterWegmanHash.hash_many` is
    the one-row bank.

    Args:
        hashes: the hashes, one output row each, in order.
    """

    __slots__ = ("_hashes", "_a_lo", "_a_hi", "_a_hi2", "_b", "_ranges")

    def __init__(self, hashes: Sequence[CarterWegmanHash]) -> None:
        if not hashes:
            raise ParameterError("a hash bank needs at least one hash")
        #: The scalar hashes, one per row (the exact path).
        self._hashes = list(hashes)
        self._a_lo = _column([h._a & ((1 << _LIMB) - 1) for h in hashes])
        self._a_hi = _column([h._a >> _LIMB for h in hashes])
        # a_hi x_hi 2^62 = 2 a_hi x_hi (mod p), and 2 a_hi < 2^31.
        self._a_hi2 = self._a_hi << _np.uint64(1)
        self._b = _column([h._b for h in hashes])
        self._ranges = _column([h.range_size for h in hashes])

    def hash_many(self, values: Any) -> Any:  # hot-path
        """Row ``j`` holds ``hashes[j](v)`` for every value ``v``.

        Bit-identical to the scalar hashes; the result is an ``(r, n)``
        int64 ndarray.  With every value below ``2^64`` it is computed
        in exact integer arithmetic: ``x = v mod p`` and ``a`` are both
        below ``2^61``, so split as ``hi * 2^31 + lo`` they give
        ``a x = a_hi x_hi 2^62 + mid 2^31 + a_lo x_lo`` with
        ``mid = a_hi x_lo + a_lo x_hi < 2^62``.  Modulo ``p``,
        ``2^62 = 2`` and ``2^61 = 1``, so ``mid 2^31`` reduces to
        ``(mid >> 30) + (mid mod 2^30) 2^31``; every term is below
        ``2^62``, their sum with ``b`` below ``2^64``, and one ``% p``
        lands on the field value.  Values at or above ``2^64`` are
        hashed by the scalar hashes themselves.
        """
        codes = _to_uint64_array(values)
        if codes is None:
            return _np.array(
                [[h(value) for value in values] for h in self._hashes],
                dtype=_np.int64,
            )
        x = codes % _P
        x_lo = x & _LIMB_MASK
        x_hi = x >> _LIMB_BITS
        mid = self._a_hi * x_lo + self._a_lo * x_hi
        acc = (
            self._a_lo * x_lo
            + self._a_hi2 * x_hi
            + (mid >> _MID_BITS)
            + ((mid & _MID_MASK) << _LIMB_BITS)
            + self._b
        )
        # Every bucket is below its range, so the int64 view is exact.
        return (acc % _P % self._ranges).view(_np.int64)

    def __repr__(self) -> str:
        return f"CarterWegmanBank(size={len(self._hashes)})"


class PairwiseHashFamily:
    """A degree-``d`` polynomial hash family over the Mersenne field.

    Degree 2 gives pairwise independence (what the sketch needs);
    higher degrees give k-wise independence for k = degree.
    """

    __slots__ = ("range_size", "seed", "degree", "_coefficients")

    def __init__(self, range_size: int, seed: int, degree: int = 2) -> None:
        if range_size < 1:
            raise ParameterError(
                f"hash range must be >= 1, got {range_size}"
            )
        if degree < 1:
            raise ParameterError(f"degree must be >= 1, got {degree}")
        self.range_size = range_size
        self.seed = seed
        self.degree = degree
        rng = random.Random(derive_seed(seed, "poly-family", degree))
        coefficients: List[int] = [
            rng.randrange(0, MERSENNE_61) for _ in range(degree)
        ]
        # Leading coefficient nonzero keeps the polynomial degree exact.
        if coefficients[0] == 0:
            coefficients[0] = 1
        self._coefficients = coefficients

    def __call__(self, value: int) -> int:
        """Evaluate the polynomial at ``value`` and reduce to the range."""
        acc = 0
        x = value % MERSENNE_61
        for coefficient in self._coefficients:
            acc = _mod_mersenne_61(acc * x + coefficient)
        return acc % self.range_size

    def __repr__(self) -> str:
        return (
            f"PairwiseHashFamily(range_size={self.range_size}, "
            f"seed={self.seed}, degree={self.degree})"
        )
