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
from typing import Any, List

from .._accel import np as _np
from .._accel import to_uint64_array as _to_uint64_array
from ..exceptions import ParameterError
from .seeds import derive_seed

#: The Mersenne prime 2^61 - 1 used as the hash field modulus.
MERSENNE_61 = (1 << 61) - 1

#: Low 32-bit mask used by the vectorized limb-split evaluation.
_LIMB_MASK = (1 << 32) - 1


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

        Bit-identical to calling the hash once per value, but with one
        local binding of ``a``, ``b``, and the field modulus for the
        whole batch.  With every value below ``2^64`` the evaluation
        is vectorized via an exact 32-bit limb-split of the product
        ``a * x`` — integer-only throughout, so the result is the true
        field value, not an approximation.

        Returns a numpy ``int64`` array on the vectorized path, else a
        plain list of ints.
        """
        codes = _to_uint64_array(values)
        if codes is not None:
            return self._hash_many_vectorized(codes)
        a = self._a
        b = self._b
        p = MERSENNE_61
        s = self.range_size
        out: List[int] = []
        append = out.append
        for value in values:
            acc = a * (value % p) + b
            acc = (acc & p) + (acc >> 61)
            if acc >= p:
                acc -= p
            append(acc % s)
        return out

    def _hash_many_vectorized(self, codes: Any) -> Any:  # hot-path
        """Exact vectorized ``((a * x + b) mod p) mod s`` on uint64 codes.

        ``a * x`` cannot be formed in 64 bits, so split ``a = a1 * 2^32
        + a0`` and ``x = x1 * 2^32 + x0`` (with ``x`` already reduced
        mod ``p``, so ``x1 < 2^29``) and reduce each partial product
        with the Mersenne identities ``2^64 = 8`` and ``2^61 = 1``
        (mod ``p``).  Every intermediate fits in uint64 and the final
        fold plus one conditional subtract lands in ``[0, p)``, exactly
        matching the scalar :func:`_mod_mersenne_61` result.
        """
        p = _np.uint64(MERSENNE_61)
        mask = _np.uint64(_LIMB_MASK)
        # x = code mod p (codes < 2^64 < p^2, one fold + subtract suffices).
        x = (codes & p) + (codes >> _np.uint64(61))
        x = _np.where(x >= p, x - p, x)
        a0 = _np.uint64(self._a & _LIMB_MASK)
        a1 = _np.uint64(self._a >> 32)
        x0 = x & mask
        x1 = x >> _np.uint64(32)
        p00 = a0 * x0
        mid = a1 * x0 + a0 * x1
        p11 = a1 * x1
        # a*x = p11*2^64 + mid*2^32 + p00; reduce each term mod p.
        term_hi = p11 << _np.uint64(3)
        term_mid = (mid >> _np.uint64(29)) + (
            (mid & _np.uint64((1 << 29) - 1)) << _np.uint64(32)
        )
        term_lo = (p00 & p) + (p00 >> _np.uint64(61))
        acc = term_hi + term_mid + term_lo + _np.uint64(self._b)
        acc = (acc & p) + (acc >> _np.uint64(61))
        acc = _np.where(acc >= p, acc - p, acc)
        return (acc % _np.uint64(self.range_size)).astype(_np.int64)

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
