"""Hash-function substrate used by every sketch in the library.

The paper's structures need two kinds of hash functions:

* **Uniform second-level hashes** ``g_i : [m^2] -> [s]`` — implemented as
  Carter-Wegman polynomial hashes over a Mersenne-prime field
  (:class:`CarterWegmanHash`; a :class:`CarterWegmanBank` evaluates
  all ``r`` of a sketch's in one broadcast) or, alternatively,
  tabulation hashing (:class:`TabulationHash`).
* **A geometric first-level hash** ``h : [m^2] -> {0..Theta(log m)}``
  with ``Pr[h(x) = l] = 2^-(l+1)`` — implemented per the paper's
  footnote 5 as a uniform randomizer composed with the
  least-significant-set-bit operator (:class:`GeometricLevelHash`).

All hashes are deterministic functions of an explicit seed so that
structures can be reproduced exactly and sketches built on different
machines (or different routers) can be merged.
"""

from .geometric import GeometricLevelHash, lsb_index
from .seeds import SeedStream, derive_seed
from .tabulation import TabulationHash
from .universal import (
    MERSENNE_61,
    CarterWegmanBank,
    CarterWegmanHash,
    PairwiseHashFamily,
)

__all__ = [
    "CarterWegmanBank",
    "CarterWegmanHash",
    "GeometricLevelHash",
    "MERSENNE_61",
    "PairwiseHashFamily",
    "SeedStream",
    "TabulationHash",
    "derive_seed",
    "lsb_index",
]
