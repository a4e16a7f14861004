"""The numpy handle for the batched fast paths.

Every module that vectorizes imports ``np`` and :func:`to_uint64_array`
from here, so the uint64 coercion policy lives in exactly one place.
"""

from __future__ import annotations

from typing import Any

import numpy as _numpy

#: The numpy module, typed ``Any`` so the strict-gated sketch modules
#: can use it without numpy's stubs.
np: Any = _numpy


def to_uint64_array(values: Any) -> Any:
    """Coerce ``values`` to a uint64 ndarray, or ``None`` if impossible.

    Returns ``None`` when any value falls outside ``[0, 2^64)`` (e.g.
    pair codes of a domain wider than 64 bits) — callers then take
    their exact pure-Python path instead.
    """
    try:
        return np.asarray(values, dtype=np.uint64)
    except (OverflowError, TypeError, ValueError):
        return None
