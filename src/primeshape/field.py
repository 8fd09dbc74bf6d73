"""Prime moduli and the odd-prime ASK embedding.

Symbols of F_p are the integers 0, ..., p-1 with addition mod p.  For odd
p the field embeds into the integers as a zero-mean amplitude-shift-keying
(ASK) alphabet: symbol s maps to the unique point x with x = s (mod p)
and |x| <= (p - 1) / 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test (small moduli only)."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


@dataclass(frozen=True, slots=True)
class Prime:
    """A prime modulus defining the field F_p."""

    p: int

    def __post_init__(self) -> None:
        if not isinstance(self.p, int) or isinstance(self.p, bool):
            raise TypeError(f"modulus must be an int, got {type(self.p).__name__}")
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    @property
    def half(self) -> int:
        """Largest ASK amplitude (p - 1) / 2 for odd p."""
        return (self.p - 1) // 2


def ask_amplitudes(field: Prime) -> np.ndarray:
    """ASK amplitude of each symbol 0..p-1: x = s (mod p), |x| <= (p-1)/2.

    Defined for odd p only; the embedding is a bijection between F_p and
    {-(p-1)/2, ..., (p-1)/2}.
    """
    if field.p == 2:
        raise ValueError("ASK embedding requires an odd prime")
    s = np.arange(field.p)
    return np.where(s <= field.half, s, s - field.p)


def is_int(value: object) -> bool:
    """Whether value is a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def frozen_array(obj: object, name: str, dtype: type) -> np.ndarray:
    """Store a read-only `dtype` copy of obj.<name> on the frozen
    dataclass `obj` and return it; the caller's array stays its own."""
    arr = np.array(getattr(obj, name), dtype=dtype)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


def symbol_array(values: object, field: Prime, what: str) -> np.ndarray:
    """`values` as an int64 array of symbols of `field`.

    Raises ValueError, naming `what`, for a value that is not an integer
    (NaN included), where a cast would truncate it, for an array that is
    not boolean, integer or float, and for a value outside 0..p-1.  An
    integral float is kept, and an int64 array is returned as it is.
    """
    arr = np.asarray(values)
    if arr.dtype.kind not in "biuf":  # complex, object, str: refused before a cast
        raise ValueError(f"{what} must be integers")
    if arr.dtype != np.int64:
        # NaN and inf cast to arbitrary integers, which the comparison
        # refuses; another integer dtype casts exactly or wraps to a
        # negative, which the range check refuses
        with np.errstate(invalid="ignore"):
            ints = arr.astype(np.int64)
        if arr.dtype.kind == "f" and not np.array_equal(ints, arr):
            raise ValueError(f"{what} must be integers")
        arr = ints
    # one 1-D reduction checks both bounds: as uint64, a negative symbol
    # reads as 2**63 or more; ndarray.min() and max() cost more per frame
    if arr.size and np.maximum.reduce(arr.ravel().view(np.uint64)) >= field.p:
        raise ValueError(f"{what} must lie in 0..p-1")
    return arr
