"""Exact distributions of sums of independent F_p symbols.

The distribution of S = X_1 + ... + X_m (addition mod p) follows from
the multiplicative action of the field characters: with w = exp(2*pi*j/p),

    Pr[S = k] = (1/p) * sum_i w^(-i*k) * prod_l ( sum_b q_l(b) * w^(i*b) )

i.e. the character transform of the sum factors into a product of the
per-symbol transforms, and an inverse transform recovers the PMF.  A
direct cyclic convolution, `sum_distribution_convolve` in
`tests/oracles.py`, provides an independent cross-check.

Two immediate consequences used throughout the package:

* a single uniform summand makes the sum exactly uniform, regardless of
  the other factors (the uniform distribution is absorbing);
* if every factor keeps probability mass away from a point distribution
  (max_b q(b) <= 1 - eps), the sum converges to uniform geometrically
  in m.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Sequence

import numpy as np

from .field import Prime, frozen_array, is_int

#: Tolerance on sum(probs) == 1 for validated distributions.
NORMALIZATION_TOL = 1e-12

#: Residual imaginary parts above this level indicate a broken transform.
IMAG_TOL = 1e-10


def check_pmf(probs: np.ndarray, what: str, tol: float = NORMALIZATION_TOL) -> None:
    """Raise ValueError unless `probs` is nonnegative and sums to 1 within tol;
    `what` names the distribution in the message."""
    # NaN fails every comparison, so each check states what must hold
    if not np.all(probs >= 0.0):
        raise ValueError(f"{what} entries must be nonnegative numbers")
    total = probs.sum()
    if not abs(total - 1.0) <= tol:
        raise ValueError(f"{what} sums to {float(total)!r}, expected 1")


@dataclass(frozen=True, eq=False, slots=True)
class SymbolDistribution:
    """A validated PMF over F_p, indexed by symbol value 0..p-1."""

    field: Prime
    probs: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        probs = frozen_array(self, "probs", float)
        if probs.shape != (self.field.p,):
            raise ValueError(
                f"PMF over F_{self.field.p} must have length {self.field.p}, "
                f"got shape {probs.shape}"
            )
        check_pmf(probs, "PMF")

    @classmethod
    def uniform(cls, field: Prime) -> "SymbolDistribution":
        return cls(field, np.full(field.p, 1.0 / field.p))


def _common_field(factors: Sequence[SymbolDistribution]) -> Prime:
    if not factors:
        raise ValueError("need at least one factor distribution")
    fld = factors[0].field
    for f in factors[1:]:
        if f.field != fld:
            raise ValueError("all factors must share the same field")
    return fld


def sum_distribution_dft(
    factors: Iterable[SymbolDistribution], repeat: int = 1
) -> SymbolDistribution:
    """PMF of the mod-p sum of `repeat` independent copies of each factor.

    `repeat` is an integer of at least 1 (a bool is refused).

    numpy's length-p DFT is the character transform of Z_p evaluated at
    w^(-1): the product of the m factors' forward transforms, raised to
    the power `repeat` and inverted, gives the PMF.  Cost O(m * p log p)
    time and O(m * p) memory whatever `repeat` is, exact up to roundoff.
    A point mass only shifts the sum, so it stays out of the transform,
    whose power would multiply the roundoff of its phases by `repeat`.
    """
    factors = list(factors)
    fld = _common_field(factors)
    if not is_int(repeat):  # a float is a fractional power of the transform
        raise ValueError(f"repeat must be an integer, got {repeat!r}")
    if repeat < 1:
        raise ValueError(f"repeat must be at least 1, got {repeat}")
    probs = np.array([f.probs for f in factors])
    point = np.count_nonzero(probs, axis=1) == 1
    shift = repeat * int(probs[point].argmax(axis=1).sum()) % fld.p
    spectrum = np.prod(np.fft.fft(probs[~point], axis=1), axis=0)
    # the zero-frequency term is the total mass: 1 but for roundoff, which
    # the power would also multiply by `repeat`
    pmf_c = np.roll(np.fft.ifft((spectrum / spectrum[0]) ** repeat), shift)
    if np.max(np.abs(pmf_c.imag)) > IMAG_TOL:
        raise RuntimeError("character inversion left a large imaginary residue")
    pmf = pmf_c.real
    if pmf.min() < -NORMALIZATION_TOL:
        raise RuntimeError(f"the transform power lost precision: an entry reads {pmf.min():.2g}")
    # roundoff can leave entries at -1e-17; clip before validation
    pmf = np.where(pmf < 0.0, 0.0, pmf)
    return SymbolDistribution(fld, pmf)


def uniformity_gap(dist: SymbolDistribution) -> float:
    """Total-variation-style distance to uniform: max_k |Pr[k] - 1/p|."""
    return float(np.max(np.abs(dist.probs - 1.0 / dist.field.p)))
