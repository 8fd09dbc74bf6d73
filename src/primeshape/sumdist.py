"""Exact distributions of sums of independent F_p symbols.

The distribution of S = X_1 + ... + X_m (addition mod p) follows from
the multiplicative action of the field characters: with w = exp(2*pi*j/p),

    Pr[S = k] = (1/p) * sum_i w^(-i*k) * prod_l ( sum_b q_l(b) * w^(i*b) )

i.e. the character transform of the sum factors into a product of the
per-symbol transforms, and an inverse transform recovers the PMF.  A
direct cyclic convolution provides an independent cross-check.

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

from .field import Prime

#: Tolerance on sum(probs) == 1 for validated distributions.
NORMALIZATION_TOL = 1e-12

#: Residual imaginary parts above this level indicate a broken transform.
IMAG_TOL = 1e-10


@dataclass(frozen=True, eq=False, slots=True)
class SymbolDistribution:
    """A validated PMF over F_p, indexed by symbol value 0..p-1."""

    field: Prime
    probs: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=float)
        if probs.shape != (self.field.p,):
            raise ValueError(
                f"PMF over F_{self.field.p} must have length {self.field.p}, "
                f"got shape {probs.shape}"
            )
        # NaN fails every comparison, so each check states what must hold
        if not np.all(probs >= 0.0):
            raise ValueError("PMF entries must be nonnegative numbers")
        total = probs.sum()
        if not abs(total - 1.0) <= NORMALIZATION_TOL:
            raise ValueError(f"PMF sums to {float(total)!r}, expected 1")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)

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
    factors: Iterable[SymbolDistribution],
) -> SymbolDistribution:
    """PMF of the mod-p sum of independent symbols, via field characters.

    Evaluates the product of character transforms and inverts it with an
    explicit root-of-unity matrix.  Cost O(m * p^2), exact up to roundoff.
    """
    factors = list(factors)
    fld = _common_field(factors)
    p = fld.p
    i = np.arange(p)
    # forward[i, b] = w^(i*b), inverse[k, i] = w^(-i*k) / p
    omega = np.exp(2j * np.pi / p)
    forward = omega ** np.outer(i, i)
    transform = np.ones(p, dtype=complex)
    for f in factors:
        transform *= forward @ f.probs
    pmf_c = (omega ** (-np.outer(i, i)) @ transform) / p
    if np.max(np.abs(pmf_c.imag)) > IMAG_TOL:
        raise RuntimeError("character inversion left a large imaginary residue")
    pmf = pmf_c.real
    # roundoff can leave entries at -1e-17; clip before validation
    pmf = np.where((pmf < 0.0) & (pmf > -NORMALIZATION_TOL), 0.0, pmf)
    return SymbolDistribution(fld, pmf)


def sum_distribution_convolve(
    factors: Iterable[SymbolDistribution],
) -> SymbolDistribution:
    """Reference implementation by direct cyclic convolution, O(m * p^2).

    Kept deliberately elementary (index arithmetic only) so it can serve
    as an independent oracle for sum_distribution_dft.
    """
    factors = list(factors)
    fld = _common_field(factors)
    p = fld.p
    acc = np.zeros(p)
    acc[0] = 1.0
    for f in factors:
        out = np.zeros(p)
        for a in range(p):
            if acc[a] == 0.0:
                continue
            for b in range(p):
                out[(a + b) % p] += acc[a] * f.probs[b]
        acc = out
    return SymbolDistribution(fld, acc)


def uniformity_gap(dist: SymbolDistribution) -> float:
    """Total-variation-style distance to uniform: max_k |Pr[k] - 1/p|."""
    return float(np.max(np.abs(dist.probs - 1.0 / dist.field.p)))
