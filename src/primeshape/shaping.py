"""Maxwell-Boltzmann shaping and constant-composition distribution matching.

A Maxwell-Boltzmann (MB) family assigns prior exp(-nu * a^2) to a point
of amplitude a, normalized over the alphabet.  nu = 0 recovers the
uniform distribution; nu -> inf concentrates on the smallest amplitude.
The family maximizes entropy subject to a mean-energy constraint, which
is what makes it the right shaping target for the average-power-limited
AWGN channel.

The distribution matcher (DM) realizes such a prior operationally: it
maps a block of uniform input symbols to a fixed-composition output
block, exactly and invertibly, in integer arithmetic.  Arithmetic-coding
interval subdivision over the admissible blocks is the same map as
lexicographic ranking of multiset permutations (enumerative coding), so
encoding unranks and decoding ranks with multinomial counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field
from typing import Sequence

import numpy as np

from .field import Prime, ask_amplitudes, frozen_array, is_int, symbol_array
from .sumdist import check_pmf


@dataclass(frozen=True, eq=False, slots=True)
class MaxwellBoltzmann:
    """An MB-shaped prior over an amplitude alphabet.

    probs[i] is proportional to exp(-nu * amplitudes[i]^2) for the nu of
    `from_amplitudes`; entries are kept in the caller's alphabet order
    (not sorted).
    """

    amplitudes: np.ndarray = dataclass_field(repr=False)
    probs: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        amps = frozen_array(self, "amplitudes", float)
        probs = frozen_array(self, "probs", float)
        if amps.shape != probs.shape or amps.ndim != 1:
            raise ValueError("amplitudes and probs must be 1-D with equal length")
        check_pmf(probs, "prior")

    @classmethod
    def from_amplitudes(cls, nu: float, amplitudes: Sequence[float]) -> "MaxwellBoltzmann":
        if isinstance(nu, (bool, np.bool_)):
            raise TypeError(f"shaping parameter nu must be a number, got {nu!r}")
        if not 0.0 <= nu < math.inf:
            raise ValueError("shaping parameter nu must be nonnegative and finite")
        amps = np.asarray(amplitudes, dtype=float)
        if amps.size == 0:
            raise ValueError("amplitude alphabet must be nonempty")
        if not np.isfinite(amps).all():
            raise ValueError("amplitudes must be finite")
        # subtract the minimum exponent before exponentiating for stability;
        # a huge nu overflows outer exponents to -inf, whose weight is 0.
        # nu = 0 is the uniform prior, even where a^2 overflows (0 inf)
        with np.errstate(over="ignore"):
            expo = -nu * amps**2 if nu > 0.0 else np.zeros(amps.shape)
        if expo.max() == -np.inf:
            # every exponent overflowed: the nu -> inf limit, equal mass on
            # the smallest |a|
            expo = np.where(np.abs(amps) == np.abs(amps).min(), 0.0, -np.inf)
        expo -= expo.max()
        weights = np.exp(expo)
        return cls(amps, weights / weights.sum())

    def entropy_bits(self) -> float:
        p = self.probs[self.probs > 0.0]
        return float(-(p * np.log2(p)).sum())


def mb_ask_prior(field: Prime, nu: float) -> MaxwellBoltzmann:
    """MB prior over the p-ASK alphabet, indexed by symbol value 0..p-1.

    Entry s carries the magnitude of symbol s's ASK amplitude, so
    opposite-sign amplitudes automatically receive equal probability.
    """
    return MaxwellBoltzmann.from_amplitudes(nu, np.abs(ask_amplitudes(field)))


def cqam_prior(shell_prior: MaxwellBoltzmann, field: Prime) -> np.ndarray:
    """Per-point prior for a p^2-point circular constellation.

    Shell i (radius amplitudes[i]) carries total probability probs[i],
    split uniformly over its p phases; point index = shell * p + phase.
    """
    p = field.p
    if shell_prior.probs.shape != (p,):
        raise ValueError(
            f"shell prior must have {p} entries, got {shell_prior.probs.shape[0]}"
        )
    return np.repeat(shell_prior.probs / p, p)


# ---------------------------------------------------------------------------
# constant-composition distribution matching
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class CompositionPlan:
    """A target composition for fixed-length shaped blocks.

    counts[s] is the number of occurrences of symbol s in every output
    block; sum(counts) == block_length.  The number of admissible blocks
    is the multinomial coefficient M, and the matcher consumes
    floor(log_p M) uniform input symbols per block.
    """

    field: Prime
    block_length: int
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if not is_int(self.block_length) or self.block_length < 1:
            raise ValueError(
                f"block_length must be a positive integer, got {self.block_length!r}"
            )
        if len(self.counts) != self.field.p:
            raise ValueError(
                f"need one count per symbol of F_{self.field.p}, "
                f"got {len(self.counts)}"
            )
        # a float or bool count passes the sum and fails later, in the factorials
        if not all(is_int(c) and c >= 0 for c in self.counts):
            raise ValueError(
                f"composition counts must be nonnegative integers, got {self.counts}"
            )
        if sum(self.counts) != self.block_length:
            raise ValueError(
                f"counts sum to {sum(self.counts)}, expected {self.block_length}"
            )

    @classmethod
    def from_distribution(
        cls, field: Prime, probs: Sequence[float], block_length: int
    ) -> "CompositionPlan":
        """Quantize a PMF to integer counts by largest-remainder rounding.

        Ties in the fractional parts are broken toward the lower symbol
        index, which keeps the plan deterministic.
        """
        probs = np.asarray(probs, dtype=float)
        if probs.shape != (field.p,):
            raise ValueError("PMF length must equal the field size")
        # looser than NORMALIZATION_TOL: PMFs from outside the library
        # only need to round to the same counts
        check_pmf(probs, "PMF", tol=1e-9)
        if not is_int(block_length):  # before it scales the PMF
            raise ValueError(f"block_length must be an integer, got {block_length!r}")
        ideal = probs * block_length
        counts = np.floor(ideal).astype(int)
        remainder = ideal - counts
        shortfall = block_length - int(counts.sum())
        # stable sort: descending remainder, ascending index on ties
        order = np.lexsort((np.arange(field.p), -remainder))
        for idx in order[:shortfall]:
            counts[idx] += 1
        return cls(field, block_length, tuple(int(c) for c in counts))

    def num_sequences(self) -> int:
        """Multinomial coefficient: number of blocks with this composition."""
        m = math.factorial(self.block_length)
        for c in self.counts:
            m //= math.factorial(c)
        return m

    def input_length(self) -> int:
        """Uniform input symbols consumed per block: floor(log_p M)."""
        return _input_grid(self.num_sequences(), self.field.p)[0]

    def rate_bits(self) -> float:
        """Matching rate in bits per shaped symbol, (d log2 p) / N."""
        return self.input_length() * math.log2(self.field.p) / self.block_length


def _input_grid(m: int, p: int) -> tuple[int, int]:
    """(d, p^d) for the largest d with p^d <= m, by a running power."""
    d, scale = 0, 1
    while scale * p <= m:
        d, scale = d + 1, scale * p
    return d, scale


def ccdm_encode(plan: CompositionPlan, uniform_symbols: Sequence[int]) -> list[int]:
    """Map uniform input symbols to one constant-composition block.

    Consumes exactly plan.input_length() symbols, the first of
    uniform_symbols, checked by `field.symbol_array` (integers or integral
    floats in 0..p-1) and refused with ValueError unless they fill a 1-D
    block of that length.  It reads them as a base-p integer u and
    outputs the admissible block of lexicographic rank
    r = floor(u * M / p^d).  Unranking is exact in integers: of the m
    completions left after a prefix of length N - n, m * c_s / n start
    with symbol s, where c_s is the remaining count of s
    (M(counts) * c_s / n = M(counts - e_s)).
    """
    p = plan.field.p
    m = plan.num_sequences()
    d, scale = _input_grid(m, p)
    try:
        head = uniform_symbols[:d]
    except (TypeError, IndexError):  # a scalar, which holds no block to slice
        raise ValueError(
            f"matcher needs {d} input symbols per block, got {np.shape(uniform_symbols)}"
        ) from None
    digits = symbol_array(head, plan.field, "input symbols")
    if digits.shape != (d,):
        raise ValueError(f"matcher needs {d} input symbols per block, got {digits.shape}")
    u = 0
    for s in digits.tolist():
        u = u * p + s
    r = u * m // scale

    remaining = list(plan.counts)
    block: list[int] = []
    for n in range(plan.block_length, 0, -1):
        # the chosen symbol s is the last whose preceding counts sum to
        # at most r * n / m, i.e. whose first completion has rank <= r
        below = r * n // m
        cum = 0
        for s, c in enumerate(remaining):
            if below < cum + c:
                break
            cum += c
        r -= m * cum // n
        m = m * c // n
        remaining[s] -= 1
        block.append(s)
    return block


def ccdm_decode(plan: CompositionPlan, shaped: Sequence[int]) -> list[int]:
    """Invert ccdm_encode: recover the uniform input symbols of a block.

    Ranks the block lexicographically among the M blocks of its
    composition and returns the base-p digits of u = ceil(r * p^d / M),
    the smallest input whose rank floor(u * M / p^d) is at least r.
    The block's symbols are checked as `ccdm_encode`'s inputs are.  Blocks
    that are not 1-D of the plan's length, blocks of the wrong composition,
    or blocks no input maps to (compositions with M not a power of p have
    M - p^d of them, where floor(u * M / p^d) != r), are rejected with
    ValueError.
    """
    p = plan.field.p
    shaped = symbol_array(shaped, plan.field, "symbols")
    if shaped.shape != (plan.block_length,):
        raise ValueError(
            f"block of shape {shaped.shape} does not match plan ({plan.block_length})"
        )
    observed = tuple(np.bincount(shaped, minlength=p).tolist())
    if observed != plan.counts:
        raise ValueError(f"block composition {observed} does not match plan {plan.counts}")

    m = plan.num_sequences()
    d, scale = _input_grid(m, p)
    remaining = list(plan.counts)
    r, left = 0, m
    for n, s in zip(range(plan.block_length, 0, -1), shaped.tolist()):
        r += left * sum(remaining[:s]) // n
        left = left * remaining[s] // n
        remaining[s] -= 1

    u = -(-r * scale // m)
    if u * m // scale != r:
        raise ValueError("block is not in the matcher image (no input maps to it)")
    digits = []
    for _ in range(d):
        digits.append(u % p)
        u //= p
    return digits[::-1]
