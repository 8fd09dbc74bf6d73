import itertools
import math
import warnings
from fractions import Fraction
from typing import Sequence

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from primeshape.field import Prime
from primeshape.optimizer import _mb_derivative
from primeshape.shaping import (
    CompositionPlan,
    MaxwellBoltzmann,
    ccdm_decode,
    ccdm_encode,
    cqam_prior,
    mb_ask_prior,
)


# ---------------------------------------------------------------------------
# Maxwell-Boltzmann priors
# ---------------------------------------------------------------------------


def test_zero_nu_is_uniform():
    prior = mb_ask_prior(Prime(7), 0.0)
    npt.assert_allclose(prior.probs, 1.0 / 7, atol=1e-15)


def test_probability_ratio_follows_energy_difference():
    prior = mb_ask_prior(Prime(7), 0.1)
    # symbols 0 and 1 have amplitudes 0 and 1
    npt.assert_allclose(prior.probs[1] / prior.probs[0], math.exp(-0.1), rtol=1e-12)
    # symbols 3 and 4 map to +3 and -3
    npt.assert_allclose(prior.probs[3], prior.probs[4], rtol=1e-14)


def test_large_nu_concentrates_on_zero():
    prior = mb_ask_prior(Prime(7), 50.0)
    assert prior.probs[0] > 1.0 - 1e-12
    npt.assert_allclose(prior.probs.sum(), 1.0, atol=1e-12)
    # a nu whose outer exponents overflow gives the point mass, silently
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        huge = mb_ask_prior(Prime(7), 1e308)
        # without a zero amplitude every exponent overflows: the limit puts
        # equal mass on the smallest |a|
        pair = MaxwellBoltzmann.from_amplitudes(1e308, [2.0, 3.0])
        mirrored = MaxwellBoltzmann.from_amplitudes(1e308, [3.0, 2.0, -2.0])
    assert huge.probs.tolist() == [1.0] + [0.0] * 6
    assert pair.probs.tolist() == [1.0, 0.0]
    assert mirrored.probs.tolist() == [0.0, 0.5, 0.5]


def test_zero_nu_is_uniform_where_the_squares_overflow():
    # 1e200^2 overflows to inf, and 0 inf would make the weights NaN
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        prior = MaxwellBoltzmann.from_amplitudes(0.0, [1e200, 1.0, -1e200])
    assert prior.probs.tolist() == [1 / 3] * 3


def test_negative_nu_rejected():
    with pytest.raises(ValueError):
        mb_ask_prior(Prime(7), -0.5)


def test_entropy_decreases_with_nu():
    entropies = [mb_ask_prior(Prime(7), nu).entropy_bits() for nu in (0.0, 0.1, 0.5, 2.0)]
    assert entropies[0] == pytest.approx(math.log2(7), abs=1e-12)
    assert all(a > b for a, b in zip(entropies, entropies[1:]))


# ---------------------------------------------------------------------------
# mean symbol energy
# ---------------------------------------------------------------------------


def _energy(field: Prime, nu: float) -> float:
    return _mb_derivative(mb_ask_prior(field, nu))[0]


def test_uniform_ask_energy_closed_form():
    # uniform p-ASK has energy (p^2 - 1) / 12
    npt.assert_allclose(_energy(Prime(7), 0.0), 4.0, rtol=1e-13)
    npt.assert_allclose(_energy(Prime(13), 0.0), 14.0, rtol=1e-13)


def test_energy_decreases_monotonically_in_nu():
    grid = np.linspace(0.0, 3.0, 25)
    energies = [_energy(Prime(11), nu) for nu in grid]
    assert all(a > b for a, b in zip(energies, energies[1:]))
    assert energies[-1] < 0.2  # mass collapses onto the zero-amplitude point


# ---------------------------------------------------------------------------
# CQAM point priors
# ---------------------------------------------------------------------------


def test_cqam_prior_splits_shells_uniformly():
    f5 = Prime(5)
    shell = MaxwellBoltzmann.from_amplitudes(0.3, [1.0, 1.8, 2.2, 2.8, 2.9])
    pri = cqam_prior(shell, f5)
    assert pri.shape == (25,)
    npt.assert_allclose(pri.sum(), 1.0, atol=1e-14)
    for i in range(5):
        npt.assert_allclose(pri[5 * i:5 * i + 5], shell.probs[i] / 5, rtol=1e-14)


def test_cqam_prior_shell_count_mismatch():
    shell = MaxwellBoltzmann.from_amplitudes(0.3, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        cqam_prior(shell, Prime(5))


# ---------------------------------------------------------------------------
# composition plans
# ---------------------------------------------------------------------------


def test_largest_remainder_rounding():
    f3 = Prime(3)
    plan = CompositionPlan.from_distribution(f3, [0.5, 0.25, 0.25], 4)
    assert plan.counts == (2, 1, 1)
    # remainders (0.2, 0.2, 0.6): the single shortfall goes to symbol 2
    plan2 = CompositionPlan.from_distribution(f3, [0.3, 0.3, 0.4], 4)
    assert plan2.counts == (1, 1, 2)
    # remainder tie (0, 0.5, 0.5) resolves to the lower symbol index
    plan3 = CompositionPlan.from_distribution(f3, [0.5, 0.25, 0.25], 2)
    assert plan3.counts == (1, 1, 0)


@pytest.mark.parametrize("n", [8, 16, 64, 256])
def test_counts_always_sum_to_block_length(n):
    f7 = Prime(7)
    rng = np.random.default_rng(n)
    for _ in range(20):
        w = rng.random(7)
        plan = CompositionPlan.from_distribution(f7, w / w.sum(), n)
        assert sum(plan.counts) == n


def test_multinomial_and_input_length():
    f3 = Prime(3)
    plan = CompositionPlan(f3, 4, (2, 1, 1))
    assert plan.num_sequences() == 12
    assert plan.input_length() == 2  # 3^2 = 9 <= 12 < 27
    # M = p^k and M = p^k - 1, on either side of a digit boundary
    plan = CompositionPlan(f3, 3, (2, 1, 0))
    assert (plan.num_sequences(), plan.input_length()) == (3, 1)
    plan = CompositionPlan(f3, 2, (1, 1, 0))
    assert (plan.num_sequences(), plan.input_length()) == (2, 0)


@pytest.mark.parametrize(
    "counts", [(1.5, 1.5, 1, 0, 0), (True, True, 1, 1, 0), (2.0, 1, 1, 0, 0), (5, -1, 0, 0, 0)]
)
def test_composition_counts_must_be_nonnegative_integers(counts):
    # a float count summed to the block length and failed later, in
    # input_length's factorials; a bool passed as 0 or 1
    with pytest.raises(ValueError, match="counts must be nonnegative integers"):
        CompositionPlan(Prime(5), 4, counts)
    plan = CompositionPlan(Prime(5), 4, tuple(np.array([2, 1, 1, 0, 0])))
    assert plan.input_length() == 1


@pytest.mark.parametrize("length", [4.0, 1.5, True, "4"])
def test_block_length_must_be_an_integer(length):
    # a float or bool length was stored as given, and from_distribution's
    # quantization scaled the PMF by it
    probs = np.full(5, 0.2)
    with pytest.raises(ValueError, match="block_length must be a positive integer"):
        CompositionPlan(Prime(5), length, (1, 1, 1, 1, 0))
    with pytest.raises(ValueError, match="block_length must be an integer"):
        CompositionPlan.from_distribution(Prime(5), probs, length)
    assert CompositionPlan.from_distribution(Prime(5), probs, np.int64(5)).counts == (1,) * 5


def test_degenerate_composition():
    f5 = Prime(5)
    plan = CompositionPlan(f5, 6, (6, 0, 0, 0, 0))
    assert plan.num_sequences() == 1
    assert plan.input_length() == 0
    assert ccdm_encode(plan, []) == [0] * 6
    assert ccdm_decode(plan, [0] * 6) == []


def test_matching_rate_approaches_entropy_from_below():
    # finite-length rate loss shrinks as the block grows
    f5 = Prime(5)
    probs = np.array([0.35, 0.25, 0.2, 0.12, 0.08])
    entropy = float(-(probs * np.log2(probs)).sum())
    rates = []
    for n in (16, 64, 256):
        plan = CompositionPlan.from_distribution(f5, probs, n)
        rates.append(plan.rate_bits())
    assert all(r < entropy for r in rates)
    assert rates[0] < rates[1] < rates[2]


# ---------------------------------------------------------------------------
# matcher round trips
# ---------------------------------------------------------------------------


def test_encode_output_has_exact_composition():
    f7 = Prime(7)
    rng = np.random.default_rng(3)
    w = rng.random(7)
    plan = CompositionPlan.from_distribution(f7, w / w.sum(), 32)
    d = plan.input_length()
    for _ in range(50):
        u = rng.integers(0, 7, size=d).tolist()
        block = ccdm_encode(plan, u)
        counts = [block.count(s) for s in range(7)]
        assert tuple(counts) == plan.counts


def test_random_round_trips():
    f7 = Prime(7)
    plan = CompositionPlan.from_distribution(
        f7, [0.3, 0.2, 0.15, 0.12, 0.1, 0.08, 0.05], 64
    )
    d = plan.input_length()
    rng = np.random.default_rng(64)
    for _ in range(200):
        u = rng.integers(0, 7, size=d).tolist()
        assert ccdm_decode(plan, ccdm_encode(plan, u)) == u


def test_exhaustive_type_class_p3():
    # N = 4, counts (2,1,1): 12 admissible blocks but only 3^2 = 9 inputs,
    # so exactly 9 blocks are reachable and the other 3 must be rejected
    f3 = Prime(3)
    plan = CompositionPlan(f3, 4, (2, 1, 1))
    d = plan.input_length()
    images = set()
    for u in itertools.product(range(3), repeat=d):
        block = ccdm_encode(plan, list(u))
        assert ccdm_decode(plan, block) == list(u)
        images.add(tuple(block))
    assert len(images) == 9  # the map is injective

    type_class = {
        perm for perm in itertools.permutations((0, 0, 1, 2))
    }
    assert len(type_class) == 12
    unreachable = type_class - images
    assert len(unreachable) == 3
    for block in unreachable:
        with pytest.raises(ValueError):
            ccdm_decode(plan, list(block))


def test_decode_rejects_wrong_composition():
    f3 = Prime(3)
    plan = CompositionPlan(f3, 4, (2, 1, 1))
    with pytest.raises(ValueError):
        ccdm_decode(plan, [0, 0, 0, 1])  # composition (3,1,0)
    with pytest.raises(ValueError):
        ccdm_decode(plan, [0, 0, 1])  # wrong length
    # a 2-D or 0-d block is refused by shape, not read row by row
    with pytest.raises(ValueError, match=r"block of shape \(2, 2\) does not match plan"):
        ccdm_decode(plan, [[0, 0], [1, 2]])
    with pytest.raises(ValueError, match=r"block of shape \(\) does not match plan"):
        ccdm_decode(plan, 0)


def test_encode_rejects_short_or_invalid_input():
    f7 = Prime(7)
    plan = CompositionPlan.from_distribution(f7, np.full(7, 1 / 7), 16)
    d = plan.input_length()
    with pytest.raises(ValueError):
        ccdm_encode(plan, [0] * (d - 1))
    with pytest.raises(ValueError):
        ccdm_encode(plan, [7] * d)
    with pytest.raises(ValueError, match=rf"needs {d} input symbols per block, got \({d}, 2\)"):
        ccdm_encode(plan, np.zeros((d, 2), dtype=int))


def test_encode_accepts_numpy_symbols():
    # the base-p input integer must not accumulate in np.int64 (d = 53)
    f13 = Prime(13)
    plan = CompositionPlan.from_distribution(f13, mb_ask_prior(f13, 0.05).probs, 64)
    d = plan.input_length()
    assert d == 53
    for seed in range(5):
        u = np.random.default_rng(seed).integers(0, 13, size=d)
        block = ccdm_encode(plan, u)
        assert block == ccdm_encode(plan, u.tolist())
        assert ccdm_decode(plan, block) == u.tolist()
        assert ccdm_decode(plan, np.array(block)) == u.tolist()
    # integral floats are kept, as `encode` keeps them
    assert ccdm_encode(plan, [1.0] + [0] * (d - 1)) == ccdm_encode(plan, [1] + [0] * (d - 1))
    assert ccdm_decode(plan, [float(s) for s in block]) == u.tolist()
    # a non-integer, complex, object or string symbol is refused, and NaN
    # without a cast warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for bad in (1.5, np.nan, 1 + 0j, "1", None):
            with pytest.raises(ValueError, match="input symbols must be integers"):
                ccdm_encode(plan, [bad] + [0] * (d - 1))
            with pytest.raises(ValueError, match="symbols must be integers"):
                ccdm_decode(plan, [bad] + block[1:])
        objects = np.array(block, dtype=object)
        with pytest.raises(ValueError, match="input symbols must be integers"):
            ccdm_encode(plan, objects[:d])
        with pytest.raises(ValueError, match="symbols must be integers"):
            ccdm_decode(plan, objects)
    # an out-of-range symbol is named with p
    with pytest.raises(ValueError, match="must lie in 0..p-1 for p = 13, got -1"):
        ccdm_encode(plan, [0] * (d - 1) + [-1])
    with pytest.raises(ValueError, match="must lie in 0..p-1 for p = 13, got 13"):
        ccdm_decode(plan, [13] + block[1:])


# ---------------------------------------------------------------------------
# the exact-rational interval-subdivision matcher, kept as the oracle
# ---------------------------------------------------------------------------


def _subdivide(
    low: Fraction, width: Fraction, remaining: list[int], total: int, point: Fraction
) -> tuple[int, Fraction, Fraction]:
    """One interval-subdivision step: pick the symbol whose slot holds point.

    The current interval [low, low + width) is split into consecutive
    slots of width proportional to the remaining symbol counts.  Returns
    (symbol, slot_low, slot_width).
    """
    cum = 0
    for s, c in enumerate(remaining):
        if c == 0:
            continue
        slot_low = low + width * Fraction(cum, total)
        slot_width = width * Fraction(c, total)
        if slot_low <= point < slot_low + slot_width:
            return s, slot_low, slot_width
        cum += c
    raise RuntimeError("interval subdivision failed to locate the input point")


def fraction_encode(plan: CompositionPlan, uniform_symbols: Sequence[int]) -> list[int]:
    """Map uniform input symbols to one constant-composition block.

    Consumes exactly plan.input_length() symbols (each in 0..p-1), reads
    them as a base-p integer u, and walks the interval subdivision that
    assigns each admissible block a subinterval of [0, 1) of width 1/M:
    the output is the block whose subinterval contains u / p^d.  Exact
    rational arithmetic makes the map invertible with no precision loss.
    """
    p = plan.field.p
    d = plan.input_length()
    if len(uniform_symbols) < d:
        raise ValueError(
            f"matcher needs {d} input symbols per block, got {len(uniform_symbols)}"
        )
    consumed = list(uniform_symbols[:d])
    for s in consumed:
        if not 0 <= s < p:
            raise ValueError(f"input symbol {s} outside F_{p}")
    u = 0
    for s in consumed:
        u = u * p + s
    point = Fraction(u, p**d)

    remaining = list(plan.counts)
    total = plan.block_length
    low, width = Fraction(0), Fraction(1)
    block: list[int] = []
    for _ in range(plan.block_length):
        s, low, width = _subdivide(low, width, remaining, total, point)
        block.append(s)
        remaining[s] -= 1
        total -= 1
    return block


def fraction_decode(plan: CompositionPlan, shaped: Sequence[int]) -> list[int]:
    """Invert fraction_encode: recover the uniform input symbols of a block.

    Replays the subdivision along the given block to find its interval
    [L, L + 1/M), then returns the unique grid point u / p^d inside it.
    Blocks of the wrong composition, or blocks whose interval contains
    no grid point (compositions with M not a power of p have M - p^d
    such unreachable blocks), are rejected with ValueError.
    """
    p = plan.field.p
    shaped = list(shaped)
    if len(shaped) != plan.block_length:
        raise ValueError(
            f"block length {len(shaped)} does not match plan ({plan.block_length})"
        )
    observed = [0] * p
    for s in shaped:
        if not 0 <= s < p:
            raise ValueError(f"symbol {s} outside F_{p}")
        observed[s] += 1
    if tuple(observed) != plan.counts:
        raise ValueError(
            f"block composition {tuple(observed)} does not match plan {plan.counts}"
        )

    remaining = list(plan.counts)
    total = plan.block_length
    low, width = Fraction(0), Fraction(1)
    for s in shaped:
        cum = sum(remaining[:s])
        low = low + width * Fraction(cum, total)
        width = width * Fraction(remaining[s], total)
        remaining[s] -= 1
        total -= 1

    d = plan.input_length()
    scale = p**d
    # smallest grid point >= low
    u = -((-low.numerator * scale) // low.denominator)
    if not Fraction(u, scale) < low + width:
        raise ValueError("block is not in the matcher image (no input maps to it)")
    digits = []
    for _ in range(d):
        digits.append(u % p)
        u //= p
    return digits[::-1]


def _decoded(decode, plan: CompositionPlan, block: list[int]) -> list[int] | str:
    try:
        return decode(plan, block)
    except ValueError:
        return "rejected"


@st.composite
def _matcher_cases(draw):
    """A random composition plan, an input for it and a block of its type."""
    p = draw(st.sampled_from((2, 3, 5, 7, 13)))
    n = draw(st.integers(1, 12))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=p - 1, max_size=p - 1)))
    counts = tuple(b - a for a, b in zip([0, *cuts], [*cuts, n]))
    plan = CompositionPlan(Prime(p), n, counts)
    d = plan.input_length()
    u = draw(st.lists(st.integers(0, p - 1), min_size=d, max_size=d))
    block = draw(st.permutations([s for s, c in enumerate(counts) for _ in range(c)]))
    return plan, u, block


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_matcher_cases())
# one nonzero count (M = 1), N = 1, and M = 2 < p (d = 0) with an unreachable block
@example((CompositionPlan(Prime(5), 6, (0, 6, 0, 0, 0)), [], [1] * 6))
@example((CompositionPlan(Prime(7), 1, (0, 0, 0, 1, 0, 0, 0)), [], [3]))
@example((CompositionPlan(Prime(13), 2, (1, 1) + (0,) * 11), [], [1, 0]))
def test_matcher_equals_fraction_oracle(case):
    plan, u, block = case
    assert ccdm_encode(plan, u) == fraction_encode(plan, u)
    assert _decoded(ccdm_decode, plan, block) == _decoded(fraction_decode, plan, block)


def test_matcher_equals_fraction_oracle_p13_n64():
    f13 = Prime(13)
    plan = CompositionPlan.from_distribution(f13, mb_ask_prior(f13, 0.05).probs, 64)
    d = plan.input_length()
    rng = np.random.default_rng(1364)
    for _ in range(50):
        u = rng.integers(0, 13, size=d).tolist()
        block = ccdm_encode(plan, u)
        assert block == fraction_encode(plan, u)
        assert ccdm_decode(plan, block) == fraction_decode(plan, block) == u
        other = rng.permutation(block).tolist()
        assert _decoded(ccdm_decode, plan, other) == _decoded(fraction_decode, plan, other)
