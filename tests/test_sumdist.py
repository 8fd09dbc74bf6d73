import itertools

import numpy as np
import numpy.testing as npt
import pytest

from primeshape import sumdist
from primeshape.constellations import Constellation
from primeshape.field import Prime
from primeshape.shaping import CompositionPlan, MaxwellBoltzmann
from primeshape.sumdist import (
    SymbolDistribution,
    sum_distribution_convolve,
    sum_distribution_dft,
    uniformity_gap,
)


def random_pmf(rng, p):
    w = rng.random(p)
    return w / w.sum()


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_pmf_validation():
    f5 = Prime(5)
    with pytest.raises(ValueError):
        SymbolDistribution(f5, [0.5, 0.5, 0.0, 0.0])  # wrong length
    with pytest.raises(ValueError, match=r"PMF sums to 1\.1, expected 1"):
        SymbolDistribution(f5, [0.5, 0.6, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError):
        SymbolDistribution(f5, [1.2, -0.2, 0.0, 0.0, 0.0])  # negative entry


@pytest.mark.parametrize(
    "what, make, tol",
    [
        ("PMF", lambda q: SymbolDistribution(Prime(3), q), sumdist.NORMALIZATION_TOL),
        ("prior", lambda q: MaxwellBoltzmann(np.array([0.0, 1.0, 2.0]), q),
         sumdist.NORMALIZATION_TOL),
        ("prior", lambda q: Constellation(np.exp(2j * np.pi * np.arange(3) / 3), q),
         sumdist.NORMALIZATION_TOL),
        ("PMF", lambda q: CompositionPlan.from_distribution(Prime(3), q, 8), 1e-9),
    ],
    ids=["SymbolDistribution", "MaxwellBoltzmann", "Constellation", "from_distribution"],
)
def test_every_pmf_follows_one_rule(what, make, tol):
    make(np.array([0.25, 0.25, 0.5]))
    with pytest.raises(ValueError, match=f"^{what} entries must be nonnegative numbers$"):
        make(np.array([-0.25, 0.75, 0.5]))
    with pytest.raises(ValueError, match=rf"^{what} sums to 1\.25, expected 1$"):
        make(np.array([0.25, 0.5, 0.5]))
    # a total off by 1e-10 passes only the looser rule for outside PMFs
    off = np.array([0.25, 0.25, 0.5 + 1e-10])
    if tol > 1e-10:
        make(off)
    else:
        with pytest.raises(ValueError, match="expected 1"):
            make(off)


def test_lost_precision_is_a_numerical_failure():
    # so close to a point mass the transform's phases carry roundoff that
    # the power multiplies by `repeat`, leaving an entry at -6.9e-12
    factor = SymbolDistribution(Prime(7), [1e-9, 1.0 - 1e-9, 0, 0, 0, 0, 0])
    with pytest.raises(RuntimeError, match="lost precision"):
        sum_distribution_dft([factor], repeat=100000)


def test_factors_must_share_field():
    with pytest.raises(ValueError):
        sum_distribution_dft(
            [SymbolDistribution.uniform(Prime(5)), SymbolDistribution.uniform(Prime(7))]
        )
    with pytest.raises(ValueError):
        sum_distribution_dft([])


# ---------------------------------------------------------------------------
# exact small cases
# ---------------------------------------------------------------------------


def test_single_factor_is_identity():
    f7 = Prime(7)
    rng = np.random.default_rng(7)
    d = SymbolDistribution(f7, random_pmf(rng, 7))
    npt.assert_allclose(sum_distribution_dft([d]).probs, d.probs, atol=1e-14)


def test_two_coin_factors_over_f3():
    # brute-force pair enumeration as an in-test oracle
    f3 = Prime(3)
    q = [0.5, 0.5, 0.0]
    d = SymbolDistribution(f3, q)
    expected = np.zeros(3)
    for a, b in itertools.product(range(3), repeat=2):
        expected[(a + b) % 3] += q[a] * q[b]
    npt.assert_allclose(expected, [0.25, 0.5, 0.25], atol=1e-15)
    npt.assert_allclose(sum_distribution_dft([d, d]).probs, expected, atol=1e-14)


def test_point_masses_add_like_symbols():
    f7 = Prime(7)
    d = sum_distribution_dft(
        [SymbolDistribution(f7, np.eye(7)[3]), SymbolDistribution(f7, np.eye(7)[5])]
    )
    npt.assert_allclose(d.probs, np.eye(7)[1], atol=1e-12)


def test_three_factor_enumeration_oracle():
    f5 = Prime(5)
    rng = np.random.default_rng(11)
    qs = [random_pmf(rng, 5) for _ in range(3)]
    expected = np.zeros(5)
    for a, b, c in itertools.product(range(5), repeat=3):
        expected[(a + b + c) % 5] += qs[0][a] * qs[1][b] * qs[2][c]
    got = sum_distribution_dft([SymbolDistribution(f5, q) for q in qs]).probs
    npt.assert_allclose(got, expected, atol=1e-13)


# ---------------------------------------------------------------------------
# transform vs convolution oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_dft_matches_convolution_randomized(p):
    field = Prime(p)
    rng = np.random.default_rng(p)
    for _ in range(100):
        m = int(rng.integers(1, 7))
        factors = [SymbolDistribution(field, random_pmf(rng, p)) for _ in range(m)]
        a = sum_distribution_dft(factors).probs
        b = sum_distribution_convolve(factors).probs
        assert np.max(np.abs(a - b)) < 1e-10


@pytest.mark.parametrize("p", [101, 257, 1009])
def test_fft_matches_convolution_at_large_primes(p):
    # the oracle takes O(m * p^2) Python steps, so few factors at large p
    field = Prime(p)
    rng = np.random.default_rng(p)
    factors = [SymbolDistribution(field, random_pmf(rng, p)) for _ in range(3)]
    a = sum_distribution_dft(factors).probs
    b = sum_distribution_convolve(factors).probs
    assert np.max(np.abs(a - b)) < 1e-15
    absorbed = sum_distribution_dft([*factors, SymbolDistribution.uniform(field)])
    assert np.max(np.abs(absorbed.probs - 1.0 / p)) < 1e-15


# ---------------------------------------------------------------------------
# repeated factors
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("repeat", [1, 2, 3, 4])
def test_repeat_equals_the_replicated_factors(repeat):
    field = Prime(7)
    rng = np.random.default_rng(repeat)
    factors = [SymbolDistribution(field, random_pmf(rng, 7)) for _ in range(2)]
    factors.append(SymbolDistribution(field, np.eye(7)[3]))  # a point mass
    a = sum_distribution_dft(factors, repeat).probs
    b = sum_distribution_convolve(factors * repeat).probs
    assert np.max(np.abs(a - b)) < 1e-15


def test_huge_repeats_stay_exact():
    field, repeat = Prime(7), 300000000
    # a point mass shifts the sum by its symbol, `repeat` times over
    point = SymbolDistribution(field, np.eye(7)[1])
    npt.assert_array_equal(sum_distribution_dft([point], repeat).probs, np.eye(7)[repeat % 7])
    # spread factors reach uniform, with a total mass that stays 1
    spread = SymbolDistribution(field, [0.4, 0.2, 0.1, 0.05, 0.05, 0.1, 0.1])
    for factors in ([spread], [spread, point]):
        npt.assert_allclose(sum_distribution_dft(factors, repeat).probs, 1.0 / 7, atol=1e-16)


def test_repeat_below_one_is_refused():
    for repeat in (0, -2):
        with pytest.raises(ValueError, match="repeat must be at least 1"):
            sum_distribution_dft([SymbolDistribution.uniform(Prime(3))], repeat)


def test_imaginary_residue_is_refused(monkeypatch):
    ifft = np.fft.ifft
    monkeypatch.setattr(sumdist.np.fft, "ifft", lambda x: ifft(x) + 1j * sumdist.IMAG_TOL * 2)
    with pytest.raises(RuntimeError, match="imaginary residue"):
        sum_distribution_dft([SymbolDistribution.uniform(Prime(5))], 3)


# ---------------------------------------------------------------------------
# uniform absorption
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_one_uniform_factor_makes_the_sum_uniform(p):
    field = Prime(p)
    rng = np.random.default_rng(100 + p)
    factors = [SymbolDistribution(field, random_pmf(rng, p)) for _ in range(4)]
    factors.insert(2, SymbolDistribution.uniform(field))
    out = sum_distribution_dft(factors)
    npt.assert_allclose(out.probs, 1.0 / p, atol=1e-14)
    out2 = sum_distribution_convolve(factors)
    npt.assert_allclose(out2.probs, 1.0 / p, atol=1e-14)


# ---------------------------------------------------------------------------
# uniformity gap
# ---------------------------------------------------------------------------


def test_uniformity_gap_extremes():
    f7 = Prime(7)
    assert uniformity_gap(SymbolDistribution.uniform(f7)) == 0.0
    npt.assert_allclose(
        uniformity_gap(SymbolDistribution(f7, np.eye(7)[0])), 1.0 - 1.0 / 7
    )


def test_gap_decreases_with_more_factors():
    f7 = Prime(7)
    q = SymbolDistribution(f7, [0.7, 0.3, 0, 0, 0, 0, 0])
    gaps = [uniformity_gap(sum_distribution_dft([q] * m)) for m in range(1, 21)]
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))
    # a binomial-coefficient coincidence can tie consecutive gaps for other
    # factors (e.g. 0.6/0.4 at m = 4, 5), so in general the gap is only
    # non-increasing
    q2 = SymbolDistribution(f7, [0.6, 0.4, 0, 0, 0, 0, 0])
    gaps2 = [uniformity_gap(sum_distribution_dft([q2] * m)) for m in range(1, 21)]
    assert all(g1 >= g2 for g1, g2 in zip(gaps2, gaps2[1:]))
    assert gaps2[-1] < gaps2[0] / 5


def test_gap_vanishes_geometrically_for_spread_factors():
    # any factor bounded away from a point mass drives the sum to uniform;
    # with max prob 0.3 the character moduli are small enough that 50
    # factors land far below 1e-6
    f7 = Prime(7)
    q = SymbolDistribution(f7, [0.3, 0.2, 0.15, 0.1, 0.1, 0.1, 0.05])
    assert uniformity_gap(sum_distribution_dft([q] * 50)) < 1e-6
    # the worst factor at max prob 0.9 needs more terms but still converges
    worst = SymbolDistribution(f7, [0.9] + [0.1 / 6] * 6)
    gap150 = uniformity_gap(sum_distribution_dft([worst] * 150))
    assert gap150 < 1e-6
