import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from oracles import ChannelSnr, mi_complex_cqam
from primeshape import awgn_mi, constellations, optimizer
from primeshape.awgn_mi import capacity_gamma, mi_complex_points, mi_real_points
from primeshape.cli import REFERENCE_STRETCH
from primeshape.constellations import CqamParams, Stretch, build_cqam
from primeshape.field import Prime
from primeshape.optimizer import (
    LOG_GAMMA_TOL,
    PROBE_LOG_GAMMA_TOL,
    UnreachableRateError,
    optimize_cqam,
    optimize_shaped_ask,
    optimize_time_sharing,
    snr_for_rate,
)
from primeshape.shaping import MaxwellBoltzmann, cqam_prior, mb_ask_prior

# reduced node counts keep unit tests fast; the resulting dB shifts are far
# below the assertion tolerances used here (full precision runs live in
# test_acceptance)
NODES = 48


# ---------------------------------------------------------------------------
# rate inversion
# ---------------------------------------------------------------------------


# Each rate_fn returns (bits, d bits / d ln gamma), as the solver takes it.


def _capacity(g):
    # 0.5 log2(1 + 2 gamma) = target has the root gamma = (4^target - 1) / 2
    return 0.5 * math.log2(1.0 + 2.0 * g), g / ((1.0 + 2.0 * g) * math.log(2.0))


def test_snr_for_rate_inverts_gaussian_capacity():
    rate_fn = _capacity
    for target in (0.25, 0.5, 1.871, 3.0):
        g = snr_for_rate(rate_fn, target)
        assert abs(rate_fn(g)[0] - target) < 1e-9


def test_snr_for_rate_near_asymptote():
    # saturating curve: target close below the supremum still converges
    rate_fn = lambda g: (2.0 * (1.0 - math.exp(-g)), 2.0 * g * math.exp(-g))
    g = snr_for_rate(rate_fn, 1.9999)
    assert abs(rate_fn(g)[0] - 1.9999) < 1e-9


def test_snr_for_rate_unreachable_target():
    # 1/(1+g) stays positive over the whole bracket range, so the supremum
    # is genuinely unattainable (unlike exp(-g), which underflows to zero)
    calls = []
    rate_fn = lambda g: calls.append(g) or (2.0 - 1.0 / (1.0 + g), g / (1.0 + g) ** 2)
    with pytest.raises(UnreachableRateError):
        snr_for_rate(rate_fn, 2.0)
    # Newton steps of about 1 in log gamma toward the supremum: each step up
    # at least doubles, so GAMMA_MAX (log 1e15 = 34.5) is tried early
    assert len(calls) <= 12
    with pytest.raises(UnreachableRateError):
        snr_for_rate(rate_fn, 2.5)
    # a nonpositive target is an input error, not an unreachable rate
    with pytest.raises(ValueError) as exc:
        snr_for_rate(rate_fn, -1.0)
    assert not isinstance(exc.value, UnreachableRateError)
    # so is a target the curve already exceeds at GAMMA_MIN
    with pytest.raises(ValueError, match="arbitrarily small gamma") as exc:
        snr_for_rate(lambda g: (3.0, 0.0), 2.0)
    assert not isinstance(exc.value, UnreachableRateError)


def test_snr_for_rate_non_convergence():
    # a step curve jumps over the target, so no gamma meets the tolerance;
    # its slope is 0 wherever it is defined
    with pytest.raises(RuntimeError, match="did not converge"):
        snr_for_rate(lambda g: (0.0 if g < 1.0 else 2.0, 0.0), 1.0)
    # a non-finite rate is a numerical failure (exit 3), not an input error
    with pytest.raises(RuntimeError, match="did not converge: rate nan"):
        snr_for_rate(lambda g: (math.nan, math.nan), 1.0)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(st.floats(0.01, 10.0), st.floats(-8.0, 12.0))
def test_snr_for_rate_matches_closed_form_from_any_hint(target, log10_hint):
    rate_fn = _capacity
    root = (4.0**target - 1.0) / 2.0
    for hint in (10.0**log10_hint, root):
        g = snr_for_rate(rate_fn, target, hint)
        assert abs(math.log(g) - math.log(root)) <= LOG_GAMMA_TOL


@pytest.mark.parametrize("hint", [math.nan, 0.0, -1.0, -math.inf])
def test_snr_for_rate_rejects_a_hint_that_is_not_positive(hint):
    calls = []
    with pytest.raises(ValueError, match="SNR hint must be positive") as exc:
        snr_for_rate(lambda g: calls.append(g) or _capacity(g), 1.0, hint)
    assert not isinstance(exc.value, UnreachableRateError)
    assert calls == []


@pytest.mark.parametrize(
    "target, tol, message",
    [
        (math.nan, LOG_GAMMA_TOL, "target rate must be positive and finite"),
        (math.inf, LOG_GAMMA_TOL, "target rate must be positive and finite"),
        (0.0, LOG_GAMMA_TOL, "target rate must be positive and finite"),
        (1.0, math.nan, "SNR tolerance must be positive and finite"),
        (1.0, math.inf, "SNR tolerance must be positive and finite"),
        (1.0, 0.0, "SNR tolerance must be positive and finite"),
        (1.0, -LOG_GAMMA_TOL, "SNR tolerance must be positive and finite"),
    ],
)
def test_snr_for_rate_refuses_a_target_or_tol_that_is_not_positive_and_finite(
    target, tol, message
):
    # a NaN target passed the old `target <= 0.0` check and returned gamma = 1
    calls = []
    with pytest.raises(ValueError, match=message) as exc:
        snr_for_rate(lambda g: calls.append(g) or _capacity(g), target, tol=tol)
    assert not isinstance(exc.value, UnreachableRateError)
    assert calls == []


@settings(derandomize=True, deadline=None, max_examples=100)
@given(st.floats(0.01, 10.0), st.floats(-8.0, 0.0), st.sampled_from([-1.0, 1.0]))
def test_snr_for_rate_at_the_probe_tolerance_lands_within_it(target, log10_offset, sign):
    # every stopping rule and the residual check scale with tol, so a solve
    # to PROBE_LOG_GAMMA_TOL lands within it of the root, and stops no later
    # than the same solve to LOG_GAMMA_TOL, whose iterates it shares
    root = (4.0**target - 1.0) / 2.0
    hint = root * math.exp(sign * 10.0**log10_offset)
    loose_calls, calls = [], []
    loose = snr_for_rate(
        lambda g: loose_calls.append(g) or _capacity(g), target, hint, tol=PROBE_LOG_GAMMA_TOL
    )
    snr_for_rate(lambda g: calls.append(g) or _capacity(g), target, hint)
    assert abs(math.log(loose) - math.log(root)) <= PROBE_LOG_GAMMA_TOL
    assert loose_calls == calls[: len(loose_calls)]


def test_snr_for_rate_clamps_an_infinite_hint_to_gamma_max():
    calls = []
    g = snr_for_rate(lambda g: calls.append(g) or _capacity(g), 1.0, math.inf)
    assert calls[0] == pytest.approx(optimizer.GAMMA_MAX, rel=1e-14)
    assert abs(math.log(g) - math.log(1.5)) <= LOG_GAMMA_TOL


@pytest.mark.parametrize("target", [0.01, 0.5, 1.871, 10.0])
def test_snr_for_rate_from_a_hint_on_the_root_evaluates_once(target):
    calls = []
    root = (4.0**target - 1.0) / 2.0
    g = snr_for_rate(lambda g: calls.append(g) or _capacity(g), target, root)
    assert calls == [pytest.approx(root, rel=1e-14)]
    assert abs(math.log(g) - math.log(root)) <= LOG_GAMMA_TOL


@pytest.mark.parametrize("log10_hint", [-8.0, 0.0, 12.0])
@pytest.mark.parametrize("target", [0.01, 1.871, 10.0])
def test_snr_for_rate_bisects_past_a_wrong_sign_slope(target, log10_hint):
    # the slope's sign is flipped, so no Newton step is taken: bisection
    # alone must still reach the closed-form root
    rate_fn = lambda g: (_capacity(g)[0], -_capacity(g)[1])
    root = (4.0**target - 1.0) / 2.0
    g = snr_for_rate(rate_fn, target, 10.0**log10_hint)
    assert abs(math.log(g) - math.log(root)) <= LOG_GAMMA_TOL


@pytest.mark.parametrize("offset", [-1e-3, -1e-4, 1e-4, 1e-3])
@pytest.mark.parametrize("target", [0.01, 0.5, 1.871, 10.0])
def test_snr_for_rate_from_a_hint_near_the_root_evaluates_twice(target, offset):
    # one Newton step from the hint lands within about |f''/(2f')| 1e-6 of
    # the root; the step from there is predicted to miss by far less than
    # LOG_GAMMA_TOL, so the solve returns its end without evaluating it
    calls = []
    root = (4.0**target - 1.0) / 2.0
    hint = root * math.exp(offset)
    g = snr_for_rate(lambda g: calls.append(g) or _capacity(g), target, hint)
    assert len(calls) <= 2
    assert abs(math.log(g) - math.log(root)) <= LOG_GAMMA_TOL


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.floats(0.01, 10.0),
    st.floats(-8.0, 12.0),
    st.floats(-6.0, -2.0),
    st.sampled_from([1.0 - 5e-4, 1.0 + 5e-4]),
)
def test_snr_for_rate_predicted_stop_tolerates_the_slope_error(
    target, log10_hint, log10_offset, scale
):
    # a slope off the rate's derivative by 5e-4 relative, as the 96-node
    # rule's is at high SNR, misplaces an unevaluated step by 5e-4 of its
    # length; the step bound keeps that within the tolerance, from far
    # hints and from hints near the root alike
    rate_fn = lambda g: (_capacity(g)[0], scale * _capacity(g)[1])
    root = (4.0**target - 1.0) / 2.0
    for hint in (10.0**log10_hint, root * math.exp(10.0**log10_offset)):
        g = snr_for_rate(rate_fn, target, hint)
        assert abs(math.log(g) - math.log(root)) <= LOG_GAMMA_TOL


def test_snr_for_rate_on_a_high_snr_baseline_matches_bisection():
    # uniform 13-ASK at 96 nodes and sigma = 0.2, where the rule's slope
    # parts from its rate's derivative by 2e-4 (test_awgn_mi): the Newton
    # solve with its predicted stop lands where a bisection-only solve (the
    # flipped slope of test_snr_for_rate_bisects_past_a_wrong_sign_slope) does
    curve = optimizer._ask_scheme("ts", Prime(13), 1.0, None).baseline(96)
    gamma = 14.0 / (2.0 * 0.2**2)  # E / (2 sigma^2), E = (13^2 - 1) / 12
    target = curve(gamma)[0]
    flipped = lambda g: (curve(g)[0], -curve(g)[1])
    for hint in (capacity_gamma(target, "real"), gamma * 1.001, gamma * 2.0):
        newton = snr_for_rate(curve, target, hint)
        bisected = snr_for_rate(flipped, target, hint)
        assert abs(math.log(newton) - math.log(bisected)) <= LOG_GAMMA_TOL


def _log_capacity_curvature(target):
    # d slope / d ln gamma of _capacity at its root: slope = g / ((1 + 2g) ln 2)
    g = (4.0**target - 1.0) / 2.0
    return g / ((1.0 + 2.0 * g) ** 2 * math.log(2.0))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.floats(0.01, 10.0),
    st.floats(-12.0, -2.0),
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([0.0, 0.5, 1.0, 2.0, -1.0]),
)
def test_snr_for_rate_with_borrowed_curvature_lands_as_a_cold_solve(
    target, log10_offset, sign, scale
):
    # the curvature of a neighbouring solve lets a warm solve stop on its
    # first Newton step; borrowed from a curve twice as curved, from a flat
    # one or with the wrong sign, the end still lies within LOG_GAMMA_TOL
    # of a cold solve's and of the root
    root = (4.0**target - 1.0) / 2.0
    hint = root * math.exp(sign * 10.0**log10_offset)
    cold = snr_for_rate(_capacity, target, hint)
    calls = []
    warm = snr_for_rate(
        lambda g: calls.append(g) or _capacity(g), target, hint,
        curvature=scale * _log_capacity_curvature(target),
    )
    assert abs(math.log(warm) - math.log(cold)) <= LOG_GAMMA_TOL
    assert abs(math.log(warm) - math.log(root)) <= LOG_GAMMA_TOL
    if 10.0**log10_offset <= 0.5 * optimizer.PREDICTED_STEP_MAX:
        assert len(calls) == 1


@pytest.mark.parametrize("curvature", [math.nan, 0.0, 0.1, -0.1])
@pytest.mark.parametrize(
    "offset",
    [-1e-3, -2.0 * optimizer.PREDICTED_STEP_MAX, 1.01 * optimizer.PREDICTED_STEP_MAX, 0.1],
)
def test_snr_for_rate_evaluates_a_first_step_longer_than_predicted_step_max(
    offset, curvature
):
    # rate = ln gamma: the Newton step from any hint lands on the root, and
    # a borrowed curvature of 0 predicts no error at all; still, a step
    # longer than PREDICTED_STEP_MAX is evaluated before the solve stops
    calls = []
    g = snr_for_rate(
        lambda g: calls.append(g) or (math.log(g), 1.0), 1.0, math.e * math.exp(offset),
        curvature=curvature,
    )
    assert len(calls) == 2
    assert calls[1] == pytest.approx(math.e, rel=1e-15)
    assert abs(math.log(g) - 1.0) <= LOG_GAMMA_TOL


@pytest.mark.parametrize(
    "scheme",
    [
        lambda: optimizer._cqam_scheme(Prime(5), CqamParams()),
        lambda: optimizer._ask_scheme("ts", Prime(13), 1.0, None),
    ],
    ids=["cqam-5", "ask-13"],
)
def test_refinement_at_more_nodes_lands_as_a_cold_solve(scheme):
    # the driver's refinement: a solve at 48 nodes hands its gamma and its
    # last two evaluations' curvature to a one-evaluation solve at 96 nodes,
    # which lands within LOG_GAMMA_TOL of a cold solve at 96 nodes
    scheme = scheme()
    target = 2.0 * 1.5 if scheme.dimension == "complex" else 2.5
    seen = []
    coarse = snr_for_rate(
        lambda g: seen.append((math.log(g), *scheme.baseline(48)(g))) or seen[-1][1:],
        target, 1.0,
    )
    (t0, _, s0, _), (t1, _, s1, _) = seen[-2:]
    calls, fine = [], scheme.baseline(96)
    warm = snr_for_rate(
        lambda g: calls.append(g) or fine(g), target, coarse, curvature=(s1 - s0) / (t1 - t0)
    )
    cold = snr_for_rate(fine, target, 1.0)
    assert len(calls) == 1
    assert abs(math.log(warm) - math.log(cold)) <= LOG_GAMMA_TOL


@pytest.mark.parametrize("hint", [None, 1e-200, math.inf])
def test_snr_for_rate_range_ends_raise_their_own_errors(hint):
    # the rate saturates below the target: Newton heads past GAMMA_MAX,
    # where the rate is tried and found short
    saturating = lambda g: (2.0 * (1.0 - math.exp(-g)), 2.0 * g * math.exp(-g))
    with pytest.raises(UnreachableRateError, match="unreachable"):
        snr_for_rate(saturating, 2.5, hint)
    # the rate never falls below 1 bit: Newton heads past GAMMA_MIN, where
    # the target is already exceeded
    floored = lambda g: (1.0 + _capacity(g)[0], _capacity(g)[1])
    with pytest.raises(ValueError, match="arbitrarily small gamma") as exc:
        snr_for_rate(floored, 0.5, hint)
    assert not isinstance(exc.value, UnreachableRateError)


def _recorded(f):
    """f(nu) -> (gamma_A, h) as the nu search calls it, recording each
    (nu, hint, gamma_A, h)."""
    calls = []

    def g(nu, hint, tol):
        gamma, h = f(nu)
        calls.append((nu, hint, gamma, h))
        return gamma, h

    return g, calls


def _assert_hints_follow_the_nearest_solve(calls):
    # each solve starts from the nearest solved nu moved along its gradient,
    # to second order once two nu are solved: h's secant slope through the
    # two nearest stands for d h / d nu
    assert calls[0][1] is None
    for i, (nu, hint, _, _) in enumerate(calls[1:], 1):
        solved = sorted(
            (c for c in calls[:i] if math.isfinite(c[2])), key=lambda c: abs(c[0] - nu)
        )
        if not solved:
            assert hint is None
            continue
        (near, _, gamma, h), step = solved[0], nu - solved[0][0]
        log_hint = math.log(gamma) + h * step
        if len(solved) > 1:
            near2, _, _, h2 = solved[1]
            log_hint += 0.5 * (h - h2) / (near - near2) * step**2
        assert hint == pytest.approx(math.exp(log_hint), rel=1e-12)


def test_nu_search_finds_an_interior_minimum():
    # ln gamma_A = (nu - 0.3)^2 has a linear gradient, which the secant
    # meets after one bisection
    f, calls = _recorded(lambda nu: (math.exp((nu - 0.3) ** 2), 2.0 * (nu - 0.3)))
    nu, gamma = optimizer._minimize_nu(f, 1.0)
    assert nu == pytest.approx(0.3, abs=1e-12)
    assert gamma == min(c[2] for c in calls)
    assert len(calls) <= 4
    _assert_hints_follow_the_nearest_solve(calls)
    # h is linear in nu, so the second-order hint is exact from the third
    # solve on
    assert [c[1] for c in calls[2:]] == pytest.approx([c[2] for c in calls[2:]], rel=1e-12)
    # a curved gradient takes a few secant steps more
    f, calls = _recorded(lambda nu: (math.exp(nu**4 - nu), 4.0 * nu**3 - 1.0))
    nu, _ = optimizer._minimize_nu(f, 2.0)
    assert nu == pytest.approx(0.25 ** (1 / 3), abs=optimizer.NU_REL_TOL * 2.0)
    assert len(calls) <= 10
    _assert_hints_follow_the_nearest_solve(calls)


def test_nu_search_treats_an_infeasible_nu_as_rising():
    # above nu = 0.4 the target is unreachable: gamma_A is inf there and h
    # is whatever f returns, here nan; the search bisects down to the
    # feasible part without a widening
    def f(nu):
        if nu > 0.4:
            return math.inf, math.nan
        return math.exp((nu - 0.35) ** 2), 2.0 * (nu - 0.35)

    g, calls = _recorded(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        nu, gamma = optimizer._minimize_nu(g, 1.0)
    assert nu == pytest.approx(0.35, abs=1e-12)
    assert math.isfinite(gamma)
    assert any(math.isinf(c[2]) for c in calls)
    _assert_hints_follow_the_nearest_solve(calls)
    # unreachable everywhere: no nu is feasible
    with pytest.raises(UnreachableRateError, match="every shaping parameter"):
        optimizer._minimize_nu(lambda nu, hint, tol: (math.inf, math.inf), 1.0)


def test_nu_search_edge_minima():
    # gamma_A rises from nu = 0: the secant points below 0, which is solved
    # and returned exactly
    f, calls = _recorded(lambda nu: (math.exp(nu + nu**2), 1.0 + 2.0 * nu))
    assert optimizer._minimize_nu(f, 1.0) == (0.0, 1.0)
    assert calls[-1][0] == 0.0
    # gamma_A still falls at the upper edge 0.1: it doubles to 0.2 and 0.4,
    # each announced, and the minimum at 0.25 is found inside
    f, calls = _recorded(lambda nu: (math.exp((nu - 0.25) ** 2), 2.0 * (nu - 0.25)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        nu, _ = optimizer._minimize_nu(f, 0.1)
    assert [str(w.message) for w in caught] == [
        "shaping optimum at the nu grid edge (0.1); widening the bracket to 0.2",
        "shaping optimum at the nu grid edge (0.2); widening the bracket to 0.4",
    ]
    assert nu == pytest.approx(0.25, abs=1e-12)


def test_nu_search_solves_the_untried_lower_end_before_giving_up():
    # only nu = 0 reaches the target: the infeasible probes close the
    # bracket at the untried lower end, which is solved and returned
    f, calls = _recorded(lambda nu: (2.0, 1.0) if nu == 0.0 else (math.inf, math.inf))
    assert optimizer._minimize_nu(f, 1.0) == (0.0, 2.0)
    assert calls[-1][0] == 0.0
    assert [c[0] for c in calls].count(0.0) == 1


@pytest.mark.parametrize("nodes", [16, 24, 32, 48, 96])
def test_full_rate_row_is_unreachable_at_every_node_count(nodes):
    # at R_c = 1 the target log2 p is the entropy ceiling of the uniform
    # prior, which the MI only nears as gamma grows; whether a rule's
    # saturated rate comes within RATE_RESIDUAL_TOL of it must not decide
    # the row, so no node count solves it
    for run in (
        lambda: optimize_time_sharing(Prime(7), Fraction(1), nodes=nodes),
        lambda: optimize_shaped_ask(Prime(5), Fraction(1), nodes=nodes),
        lambda: optimize_cqam(Prime(5), Fraction(1), nodes=nodes),
    ):
        with pytest.raises(UnreachableRateError, match="entropy ceiling"):
            run()


def test_target_within_the_residual_tolerance_of_the_ceiling_is_unreachable(monkeypatch):
    # log2(7) (1 - 1e-8) lies 2.8e-8 bits below the ceiling, inside
    # RATE_RESIDUAL_TOL: unreachable before any solve, as R_c = 1 is
    counts = _count_solves(monkeypatch)
    with pytest.raises(UnreachableRateError, match="entropy ceiling"):
        optimize_time_sharing(Prime(7), Fraction(99999999, 100000000), nodes=NODES)
    assert counts["solves"] == 0


def test_nu_search_solves_only_the_nu_it_returns_to_full_tolerance():
    # the probes that steer the secant are solved to PROBE_LOG_GAMMA_TOL
    tols = []

    def solved(fn):
        def f(nu, hint, tol):
            tols.append((nu, tol))
            return fn(nu, tol)

        return f

    def quadratic(nu, tol):
        return math.exp((nu - 0.3) ** 2), 2.0 * (nu - 0.3)

    # a converged secant step inside the bracket is the one full solve
    curved = solved(lambda nu, tol: (math.exp(nu**4 - nu), 4.0 * nu**3 - 1.0))
    nu, _ = optimizer._minimize_nu(curved, 2.0)
    assert tols[-1] == (nu, LOG_GAMMA_TOL)
    assert {tol for _, tol in tols[:-1]} == {PROBE_LOG_GAMMA_TOL}
    # here the secant lands on nu* = 0.3 exactly: that probe closes the
    # bracket, so no converged probe follows, and nu* is solved again
    tols.clear()
    assert optimizer._minimize_nu(solved(quadratic), 1.0) == (pytest.approx(0.3, abs=1e-15), 1.0)
    assert tols[-1] == (tols[-2][0], LOG_GAMMA_TOL)
    assert {tol for _, tol in tols[:-1]} == {PROBE_LOG_GAMMA_TOL}
    # a steering probe whose loose gamma reads lowest is solved again before
    # it may be returned: nu = 0.25 reads 1% low, and its full solve hands
    # the result back to nu = 0.3
    tols.clear()

    def low(nu, tol):
        gamma, h = quadratic(nu, tol)
        return (0.99 * gamma if nu == 0.25 and tol == PROBE_LOG_GAMMA_TOL else gamma), h

    assert optimizer._minimize_nu(solved(low), 1.0)[0] == pytest.approx(0.3, abs=1e-15)
    assert (0.25, LOG_GAMMA_TOL) in tols


def test_nu_search_gives_up_after_six_widenings():
    # a minimum always at the upper edge: six doublings never contain it, and
    # only the six doublings that happen are announced
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(RuntimeError, match="widening failed"):
            optimizer._minimize_nu(lambda v, hint, tol: (math.exp(-v), -1.0), 0.1)
    assert sum("widening the bracket" in str(w.message) for w in caught) == 6


# ---------------------------------------------------------------------------
# time sharing
# ---------------------------------------------------------------------------


def test_time_sharing_reference_row():
    # frozen from a full-precision run; reference row: 0.817 / 0.331 / 0.485
    sol = optimize_time_sharing(
        Prime(7), Fraction(2, 3), convention="shaped", nodes=NODES
    )
    assert sol.target_rate == float(Fraction(2, 3)) * math.log2(7)
    assert sol.potential_gain_db == pytest.approx(0.8170, abs=5e-3)
    assert sol.gap_db == pytest.approx(0.3325, abs=5e-3)
    assert sol.effective_gain_db == pytest.approx(0.4846, abs=5e-3)
    assert sol.nu_star == pytest.approx(0.236, abs=5e-3)


def test_gap_plus_effective_equals_potential():
    sol = optimize_time_sharing(Prime(7), Fraction(3, 4), nodes=NODES)
    assert sol.gap_db + sol.effective_gain_db == pytest.approx(
        sol.potential_gain_db, abs=1e-12
    )


def test_forced_zero_nu_gives_no_gain():
    sols = [
        optimize_time_sharing(
            Prime(7), Fraction(2, 3), convention=conv, nodes=NODES, nu=0.0
        )
        for conv in ("shaped", "time-averaged")
    ]
    sols.append(optimize_shaped_ask(Prime(7), Fraction(2, 3), nodes=NODES, nu=0.0))
    for sol in sols:
        assert sol.effective_gain_db == pytest.approx(0.0, abs=1e-7)
        assert sol.gamma_A_db == pytest.approx(sol.gamma_unif_db, abs=1e-7)


def test_conventions_differ_at_positive_nu():
    a = optimize_time_sharing(
        Prime(7), Fraction(2, 3), convention="shaped", nodes=NODES, nu=0.25
    )
    b = optimize_time_sharing(
        Prime(7), Fraction(2, 3), convention="time-averaged", nodes=NODES, nu=0.25
    )
    assert abs(a.gamma_A_db - b.gamma_A_db) > 0.01


def test_target_rate_grows_with_coding_rate():
    sols = [
        optimize_time_sharing(Prime(7), rc, convention="shaped", nodes=NODES)
        for rc in (Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))
    ]
    targets = [s.target_rate for s in sols]
    assert targets[0] < targets[1] < targets[2]
    # higher coding rate leaves less shaping room: nu* decreases
    assert sols[0].nu_star > sols[1].nu_star > sols[2].nu_star


def test_interior_optimum():
    sol = optimize_time_sharing(Prime(13), Fraction(2, 3), convention="shaped", nodes=NODES)
    assert 0.0 < sol.nu_star < 2.0 / 6  # strictly inside the default bracket


def test_coding_rate_range_enforced():
    with pytest.raises(ValueError):
        optimize_time_sharing(Prime(7), Fraction(1, 3))
    with pytest.raises(ValueError):
        optimize_time_sharing(Prime(7), Fraction(7, 6))
    with pytest.raises(ValueError):
        optimize_cqam(Prime(7), Fraction(2, 5))


def test_unknown_convention_rejected():
    with pytest.raises(ValueError):
        optimize_time_sharing(Prime(7), Fraction(2, 3), convention="per-symbol")


def _narrow_ask_bracket(monkeypatch) -> None:
    """Start every p-ASK scheme's nu search from the upper edge 0.05."""
    ask_scheme = optimizer._ask_scheme
    monkeypatch.setattr(
        optimizer, "_ask_scheme",
        lambda *args: dataclasses.replace(ask_scheme(*args), nu_max=0.05),
    )


def test_nu_bracket_widening_warns_at_the_caller(monkeypatch):
    with monkeypatch.context() as narrow, warnings.catch_warnings(record=True) as caught:
        _narrow_ask_bracket(narrow)
        warnings.simplefilter("always")
        sol = optimize_time_sharing(Prime(7), Fraction(2, 3), convention="shaped", nodes=24)
    widenings = [w for w in caught if "widening the bracket" in str(w.message)]
    assert len(widenings) == 3  # 0.05 -> 0.1 -> 0.2 -> 0.4 contains nu* ~ 0.236
    assert all(w.filename == __file__ for w in widenings)
    default = optimize_time_sharing(
        Prime(7), Fraction(2, 3), convention="shaped", nodes=24
    )
    assert abs(sol.gamma_A_db - default.gamma_A_db) <= 1e-9


def test_determinism():
    a = optimize_time_sharing(Prime(7), Fraction(2, 3), nodes=NODES)
    b = optimize_time_sharing(Prime(7), Fraction(2, 3), nodes=NODES)
    assert a == b


# ---------------------------------------------------------------------------
# CQAM and shaped-ASK schemes
# ---------------------------------------------------------------------------


def test_cqam_forced_zero_nu_matches_uniform_baseline():
    # without a stretch the working geometry IS the baseline geometry, so
    # nu = 0 must reproduce the uniform gap exactly
    sol = optimize_cqam(Prime(5), Fraction(2, 3), nodes=NODES, nu=0.0)
    assert sol.gamma_A_db == pytest.approx(sol.gamma_unif_db, abs=1e-7)
    assert sol.effective_gain_db == pytest.approx(0.0, abs=1e-7)


def test_cqam_small_prime_runs_and_improves():
    sol = optimize_cqam(Prime(5), Fraction(2, 3), nodes=NODES)
    assert sol.scheme == "cqam"
    assert sol.effective_gain_db > 0.0
    assert sol.gap_db + sol.effective_gain_db == pytest.approx(
        sol.potential_gain_db, abs=1e-12
    )


def test_shaped_ask_beats_time_sharing():
    # full shaping on every channel use closes more of the gap than shaping
    # only the systematic fraction
    ts = optimize_time_sharing(
        Prime(7), Fraction(2, 3), convention="shaped", nodes=NODES
    )
    full = optimize_shaped_ask(Prime(7), Fraction(2, 3), nodes=NODES)
    assert full.gap_db < ts.gap_db
    assert full.target_rate == ts.target_rate


# ---------------------------------------------------------------------------
# shared driver
# ---------------------------------------------------------------------------

# one forced-nu run per scheme; nu = 50 leaves almost no entropy in the shaped
# symbols, so R_c = 9/10 is unreachable at that nu while the baselines reach it
FORCED = {
    "time-sharing": lambda nu, rc: optimize_time_sharing(
        Prime(7), rc, convention="shaped", nodes=NODES, nu=nu
    ),
    "shaped-ask": lambda nu, rc: optimize_shaped_ask(Prime(7), rc, nodes=NODES, nu=nu),
    "cqam": lambda nu, rc: optimize_cqam(Prime(5), rc, nodes=24, nu=nu),
}


def _count_solves(monkeypatch) -> dict:
    """Count SNR solves in total and those the nu search asks for."""
    counts = {"solves": 0, "search": 0}
    solve, minimize = optimizer.snr_for_rate, optimizer._minimize_nu

    def counted_solve(*args, **kwargs):
        counts["solves"] += 1
        return solve(*args, **kwargs)

    def counted_minimize(f, *args, **kwargs):
        def counted_f(*args):
            counts["search"] += 1
            return f(*args)

        return minimize(counted_f, *args, **kwargs)

    monkeypatch.setattr(optimizer, "snr_for_rate", counted_solve)
    monkeypatch.setattr(optimizer, "_minimize_nu", counted_minimize)
    return counts


def test_nu_bracket_widening_reuses_its_solves(monkeypatch):
    # the widened search solves each edge it doubles past and keeps its
    # secant points, so it costs a few edge solves more than the default
    # bracket, not a restart per doubling
    counts = _count_solves(monkeypatch)
    with monkeypatch.context() as narrow, warnings.catch_warnings():
        _narrow_ask_bracket(narrow)
        warnings.simplefilter("ignore")
        optimize_time_sharing(Prime(7), Fraction(2, 3), convention="shaped", nodes=24)
    widened = counts["solves"]
    counts.update(solves=0, search=0)
    optimize_time_sharing(Prime(7), Fraction(2, 3), convention="shaped", nodes=24)
    assert widened <= 2 * counts["solves"]


def test_nu_search_hints_never_fall_below_capacity(monkeypatch):
    # on this row the first probe's large gradient (h = 35.5 at nu = 1/6)
    # extrapolates to gamma = 4.7 at the second probe, whose root lies at
    # 33.9; no curve reaches the target at or below gamma_cap, so every
    # hint is clamped there
    hints, solve = [], optimizer.snr_for_rate

    def recorded(f, target, hint, **kwargs):
        hints.append(hint)
        return solve(f, target, hint, **kwargs)

    monkeypatch.setattr(optimizer, "snr_for_rate", recorded)
    solution = optimize_time_sharing(Prime(13), Fraction(4, 5), convention="shaped")
    gamma_cap = capacity_gamma(solution.target_rate, "real")
    assert len(hints) > 3
    assert min(hints) >= gamma_cap


def test_entropy_ceiling_skips_unreachable_solves(monkeypatch):
    # near nu_max the shaped symbols carry too little entropy for R_c = 9/10;
    # those nu are scored unreachable without a solve, so none fails
    counts = _count_solves(monkeypatch)
    solve, unreachable = optimizer.snr_for_rate, []

    def checked_solve(*args, **kwargs):
        try:
            return solve(*args, **kwargs)
        except UnreachableRateError:
            unreachable.append(args)
            raise

    monkeypatch.setattr(optimizer, "snr_for_rate", checked_solve)
    optimize_time_sharing(Prime(7), Fraction(9, 10), convention="shaped", nodes=NODES)
    assert counts["solves"] < 1 + counts["search"]
    assert unreachable == []


def test_real_curve_rejects_a_prior_without_mirror_symmetry():
    pts = np.arange(7.0) - 3.0  # p-ASK, though not in symbol order
    prior = np.full(7, 1 / 7)
    with pytest.raises(ValueError, match="mirror-symmetric"):
        optimizer._mirror_fold(pts, prior)
    pts = np.array([0.0, 1.0, 2.0, 3.0, -3.0, -2.0, -1.0])  # symbol order
    half, fold = optimizer._mirror_fold(pts, prior)
    npt.assert_array_equal(pts[half], [0.0, 1.0, 2.0, 3.0])
    npt.assert_array_equal(fold, [1.0, 2.0, 2.0, 2.0])
    tilted = prior * np.linspace(0.9, 1.1, 7)
    with pytest.raises(ValueError, match="mirror-symmetric"):
        optimizer._mirror_fold(pts, tilted / tilted.sum())
    with pytest.raises(ValueError, match="mirror-symmetric"):
        optimizer._mirror_fold(pts + 0.5, prior)


def test_real_curve_conditions_on_the_nonnegative_half(monkeypatch):
    calls = []
    kernel = optimizer.mi_real_points

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optimizer, "mi_real_points", recorded)
    optimize_shaped_ask(Prime(7), Fraction(2, 3), nodes=NODES, nu=0.1)
    assert calls
    for args, kwargs in calls:
        npt.assert_array_equal(kwargs["condition_on"], [0.0, 1.0, 2.0, 3.0])
        priors = args[1]
        npt.assert_array_equal(
            kwargs["condition_weights"], priors[:4] * [1.0, 2.0, 2.0, 2.0]
        )


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    st.sampled_from(["shaped", "time-averaged"]),
    st.sampled_from([Fraction(2, 3), Fraction(4, 5)]),
    st.floats(0.0, 0.3),
    st.floats(math.log(0.5), math.log(2.0)),
)
def test_time_sharing_slope_is_central_difference(convention, rc, nu, log_gamma):
    # the mix carries its terms' I-MMSE slopes by linearity; at these gamma
    # the 7-ASK noise deviation is at least half the ASK spacing, where
    # the kernel's slope matches its own rates to 1e-7 (see test_awgn_mi)
    scheme = optimizer._ask_scheme("ts", Prime(7), float(rc), convention)
    h = 1e-4
    for curve in (scheme.curve(scheme.prior(nu), 96), scheme.baseline(96)):
        _, slope, _ = curve(math.exp(log_gamma))
        up, down = curve(math.exp(log_gamma + h))[0], curve(math.exp(log_gamma - h))[0]
        diff = (up - down) / (2.0 * h)
        assert abs(slope - diff) <= 1e-6 * diff


def _count_mi_calls(monkeypatch) -> list:
    calls = []
    for name in ("mi_complex_points", "mi_real_points"):
        kernel = getattr(optimizer, name)

        def counted(*args, _kernel=kernel, **kwargs):
            calls.append(args)
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(optimizer, name, counted)
    return calls


def test_cqam_row_mi_call_budget(monkeypatch):
    calls = _count_mi_calls(monkeypatch)
    optimize_cqam(Prime(7), Fraction(2, 3), CqamParams(stretch=REFERENCE_STRETCH[7]))
    assert 0 < len(calls) <= 18


def test_time_sharing_row_mi_call_budget(monkeypatch):
    calls = _count_mi_calls(monkeypatch)
    optimize_time_sharing(Prime(13), Fraction(19, 20), convention="shaped")
    assert 0 < len(calls) <= 32


def test_time_sharing_shaped_row_mi_call_budget(monkeypatch):
    # 23 kernel calls; the steering probes solved to PROBE_LOG_GAMMA_TOL
    # took the whole 12-row table from 322 calls to 292
    calls = _count_mi_calls(monkeypatch)
    optimize_time_sharing(Prime(7), Fraction(2, 3), convention="shaped")
    assert 0 < len(calls) <= 23


def test_time_sharing_prepares_each_curve_once():
    # the baseline, which under "shaped" is also every solve's uniform term,
    # and the shaped curve at the forced nu: two kernel states for all calls
    awgn_mi._prepare.cache_clear()
    optimize_time_sharing(Prime(7), Fraction(2, 3), convention="shaped", nodes=NODES, nu=0.1)
    info = awgn_mi._prepare.cache_info()
    assert info.misses == 2 and info.hits >= 3


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_prepared_kernel_memo_gives_cold_bits_and_sees_changes_in_place(kind):
    # a hit returns the bits of a cold call; a curve whose arrays change in
    # place has new contents, so it is prepared anew, never served stale
    if kind == "real":  # mirror-folded 7-ASK, as the optimizer calls it
        pts = constellations.build_ask(Prime(7)).points.real
        kernel, pri = mi_real_points, mb_ask_prior(Prime(7), 0.1).probs.copy()
        half, fold = optimizer._mirror_fold(pts, pri)
        kw = {"condition_on": pts[half], "condition_weights": fold * pri[half]}
    else:
        c = build_cqam(Prime(5))
        prior = MaxwellBoltzmann.from_amplitudes(0.3, c.shells.radii)
        kernel, pts, pri, kw = mi_complex_points, c.points, cqam_prior(prior, Prime(5)), {}

    def cold():
        awgn_mi._prepare.cache_clear()
        return kernel(pts, pri, 0.6, 24, **kw)

    def same(a, b):
        return a[:2] == b[:2] and np.array_equal(a[2], b[2])

    first = cold()
    assert same(kernel(pts, pri, 0.6, 24, **kw), first)
    assert awgn_mi._prepare.cache_info().hits == 1
    pri[:] = np.roll(pri, 1)  # the same array objects, other contents
    changed = kernel(pts, pri, 0.6, 24, **kw)
    assert changed[0] != first[0]
    assert same(changed, cold())


def test_prepared_kernel_memo_stays_within_its_size():
    pts = np.array([-1.0, 1.0])
    info = awgn_mi._prepare.cache_info()
    assert info.maxsize == awgn_mi._PREPARED_MAX
    for i in range(3 * awgn_mi._PREPARED_MAX):
        q = (i + 1) / (3 * awgn_mi._PREPARED_MAX + 1)
        mi_real_points(pts, np.array([q, 1.0 - q]), 1.0, 16)
        assert awgn_mi._prepare.cache_info().currsize <= awgn_mi._PREPARED_MAX
    assert awgn_mi._prepare.cache_info().currsize == awgn_mi._PREPARED_MAX


@pytest.mark.parametrize("scheme", sorted(FORCED))
def test_forced_nu_solves_baseline_and_one_point(monkeypatch, scheme):
    counts = _count_solves(monkeypatch)
    FORCED[scheme](0.1, Fraction(2, 3))
    assert counts == {"solves": 2, "search": 0}


@pytest.mark.parametrize("scheme", sorted(FORCED))
def test_forced_nu_unreachable(scheme):
    with pytest.raises(UnreachableRateError, match="unreachable at nu"):
        FORCED[scheme](50.0, Fraction(9, 10))


NAN, INF = float("nan"), float("inf")
NU_MESSAGE = "shaping parameter nu must be nonnegative and finite"


@pytest.mark.parametrize(
    "run, message",
    [
        (lambda: optimize_time_sharing(Prime(7), Fraction(2, 3), nodes=16, nu=-1.0),
         NU_MESSAGE),
        (lambda: optimize_time_sharing(Prime(7), Fraction(2, 3), nodes=16, nu=NAN),
         NU_MESSAGE),
        (lambda: optimize_shaped_ask(Prime(7), Fraction(2, 3), nodes=16, nu=INF),
         NU_MESSAGE),
    ],
    ids=["nu=-1", "nu=nan", "nu=inf"],
)
def test_invalid_input_is_not_an_unreachable_rate(run, message):
    with pytest.raises(ValueError, match=message) as exc:
        run()
    assert not isinstance(exc.value, UnreachableRateError)


def test_invalid_node_count_fails_before_any_solve(monkeypatch):
    counts = _count_solves(monkeypatch)
    with pytest.raises(ValueError, match="need at least 2 quadrature nodes"):
        optimize_cqam(Prime(5), Fraction(2, 3), nodes=1)
    assert counts == {"solves": 0, "search": 0}


def test_cqam_resolves_only_when_search_nodes_differ(monkeypatch):
    # the CQAM nu search runs at min(nodes, SEARCH_NODES = 48) nodes; only a
    # larger `nodes` refines the baseline and the optimum there
    counts, rules = _count_solves(monkeypatch), []
    kernel = optimizer.mi_complex_points

    def recorded_kernel(*args, **kwargs):
        rules.append(args[3])  # the node count
        return kernel(*args, **kwargs)

    monkeypatch.setattr(optimizer, "mi_complex_points", recorded_kernel)
    optimize_cqam(Prime(5), Fraction(2, 3), nodes=24)
    assert counts["search"] > 0 and set(rules) == {24}
    assert counts["solves"] == counts["search"] + 1  # the baseline only
    counts.update(solves=0, search=0)
    rules.clear()
    optimize_cqam(Prime(5), Fraction(2, 3), nodes=64)
    # baseline at 48, refined at 64; search at 48, optimum refined at 64;
    # each refinement starts from the 48-node gamma and curvature and costs
    # one kernel call
    assert [n for n, _ in itertools.groupby(rules)] == [48, 64, 48, 64]
    assert rules.count(64) == 2
    assert counts["solves"] == counts["search"] + 3


def test_stretched_cqam_packs_shells_once(monkeypatch):
    packs, geoms = [], []
    pack, conditioning = constellations._pack_shells, optimizer.shell_conditioning

    def counted_pack(*args, **kwargs):
        packs.append(args)
        return pack(*args, **kwargs)

    def recorded_conditioning(c):
        geoms.append(c)  # one call per curve
        return conditioning(c)

    monkeypatch.setattr(constellations, "_pack_shells", counted_pack)
    monkeypatch.setattr(optimizer, "shell_conditioning", recorded_conditioning)
    params = CqamParams(stretch=Stretch(4.8, 0.76))
    optimize_cqam(Prime(7), Fraction(2, 3), params, nodes=16, nu=0.1)
    assert len(packs) == 1
    monkeypatch.undo()
    base = constellations.build_cqam(Prime(7))
    stretched = constellations.build_cqam_stretched(Prime(7), params)
    assert [np.array_equal(g.points, base.points) for g in geoms] == [True, False]
    assert np.array_equal(geoms[1].points, stretched.points)
    assert np.array_equal(geoms[1].shells.radii, stretched.shells.radii)


@pytest.mark.parametrize("stretch", [None, Stretch(4.8, 0.76)], ids=["plain", "stretched"])
def test_cqam_curve_bits_are_mi_complex_cqam(stretch):
    # the curves condition as the certified p-fold path does, which
    # test_acceptance holds to mi_complex_naive; the baseline is unstretched
    field = Prime(7)
    scheme = optimizer._cqam_scheme(field, CqamParams(stretch=stretch))
    prior = scheme.prior(0.1)
    shaped = build_cqam(field, CqamParams(stretch=stretch)).with_priors(
        cqam_prior(prior, field)
    )
    for curve, c in ((scheme.curve(prior, 24), shaped), (scheme.baseline(24), build_cqam(field))):
        for gamma in (0.3, 4.0, 60.0):
            assert curve(gamma)[0] == mi_complex_cqam(c, ChannelSnr(gamma, "complex"), 24)


SCHEMES = {
    "ts-shaped": lambda: optimizer._ask_scheme("ts", Prime(7), 2 / 3, "shaped"),
    "ts-time-averaged": lambda: optimizer._ask_scheme(
        "ts", Prime(7), 2 / 3, "time-averaged"
    ),
    "ask-full": lambda: optimizer._ask_scheme("ask", Prime(7), 1.0, None),
    "cqam": lambda: optimizer._cqam_scheme(Prime(5), CqamParams()),
    "cqam-stretched": lambda: optimizer._cqam_scheme(
        Prime(5), CqamParams(stretch=Stretch(3.0, 0.8))
    ),
}


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.sampled_from(sorted(SCHEMES)),
    st.floats(0.001, 0.3),
    st.floats(math.log(0.5), math.log(3.0)),
)
def test_scheme_nu_slope_is_central_difference(name, nu, log_gamma):
    # d bits / d nu at fixed gamma, from the kernel's divergences and the MB
    # prior's closed forms, against a central difference of the rates in
    # nu.  With h = 1e-5 the difference's truncation error, h^2 / 6 times
    # the third derivative, measured at most 8e-9 bits on these domains
    # (the 7-ASK noise at least half the ASK spacing, gamma at most 3 on
    # 5^2 CQAM, 96 nodes); rounding adds about 1e-16 / h = 1e-11.  So
    # 1e-7 bits holds with a tenfold margin.
    scheme = SCHEMES[name]()
    gamma, h = math.exp(log_gamma), 1e-5
    _, _, d_nu = scheme.curve(scheme.prior(nu), 96)(gamma)
    up = scheme.curve(scheme.prior(nu + h), 96)(gamma)[0]
    down = scheme.curve(scheme.prior(nu - h), 96)(gamma)[0]
    assert abs(d_nu - (up - down) / (2.0 * h)) <= 1e-7
    assert scheme.baseline(96)(gamma)[2] == 0.0


@pytest.mark.parametrize(
    "run",
    [
        lambda: optimize_time_sharing(Prime(7), Fraction(2, 3), convention="shaped"),
        lambda: optimize_time_sharing(Prime(7), Fraction(4, 5)),
        lambda: optimize_cqam(Prime(5), Fraction(2, 3)),
    ],
    ids=["ts-shaped", "ts-time-averaged", "cqam"],
)
def test_nu_search_gradient_is_the_slope_of_log_gamma_a(monkeypatch, run):
    # the search's f returns d ln gamma_A / d nu = -(d rate / d nu) /
    # (d rate / d ln gamma) at the solved gamma; a central difference of
    # solved ln gamma_A in nu (h = 1e-4) agreed to 8e-8 on these rows at 96
    # nodes, mostly its truncation error.  At 48 nodes the 7-ASK rows reach
    # gamma where sigma is below half the ASK spacing; the rule then
    # integrates the slopes more coarsely than the rates, and the two sides
    # part by up to 1.2e-5
    monkeypatch.setattr(optimizer, "SEARCH_NODES", 96)  # CQAM searches at 96 too
    searches = []
    monkeypatch.setattr(
        optimizer, "_minimize_nu", lambda f, nu_max: searches.append(f) or (0.1, 1.0)
    )
    run()
    (f,) = searches
    h = 1e-4
    for nu in (0.02, 0.1, 0.2):
        gamma, grad = f(nu, None, LOG_GAMMA_TOL)
        up, down = f(nu + h, gamma, LOG_GAMMA_TOL)[0], f(nu - h, gamma, LOG_GAMMA_TOL)[0]
        assert abs(grad - (math.log(up) - math.log(down)) / (2.0 * h)) <= 1e-6


@pytest.mark.parametrize("nu", [0.05, 0.5])
@pytest.mark.parametrize("name", sorted(SCHEMES))
def test_scheme_ceiling_is_its_high_snr_rate(name, nu):
    # at high SNR every symbol is decoded, so the rate reaches the entropy
    # of a use's symbols: the ceiling the driver derives from the prior
    scheme = SCHEMES[name]()
    prior = scheme.prior(nu)
    ceiling = scheme.share * prior.entropy_bits() + scheme.uniform_bits
    rate, _, _ = scheme.curve(prior, 24)(1e8)
    assert -1e-10 < ceiling - rate < 1e-6  # below it, up to rounding


# ---------------------------------------------------------------------------
# row invariants
# ---------------------------------------------------------------------------

TABLE_RATES = [
    Fraction(2, 3), Fraction(3, 4), Fraction(4, 5),
    Fraction(17, 20), Fraction(9, 10), Fraction(19, 20),
]
ROW_SOLVERS = {
    "time-sharing-shaped": lambda field, rc: optimize_time_sharing(field, rc, convention="shaped"),
    "time-sharing-time-averaged": lambda field, rc: optimize_time_sharing(
        field, rc, convention="time-averaged"
    ),
    "shaped-ask-squared": optimize_shaped_ask,
    "cqam": lambda field, rc: optimize_cqam(
        field, rc, CqamParams(stretch=REFERENCE_STRETCH.get(field.p))
    ),
}


#: (scheme, p) pairs; the 11^2 and 13^2 CQAM rows take too long for tier 1
ROW_CASES = [
    (scheme, p) for scheme in sorted(ROW_SOLVERS) for p in (3, 5, 7, 11, 13)
    if scheme != "cqam" or p <= 7
]


@settings(derandomize=True, deadline=None, max_examples=24)
@given(
    st.sampled_from(ROW_CASES),
    st.lists(st.sampled_from(TABLE_RATES), min_size=2, max_size=3, unique=True),
)
def test_row_invariants(case, rates):
    # Shaping cannot beat capacity, nu = 0 (the uniform prior) lies in every
    # search bracket, and a higher rate needs more SNR.  At the default 96
    # nodes all 108 rows of these cases and rates keep gap_db >= 0.037,
    # gamma_unif_db - gamma_A_db >= 0.11 and R_c steps of >= 0.77 dB
    scheme, p = case
    solve = ROW_SOLVERS[scheme]
    rows = [solve(Prime(p), rc) for rc in sorted(rates)]
    tol_db = 10.0 * math.log10(math.exp(LOG_GAMMA_TOL))
    for row in rows:
        assert row.gap_db >= 0.0
        assert row.gamma_A_db <= row.gamma_unif_db + tol_db
    gammas = [row.gamma_A_db for row in rows]
    assert all(a < b for a, b in zip(gammas, gammas[1:]))
