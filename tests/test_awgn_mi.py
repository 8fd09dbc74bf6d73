import math
import sys
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from functools import lru_cache

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import integrate
from scipy.special import logsumexp

from oracles import ChannelSnr, mi_complex_cqam, mi_complex_naive, mi_real
from primeshape.awgn_mi import (
    _logsumexp_last,
    _rule,
    capacity_gamma,
    mi_complex_points,
    mi_real_points,
    shell_conditioning,
)
from primeshape.cli import REFERENCE_STRETCH
from primeshape.constellations import (
    Constellation,
    CqamParams,
    Stretch,
    build_ask,
    build_cqam,
    build_cqam_stretched,
)
from primeshape.field import Prime, ask_amplitudes
from primeshape.shaping import MaxwellBoltzmann, cqam_prior, mb_ask_prior


def mi_real_quad(points, priors, sigma):
    """Independent oracle: adaptive quadrature of the mixture entropy."""
    points = np.asarray(points, dtype=float)
    priors = np.asarray(priors, dtype=float)

    def q(y):
        return np.sum(
            priors
            * np.exp(-((y - points) ** 2) / (2 * sigma**2))
            / (sigma * math.sqrt(2 * math.pi))
        )

    def integrand(y):
        v = q(y)
        return -v * math.log2(v) if v > 0 else 0.0

    lo = points.min() - 12 * sigma
    hi = points.max() + 12 * sigma
    h_y, _ = integrate.quad(integrand, lo, hi, limit=400)
    h_noise = 0.5 * math.log2(2 * math.pi * math.e * sigma**2)
    return h_y - h_noise


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def test_channel_snr_validation():
    with pytest.raises(ValueError):
        ChannelSnr(0.0, "real")
    with pytest.raises(ValueError):
        ChannelSnr(1.0, "planar")


def test_dimension_mismatch_rejected():
    ask = build_ask(Prime(5))
    with pytest.raises(ValueError):
        mi_real(ask, ChannelSnr(1.0, "complex"))
    cq = build_cqam(Prime(5))
    with pytest.raises(ValueError):
        mi_complex_cqam(cq, ChannelSnr(1.0, "real"))


def test_mismatched_lengths_rejected():
    pts, pri = np.array([-1.0, 1.0]), np.array([0.5, 0.5])
    with pytest.raises(ValueError):
        mi_real_points(np.array([-1.0, 0.0, 1.0]), pri, 1.0)
    with pytest.raises(ValueError):
        mi_real_points(pts, np.full(3, 1 / 3), 1.0)
    with pytest.raises(ValueError):
        mi_complex_points(pts + 0j, np.full(3, 1 / 3), 1.0)
    for kw in (
        {"condition_on": pts + 0j, "condition_weights": np.array([1.0])},
        {"condition_on": pts + 0j},
        {"condition_weights": pri},
    ):
        with pytest.raises(ValueError):
            mi_complex_points(pts + 0j, pri, 1.0, **kw)


@pytest.mark.parametrize("kernel, embed", [(mi_real_points, float), (mi_complex_points, complex)])
def test_conditioning_arguments_are_checked_alike(kernel, embed):
    pts, pri = np.array([-1.0, 1.0], dtype=embed), np.array([0.5, 0.5])
    for kw in ({"condition_on": pts}, {"condition_weights": pri}):
        with pytest.raises(ValueError, match="condition_on and condition_weights go together"):
            kernel(pts, pri, 1.0, **kw)
    with pytest.raises(ValueError, match="every conditioning point a weight"):
        kernel(pts, pri, 1.0, condition_on=pts, condition_weights=np.array([1.0]))
    with pytest.raises(ValueError, match="every point needs a prior"):
        kernel(pts, np.full(3, 1 / 3), 1.0)


def test_shell_nonuniform_priors_rejected():
    cq = build_cqam(Prime(5))
    priors = np.full(25, 1 / 25)
    priors[0] += 0.01
    priors[1] -= 0.01
    with pytest.raises(ValueError):
        mi_complex_cqam(cq.with_priors(priors), ChannelSnr(1.0, "complex"))


# ---------------------------------------------------------------------------
# against the adaptive-quadrature oracle
# ---------------------------------------------------------------------------


def test_bpsk_against_quadrature():
    # 192 nodes: the sharpest case (sigma = 0.4, far-separated mixture) needs
    # the doubled rule to reach 1e-9 agreement; 96 nodes sit near 1e-7 there
    pts = np.array([-1.0, 1.0])
    pri = np.array([0.5, 0.5])
    for sigma in (0.4, 0.8, 1.5):
        got = mi_real_points(pts, pri, sigma, nodes=192)[0]
        want = mi_real_quad(pts, pri, sigma)
        assert abs(got - want) < 1e-9


def test_asymmetric_prior_against_quadrature():
    pts = np.array([-2.0, 0.5, 3.0])
    pri = np.array([0.5, 0.3, 0.2])
    got = mi_real_points(pts, pri, 0.9)[0]
    want = mi_real_quad(pts, pri, 0.9)
    assert abs(got - want) < 1e-9


def test_complex_two_point_against_double_quadrature():
    pts = np.array([1.0 + 0j, -1.0 + 0j])
    pri = np.array([0.5, 0.5])
    sigma = 0.7

    def q(yr, yi):
        d2 = np.abs((yr + 1j * yi) - pts) ** 2
        return np.sum(pri * np.exp(-d2 / (2 * sigma**2))) / (2 * math.pi * sigma**2)

    def integrand(yr, yi):
        v = q(yr, yi)
        return -v * math.log2(v) if v > 0 else 0.0

    h_y, _ = integrate.dblquad(integrand, -9, 9, -9, 9, epsabs=1e-11)
    want = h_y - math.log2(2 * math.pi * math.e * sigma**2)
    got = mi_complex_points(pts, pri, sigma)[0]
    assert abs(got - want) < 1e-7


def test_zero_prior_points_are_ignored():
    pts = np.array([-1.0, 1.0, 50.0])
    pri = np.array([0.5, 0.5, 0.0])
    a = mi_real_points(pts, pri, 0.8)[0]
    b = mi_real_points(pts[:2], pri[:2], 0.8)[0]
    npt.assert_allclose(a, b, atol=1e-12)


def mi_real_points_scipy(
    points, priors, sigma, nodes=96, condition_on=None, condition_weights=None,
    full_rule=False,
):
    """Oracle: the real kernel with full-size (conditioning point, node,
    point) temporaries and scipy's logsumexp, on the same pruned rule, or
    with full_rule on every node of hermgauss."""
    t, w = np.polynomial.hermite.hermgauss(nodes) if full_rule else _rule(nodes, 1)[:2]
    t = t.reshape(-1)
    if condition_on is None:
        condition_on, condition_weights = points, priors
    active = condition_weights > 0.0
    logp = np.full(priors.shape, -np.inf)
    logp[priors > 0.0] = np.log(priors[priors > 0.0])
    y = condition_on[active, None] + math.sqrt(2.0) * sigma * t[None, :]
    d2 = (y[:, :, None] - points[None, None, :]) ** 2 / (2.0 * sigma**2)
    lse = logsumexp(logp[None, None, :] - d2, axis=2)
    integrand = (-t[None, :] ** 2 - lse) / math.log(2.0)
    return float(np.dot(condition_weights[active], integrand @ w) / math.sqrt(math.pi))


def mi_complex_points_oracle(
    points, priors, sigma, nodes=96, condition_on=None, condition_weights=None
):
    """Oracle: the complex kernel as it was before the real-arithmetic one.

    One (nodes, nodes, points) complex tensor per conditioning point,
    np.abs for the distances, and scipy's logsumexp.
    """
    points = np.asarray(points, dtype=complex)
    priors = np.asarray(priors, dtype=float)
    if condition_on is None:
        condition_on = points
        condition_weights = priors
    t, w = np.polynomial.hermite.hermgauss(nodes)
    w2 = np.outer(w, w)
    shift = math.sqrt(2.0) * sigma * (t[:, None] + 1j * t[None, :])
    t2 = t[:, None] ** 2 + t[None, :] ** 2
    logp = np.full(priors.shape, -np.inf)
    logp[priors > 0.0] = np.log(priors[priors > 0.0])

    total = 0.0
    for x, weight in zip(condition_on, condition_weights):
        if weight == 0.0:
            continue
        y = x + shift
        d2 = np.abs(y[:, :, None] - points[None, None, :]) ** 2 / (2.0 * sigma**2)
        lse = logsumexp(logp[None, None, :] - d2, axis=2)
        integrand = (-t2 - lse) / math.log(2.0)
        total += weight * float((w2 * integrand).sum()) / math.pi
    return total


@lru_cache(maxsize=None)
def _cqam_geometry(p):
    """The p^2-point CQAM the tables use: stretched where a reference exists."""
    return build_cqam(Prime(p), CqamParams(stretch=REFERENCE_STRETCH.get(p)))


def _shaped_cqam(p, nu):
    """p^2-point CQAM with a Maxwell-Boltzmann shell prior, and its shell PMF."""
    c = _cqam_geometry(p)
    shell = MaxwellBoltzmann.from_amplitudes(nu, c.shells.radii)
    return c.with_priors(cqam_prior(shell, Prime(p))), shell.probs


def test_complex_kernel_equals_oracle_on_grid():
    # cases up to the optimizer's largest call (13^2 points at 96 nodes,
    # one conditioning point per shell); the oracle takes ~1 s per 2e7
    # terms, so cases above 4e6 terms run at one sigma
    largest = 13 * 96**2 * 169
    for p, nu in ((3, 0.3), (5, 0.0), (7, 0.05), (13, 0.05)):
        c, shell_probs = _shaped_cqam(p, nu)
        reduced = {
            "condition_on": c.points[np.arange(p) * p],
            "condition_weights": shell_probs,
        }
        for nodes in (16, 48, 96):
            for kw in (reduced, {}):
                terms = len(kw.get("condition_on", c.points)) * nodes**2 * p**2
                if terms > largest:
                    continue
                for sigma in (0.05, 0.3, 2.0) if terms < 4e6 else (0.3,):
                    args = (c.points, c.priors, sigma, nodes)
                    got = mi_complex_points(*args, **kw)[0]
                    want = mi_complex_points_oracle(*args, **kw)
                    assert abs(got - want) < 1e-13, (p, nodes, sigma, kw.keys())


@pytest.mark.parametrize(
    "dim, nodes, kept",
    [(1, 16, 16), (1, 24, 24), (1, 48, 36), (1, 96, 52)]
    + [(2, 16, 252), (2, 24, 468), (2, 48, 1044), (2, 96, 2164)],
)
def test_rule_is_pruned_at_the_weight_floor(dim, nodes, kept):
    t, w, t2 = _rule(nodes, dim)
    assert t.shape == (kept, dim) and len(w) == len(t2) == kept
    assert w.min() >= 1e-16 * w.max()
    # the dropped nodes' share of the weight mass, summed exactly
    w1 = np.polynomial.hermite.hermgauss(nodes)[1]
    full = np.prod(np.meshgrid(*[w1] * dim), axis=0).ravel()
    dropped = math.fsum(np.concatenate([full, -w]))
    assert 0.0 <= dropped < 1e-15 * math.fsum(full)


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.floats(0.0, 0.3),
    st.floats(math.log(0.03), math.log(3.0)),
    st.sampled_from([16, 24, 48]),
)
def test_pruned_complex_kernel_matches_full_rule_oracle(p, nu, log_sigma, nodes):
    c, shell_probs = _shaped_cqam(p, nu)
    args = (c.points, c.priors, math.exp(log_sigma), nodes)
    kw = {"condition_on": c.points[np.arange(p) * p], "condition_weights": shell_probs}
    got = mi_complex_points(*args, **kw)[0]
    assert abs(got - mi_complex_points_oracle(*args, **kw)) < 1e-13


@settings(derandomize=True, deadline=None, max_examples=30)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.floats(0.0, 0.3),
    st.floats(math.log(0.03), math.log(3.0)),
    st.sampled_from([16, 24, 48, 96]),
)
def test_pruned_real_kernel_matches_full_rule_oracle(p, nu, log_sigma, nodes):
    # the optimizer's calls: a p-ASK prior folded onto x >= 0
    pts = ask_amplitudes(Prime(p)).astype(float)
    pri = mb_ask_prior(Prime(p), nu).probs
    half = pts >= 0.0
    kw = {
        "condition_on": pts[half],
        "condition_weights": np.where(pts[half] > 0.0, 2.0, 1.0) * pri[half],
    }
    args = (pts, pri, math.exp(log_sigma), nodes)
    got = mi_real_points(*args, **kw)[0]
    assert abs(got - mi_real_points_scipy(*args, **kw, full_rule=True)) < 1e-13


def _random_complex_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 14))
        pts = (rng.normal(size=k) + 1j * rng.normal(size=k)) * rng.choice([1.0, 3.0])
        pri = rng.random(k)
        if k > 1 and rng.random() < 0.3:
            pri[rng.integers(0, k)] = 0.0
        sigma = float(np.exp(rng.uniform(-3.0, 2.0)))
        case = (pts, pri / pri.sum(), sigma, int(rng.choice([2, 8, 24])))
        if rng.random() < 0.5:
            # conditioning on a subset, as the symmetry reduction does
            j = int(rng.integers(0, k + 1))
            case += (pts[:j], rng.random(j))
        yield case


def _random_real_cases(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        k = int(rng.integers(1, 32))
        if rng.random() < 0.3:
            # equally spaced: several terms tie for the maximum
            pts = np.arange(k) - (k - 1) / 2.0
        else:
            pts = rng.normal(size=k) * rng.choice([1.0, 3.0, 10.0])
        pri = rng.random(k)
        if k > 1 and rng.random() < 0.3:
            pri[rng.integers(0, k)] = 0.0
        yield pts, pri / pri.sum(), float(np.exp(rng.uniform(-4.0, 3.0))), int(
            rng.choice([2, 8, 96, 192])
        )


def test_real_kernel_equals_scipy_oracle_bit_for_bit():
    # shapes vary from call to call, so the scratch buffer grows and is
    # reused through smaller views
    for pts, pri, sigma, nodes in _random_real_cases(300, seed=5):
        assert mi_real_points(pts, pri, sigma, nodes)[0] == mi_real_points_scipy(
            pts, pri, sigma, nodes
        )


def mi_complex_points_scipy(
    points, priors, sigma, nodes=96, condition_on=None, condition_weights=None
):
    """Oracle: the complex kernel on the same pruned rule, with full-size
    (conditioning point, node, point) temporaries and scipy's logsumexp."""
    points = np.asarray(points, dtype=complex)
    priors = np.asarray(priors, dtype=float)
    if condition_on is None:
        condition_on, condition_weights = points, priors
    weights = np.asarray(condition_weights, dtype=float)
    cond = np.asarray(condition_on, dtype=complex)[weights > 0.0]
    weights = weights[weights > 0.0]
    t, w, t2 = _rule(nodes, 2)
    shift = math.sqrt(2.0) * sigma * t
    y_re = cond.real[:, None] + shift[:, 0]
    y_im = cond.imag[:, None] + shift[:, 1]
    d2 = (
        (y_re[:, :, None] - points.real) ** 2 + (y_im[:, :, None] - points.imag) ** 2
    ) / (2.0 * sigma**2)
    logp = np.full(priors.shape, -np.inf)
    logp[priors > 0.0] = np.log(priors[priors > 0.0])
    lse = logsumexp(logp - d2, axis=2)
    integrand = (-t2 - lse) / math.log(2.0)
    return float(np.dot(weights, integrand @ w) / math.pi)


def test_complex_kernel_equals_scipy_oracle_bit_for_bit():
    cases = list(_random_complex_cases(60, seed=8))
    # the optimizer's calls: shaped CQAM conditioned on one point per shell,
    # and on every point; the oracle's temporaries stay under ~1e6 terms
    for p, nu in ((3, 0.3), (5, 0.0), (7, 0.05), (13, 0.05)):
        c, shell_probs = _shaped_cqam(p, nu)
        reps = {"condition_on": c.points[np.arange(p) * p], "condition_weights": shell_probs}
        for nodes in (16, 24, 48, 96):
            for kw in (reps, {}):
                conds = len(kw.get("condition_on", c.points))
                if conds * len(_rule(nodes, 2)[0]) * p**2 <= 1.1e6:
                    cases.append((c.points, c.priors, 0.3, nodes, *kw.values()))
    assert len(cases) > 70
    for case in cases:
        assert mi_complex_points(*case)[0] == mi_complex_points_scipy(*case)


@st.composite
def _points_major_terms(draw):
    """(points, rows) log terms: few distinct values, so maxima tie often,
    and rows of -inf, as zero-prior points give; every column keeps a
    finite term."""
    p, r = draw(st.integers(1, 13)), draw(st.integers(1, 16))
    value = st.one_of(st.sampled_from([-2.0, 0.0, 0.5]), st.floats(-40.0, 40.0))
    a = np.array(draw(st.lists(value, min_size=p * r, max_size=p * r))).reshape(p, r)
    dead = np.array(draw(st.lists(st.booleans(), min_size=p, max_size=p)))
    dead[draw(st.integers(0, p - 1))] = False
    a[dead] = -np.inf
    return a


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_points_major_terms())
@example(np.array([[0.5, -3.0, 40.0]]))
@example(np.array([[0.0, 1.0], [0.0, 1.0], [-np.inf, -np.inf], [0.0, -2.0]]))
@example(np.tile([[0.5], [-np.inf], [0.5]], (5, 7)))
def test_logsumexp_equals_scipy_bit_for_bit(a):
    # scipy's reference is the C-ordered (rows, points) array the oracles
    # build; its sum over a transposed view runs in another order
    want = logsumexp(np.ascontiguousarray(a.T), axis=-1)
    got = _logsumexp_last(a.copy(), np.empty(a.size))
    assert np.array_equal(got, want)


def test_real_kernel_conditioned_on_every_point_equals_default_bit_for_bit():
    for pts, pri, sigma, nodes in _random_real_cases(100, seed=7):
        kw = {"condition_on": pts, "condition_weights": pri}
        got = mi_real_points(pts, pri, sigma, nodes, **kw)
        want = mi_real_points(pts, pri, sigma, nodes)
        assert got[:2] == want[:2] and np.array_equal(got[2], want[2])


@settings(derandomize=True, deadline=None, max_examples=60)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.floats(0.0, 1.0),
    st.floats(math.log(0.03), math.log(3.0)),
    st.sampled_from([16, 48, 96]),
)
def test_mirror_folded_real_kernel_matches_full_conditioning(p, nu, log_sigma, nodes):
    # a p-ASK prior gives x and -x the same mass: conditioning on x >= 0,
    # each x > 0 with twice its prior, is exact up to rounding
    pts = ask_amplitudes(Prime(p)).astype(float)
    pri = mb_ask_prior(Prime(p), nu).probs
    half = pts >= 0.0
    kw = {
        "condition_on": pts[half],
        "condition_weights": np.where(pts[half] > 0.0, 2.0, 1.0) * pri[half],
    }
    args = (pts, pri, math.exp(log_sigma), nodes)
    assert abs(mi_real_points(*args, **kw)[0] - mi_real_points(*args)[0]) < 1e-14


def test_real_kernel_threads_agree_with_serial():
    # each thread has its own scratch buffer; frequent switches and more
    # workers than cores would expose one shared between threads.  Real and
    # complex calls share the buffer, and differ in its layout.
    cases = [(mi_real_points, case) for case in _random_real_cases(64, seed=6)]
    cases += [(mi_complex_points, case) for case in _random_complex_cases(32, seed=7)]
    serial = [fn(*case)[:2] for fn, case in cases]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(
                pool.map(lambda item: item[0](*item[1])[:2], cases * 4, timeout=120)
            )
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial * 4


def test_real_kernel_without_active_points_is_zero():
    # a fresh thread starts with no scratch buffer; these calls need none
    cases = [([], []), ([1.0, 2.0], [0.0, 0.0])]
    with ThreadPoolExecutor(max_workers=1) as pool:
        for pts, pri in cases:
            pts, pri = np.array(pts), np.array(pri)
            assert pool.submit(mi_real_points, pts, pri, 1.0).result(timeout=60)[0] == 0.0
            assert mi_complex_points(pts + 0j, pri, 1.0)[0] == 0.0


def test_real_kernel_allocates_no_full_size_temporaries():
    # the old kernel peaked at seven (active, nodes, points) float arrays
    pts = np.arange(31) - 15.0
    pri = np.full(31, 1 / 31)
    mi_real_points(pts, pri, 0.7)
    tracemalloc.start()
    try:
        mi_real_points(pts, pri, 0.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 31 * 96 * 31 * 8


def test_complex_kernel_allocates_no_full_size_temporaries():
    # the old kernel built (nodes, nodes, points) complex tensors for every
    # conditioning point: a 15 MB peak here
    c, shell_probs = _shaped_cqam(7, 0.05)
    kw = {"condition_on": c.points[np.arange(7) * 7], "condition_weights": shell_probs}
    mi_complex_points(c.points, c.priors, 0.3, **kw)
    tracemalloc.start()
    try:
        mi_complex_points(c.points, c.priors, 0.3, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 96 * 96 * 49 * 8


@st.composite
def _real_alphabets(draw):
    k = draw(st.integers(1, 13))
    pts = draw(st.lists(st.floats(-10.0, 10.0), min_size=k, max_size=k))
    weight = st.sampled_from([0.0, 0.1, 0.5, 1.0, 3.0])
    pri = draw(st.lists(weight, min_size=k, max_size=k))
    if sum(pri) == 0.0:
        pri[0] = 1.0
    pri = np.array(pri) / sum(pri)
    sigma = math.exp(draw(st.floats(-4.0, 2.5)))
    return np.array(pts), pri, sigma, draw(st.integers(4, 48))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(_real_alphabets())
def test_idle_imaginary_dimension_integrates_out(case):
    pts, pri, sigma, nodes = case
    real = mi_real_points(pts, pri, sigma, nodes)[0]
    cplx = mi_complex_points(pts + 0j, pri, sigma, nodes)[0]
    assert abs(cplx - real) < 1e-13
    entropy = -sum(q * math.log2(q) for q in pri if q > 0.0)
    for mi in (real, cplx):
        assert -1e-12 <= mi <= entropy + 1e-12


# ---------------------------------------------------------------------------
# I-MMSE slope
# ---------------------------------------------------------------------------


def _assert_slope_is_central_difference(mi, h=1e-4, rel=1e-6):
    """mi(e) calls a kernel at log gamma + e and returns its (bits, slope);
    the slope must be a central difference of the bits within rel.

    Both sides approximate d I / d ln gamma: the slope is the rule's
    integral of the MMSE, the difference the derivative of the rule's
    integral of the rate.  Where the rule resolves the noise, as on the
    domains below (sigma at least half the ASK spacing at 48 or 96 nodes;
    gamma at most 3 on CQAM at 96 nodes), they agreed to 1e-7 relative at
    worst (9.8e-8 real, 4e-9 complex), while the difference's truncation
    error, h^2 / 6 times the third derivative, is near 1e-9 relative and
    its rounding near 1e-16 I / h = 1e-11 bits.  So 1e-6 relative holds
    with a tenfold margin.  Outside them the two integrals part: 3^2 CQAM
    at 48 nodes and gamma = 3 already gives 9e-7, and 13-ASK at 96 nodes
    and sigma = 0.2 gives 2e-4.
    """
    _, slope = mi(0.0)
    diff = (mi(h)[0] - mi(-h)[0]) / (2.0 * h)
    assert slope > 0.0
    assert abs(slope - diff) <= rel * diff


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    st.sampled_from([3, 5, 7, 11, 13]),
    st.floats(0.0, 1.0),
    st.floats(math.log(0.5), math.log(3.0)),
    st.sampled_from([48, 96]),
    st.booleans(),
)
def test_real_kernel_slope_is_central_difference(p, nu, log_sigma, nodes, mirror):
    pts = ask_amplitudes(Prime(p)).astype(float)
    pri = mb_ask_prior(Prime(p), nu).probs
    half = pts >= 0.0
    kw = {}
    if mirror:
        kw = {
            "condition_on": pts[half],
            "condition_weights": np.where(pts[half] > 0.0, 2.0, 1.0) * pri[half],
        }
    # gamma = E / (2 sigma^2): log gamma + e is sigma * exp(-e / 2)
    _assert_slope_is_central_difference(
        lambda e: mi_real_points(pts, pri, math.exp(log_sigma - e / 2.0), nodes, **kw)[:2]
    )


@pytest.mark.parametrize("p", [7, 13])
@pytest.mark.parametrize("sigma", [0.2, 0.25])
def test_real_kernel_slope_at_high_snr(p, sigma):
    # sigma below half the ASK spacing: the 96-node rule integrates the mmse
    # more coarsely than the rate, and the slope of uniform p-ASK parts from
    # the difference by 2.0e-4 relative at sigma = 0.2 and 1.4e-5 at 0.25
    # (9e-7 at 0.3; at 48 nodes and sigma = 0.2, 5.9e-4)
    pts = ask_amplitudes(Prime(p)).astype(float)
    pri = np.full(p, 1.0 / p)
    _assert_slope_is_central_difference(
        lambda e: mi_real_points(pts, pri, sigma * math.exp(-e / 2.0), 96)[:2],
        rel=5e-4,
    )


@settings(derandomize=True, deadline=None, max_examples=20)
@given(
    st.sampled_from([3, 5, 7]),
    st.floats(0.0, 0.3),
    st.floats(math.log(0.1), math.log(3.0)),
    st.booleans(),
)
def test_complex_kernel_slope_is_central_difference(p, nu, log_gamma, pfold):
    c, _ = _shaped_cqam(p, nu)
    kw = {}
    if pfold:  # one conditioning point per shell
        cond, weights = shell_conditioning(c)
        kw = {"condition_on": cond, "condition_weights": weights}
    sigma = math.sqrt(c.mean_energy() / (2.0 * math.exp(log_gamma)))
    _assert_slope_is_central_difference(
        lambda e: mi_complex_points(c.points, c.priors, sigma * math.exp(-e / 2.0), 96, **kw)[:2]
    )


# ---------------------------------------------------------------------------
# per-conditioning-point divergences
# ---------------------------------------------------------------------------


def _assert_divergences_condition_alone(kernel, points, priors, sigma, nodes, cond, weights):
    """kernel's divergences: each the kernel's bits conditioned on that
    point alone, 0.0 at a zero weight, and weights . divergences the bits.

    Each divergence is the rule's integral over its own rows, which the
    kernel reduces row by row, so conditioning on one point reproduces it
    up to the rounding of the last dot product; 1e-14 bits allows that.
    """
    bits, _, div = kernel(
        points, priors, sigma, nodes,
        condition_on=cond, condition_weights=weights,
    )
    assert div.shape == (len(cond),)
    for x, weight, d in zip(cond, weights, div):
        if weight == 0.0:
            assert d == 0.0
            continue
        alone, _, _ = kernel(
            points, priors, sigma, nodes, condition_on=np.array([x]), condition_weights=[1.0]
        )
        assert abs(d - alone) <= 1e-14
    assert abs(np.dot(weights, div) - bits) <= 1e-14
    return div


@pytest.mark.parametrize("p, nu, sigma", [(7, 0.0, 0.8), (7, 0.2, 0.5), (13, 0.05, 1.3)])
def test_real_divergences_condition_on_each_point_alone(p, nu, sigma):
    pts = ask_amplitudes(Prime(p)).astype(float)
    pri = mb_ask_prior(Prime(p), nu).probs
    full = _assert_divergences_condition_alone(mi_real_points, pts, pri, sigma, 48, pts, pri)
    # mirror: the points x >= 0, each x > 0 at twice its prior; a point and
    # its mirror image have one divergence
    half = pts >= 0.0
    folded = np.where(pts[half] > 0.0, 2.0, 1.0) * pri[half]
    mirror = _assert_divergences_condition_alone(
        mi_real_points, pts, pri, sigma, 48, pts[half], folded
    )
    npt.assert_allclose(mirror, full[half], rtol=0.0, atol=1e-14)
    npt.assert_allclose(full[-np.arange(p) % p], full, rtol=0.0, atol=1e-13)
    # a zero-prior point stays in the alphabet and weighs nothing
    zeroed = pri.copy()
    zeroed[1] = zeroed[-1] = 0.0
    _assert_divergences_condition_alone(
        mi_real_points, pts, zeroed / zeroed.sum(), sigma, 48, pts, zeroed / zeroed.sum()
    )


@pytest.mark.parametrize("p, nu, gamma", [(5, 0.0, 1.0), (5, 0.1, 3.0), (7, 0.05, 2.0)])
def test_complex_divergences_condition_on_each_point_alone(p, nu, gamma):
    c, shell_probs = _shaped_cqam(p, nu)
    sigma = math.sqrt(c.mean_energy() / (2.0 * gamma))
    full = _assert_divergences_condition_alone(
        mi_complex_points, c.points, c.priors, sigma, 24, c.points, c.priors
    )
    # p-fold: one point per shell, weighted by the shell prior, as
    # shell_conditioning gives them; every point of a shell has its divergence
    reps = c.points[np.arange(p) * p]
    pfold = _assert_divergences_condition_alone(
        mi_complex_points, c.points, c.priors, sigma, 24, reps, shell_probs
    )
    npt.assert_allclose(full.reshape(p, p), np.repeat(pfold[:, None], p, axis=1), atol=1e-12)
    _, _, div = mi_complex_points(c.points, c.priors, sigma, 24, *shell_conditioning(c))
    npt.assert_array_equal(div, pfold)


# ---------------------------------------------------------------------------
# symmetry reduction
# ---------------------------------------------------------------------------


def test_reduced_equals_naive_on_grid():
    f5 = Prime(5)
    base = build_cqam(f5)
    for nu in (0.0, 0.05):
        shell = MaxwellBoltzmann.from_amplitudes(nu, base.shells.radii)
        c = base.with_priors(cqam_prior(shell, f5))
        for gamma in (1.0, 10.0):
            snr = ChannelSnr(gamma, "complex")
            a = mi_complex_cqam(c, snr, nodes=64)
            b = mi_complex_naive(c, snr, nodes=64)
            assert abs(a - b) < 1e-6


def test_reduced_equals_naive_stretched():
    f7 = Prime(7)
    c = build_cqam_stretched(f7, CqamParams(stretch=Stretch(4.8, 0.76)))
    shell = MaxwellBoltzmann.from_amplitudes(0.07, c.shells.radii)
    c = c.with_priors(cqam_prior(shell, f7))
    snr = ChannelSnr(30.0, "complex")
    a = mi_complex_cqam(c, snr, nodes=48)
    b = mi_complex_naive(c, snr, nodes=48)
    assert abs(a - b) < 1e-6


# ---------------------------------------------------------------------------
# qualitative behavior
# ---------------------------------------------------------------------------


def test_mi_monotone_in_gamma():
    # below saturation (the curve flattens into log2 p at float precision
    # beyond gamma of a few hundred)
    ask = build_ask(Prime(7))
    gammas = np.logspace(-2, 2, 24)
    values = [mi_real(ask, ChannelSnr(g, "real")) for g in gammas]
    assert all(a < b for a, b in zip(values, values[1:]))


def test_oversized_node_count_raises():
    with pytest.raises(ValueError):
        mi_real_points(np.array([-1.0, 1.0]), np.array([0.5, 0.5]), 1.0, nodes=512)


@pytest.mark.parametrize("nodes", [372, 10**6])
def test_overflowing_node_count_is_refused_before_hermgauss(monkeypatch, nodes):
    # hermgauss builds a nodes x nodes companion matrix: 10**6 nodes would
    # ask for 8 TB before its weights could be checked
    calls = []
    monkeypatch.setattr(np.polynomial.hermite, "hermgauss", calls.append)
    with pytest.raises(ValueError, match=f"Hermite weights overflow at {nodes} nodes"):
        _rule(nodes, 1)
    assert calls == []


def test_node_count_cap_is_where_hermgauss_overflows():
    # the cap is numpy's (2.4) overflow point; a numpy that moves it fails here
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rules = [np.polynomial.hermite.hermgauss(n) for n in (371, 372)]
    finite = [np.isfinite(rule).all() for rule in rules]
    assert finite == [True, False]
    assert len(_rule(371, 1)[0]) > 0


def test_quadrature_doubling_is_stable():
    ask = build_ask(Prime(7))
    snr = ChannelSnr(12.0, "real")
    a = mi_real(ask, snr, nodes=96)
    b = mi_real(ask, snr, nodes=192)
    assert abs(a - b) < 1e-7

    c = build_cqam(Prime(5))
    csnr = ChannelSnr(25.0, "complex")
    a = mi_complex_cqam(c, csnr, nodes=96)
    b = mi_complex_cqam(c, csnr, nodes=192)
    assert abs(a - b) < 1e-7


def test_asymptotes():
    ask = build_ask(Prime(7))
    assert mi_real(ask, ChannelSnr(1e-9, "real")) < 1e-6
    high = mi_real(ask, ChannelSnr(1e9, "real"))
    assert abs(high - math.log2(7)) < 1e-9

    c = build_cqam(Prime(5))
    high_c = mi_complex_cqam(c, ChannelSnr(1e12, "complex"))
    assert abs(high_c - 2 * math.log2(5)) < 1e-9


def test_mi_bounded_by_entropy():
    f7 = Prime(7)
    shell = MaxwellBoltzmann.from_amplitudes(0.2, build_cqam(f7).shells.radii)
    c = build_cqam(f7).with_priors(cqam_prior(shell, f7))
    mi = mi_complex_cqam(c, ChannelSnr(50.0, "complex"))
    entropy = shell.entropy_bits() + math.log2(7)
    assert 0.0 < mi <= entropy + 1e-12


# ---------------------------------------------------------------------------
# capacity inverse
# ---------------------------------------------------------------------------


def test_capacity_gamma_closed_forms():
    npt.assert_allclose(capacity_gamma(0.5, "real"), 0.5, rtol=1e-14)
    npt.assert_allclose(capacity_gamma(1.0, "real"), 1.5, rtol=1e-14)
    npt.assert_allclose(capacity_gamma(1.0, "complex"), 3.0, rtol=1e-14)
    assert capacity_gamma(0.0, "real") == 0.0
    with pytest.raises(ValueError):
        capacity_gamma(-0.1, "real")
    with pytest.raises(ValueError):
        capacity_gamma(1.0, "both")


def test_capacity_is_consistent_with_gaussian_rate():
    # gamma from the closed form should make (1/2) log2(1 + 2 gamma) = rate
    for rate in (0.25, 1.0, 1.871):
        g = capacity_gamma(rate, "real")
        assert 0.5 * math.log2(1 + 2 * g) == pytest.approx(rate, abs=1e-12)
        gc = capacity_gamma(rate, "complex")
        assert math.log2(1 + gc) == pytest.approx(2 * rate, abs=1e-12)
