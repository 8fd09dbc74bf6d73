"""SNR-gap optimization of shaped transmission schemes.

For a scheme whose achievable rate at SNR gamma under shaping parameter
nu is R(gamma; nu), and a target rate R_t fixed by the coding rate
(R_t = R_c log2 p bits per real dimension), the figures of merit are

    gamma_A(nu)    smallest gamma with R(gamma; nu) >= R_t,
    nu*            argmin of gamma_A over nu >= 0,
    gap            10 log10(gamma_A(nu*) / gamma_cap)   [dB to capacity],
    potential gain 10 log10(gamma_unif / gamma_cap)     [uniform's gap],
    effective gain 10 log10(gamma_unif / gamma_A(nu*))  [what shaping buys],

so gap + effective gain = potential gain by construction.

One driver computes these for every scheme, described by its prior
family (the MB prior at each nu), its rate curve at (prior, quadrature
nodes), its uniform baseline's curve, the share of a channel use's
symbols that the prior fills (the rest are uniform), the default nu
bracket and its channel (real, or complex with two real dimensions per
use).  The driver builds one prior per nu and derives from it the
entropy that caps the rate at every gamma: share H(prior) plus the
uniform symbols' bits.  Three schemes are provided:

* time-sharing p-ASK: a fraction R_c of real-channel uses carries
  Maxwell-Boltzmann shaped symbols and the rest carries uniform symbols
  (the parity of a systematic code), so the mixed achievable rate is
  R_c I_shaped + (1 - R_c) I_unif.  Two energy conventions are offered
  for evaluating the two terms at a common gamma: "shaped" normalizes
  each term by its own mean symbol energy (each population is measured
  against its own transmit power), while "time-averaged" fixes one
  physical noise level from the time-averaged energy
  R_c E_shaped + (1 - R_c) E_unif.
* shaped ASK squared: two independent fully shaped real dimensions
  (reported per real dimension), the natural square-constellation
  benchmark for CQAM.
* CQAM: p^2-point circular constellations with MB-shaped shell priors
  and a uniform phase on the complex channel; the uniform baseline is
  the unstretched construction under uniform priors.  Its rates are
  `awgn_mi.mi_complex_cqam`'s, the p-fold reduction that the tests hold
  to the full conditional sum of `mi_complex_naive`.

One builder serves both ASK schemes, full shaping being time sharing
with every channel use shaped; both share the uniform p-ASK baseline.
Every curve returns its rate with the slope d rate / d log gamma, which
the I-MMSE relation gives the MI kernel exactly and a time-sharing mix
carries by linearity.  A gamma solve finds the root of rate(e^t) -
target in t = log gamma to LOG_GAMMA_TOL by a safeguarded Newton method
on that slope, warm-started from a nearby gamma: the baseline from
gamma_cap, each nu from the previous nu's gamma, and the re-solve at
`nodes` from the gamma found at `search_nodes`.  The nu search is a
bounded Brent minimization (Brent, Algorithms for Minimization without
Derivatives, 1973) on [0, nu_max] that doubles the bracket while
gamma_A still falls at its upper edge.

A target rate a scheme cannot reach raises `UnreachableRateError`, a
ValueError subclass; the nu search treats it as an infeasible nu and
`table` reports such a row as unreachable.  No rate exceeds the entropy
of a channel use's symbols, so a nu whose entropy ceiling lies below the
target is infeasible without a solve.  Every other ValueError is an
input error (a bad coding rate, node count or nu) and propagates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Literal

import numpy as np

from .awgn_mi import (
    DEFAULT_NODES,
    ChannelSnr,
    _rule,
    capacity_gamma,
    mi_complex_cqam,
    mi_real_points,
)
from .constellations import (
    Constellation,
    CqamParams,
    build_ask,
    build_cqam,
    _stretched,
)
from .field import Prime
from .shaping import MaxwellBoltzmann, ask_energy, cqam_prior, mb_ask_prior

#: Accuracy in log gamma of the SNR solve: it stops on a Newton step of
#: at most a quarter of this, or on a bracket narrower than this, so the
#: crossing lies within it of the returned log gamma (about 4e-8 dB).
LOG_GAMMA_TOL = 1e-8

#: Largest |rate - target| in bits accepted at a converged SNR solve; a
#: larger residual means the curve jumps over the target.
RATE_RESIDUAL_TOL = 1e-7

#: Relative width at which the Brent nu search terminates.
NU_REL_TOL = 1e-4

#: Default Gauss-Hermite node count per real dimension of the CQAM nu search.
DEFAULT_SEARCH_NODES = 48

#: Search range of the SNR solve; beyond GAMMA_MAX a target is unreachable.
GAMMA_MIN, GAMMA_MAX = 1e-300, 1e15

_CGOLD = (3.0 - math.sqrt(5.0)) / 2.0

Convention = Literal["shaped", "time-averaged"]


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


class UnreachableRateError(ValueError):
    """The target rate lies above what a scheme reaches at any SNR."""


def snr_for_rate(
    rate_fn: Callable[[float], tuple[float, float]],
    target: float,
    hint: float | None = None,
) -> float:
    """Invert a monotone rate curve: the gamma where rate crosses target.

    rate_fn(gamma) returns (bits, d bits / d ln gamma).  A safeguarded
    Newton method on t = log gamma (rtsafe, Numerical Recipes, 3rd ed.,
    sec. 9.4) starts at log `hint` (default gamma = 1) and keeps a sign
    bracket within [log GAMMA_MIN, log GAMMA_MAX].  Where the Newton step
    leaves the bracket, or the slope is not positive and finite, it
    evaluates the range end the crossing lies toward while that end is
    untried, and bisects the bracket once both ends are known.  It stops
    once a Newton step is at most LOG_GAMMA_TOL / 4, or the bracket is
    narrower than LOG_GAMMA_TOL.  A hint near the crossing, such as the
    gamma of a neighbouring solve, saves rate evaluations; it does not
    change the result beyond that tolerance.  Raises
    UnreachableRateError when the target exceeds the rate at GAMMA_MAX,
    ValueError for a nonpositive target, a hint that is not positive or
    a target reached at GAMMA_MIN, and RuntimeError for a non-finite
    rate or when the converged rate misses the target by more than
    RATE_RESIDUAL_TOL bits (the curve jumps over it).
    """
    if target <= 0.0:
        raise ValueError("target rate must be positive")
    if hint is not None and not hint > 0.0:
        raise ValueError(f"SNR hint must be positive, got {hint}")
    t_min, t_max = math.log(GAMMA_MIN), math.log(GAMMA_MAX)
    t = min(max(math.log(1.0 if hint is None else hint), t_min), t_max)
    # the crossing lies in [lo, hi]; f_lo < 0 < f_hi once an end is tried
    lo, hi, f_lo, f_hi = t_min, t_max, None, None
    while True:
        rate, slope = rate_fn(math.exp(t))
        if not math.isfinite(rate):
            raise RuntimeError(
                f"SNR solve did not converge: rate {rate} at gamma = {math.exp(t):.6g}"
            )
        f = rate - target
        if f < 0.0:
            if t == t_max:
                raise UnreachableRateError(
                    f"target rate {target:.6f} is unreachable for this scheme"
                )
            lo, f_lo = t, f
        elif f > 0.0:
            if t == t_min:
                raise ValueError("target rate reached at arbitrarily small gamma")
            hi, f_hi = t, f
        else:
            break
        step = -f / slope if 0.0 < slope < math.inf else math.nan
        if abs(step) <= 0.25 * LOG_GAMMA_TOL:
            t += step
            break
        if lo < t + step < hi:
            t += step
        elif f_lo is None:
            t = t_min
        elif f_hi is None:
            t = t_max
        elif hi - lo < LOG_GAMMA_TOL:
            t, f = (lo, f_lo) if -f_lo < f_hi else (hi, f_hi)
            break
        else:
            t = 0.5 * (lo + hi)
    if abs(f) > RATE_RESIDUAL_TOL:
        raise RuntimeError(
            f"SNR solve did not converge: rate misses the target by "
            f"{abs(f):.3g} bits at gamma = {math.exp(t):.6g}"
        )
    return math.exp(t)


def _brent_minimize(
    f: Callable[[float], float], a: float, b: float
) -> tuple[float, float]:
    """Minimum of a unimodal f on [a, b] by Brent's method; ties move toward 0.

    Parabolic steps through the three best points, golden-section steps
    when a parabola would not shrink the bracket fast enough (Brent,
    1973, ch. 5).  Starts from b / 2 and stops when the bracket around
    the best point is NU_REL_TOL * b wide.
    """
    tol = 0.25 * NU_REL_TOL * b
    x = 0.5 * b
    fx = f(x)
    v = w = x
    fv = fw = fx
    d = e = 0.0
    while True:
        mid = 0.5 * (a + b)
        if max(x - a, b - x) <= 2.0 * tol:
            return x, fx
        golden = True
        if abs(e) > tol:  # try a parabola through x, w and v
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                d, golden = p / q, False
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, mid - x)
        if golden:
            e = (a - x) if x >= mid else (b - x)
            d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu < fx or (fu == fx and u < x):
            if u >= x:
                a = x
            else:
                b = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def _minimize_nu(f: Callable[[float], float], nu_max: float) -> tuple[float, float]:
    """Minimize gamma_A over nu in [0, nu_max], doubling the bracket up to
    six times when the optimum sits at the upper edge.

    f returns inf where the target is unreachable; the search sees
    GAMMA_MAX * (1 + nu) there instead, which exceeds every reachable
    gamma and rises with nu, so it leads back toward the feasible part.
    While f still falls at the edge, f(hi) < f(0.98 hi), hi doubles; an
    unreachable 0.98 hi ends the doubling without a solve at hi.  One
    Brent search from hi / 2 then runs on [0, hi], or on [0.49 hi, hi]
    after a doubling.  f is called once per nu.
    """
    cache: dict[float, float] = {}

    def g(nu: float) -> float:
        if nu not in cache:
            val = f(nu)
            cache[nu] = val if math.isfinite(val) else GAMMA_MAX * (1.0 + nu)
        return cache[nu]

    lo, hi = 0.0, nu_max
    while True:
        edge = g(0.98 * hi)
        if edge >= GAMMA_MAX or g(hi) >= edge:  # f no longer falls at the edge
            nu, val = _brent_minimize(g, lo, hi)
            if nu < 0.98 * hi:
                break
        if hi >= 64.0 * nu_max:  # six exact doublings did not contain it
            raise RuntimeError("nu bracket widening failed to contain the optimum")
        warnings.warn(
            f"shaping optimum at the nu grid edge ({hi:.4g}); "
            f"widening the bracket to {2 * hi:.4g}",
            stacklevel=4,
        )
        lo, hi = 0.98 * hi, 2.0 * hi
    if val >= GAMMA_MAX:
        raise UnreachableRateError("target rate unreachable at every shaping parameter")
    return nu, val


@dataclass(frozen=True, slots=True)
class ShapingSolution:
    """Optimized operating point of one scheme at one (p, R_c) row."""

    scheme: str
    p: int
    coding_rate: Fraction
    target_rate: float
    nu_star: float
    gamma_A_db: float
    gamma_cap_db: float
    gamma_unif_db: float
    gap_db: float
    potential_gain_db: float
    effective_gain_db: float
    convention: str | None = None


def _check_coding_rate(coding_rate: Fraction) -> Fraction:
    coding_rate = Fraction(coding_rate)
    if not Fraction(1, 2) <= coding_rate <= 1:
        raise ValueError(
            f"coding rate {coding_rate} outside [1/2, 1]; systematic shaping "
            "needs at least half the symbols carrying shaped payload"
        )
    return coding_rate


#: gamma -> (bits per channel use, d bits / d ln gamma)
Curve = Callable[[float], tuple[float, float]]


@dataclass(frozen=True, slots=True)
class _Scheme:
    """One shaping scheme as the driver `_optimize` sees it.

    prior(nu) is the shaped prior at nu; curve(prior, nodes) and
    baseline(nodes) give the `Curve` of the shaped scheme and of its
    uniform baseline: gamma -> (bits per channel use, d bits / d ln
    gamma).  The prior fills a fraction `share` of a use's symbols and
    uniform symbols the rest, which add `uniform_bits` per use; share
    H(prior) + uniform_bits, the entropy of a use, caps curve(prior, ...)
    at every gamma.  nu_max is the default upper edge of the nu search;
    dimension names the channel ("real" or "complex") a use of which the
    curves measure.
    """

    name: str
    prior: Callable[[float], MaxwellBoltzmann]
    curve: Callable[[MaxwellBoltzmann, int], Curve]
    baseline: Callable[[int], Curve]
    share: float
    uniform_bits: float
    nu_max: float
    dimension: Literal["real", "complex"]
    convention: str | None = None


def _optimize(
    scheme: _Scheme, field: Prime, coding_rate: Fraction, *,
    nodes: int, search_nodes: int, nu: float | None, nu_max: float | None,
) -> ShapingSolution:
    """Solve gamma_unif and gamma_A(nu*) of one scheme at R_t = R_c log2 p.

    `nu` forces the shaping parameter; otherwise nu* minimizes gamma_A
    at `search_nodes` and is re-solved at `nodes` when those differ.
    """
    coding_rate = _check_coding_rate(coding_rate)
    for n in (nodes, search_nodes):
        _rule(n, 1)  # rejects a bad node count before any solve; cached
    nu_max = scheme.nu_max if nu_max is None else nu_max
    if not 0.0 < nu_max < math.inf:
        raise ValueError(f"nu_max must be positive and finite, got {nu_max}")
    target = float(coding_rate) * math.log2(field.p)  # bits per real dimension
    solve_target = 2.0 * target if scheme.dimension == "complex" else target

    gamma_cap = capacity_gamma(target, scheme.dimension)
    gamma_unif = snr_for_rate(scheme.baseline(nodes), solve_target, gamma_cap)
    last = gamma_unif  # each solve starts from the previous one's gamma

    def gamma_of_nu(nu_val: float, n: int) -> float:
        nonlocal last
        prior = scheme.prior(nu_val)
        ceiling = scheme.share * prior.entropy_bits() + scheme.uniform_bits
        if ceiling < solve_target - RATE_RESIDUAL_TOL:
            return math.inf  # unreachable at any gamma: skip the solve
        try:
            last = snr_for_rate(scheme.curve(prior, n), solve_target, last)
        except UnreachableRateError:
            return math.inf
        return last

    if nu is not None:
        nu_star, gamma_a = nu, gamma_of_nu(nu, nodes)
        if not math.isfinite(gamma_a):
            raise UnreachableRateError(f"target rate unreachable at nu={nu}")
    else:
        nu_star, gamma_a = _minimize_nu(
            lambda v: gamma_of_nu(v, search_nodes), nu_max
        )
        if search_nodes != nodes:
            last = gamma_a
            gamma_a = gamma_of_nu(nu_star, nodes)
    return ShapingSolution(
        scheme=scheme.name,
        p=field.p,
        coding_rate=coding_rate,
        target_rate=target,
        nu_star=nu_star,
        gamma_A_db=_db(gamma_a),
        gamma_cap_db=_db(gamma_cap),
        gamma_unif_db=_db(gamma_unif),
        gap_db=_db(gamma_a / gamma_cap),
        potential_gain_db=_db(gamma_unif / gamma_cap),
        effective_gain_db=_db(gamma_unif / gamma_a),
        convention=scheme.convention,
    )


def _real_curve(points: np.ndarray, probs: np.ndarray, energy: float, n: int) -> Curve:
    """Real-channel MI of p-ASK and its slope at gamma = energy / (2 sigma^2).

    The prior gives symbols s and -s the same mass on mirrored points,
    so the MI is conditioned on the points x >= 0, each x > 0 with twice
    its prior (the mirror reduction of `mi_real_points`).  Raises
    ValueError when points or prior are not mirror-symmetric.
    """
    mirror = -np.arange(len(points)) % len(points)
    if not (
        np.array_equal(points[mirror], -points) and np.array_equal(probs[mirror], probs)
    ):
        raise ValueError("the p-ASK points and prior must be mirror-symmetric")
    half = points >= 0.0
    cond = points[half]
    weights = np.where(cond > 0.0, 2.0, 1.0) * probs[half]
    return lambda gamma: mi_real_points(
        points, probs, math.sqrt(energy / (2.0 * gamma)), n,
        condition_on=cond, condition_weights=weights, slope=True,
    )


def _ask_scheme(
    name: str, field: Prime, share: float, convention: Convention | None
) -> _Scheme:
    """p-ASK with MB(nu) symbols on a fraction `share` of channel uses.

    The other uses carry uniform symbols; `convention` sets how the two
    rate terms share energy at a common gamma (see module docstring).
    At share = 1 (full shaping) the uniform term is dropped, so a solve
    evaluates one MI per gamma, and both conventions give the shaped
    prior its own energy.
    """
    p = field.p
    pts, unif = build_ask(field).points.real, np.full(p, 1.0 / p)
    e_unif = (p * p - 1.0) / 12.0

    def curve(prior: MaxwellBoltzmann, n: int) -> Curve:
        e_sh, e_un = ask_energy(prior), e_unif
        if convention == "time-averaged":
            e_sh = e_un = share * e_sh + (1.0 - share) * e_unif
        shaped = _real_curve(pts, prior.probs, e_sh, n)
        if share == 1.0:
            return shaped
        uniform = _real_curve(pts, unif, e_un, n)

        def mixed(g: float) -> tuple[float, float]:
            (r_sh, s_sh), (r_un, s_un) = shaped(g), uniform(g)
            return share * r_sh + (1.0 - share) * r_un, share * s_sh + (1.0 - share) * s_un

        return mixed

    return _Scheme(
        name, lambda nu: mb_ask_prior(field, nu), curve,
        lambda n: _real_curve(pts, unif, e_unif, n), share,
        (1.0 - share) * math.log2(p), 2.0 / field.half, "real", convention,
    )


def _cqam_scheme(field: Prime, params: CqamParams) -> _Scheme:
    """p^2-CQAM with MB(nu) shell priors, each shell's phases uniform.

    The shaped curves run on the geometry of `params` (stretched when
    params.stretch is set), the uniform baseline on the unstretched
    construction; every rate is `mi_complex_cqam`'s.
    """
    base = build_cqam(field, replace(params, stretch=None))
    geom = _stretched(base, params.stretch)
    radii = geom.shells.radii

    def rate(c: Constellation, n: int) -> Curve:
        return lambda g: mi_complex_cqam(c, ChannelSnr(g, "complex"), n, slope=True)

    return _Scheme(
        "cqam", lambda nu: MaxwellBoltzmann.from_amplitudes(nu, radii),
        lambda prior, n: rate(geom.with_priors(cqam_prior(prior, field)), n),
        lambda n: rate(base, n), 1.0, math.log2(field.p),
        4.0 / float(radii[-1]) ** 2, "complex",
    )


def optimize_time_sharing(
    field: Prime,
    coding_rate: Fraction,
    *,
    convention: Convention = "time-averaged",
    nodes: int = DEFAULT_NODES,
    nu: float | None = None,
    nu_max: float | None = None,
) -> ShapingSolution:
    """Optimize MB shaping for time-shared p-ASK at rate R_t = R_c log2 p.

    A fraction R_c of channel uses carries MB(nu)-distributed symbols
    and a fraction 1 - R_c uniform ones; `convention` selects how the
    two rate terms share energy at a common gamma (see module
    docstring).  "time-averaged" is the physically motivated default;
    "shaped" (per-curve normalization) is the convention under which
    the reference gain tables are reproduced.  `nu` forces the shaping
    parameter instead of optimizing it.
    """
    if convention not in ("shaped", "time-averaged"):
        raise ValueError(f"unknown energy convention {convention!r}")
    share = float(Fraction(coding_rate))
    scheme = _ask_scheme("time-sharing", field, share, convention)
    return _optimize(
        scheme, field, coding_rate, nodes=nodes, search_nodes=nodes, nu=nu, nu_max=nu_max
    )


def optimize_shaped_ask(
    field: Prime,
    coding_rate: Fraction,
    *,
    nodes: int = DEFAULT_NODES,
    nu: float | None = None,
    nu_max: float | None = None,
) -> ShapingSolution:
    """Fully MB-shaped p-ASK at rate R_t = R_c log2 p per real dimension.

    Two independent such dimensions form the square (p-ASK)^2 reference
    constellation; per-real-dimension figures equal the complex ones.
    """
    scheme = _ask_scheme("shaped-ask-squared", field, 1.0, None)
    return _optimize(
        scheme, field, coding_rate, nodes=nodes, search_nodes=nodes, nu=nu, nu_max=nu_max
    )


def optimize_cqam(
    field: Prime,
    coding_rate: Fraction,
    params: CqamParams | None = None,
    *,
    nodes: int = DEFAULT_NODES,
    search_nodes: int = DEFAULT_SEARCH_NODES,
    nu: float | None = None,
    nu_max: float | None = None,
) -> ShapingSolution:
    """Optimize MB shell shaping of a p^2-CQAM constellation.

    The working geometry follows `params` (stretched when params.stretch
    is set); the potential-gain baseline gamma_unif is always the
    unstretched construction under uniform priors, so the reported
    potential gain isolates what shaping plus stretching can recover.
    The nu search runs at `search_nodes` and the returned operating
    points are re-solved at `nodes`.
    """
    return _optimize(
        _cqam_scheme(field, params or CqamParams()), field, coding_rate,
        nodes=nodes, search_nodes=search_nodes, nu=nu, nu_max=nu_max,
    )
