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
  the unstretched construction under uniform priors.  Its curves
  condition on one point per shell (`awgn_mi.shell_conditioning`), the
  p-fold reduction of `mi_complex_cqam`, which the tests hold to the
  full conditional sum of `mi_complex_naive`.

One builder serves both ASK schemes, full shaping being time sharing
with every channel use shaped; both share the uniform p-ASK baseline.
One function builds every p-ASK and CQAM curve from an MI kernel.  It
returns the rate with the slope d rate / d log gamma, which the kernel
forms by I-MMSE as the rule's integral of the mmse.  Where the rule
resolves the noise that slope matches the rate's own derivative to 1e-7
relative.  At high SNR the rule integrates the mmse more coarsely than
the rate, and uniform 7- or 13-ASK at 96 nodes parts from it by 2e-4 at
sigma = 0.2 and 1.4e-5 at sigma = 0.25.  The curve also returns the
rate's derivative in nu at fixed gamma, in closed form: the kernel
returns each conditioning point's divergence D(p(y|x) || p(y)), which is
d I / d P(x) up to a constant (Blahut, IEEE Trans. IT, 1972), so the MB
prior's closed-form P' = -P (a^2 - E) weights them, and the noise moves
with the energy E at fixed gamma, which costs the slope times
d ln E / d nu with E' = -Var(a^2).  A time-sharing mix carries all three
by linearity.  A gamma solve finds the root of rate(e^t) - target in
t = log gamma to LOG_GAMMA_TOL by a safeguarded Newton method on the
slope, warm-started from a nearby gamma: the baseline from gamma_cap,
the first nu from gamma_unif, and the re-solve at `nodes` from the gamma
found at `search_nodes`.  It ends on a Newton step it does not evaluate
once that step is short and Newton's predicted error after it is far
below the tolerance.  Holding the rate at the target gives the gradient
d ln gamma_A / d nu = -(d rate / d nu) / (d rate / d ln gamma) at the
returned gamma, both derivatives extrapolated linearly in log gamma from
the solve's last two evaluations.  The nu search is a safeguarded secant
method on that gradient, from the bracket [0, nu_max], that starts each
solve from the nearest solved nu moved along its gradient and doubles
the bracket while gamma_A still falls at its upper edge.  No curve
reaches the target at or below gamma_cap (each is at most the capacity,
and a time-averaged mix of two is at most the capacity of their mean
energy, by Jensen's inequality), so every hint is raised to gamma_cap.

A target rate a scheme cannot reach raises `UnreachableRateError`, a
ValueError subclass; the nu search treats it as an infeasible nu and
`table` reports such a row as unreachable.  No rate exceeds the entropy
of a channel use's symbols, and the MI only nears it as gamma grows, so
a nu whose entropy ceiling lies below the target, or within
RATE_RESIDUAL_TOL above it, is infeasible without a solve.  The uniform
prior at nu = 0 has the highest ceiling; where that one fails, as at
R_c = 1, no solve runs at all.  Every other ValueError is an input error
(a bad coding rate, node count or nu) and propagates.
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
    _rule,
    capacity_gamma,
    mi_complex_points,
    mi_real_points,
    shell_conditioning,
)
from .constellations import Constellation, CqamParams, build_ask, build_cqam, _stretched
from .field import Prime
from .shaping import MaxwellBoltzmann, ask_energy, cqam_prior, mb_ask_prior

#: Accuracy in log gamma of the SNR solve: it stops on a Newton step of
#: at most a quarter of this, on a predicted one (PREDICTED_STEP_MAX), or
#: on a bracket narrower than this, so the crossing lies within it of the
#: returned log gamma (about 4e-8 dB).
LOG_GAMMA_TOL = 1e-8

#: Largest Newton step on which the SNR solve may stop without evaluating
#: its end: LOG_GAMMA_TOL / (4 x 5e-4).  A slope off the rate's derivative
#: by 5e-4 relative, which bounds how far the 96-node rule parts from it
#: at high SNR (see the module docstring), then misplaces the end by at
#: most a quarter of LOG_GAMMA_TOL.
PREDICTED_STEP_MAX = LOG_GAMMA_TOL / (4.0 * 5e-4)

#: Largest |rate - target| in bits accepted at a converged SNR solve; a
#: larger residual means the curve jumps over the target.
RATE_RESIDUAL_TOL = 1e-7

#: Relative width, to the upper edge of its bracket, of the secant step (or
#: the bracket) on which the nu search stops.  The search solves at that
#: step's end, which lies far closer to nu*, since the secant converges
#: superlinearly: every table row moved by under 1e-11 dB at 2.5e-6.
NU_REL_TOL = 1e-4

#: Default Gauss-Hermite node count per real dimension of the CQAM nu search.
DEFAULT_SEARCH_NODES = 48

#: Search range of the SNR solve; beyond GAMMA_MAX a target is unreachable.
GAMMA_MIN, GAMMA_MAX = 1e-300, 1e15

Convention = Literal["shaped", "time-averaged"]


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


class UnreachableRateError(ValueError):
    """The target rate lies above what a scheme reaches at any SNR."""


def snr_for_rate(
    rate_fn: Callable[[float], tuple[float, ...]],
    target: float,
    hint: float | None = None,
) -> float:
    """Invert a monotone rate curve: the gamma where rate crosses target.

    rate_fn(gamma) returns (bits, d bits / d ln gamma), and may return
    more entries after those, which the solve ignores.  A safeguarded
    Newton method on t = log gamma (rtsafe, Numerical Recipes, 3rd ed.,
    sec. 9.4) starts at log `hint` (default gamma = 1) and keeps a sign
    bracket within [log GAMMA_MIN, log GAMMA_MAX].  While the upper end
    is untried, a Newton step up that is more than half the last one
    (the curve saturates slowly, as 1 / gamma does) is at least doubled
    from the last step taken, so an unreachable target costs a few
    evaluations, not one per unit of log gamma.  Where the Newton step
    leaves the bracket, or the slope is not positive and finite, it
    evaluates the range end the crossing lies toward while that end is
    untried, and bisects the bracket once both ends are known.  It stops
    on a Newton step inside the bracket that is at most LOG_GAMMA_TOL / 4,
    or that is predicted to land: at most PREDICTED_STEP_MAX long, with
    Newton's error after it, |f'' / (2 f')| step^2 (Dennis & Schnabel,
    1983, ch. 2), at most LOG_GAMMA_TOL / 4, f'' taken from the slopes
    of the last two evaluations.  It returns that step's end without
    evaluating it.  It also stops on a bracket narrower than
    LOG_GAMMA_TOL.  A hint near the crossing, such as the gamma of a
    neighbouring solve, saves rate evaluations; it does not change the
    result beyond that tolerance.  Raises UnreachableRateError when the
    target exceeds the rate at GAMMA_MAX, ValueError for a nonpositive
    target, a hint that is not positive or a target reached at
    GAMMA_MIN, and RuntimeError for a non-finite rate or when the
    converged rate misses the target by more than RATE_RESIDUAL_TOL bits
    (the curve jumps over it), the residual at a predicted stop being
    the Newton model's, 1/2 f'' step^2.
    """
    if target <= 0.0:
        raise ValueError("target rate must be positive")
    if hint is not None and not hint > 0.0:
        raise ValueError(f"SNR hint must be positive, got {hint}")
    t_min, t_max = math.log(GAMMA_MIN), math.log(GAMMA_MAX)
    t = min(max(math.log(1.0 if hint is None else hint), t_min), t_max)
    # the crossing lies in [lo, hi]; f_lo < 0 < f_hi once an end is tried
    lo, hi, f_lo, f_hi = t_min, t_max, None, None
    newton, up = 0.0, 0.0  # the last Newton step, and the last step taken
    last = None  # (t, slope) of the previous evaluation
    while True:
        rate, slope = rate_fn(math.exp(t))[:2]
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
        # the Newton model's residual at t + step, 1/2 f'' step^2, with f''
        # from the slopes of this evaluation and the previous one
        curv = (slope - last[1]) / (t - last[0]) if last and t != last[0] else math.nan
        last, f_next = (t, slope), 0.5 * curv * step * step
        predicted = (
            abs(step) <= PREDICTED_STEP_MAX
            and abs(f_next) <= 0.25 * LOG_GAMMA_TOL * slope  # Newton's error in t
        )
        if (abs(step) <= 0.25 * LOG_GAMMA_TOL or predicted) and lo < t + step < hi:
            t, f = t + step, f_next if predicted else f
            break
        # Newton steps toward an untried upper end that do not halve: a curve
        # that saturates slowly, so each such step at least doubles the last
        slow = f_hi is None and step > 0.5 * newton > 0.0
        newton, step = step, max(step, 2.0 * up) if slow else step
        if lo < t + step < hi:
            t, up = t + step, step
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


def _minimize_nu(
    f: Callable[[float, float | None], tuple[float, float]], nu_max: float
) -> tuple[float, float]:
    """Minimize gamma_A over nu >= 0 by a safeguarded secant method on
    h(nu) = d ln gamma_A / d nu, from the bracket [0, nu_max].

    f(nu, hint) solves gamma_A at nu from the SNR hint (None while no nu is
    solved) and returns (gamma_A, h); gamma_A is inf where the target is
    unreachable, and such a nu counts as h > 0.  The search keeps a sign
    bracket, h < 0 at lo and h >= 0 at hi, an untried end counting as
    such.  It starts at nu_max / 2 and steps to the secant root of h
    through the last two feasible nu.  A secant root beyond an untried
    end evaluates that end; any other outside the bracket, or a missing
    one, bisects it.  Each solve starts from the nearest solved nu:
    gamma_near exp(h_near (nu - nu_near)).  Once a secant step is at most
    NU_REL_TOL times the upper edge, the search solves at its end and
    stops; it also stops on a bracket narrower than that, once both its
    ends are solved (nu = 0 alone may reach a target that no nu > 0 does).  An upper edge
    with h < 0 holds no minimum: the edge doubles, up to six times.
    Returns the solved (nu, gamma_A) with the smallest gamma_A.
    """
    seen: dict[float, tuple[float, float]] = {}

    def probe(nu: float) -> float:
        feasible = [(v, g, h) for v, (g, h) in seen.items() if math.isfinite(h)]
        hint = None
        if feasible:
            v, g, h = min(feasible, key=lambda s: abs(s[0] - nu))
            log_hint = math.log(g) + h * (nu - v)
            hint = math.exp(min(max(log_hint, math.log(GAMMA_MIN)), math.log(GAMMA_MAX)))
        gamma, h = f(nu, hint)
        seen[nu] = (gamma, h) if math.isfinite(gamma) else (math.inf, math.inf)
        return seen[nu][1]

    lo, hi, tol = 0.0, nu_max, NU_REL_TOL * nu_max  # tol doubles with the edge
    x, last = 0.5 * nu_max, []  # the last two feasible (nu, h)
    while True:
        h = probe(x)
        if h < 0.0 and x == hi:  # gamma_A still falls at the upper edge
            if hi >= 64.0 * nu_max:  # six exact doublings did not contain it
                raise RuntimeError("nu bracket widening failed to contain the optimum")
            warnings.warn(
                f"shaping optimum at the nu grid edge ({hi:.4g}); "
                f"widening the bracket to {2 * hi:.4g}",
                stacklevel=4,
            )
            hi, tol = 2.0 * hi, 2.0 * tol
        lo, hi = (x, hi) if h < 0.0 else (lo, x)
        if math.isfinite(h):
            last = [*last[-1:], (x, h)]
        new = math.nan
        if len(last) == 2:
            (x0, h0), (x1, h1) = last
            new = x1 - h1 * (x1 - x0) / (h1 - h0) if h1 != h0 else -h1 * math.inf
            if abs(new - x1) <= tol:  # solve at the converged nu, then stop
                if lo < new < hi:
                    probe(new)
                break
        if lo < new < hi:
            x = new
        elif (new >= hi or hi - lo <= tol) and hi not in seen:
            x = hi  # beyond, or closed at, the untried upper edge
        elif (new <= lo or hi - lo <= tol) and lo not in seen:
            x = lo  # beyond, or closed at, the untried lower end
        elif hi - lo > tol:
            x = 0.5 * (lo + hi)
        else:
            break
    nu, (gamma, _) = min(seen.items(), key=lambda s: s[1][0])
    if not math.isfinite(gamma):
        raise UnreachableRateError("target rate unreachable at every shaping parameter")
    return nu, gamma


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


#: gamma -> (bits per channel use, d bits / d ln gamma, d bits / d nu at fixed gamma)
Curve = Callable[[float], tuple[float, float, float]]


@dataclass(frozen=True, slots=True)
class _Scheme:
    """One shaping scheme as the driver `_optimize` sees it.

    prior(nu) is the shaped prior at nu; curve(prior, nodes) and
    baseline(nodes) give the `Curve` of the shaped scheme and of its
    uniform baseline: gamma -> (bits per channel use, d bits / d ln
    gamma, d bits / d nu at fixed gamma), the last 0 for the baseline,
    whose prior does not move with nu.  The prior fills a fraction `share` of a use's symbols and
    uniform symbols the rest, which add `uniform_bits` per use; share
    H(prior) + uniform_bits, the entropy of a use, caps curve(prior, ...)
    at every gamma.  nu_max is the first upper edge of the nu search;
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
    nodes: int, search_nodes: int, nu: float | None,
) -> ShapingSolution:
    """Solve gamma_unif and gamma_A(nu*) of one scheme at R_t = R_c log2 p.

    `nu` forces the shaping parameter; otherwise nu* minimizes gamma_A
    at `search_nodes` and is re-solved at `nodes` when those differ.
    """
    coding_rate = Fraction(coding_rate)
    if not Fraction(1, 2) <= coding_rate <= 1:
        raise ValueError(
            f"coding rate {coding_rate} outside [1/2, 1]; systematic shaping "
            "needs at least half the symbols carrying shaped payload"
        )
    for n in (nodes, search_nodes):
        _rule(n, 1)  # rejects a bad node count before any solve; cached
    target = float(coding_rate) * math.log2(field.p)  # bits per real dimension
    solve_target = 2.0 * target if scheme.dimension == "complex" else target

    def at_ceiling(prior: MaxwellBoltzmann) -> bool:
        """Whether the entropy of a use under prior lies below the target
        or within RATE_RESIDUAL_TOL above it (see the module docstring)."""
        ceiling = scheme.share * prior.entropy_bits() + scheme.uniform_bits
        return ceiling <= solve_target + RATE_RESIDUAL_TOL

    if at_ceiling(scheme.prior(0.0)):  # nu = 0 has the largest entropy
        raise UnreachableRateError(
            f"target rate {target:.6f} is at or above the entropy ceiling"
        )
    gamma_cap = capacity_gamma(target, scheme.dimension)
    gamma_unif = snr_for_rate(scheme.baseline(nodes), solve_target, gamma_cap)

    def gamma_of_nu(nu_val: float, n: int, hint: float | None) -> tuple[float, float]:
        """(gamma_A, d ln gamma_A / d nu) at nu_val, solved from hint (by
        default gamma_unif, and at least gamma_cap); (inf, inf) where the
        target is unreachable."""
        prior = scheme.prior(nu_val)
        if at_ceiling(prior):
            return math.inf, math.inf  # unreachable at any gamma: skip the solve
        curve, seen = scheme.curve(prior, n), []
        try:
            gamma = snr_for_rate(
                lambda g: seen.append((math.log(g), *curve(g))) or seen[-1][1:],
                solve_target, gamma_unif if hint is None else max(hint, gamma_cap),
            )
        except UnreachableRateError:
            return math.inf, math.inf
        # gamma_A(nu) keeps rate = target: d ln gamma / d nu = -(d rate / d nu)
        # / (d rate / d ln gamma), both at the returned gamma, which the solve
        # may not have evaluated: they are extrapolated linearly in ln gamma
        # from its last two evaluations.  A flat curve met the target only
        # within RATE_RESIDUAL_TOL at its ceiling, which no finite gamma crosses.
        (t0, _, slope0, d_nu0), (t1, _, slope, d_nu) = seen[-2:] if len(seen) > 1 else seen * 2
        w = (math.log(gamma) - t1) / (t1 - t0) if t1 != t0 else 0.0
        slope, d_nu = slope + w * (slope - slope0), d_nu + w * (d_nu - d_nu0)
        return (gamma, -d_nu / slope) if slope > 0.0 else (math.inf, math.inf)

    if nu is not None:
        nu_star, (gamma_a, _) = nu, gamma_of_nu(nu, nodes, None)
        if not math.isfinite(gamma_a):
            raise UnreachableRateError(f"target rate unreachable at nu={nu}")
    else:
        nu_star, gamma_a = _minimize_nu(
            lambda v, hint: gamma_of_nu(v, search_nodes, hint), scheme.nu_max
        )
        if search_nodes != nodes:
            gamma_a, _ = gamma_of_nu(nu_star, nodes, gamma_a)
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


def _mb_derivative(prior: MaxwellBoltzmann) -> tuple[np.ndarray, float]:
    """d probs / d nu and d ln E / d nu of an MB prior, E its mean energy.

    probs ~ exp(-nu a^2) gives probs' = -probs (a^2 - E) and
    E' = sum probs' a^2 = -Var(a^2).
    """
    a2 = prior.amplitudes**2
    energy = float(np.dot(prior.probs, a2))
    d_probs = -prior.probs * (a2 - energy)
    return d_probs, float(np.dot(d_probs, a2)) / energy


def _curve(
    kernel: Callable, points: np.ndarray, probs: np.ndarray, cond: np.ndarray,
    weights: np.ndarray, energy: float, n: int, d_weights: np.ndarray, d_log_energy: float,
) -> Curve:
    """MI of points with probs at gamma = energy / (2 sigma^2), its slope
    and its derivative in nu at fixed gamma, from `kernel` conditioned on
    cond with weights.

    d_weights and d_log_energy are d weights / d nu and d ln energy / d nu
    (0 for a prior that does not move with nu).  The weights move the rate
    through the kernel's divergences, and the energy moves the noise at
    fixed gamma, which costs the slope times d ln energy / d nu.
    """

    def curve(gamma: float) -> tuple[float, float, float]:
        bits, slope, div = kernel(
            points, probs, math.sqrt(energy / (2.0 * gamma)), n,
            condition_on=cond, condition_weights=weights,
        )
        return bits, slope, float(np.dot(d_weights, div)) - slope * d_log_energy

    return curve


def _real_curve(
    points: np.ndarray, probs: np.ndarray, energy: float, n: int,
    d_probs: np.ndarray | None = None, d_log_energy: float = 0.0,
) -> Curve:
    """The `_curve` of p-ASK on the real channel; d_probs is d probs / d nu.

    The prior gives symbols s and -s the same mass on mirrored points,
    so the MI is conditioned on the points x >= 0, each x > 0 with twice
    its prior (the mirror reduction of `mi_real_points`); the folded
    weights move by twice d_probs.  Raises ValueError when points or
    prior are not mirror-symmetric.
    """
    mirror = -np.arange(len(points)) % len(points)
    if not (
        np.array_equal(points[mirror], -points) and np.array_equal(probs[mirror], probs)
    ):
        raise ValueError("the p-ASK points and prior must be mirror-symmetric")
    half = points >= 0.0
    cond = points[half]
    fold = np.where(cond > 0.0, 2.0, 1.0)
    d_weights = fold * (0.0 if d_probs is None else d_probs[half])
    return _curve(
        mi_real_points, points, probs, cond, fold * probs[half], energy, n,
        d_weights, d_log_energy,
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
        (d_probs, d_log_sh), d_log_un = _mb_derivative(prior), 0.0
        if convention == "time-averaged":
            e_avg = share * e_sh + (1.0 - share) * e_unif
            # one energy for both terms; only the shaped share's moves with nu
            d_log_sh = d_log_un = share * e_sh * d_log_sh / e_avg
            e_sh = e_un = e_avg
        shaped = _real_curve(pts, prior.probs, e_sh, n, d_probs, d_log_sh)
        if share == 1.0:
            return shaped
        uniform = _real_curve(pts, unif, e_un, n, None, d_log_un)
        # the mix carries rate, slope and nu derivative by linearity
        return lambda g: tuple(
            share * a + (1.0 - share) * b for a, b in zip(shaped(g), uniform(g))
        )

    return _Scheme(
        name, lambda nu: mb_ask_prior(field, nu), curve,
        lambda n: _real_curve(pts, unif, e_unif, n), share,
        (1.0 - share) * math.log2(p), 2.0 / field.half, "real", convention,
    )


def _cqam_scheme(field: Prime, params: CqamParams) -> _Scheme:
    """p^2-CQAM with MB(nu) shell priors, each shell's phases uniform.

    The shaped curves run on the geometry of `params` (stretched when
    params.stretch is set), the uniform baseline on the unstretched
    construction.  Every curve conditions on one point per shell,
    weighted by the shell prior (`shell_conditioning`), whose weights
    move with nu as the MB shell prior does.
    """
    base = build_cqam(field, replace(params, stretch=None))
    geom = _stretched(base, params.stretch)
    radii = geom.shells.radii

    def curve(c: Constellation, n: int, d_probs: np.ndarray, d_log_energy: float) -> Curve:
        return _curve(
            mi_complex_points, c.points, c.priors, *shell_conditioning(c), c.mean_energy(),
            n, d_probs, d_log_energy,
        )

    return _Scheme(
        "cqam", lambda nu: MaxwellBoltzmann.from_amplitudes(nu, radii),
        lambda prior, n: curve(
            geom.with_priors(cqam_prior(prior, field)), n, *_mb_derivative(prior)
        ),
        lambda n: curve(base, n, np.zeros(field.p), 0.0), 1.0, math.log2(field.p),
        4.0 / float(radii[-1]) ** 2, "complex",
    )


def optimize_time_sharing(
    field: Prime,
    coding_rate: Fraction,
    *,
    convention: Convention = "time-averaged",
    nodes: int = DEFAULT_NODES,
    nu: float | None = None,
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
    return _optimize(
        _ask_scheme("time-sharing", field, float(Fraction(coding_rate)), convention),
        field, coding_rate, nodes=nodes, search_nodes=nodes, nu=nu,
    )


def optimize_shaped_ask(
    field: Prime,
    coding_rate: Fraction,
    *,
    nodes: int = DEFAULT_NODES,
    nu: float | None = None,
) -> ShapingSolution:
    """Fully MB-shaped p-ASK at rate R_t = R_c log2 p per real dimension.

    Two independent such dimensions form the square (p-ASK)^2 reference
    constellation; per-real-dimension figures equal the complex ones.
    """
    scheme = _ask_scheme("shaped-ask-squared", field, 1.0, None)
    return _optimize(scheme, field, coding_rate, nodes=nodes, search_nodes=nodes, nu=nu)


def optimize_cqam(
    field: Prime,
    coding_rate: Fraction,
    params: CqamParams | None = None,
    *,
    nodes: int = DEFAULT_NODES,
    search_nodes: int = DEFAULT_SEARCH_NODES,
    nu: float | None = None,
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
        nodes=nodes, search_nodes=search_nodes, nu=nu,
    )
