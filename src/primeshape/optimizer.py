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
  p-fold reduction that the tests hold to the full conditional sum of
  `mi_complex_naive` in `tests/oracles.py`.

One builder serves both ASK schemes, full shaping being time sharing
with every channel use shaped; both share the uniform p-ASK baseline.
The builder folds the alphabet's mirror symmetry once per scheme, and
under the "shaped" convention a time-sharing mix's uniform term is that
baseline's curve, so every solve of a row shares one.
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
the first nu from gamma_unif, and each rung of a quadrature ladder from
the rung below (see below).  It ends on a Newton step it does not
evaluate once that step is short and Newton's predicted error after it
is far below the tolerance.  That error needs the curvature
d slope / d ln gamma, which a solve takes from its last two evaluations;
each solve hands it to the next, which borrows it for its first, so a
solve from a hint close enough to the crossing costs one evaluation.
The nu search's solves pass it along, the baseline's starts that chain,
and a forced nu is solved cold.  Holding the rate at the target gives
the gradient d ln gamma_A / d nu = -(d rate / d nu) / (d rate / d ln
gamma) at the returned gamma, both derivatives extrapolated linearly in
log gamma from the solve's last two evaluations.  The nu search is a
safeguarded secant method on that gradient, from the bracket [0,
nu_max], that starts each solve from the nearest solved nu moved along
its gradient, to second order once two nu are solved, and doubles the
bracket while gamma_A still falls at its upper edge.  No curve
reaches the target at or below gamma_cap (each is at most the capacity,
and a time-averaged mix of two is at most the capacity of their mean
energy, by Jensen's inequality), so every hint is raised to gamma_cap.

Every solve and every nu search is one walk up a ladder of quadrature
rules.  A complex rate evaluation costs as its rule's size, which grows
as the square of the node count, so CQAM's ladder is min(nodes,
COLD_NODES), min(nodes, SEARCH_NODES), `nodes`, a rung dropped where it
equals the one below; a real call costs mostly its fixed overhead, so
the p-ASK ladder is `nodes` alone.  The search rung, on which nu* is
found, is min(nodes, SEARCH_NODES) for CQAM and `nodes` for p-ASK.

* A solve climbs its rungs: the first from its hint, each next from the
  gamma and curvature of the solve on the rung below, which then costs
  about one evaluation (nested iteration).  The baseline climbs the
  whole ladder from gamma_cap, and a forced nu from gamma_unif.
* The nu search runs a coarse secant search on each rung below the
  search rung, from gamma_unif on the first.  A coarse search only
  steers, and its gamma is never reported, so it solves no probe at its
  converged nu and none again.  It hands the next rung its upper edge
  and a seed: its optimum with a gamma hint there, and the secant slope
  of the gradient, on which the next rung takes its first step by
  Newton's method, borrowing the last coarse solve's curvature.  On the
  search rung the search converges under NU_REL_TOL, so nu* comes from
  that rung's gradients, and where the search rung lies below `nodes`,
  the optimum is refined at `nodes` from its search solve.  A ladder
  whose first rung is the search rung (p-ASK, or CQAM at `nodes` <=
  COLD_NODES) runs no coarse search and searches from the bracket
  [0, nu_max].

A nu probe's gamma and gradient only steer the search, so each probe is
solved to PROBE_LOG_GAMMA_TOL, 30 times looser than LOG_GAMMA_TOL: an
inexact inner solve (Dembo, Eisenstat and Steihaug, 1982).  Every solve
whose gamma is reported stays at LOG_GAMMA_TOL: the baseline gamma_unif,
the converged probe (or a steering probe that reads smallest, solved
again), a forced nu, and each refinement at `nodes`.  A rung below the
top is solved to the tolerance of the solve it serves, and every probe
of a coarse nu search to PROBE_LOG_GAMMA_TOL.

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

import functools
import math
import warnings
from dataclasses import dataclass
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
from .shaping import MaxwellBoltzmann, cqam_prior

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

#: Accuracy in log gamma of the nu probes that only steer the nu search,
#: every probe but the one it returns.  Such a probe's gamma and gradient
#: only choose the next nu, and an inexact inner solve steers an outer
#: iteration nearly as well as an exact one (Dembo, Eisenstat and
#: Steihaug, SIAM J. Numer. Anal., 1982): at 3e-7 every time-sharing and
#: CQAM table row moved by under 3.1e-12 dB and took 322 -> 292 real MI
#: calls over the 12-row table, while at 1e-6 the row searched from a
#: narrowed nu bracket moved by 1.6e-9 dB.
PROBE_LOG_GAMMA_TOL = 3e-7

#: Relative width, to the upper edge of its bracket, of the secant step (or
#: the bracket) on which the nu search stops.  The search solves at that
#: step's end, which lies far closer to nu*, since the secant converges
#: superlinearly: every table row moved by under 1e-11 dB at 2.5e-6.
NU_REL_TOL = 1e-4

#: Gauss-Hermite node count per real dimension of the CQAM search rung,
#: or `nodes` when that is smaller (see the module docstring).  A larger
#: `nodes` refines the baseline and the optimum there, each in one
#: evaluation from its SEARCH_NODES solve.  The coarser search moved the
#: 7^2 and 13^2 rows at R_c = 2/3 by under 1e-12 dB; converging at 32
#: nodes moved 7^2 at R_c = 3/4 by 1.05e-9 dB.  The p-ASK schemes search
#: at `nodes`: at 48 nodes the time-sharing row p = 7, R_c = 19/20 moved
#: by 6e-7 dB.
SEARCH_NODES = 48

#: Node count of the first rung of the CQAM ladder, or `nodes` when that
#: is smaller: the rung on which the baseline and a forced nu solve cold
#: and the nu search steers (nested iteration: Hackbusch, Multi-Grid
#: Methods and Applications, 1985).  The 2-D rule keeps 252 nodes at 16,
#: 1044 at 48 and 2164 at 96, and the 16-node gamma_unif lies 6.1e-6 dB
#: (1.4e-6 in ln gamma, inside PREDICTED_STEP_MAX) from the 48-node one on
#: 7^2, 3.0e-6 dB on 13^2; a direct 16 -> 96 step needed a second 96-node
#: call on 11 of the 16 rows below.  Over p in {5, 7, 11, 13} and R_c in
#: {2/3, 3/4, 5/6, 9/10} the baseline's rung took the 48-node calls from
#: 202 to 146 and the steering search from 146 to 76, every row keeping
#: two 96-node calls and moving by under 1e-10 dB.  The p-ASK schemes
#: have no ladder: a real call costs mostly its fixed overhead, so a rung
#: would add a call and save nothing.
COLD_NODES = 16

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
    *,
    curvature: float = math.nan,
    tol: float = LOG_GAMMA_TOL,
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
    untried, and bisects the bracket once both ends are known.

    It solves to `tol` in t, by default LOG_GAMMA_TOL; the limits below
    are stated at that default, and each scales with tol.  It stops on a
    Newton step inside the bracket that is at most LOG_GAMMA_TOL / 4, or
    that is predicted to land: at most PREDICTED_STEP_MAX long, with
    Newton's error after it, |f'' / (2 f')| step^2 (Dennis & Schnabel,
    1983, ch. 2), at most LOG_GAMMA_TOL / 4, f'' taken from the slopes
    of the last two evaluations.  At the first evaluation f'' is
    `curvature`, d slope / d ln gamma borrowed from a neighbouring solve;
    without it (nan) the first step is never predicted.  It returns that
    step's end without evaluating it.  It also stops on a bracket
    narrower than LOG_GAMMA_TOL.  A hint near the crossing, such as the
    gamma of a neighbouring solve, saves rate evaluations, and with that
    solve's curvature one evaluation can suffice; neither changes the
    result beyond the tolerance.

    Raises UnreachableRateError when the target exceeds the rate at
    GAMMA_MAX, ValueError for a target or a tol that is not positive and
    finite, a hint that is not positive or a target reached at
    GAMMA_MIN, and RuntimeError for a non-finite rate or when the
    converged rate misses the target by more than RATE_RESIDUAL_TOL bits
    (the curve jumps over it), the residual at a predicted stop being
    the Newton model's, 1/2 f'' step^2.
    """
    # NaN fails every comparison, so each check states what must hold
    if not 0.0 < target < math.inf:
        raise ValueError(f"target rate must be positive and finite, got {target}")
    if not 0.0 < tol < math.inf:
        raise ValueError(f"SNR tolerance must be positive and finite, got {tol}")
    if hint is not None and not hint > 0.0:
        raise ValueError(f"SNR hint must be positive, got {hint}")
    scale = tol / LOG_GAMMA_TOL  # of every limit stated at LOG_GAMMA_TOL
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
        # from the slopes of this evaluation and the previous one, or the
        # borrowed curvature at the first
        if last is None:
            curv = curvature
        else:
            curv = (slope - last[1]) / (t - last[0]) if t != last[0] else math.nan
        last, f_next = (t, slope), 0.5 * curv * step * step
        predicted = (
            abs(step) <= PREDICTED_STEP_MAX * scale
            and abs(f_next) <= 0.25 * tol * slope  # Newton's error in t
        )
        if (abs(step) <= 0.25 * tol or predicted) and lo < t + step < hi:
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
        elif hi - lo < tol:
            t, f = (lo, f_lo) if -f_lo < f_hi else (hi, f_hi)
            break
        else:
            t = 0.5 * (lo + hi)
    if abs(f) > RATE_RESIDUAL_TOL * scale:
        raise RuntimeError(
            f"SNR solve did not converge: rate misses the target by "
            f"{abs(f):.3g} bits at gamma = {math.exp(t):.6g}"
        )
    return math.exp(t)


#: (nu, gamma_A, slope of h in nu): where a coarse nu search hands over
#: to a finer one (see `_minimize_nu`)
Seed = tuple[float, float, float]


def _minimize_nu(
    f: Callable[[float, float | None, float], tuple[float, float]], nu_max: float,
    seed: Seed | None = None, *, coarse: bool = False,
) -> tuple[float, float] | tuple[float, Seed]:
    """Minimize gamma_A over nu >= 0 by a safeguarded secant method on
    h(nu) = d ln gamma_A / d nu, from the bracket [0, nu_max].

    f(nu, hint, tol) solves gamma_A at nu from the SNR hint (None while no
    nu is solved) to tol in log gamma, and returns (gamma_A, h); gamma_A
    is inf where the target is unreachable, and such a nu counts as h > 0.
    The search keeps a sign bracket, h < 0 at lo and h >= 0 at hi, an
    untried end counting as such.  It starts at nu_max / 2 and steps to
    the secant root of h through the last two feasible nu.  A secant root
    beyond an untried end evaluates that end; any other outside the
    bracket, or a missing one, bisects it.  Each solve starts from the
    nearest solved nu: gamma_near exp(h_near d + c d^2 / 2), d = nu -
    nu_near, where c is h's secant slope through the two nearest feasible
    nu, or 0 while only one is solved.  Once a secant step is at most
    NU_REL_TOL times the upper edge, the search solves at its end and
    stops; it also stops on a bracket narrower than that, once both its
    ends are solved (nu = 0 alone may reach a target that no nu > 0
    does).  An upper edge with h < 0 holds no minimum: the edge doubles,
    up to six times, and the nu tolerance with it.
    The probes that steer the search are solved to PROBE_LOG_GAMMA_TOL;
    the converged one, and any probe inside a bracket already narrower
    than the nu tolerance, to LOG_GAMMA_TOL.  Returns the solved (nu,
    gamma_A) with the smallest gamma_A, which is always a solve to
    LOG_GAMMA_TOL: a steering probe that reads smallest is solved again.

    A `seed` (nu_0, gamma_0, c) starts the search at nu_0 instead, solved
    from gamma_0 while no nu is solved, and steps from one feasible nu by
    Newton's method on the slope c, to its secant once two are solved.
    A `coarse` search only steers a finer one: it solves every probe to
    PROBE_LOG_GAMMA_TOL, none at its converged nu and none again, and
    returns its last upper edge and the seed at its converged secant root,
    or at its smallest gamma_A where that root lies outside the bracket,
    with gamma_0 extrapolated from the nearest probe as a hint is, and c
    h's secant slope through its last two feasible nu (nan without two).
    """
    seen: dict[float, tuple[float, float, float]] = {}  # nu -> (gamma_A, h, tol)

    def hint_at(nu: float) -> float | None:
        feasible = sorted(
            ((v, g, h) for v, (g, h, _) in seen.items() if math.isfinite(h)),
            key=lambda s: abs(s[0] - nu),
        )
        if not feasible:
            return None if seed is None else seed[1]
        (v, g, h), step = feasible[0], nu - feasible[0][0]
        log_hint = math.log(g) + h * step
        if len(feasible) > 1:  # h's secant slope through the two nearest
            v2, _, h2 = feasible[1]
            log_hint += 0.5 * (h - h2) / (v - v2) * step * step
        return math.exp(min(max(log_hint, math.log(GAMMA_MIN)), math.log(GAMMA_MAX)))

    def probe(nu: float, tol: float) -> float:
        gamma, h = f(nu, hint_at(nu), tol)
        seen[nu] = (gamma, h, tol) if math.isfinite(gamma) else (math.inf, math.inf, tol)
        return seen[nu][1]

    lo, hi, edge = 0.0, nu_max, nu_max  # edge: the upper one, which only a widening moves
    slope = math.nan if seed is None else seed[2]  # of h: the secant's once it has one
    # the last two feasible (nu, h)
    x, last, closed = 0.5 * nu_max if seed is None else seed[0], [], False
    while True:
        h = probe(x, LOG_GAMMA_TOL if closed and not coarse else PROBE_LOG_GAMMA_TOL)
        if h < 0.0 and x == hi:  # gamma_A still falls at the upper edge
            if hi >= 64.0 * nu_max:  # six exact doublings did not contain it
                raise RuntimeError("nu bracket widening failed to contain the optimum")
            warnings.warn(
                f"shaping optimum at the nu grid edge ({hi:.4g}); "
                f"widening the bracket to {2 * hi:.4g}",
                stacklevel=4,
            )
            hi = edge = 2.0 * hi
        lo, hi = (x, hi) if h < 0.0 else (lo, x)
        if math.isfinite(h):
            last = [*last[-1:], (x, h)]
        new = math.nan
        if len(last) == 2:
            (x0, h0), (x1, h1) = last
            new = x1 - h1 * (x1 - x0) / (h1 - h0) if h1 != h0 else -h1 * math.inf
            slope = (h1 - h0) / (x1 - x0)
        elif last:  # a Newton step on the seed's slope; none without a seed
            ((x1, h1),) = last
            new = x1 - h1 / slope if slope != 0.0 else -h1 * math.inf
        # solve at the converged nu, then stop
        if last and abs(new - x1) <= NU_REL_TOL * edge:
            if lo < new < hi and not coarse:
                probe(new, LOG_GAMMA_TOL)
            break
        closed = hi - lo <= NU_REL_TOL * edge
        if lo < new < hi:
            x = new
        elif (new >= hi or closed) and hi not in seen:
            x = hi  # beyond, or closed at, the untried upper edge
        elif (new <= lo or closed) and lo not in seen:
            x = lo  # beyond, or closed at, the untried lower end
        elif not closed:
            x = 0.5 * (lo + hi)
        else:
            break
    while True:
        nu, (gamma, _, solved_to) = min(seen.items(), key=lambda s: s[1][0])
        if not math.isfinite(gamma):
            raise UnreachableRateError("target rate unreachable at every shaping parameter")
        if coarse:
            nu = new if lo < new < hi else nu
            return edge, (nu, hint_at(nu), slope)
        if solved_to == LOG_GAMMA_TOL:
            return nu, gamma
        probe(nu, LOG_GAMMA_TOL)  # a steering probe came out best


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
    nodes: int, nu: float | None,
) -> ShapingSolution:
    """Solve gamma_unif and gamma_A(nu*) of one scheme at R_t = R_c log2 p.

    `nu` forces the shaping parameter; otherwise nu* minimizes gamma_A.
    Each is one walk up the scheme's quadrature ladder (see the module
    docstring): gamma_unif and a forced nu climb all of it; the nu search
    steers on each rung below its search rung, each seeding the next,
    converges on the search rung and refines gamma_A(nu*) at `nodes`
    where that rung lies below.
    """
    coding_rate = Fraction(coding_rate)
    if not Fraction(1, 2) <= coding_rate <= 1:
        raise ValueError(
            f"coding rate {coding_rate} outside [1/2, 1]; systematic shaping "
            "needs at least half the symbols carrying shaped payload"
        )
    _rule(nodes, 1)  # rejects a bad node count before any solve; cached
    search_nodes = min(nodes, SEARCH_NODES) if scheme.dimension == "complex" else nodes
    # the quadrature ladder (see the module docstring)
    ladder = [nodes]
    if scheme.dimension == "complex":
        ladder = sorted({min(nodes, COLD_NODES), search_nodes, nodes})
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

    def climb(
        curve: Callable[[int], Curve], rungs: list[int], hint: float, curvature: float,
        tol: float = LOG_GAMMA_TOL,
    ) -> tuple[float, float, float, float]:
        """Solve curve(n)(gamma) = target to tol in log gamma at each node
        count n of rungs in turn (`snr_for_rate`), the first from hint and
        borrowing curvature, each next from the gamma and curvature of the
        one before.  Returns the last rung's gamma, the curvature d slope /
        d ln gamma of its last two evaluations for the next solve to borrow
        (the borrowed one after a single evaluation), and the slope and d
        rate / d nu at gamma, which the solve may not have evaluated: both
        are extrapolated linearly in ln gamma from those two."""
        for n in rungs:
            seen, rate = [], curve(n)
            hint = snr_for_rate(
                lambda g: seen.append((math.log(g), *rate(g))) or seen[-1][1:],
                solve_target, hint, curvature=curvature, tol=tol,
            )
            # the last two evaluations, or the only one twice
            (t0, _, slope0, d_nu0), (t1, _, slope, d_nu) = (seen * 2)[-2:]
            if t1 != t0:
                w = (math.log(hint) - t1) / (t1 - t0)
                curvature = (slope - slope0) / (t1 - t0)
                slope, d_nu = slope + w * (slope - slope0), d_nu + w * (d_nu - d_nu0)
        return hint, curvature, slope, d_nu

    gamma_unif, curvature, _, _ = climb(scheme.baseline, ladder, gamma_cap, math.nan)

    def gamma_of_nu(
        rungs: list[int], nu_val: float, hint: float | None, tol: float = LOG_GAMMA_TOL
    ) -> tuple[float, float]:
        """(gamma_A, d ln gamma_A / d nu) at nu_val, solved on each node
        count of rungs in turn (`climb`) to tol from hint, at least gamma_cap,
        or from gamma_unif without one, borrowing the last solve's curvature,
        which it then replaces; (inf, inf) where the target is unreachable."""
        nonlocal curvature
        prior = scheme.prior(nu_val)
        if at_ceiling(prior):
            return math.inf, math.inf  # unreachable at any gamma: skip the solve
        try:
            gamma, curvature, slope, d_nu = climb(
                lambda m: scheme.curve(prior, m), rungs,
                gamma_unif if hint is None else max(hint, gamma_cap), curvature, tol,
            )
        except UnreachableRateError:
            return math.inf, math.inf
        # gamma_A(nu) keeps rate = target: d ln gamma / d nu = -(d rate / d nu)
        # / (d rate / d ln gamma).  A flat curve met the target only within
        # RATE_RESIDUAL_TOL at its ceiling, which no finite gamma crosses.
        return (gamma, -d_nu / slope) if slope > 0.0 else (math.inf, math.inf)

    if nu is not None:
        curvature = math.nan  # no neighbouring solve: a cold start
        nu_star, (gamma_a, _) = nu, gamma_of_nu(ladder, nu, None)
        if not math.isfinite(gamma_a):
            raise UnreachableRateError(f"target rate unreachable at nu={nu}")
    else:
        # steer on each rung below the search rung, each handing the next
        # its (edge, seed), and converge on the search rung: (nu*, gamma_A)
        found = scheme.nu_max, None
        for n in ladder[: ladder.index(search_nodes) + 1]:
            f = functools.partial(gamma_of_nu, [n])
            found = _minimize_nu(f, *found, coarse=n < search_nodes)
        nu_star, gamma_a = found
        if search_nodes != nodes:
            gamma_a, _ = gamma_of_nu([nodes], nu_star, gamma_a)
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


def _mb_derivative(prior: MaxwellBoltzmann) -> tuple[float, np.ndarray, float]:
    """Mean energy E = sum probs a^2 of an MB prior, d probs / d nu and
    d ln E / d nu.

    probs ~ exp(-nu a^2) gives probs' = -probs (a^2 - E) and
    E' = sum probs' a^2 = -Var(a^2).
    """
    a2 = prior.amplitudes**2
    energy = float(np.dot(prior.probs, a2))
    d_probs = -prior.probs * (a2 - energy)
    return energy, d_probs, float(np.dot(d_probs, a2)) / energy


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


def _mirror_fold(points: np.ndarray, probs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The mirror reduction of `mi_real_points` for p-ASK on the real
    channel: the mask of the points x >= 0, on which the MI is
    conditioned, and the factor 2 of each x > 0 (1 at x = 0), by which a
    prior with equal mass on x and -x, and its derivative in nu, fold onto
    them.  Raises ValueError when points or probs are not mirror-symmetric.
    """
    mirror = -np.arange(len(points)) % len(points)
    if not (
        np.array_equal(points[mirror], -points) and np.array_equal(probs[mirror], probs)
    ):
        raise ValueError("the p-ASK points and prior must be mirror-symmetric")
    half = points >= 0.0
    return half, np.where(points[half] > 0.0, 2.0, 1.0)


def _ask_scheme(
    name: str, field: Prime, share: float, convention: Convention | None
) -> _Scheme:
    """p-ASK with MB(nu) symbols on a fraction `share` of channel uses.

    The other uses carry uniform symbols; `convention` sets how the two
    rate terms share energy at a common gamma (see module docstring).
    At share = 1 (full shaping) the uniform term is dropped, so a solve
    evaluates one MI per gamma, and both conventions give the shaped
    prior its own energy.

    The curves are mirror-folded (`_mirror_fold`).  The fold and the
    amplitudes |a| are found once per scheme: an MB prior is a function
    of |a|, so every prior the scheme builds keeps the uniform prior's
    mirror symmetry.  Under "shaped" the uniform term is the baseline,
    and the two share one curve per node count.
    """
    p = field.p
    pts, unif = build_ask(field).points.real, np.full(p, 1.0 / p)
    half, fold = _mirror_fold(pts, unif)
    cond, amps = pts[half], np.abs(pts)
    e_unif = (p * p - 1.0) / 12.0

    def real_curve(
        probs: np.ndarray, energy: float, n: int, d_probs: np.ndarray, d_log_energy: float
    ) -> Curve:
        return _curve(
            mi_real_points, pts, probs, cond, fold * probs[half], energy, n,
            fold * d_probs[half], d_log_energy,
        )

    # one curve per node count: under "shaped" each solve's uniform term
    baseline = functools.cache(lambda n: real_curve(unif, e_unif, n, np.zeros(p), 0.0))

    def curve(prior: MaxwellBoltzmann, n: int) -> Curve:
        e_sh, d_probs, d_log_sh = _mb_derivative(prior)
        if convention == "time-averaged":
            e_avg = share * e_sh + (1.0 - share) * e_unif
            # one energy for both terms; only the shaped share's moves with nu
            d_log_sh = share * e_sh * d_log_sh / e_avg
            e_sh, uniform = e_avg, real_curve(unif, e_avg, n, np.zeros(p), d_log_sh)
        else:
            uniform = baseline(n)
        shaped = real_curve(prior.probs, e_sh, n, d_probs, d_log_sh)
        if share == 1.0:
            return shaped

        def mix(gamma: float) -> tuple[float, float, float]:
            # the mix carries rate, slope and nu derivative by linearity
            (a0, a1, a2), (b0, b1, b2) = shaped(gamma), uniform(gamma)
            u = 1.0 - share
            return share * a0 + u * b0, share * a1 + u * b1, share * a2 + u * b2

        return mix

    return _Scheme(
        name, lambda nu: MaxwellBoltzmann.from_amplitudes(nu, amps), curve, baseline,
        share, (1.0 - share) * math.log2(p), 2.0 / field.half, "real", convention,
    )


def _cqam_scheme(field: Prime, params: CqamParams) -> _Scheme:
    """p^2-CQAM with MB(nu) shell priors, each shell's phases uniform.

    The shaped curves run on the geometry of `params` (stretched when
    params.stretch is set), the uniform baseline on the unstretched
    construction.  Every curve conditions on one point per shell,
    weighted by the shell prior (`shell_conditioning`), whose weights
    move with nu as the MB shell prior does.
    """
    base = build_cqam(field)
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
            geom.with_priors(cqam_prior(prior, field)), n, *_mb_derivative(prior)[1:]
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
        field, coding_rate, nodes=nodes, nu=nu,
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
    return _optimize(scheme, field, coding_rate, nodes=nodes, nu=nu)


def optimize_cqam(
    field: Prime,
    coding_rate: Fraction,
    params: CqamParams | None = None,
    *,
    nodes: int = DEFAULT_NODES,
    nu: float | None = None,
) -> ShapingSolution:
    """Optimize MB shell shaping of a p^2-CQAM constellation.

    The working geometry follows `params` (stretched when params.stretch
    is set); the potential-gain baseline gamma_unif is always the
    unstretched construction under uniform priors, so the reported
    potential gain isolates what shaping plus stretching can recover.
    The solves and the nu search walk the ladder of quadrature rules
    min(nodes, COLD_NODES), min(nodes, SEARCH_NODES), `nodes` (see the
    module docstring), and the returned operating point is solved at
    `nodes`.
    """
    return _optimize(
        _cqam_scheme(field, params or CqamParams()), field, coding_rate, nodes=nodes, nu=nu
    )
