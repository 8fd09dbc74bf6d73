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

One driver computes these for every scheme, described by its rate
curve at (nu, quadrature nodes), its uniform baseline's curve, the
default nu bracket and its channel (real, or complex with two real
dimensions per use).  Three schemes are provided:

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
  on the complex channel; the uniform baseline is the unstretched
  construction under uniform priors.

The uniform p-ASK baseline serves both ASK schemes.  The nu search is
golden-section on [0, nu_max] with automatic widening when the optimum
lands at the upper edge; gamma solves are bisections on log gamma till
|rate - target| < 1e-9 bits.

A target rate a scheme cannot reach raises `UnreachableRateError`, a
ValueError subclass; the nu search treats it as an infeasible nu and
`table` reports such a row as unreachable.  Every other ValueError is an
input error (a bad coding rate, node count or nu) and propagates.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import asdict, dataclass, replace
from fractions import Fraction
from typing import Callable, Iterable, Literal, Mapping

import numpy as np

from .awgn_mi import (
    DEFAULT_NODES,
    _rule,
    capacity_gamma,
    mi_complex_points,
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

#: Convergence tolerance of the rate bisection, in bits.
RATE_TOL = 1e-9

#: Relative width at which the golden-section nu search terminates.
NU_REL_TOL = 1e-4

#: Default Gauss-Hermite node count per real dimension of the CQAM nu search.
DEFAULT_SEARCH_NODES = 48

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

Convention = Literal["shaped", "time-averaged"]


def _db(x: float) -> float:
    return 10.0 * math.log10(x)


class UnreachableRateError(ValueError):
    """The target rate lies above what a scheme reaches at any SNR."""


def snr_for_rate(rate_fn: Callable[[float], float], target: float) -> float:
    """Invert a monotone rate curve: smallest gamma with rate >= target.

    Expands the bracket [1e-9, 4] geometrically, then bisects on log
    gamma until |rate - target| < RATE_TOL.  Raises UnreachableRateError
    when the target exceeds the curve's reachable range, ValueError for
    a nonpositive target and RuntimeError on non-convergence.
    """
    if target <= 0.0:
        raise ValueError("target rate must be positive")
    lo, hi = 1e-9, 4.0
    r_hi = rate_fn(hi)
    while r_hi < target:
        hi *= 8.0
        if hi > 1e15:
            raise UnreachableRateError(
                f"target rate {target:.6f} is unreachable for this scheme"
            )
        r_hi = rate_fn(hi)
    r_lo = rate_fn(lo)
    while r_lo > target:
        lo /= 64.0
        if lo < 1e-300:
            raise ValueError("target rate reached at arbitrarily small gamma")
        r_lo = rate_fn(lo)
    for _ in range(600):
        mid = math.sqrt(lo * hi)
        r = rate_fn(mid)
        if abs(r - target) < RATE_TOL:
            return mid
        if r < target:
            lo = mid
        else:
            hi = mid
    raise RuntimeError("SNR bisection did not converge to the rate tolerance")


def _golden_section(f: Callable[[float], float], hi: float) -> tuple[float, float]:
    """Golden-section minimum of a unimodal f on [0, hi]; ties move toward 0.

    f may return inf on infeasible regions (e.g. target rate unreachable
    at large nu); the tie rule then keeps the search in the feasible
    part of the bracket.  Stops at width NU_REL_TOL * hi.
    """
    a, b = 0.0, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > NU_REL_TOL * hi:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    if fc <= fd:
        return c, fc
    return d, fd


def _minimize_nu(f: Callable[[float], float], nu_max: float) -> tuple[float, float]:
    """Minimize gamma_A over nu in [0, nu_max], doubling the bracket up to
    six times when the optimum sits at the upper edge."""
    hi = nu_max
    while True:
        nu, val = _golden_section(f, hi)
        if not math.isfinite(val):
            raise UnreachableRateError(
                "target rate unreachable at every shaping parameter"
            )
        if nu < 0.98 * hi:
            return nu, val
        if hi >= 64.0 * nu_max:  # six exact doublings did not contain it
            raise RuntimeError("nu bracket widening failed to contain the optimum")
        warnings.warn(
            f"shaping optimum at the nu grid edge ({nu:.4g}); "
            f"widening the bracket to {2 * hi:.4g}",
            stacklevel=4,
        )
        hi *= 2.0


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


Curve = Callable[[float], float]  # gamma -> bits per channel use


@dataclass(frozen=True, slots=True)
class _Scheme:
    """One shaping scheme as the driver `_optimize` sees it.

    curve(nu, nodes) and baseline(nodes) give the rate gamma -> bits per
    channel use of the shaped scheme and of its uniform baseline; nu_max
    is the default upper edge of the nu search; dimension names the
    channel ("real" or "complex") a use of which the curves measure.
    """

    name: str
    curve: Callable[[float, int], Curve]
    baseline: Callable[[int], Curve]
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

    def gamma_of_nu(nu_val: float, n: int) -> float:
        try:
            return snr_for_rate(scheme.curve(nu_val, n), solve_target)
        except UnreachableRateError:
            return math.inf

    gamma_unif = snr_for_rate(scheme.baseline(nodes), solve_target)
    if nu is not None:
        nu_star, gamma_a = nu, gamma_of_nu(nu, nodes)
        if not math.isfinite(gamma_a):
            raise UnreachableRateError(f"target rate unreachable at nu={nu}")
    else:
        nu_star, gamma_a = _minimize_nu(
            lambda v: gamma_of_nu(v, search_nodes), nu_max
        )
        if search_nodes != nodes:
            gamma_a = gamma_of_nu(nu_star, nodes)
    gamma_cap = capacity_gamma(target, scheme.dimension)
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
    """Real-channel MI at gamma = energy / (2 sigma^2)."""
    return lambda gamma: mi_real_points(
        points, probs, math.sqrt(energy / (2.0 * gamma)), n
    )


def _cqam_curve(
    c: Constellation, probs: np.ndarray, shell_probs: np.ndarray, energy: float, n: int
) -> Curve:
    """Complex-channel MI of a shelled constellation at gamma = energy / (2 sigma^2).

    Each shell carries `shell_probs` split evenly over its phases, so the
    MI is conditioned on one point per shell.
    """
    reps = c.points[np.arange(c.shells.num_shells) * c.shells.num_shells]
    return lambda gamma: mi_complex_points(
        c.points, probs, math.sqrt(energy / (2.0 * gamma)), n,
        condition_on=reps, condition_weights=shell_probs,
    )


def _uniform_ask(field: Prime) -> tuple[np.ndarray, np.ndarray, float]:
    """p-ASK points, the uniform prior and its mean symbol energy."""
    p = field.p
    return build_ask(field).points.real, np.full(p, 1.0 / p), (p * p - 1.0) / 12.0


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
    rc = float(Fraction(coding_rate))
    pts, unif, e_unif = _uniform_ask(field)

    def curve(nu_val: float, n: int) -> Curve:
        prior = mb_ask_prior(field, nu_val)
        e_sh = ask_energy(prior)
        if convention == "shaped":
            e_un = e_unif
        else:
            e_sh = e_un = rc * e_sh + (1.0 - rc) * e_unif
        shaped = _real_curve(pts, prior.probs, e_sh, n)
        uniform = _real_curve(pts, unif, e_un, n)
        return lambda g: rc * shaped(g) + (1.0 - rc) * uniform(g)

    scheme = _Scheme(
        "time-sharing", curve, lambda n: _real_curve(pts, unif, e_unif, n),
        2.0 / field.half, "real", convention,
    )
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
    pts, unif, e_unif = _uniform_ask(field)

    def curve(nu_val: float, n: int) -> Curve:
        prior = mb_ask_prior(field, nu_val)
        return _real_curve(pts, prior.probs, ask_energy(prior), n)

    scheme = _Scheme(
        "shaped-ask-squared", curve, lambda n: _real_curve(pts, unif, e_unif, n),
        2.0 / field.half, "real",
    )
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
    params = params or CqamParams()
    base = build_cqam(field, replace(params, stretch=None))
    geom = _stretched(base, params.stretch) if params.stretch else base
    radii = geom.shells.radii

    def curve(nu_val: float, n: int) -> Curve:
        shell = MaxwellBoltzmann.from_amplitudes(nu_val, radii)
        energy = float(np.dot(shell.probs, radii**2))
        return _cqam_curve(geom, cqam_prior(shell, field), shell.probs, energy, n)

    def baseline(n: int) -> Curve:
        energy = float(np.mean(base.shells.radii**2))
        return _cqam_curve(base, base.priors, np.full(field.p, 1.0 / field.p), energy, n)

    scheme = _Scheme("cqam", curve, baseline, 4.0 / float(radii[-1]) ** 2, "complex")
    return _optimize(
        scheme, field, coding_rate,
        nodes=nodes, search_nodes=search_nodes, nu=nu, nu_max=nu_max,
    )


# ---------------------------------------------------------------------------
# table assembly
# ---------------------------------------------------------------------------

#: Leading report columns, in emission order.
TABLE_COLUMNS = (
    "p",
    "Rc",
    "target_rate",
    "potential_gain_db",
    "gap_db",
    "effective_gain_db",
    "nu_star",
    "gamma_A_db",
)

EXTRA_COLUMNS = ("scheme", "convention", "gamma_cap_db", "gamma_unif_db", "status")

_DB_FIELDS = {
    "potential_gain_db",
    "gap_db",
    "effective_gain_db",
    "gamma_A_db",
    "gamma_cap_db",
    "gamma_unif_db",
}


def solution_record(sol: ShapingSolution) -> dict:
    """Flatten a solution into the report-column dictionary."""
    rec = asdict(sol)
    rec["Rc"] = str(sol.coding_rate)
    del rec["coding_rate"]
    rec["status"] = "ok"
    return rec


def _format_cell(key: str, value: object) -> str:
    if value is None:
        return ""
    if key in _DB_FIELDS:
        return f"{value:.3f}"
    if key in ("nu_star", "target_rate"):
        return f"{value:.6f}"
    return str(value)


def emit_table(
    rows: Iterable[ShapingSolution | Mapping],
    fmt: str = "csv",
    provenance: Mapping | None = None,
) -> str:
    """Render rows as CSV (dB columns rounded to 3 decimals) or JSON.

    JSON keeps full precision; comparisons should always use unrounded
    values, rounding is applied at report time only.  Mapping rows pass
    through untouched except for column alignment, which lets callers
    interleave failure markers (e.g. unreachable-rate rows).
    """
    records = []
    for row in rows:
        records.append(
            solution_record(row) if isinstance(row, ShapingSolution) else dict(row)
        )
    columns = list(TABLE_COLUMNS) + [
        c for c in EXTRA_COLUMNS if any(c in r for r in records)
    ]
    if fmt == "json":
        import json

        doc: dict = {"columns": columns, "rows": records}
        if provenance is not None:
            doc = {"provenance": dict(provenance), **doc}
        return json.dumps(doc, indent=2) + "\n"
    if fmt != "csv":
        raise ValueError(f"unknown table format {fmt!r}")
    lines = []
    if provenance is not None:
        for key, value in provenance.items():
            lines.append(f"# {key}: {value}")
    lines.append(",".join(columns))
    for rec in records:
        lines.append(",".join(_format_cell(c, rec.get(c)) for c in columns))
    return "\n".join(lines) + "\n"
