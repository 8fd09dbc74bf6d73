"""Mutual information of finite constellations on the AWGN channel.

All rates are in bits.  The SNR convention throughout is

    gamma = E_s / N_0,

where E_s is the prior-weighted mean symbol energy and N_0 the total
noise power: a real channel has noise variance sigma^2 = N_0 / 2, a
complex channel has circularly symmetric noise of variance N_0
(sigma^2 = N_0 / 2 per real component).  Under this convention the
capacities are (1/2) log2(1 + 2 gamma) per real dimension and
log2(1 + gamma) per complex dimension.

I(X; Y) is evaluated with Gauss-Hermite quadrature.  Substituting
y = x + sqrt(2) sigma t per real noise component turns the Gaussian
weight into the Hermite weight exp(-t^2) and the conditional density
ratio into a numerically benign log-sum-exp; 96 nodes per real
dimension put the quadrature error far below every tolerance used in
this package (doubling the node count moves results by < 1e-7 bits at
operating SNRs).

Real and complex alphabets share one kernel in real arithmetic: a
complex point is two real components, and the tensor-product rule
carries one factor per component.  The kernel builds its terms in
fixed-size blocks in a per-thread scratch buffer, laid out points-major
as (point, row): a block has thousands of rows and the alphabets here at
most 169 points, so a reduction over the points runs across whole rows
of the block, not along thousands of short ones.  Only the final sum is
taken from a (row, point) copy, which keeps scipy's summation order and
with it every bit of the result.
The rule in every dimension drops each node whose product weight is
below _WEIGHT_FLOOR = 1e-16 of the largest (Jaeckel, "A note on
multivariate Gauss-Hermite quadrature", 2005): at 96 nodes the 1-D rule
keeps 52 of its 96 nodes and the 2-D rule 2164 of its 9216, and the
dropped ones carry under 1e-16 of the weight mass.  Up to 24 nodes the
1-D rule keeps every node.

Both kernels can restrict the outer expectation to representative
points (`condition_on` with `condition_weights`), which is exact
whenever the prior and the geometry share a symmetry group acting
transitively on each orbit (the output statistic is invariant under
it).  Two reductions use this:

* p-fold: for shell-uniform priors on a p-fold rotationally symmetric
  constellation, conditioning on one point per shell reduces the
  complex integral from p^2 conditional terms to p.
* mirror: for a real prior with equal mass on x and -x, the conditional
  terms of x and -x are equal, since the Hermite rule is symmetric
  under t -> -t.  Conditioning on the points x >= 0, each x > 0 with
  twice its prior, halves the real integral's conditional terms.  The
  optimizer folds every p-ASK curve this way.  It does not carry over to
  CQAM, whose shells' phase offsets break the reflection.

Both kernels return, with the rate, its slope d I / d ln gamma at fixed
signal energy, which I-MMSE (Guo, Shamai and Verdu, 2005) gives as
mmse / (2 sigma^2) nats.  Each block forms the posterior mean E[X|y]
from the weights its log-sum-exp already holds, with one more product,
and the mmse is averaged over the same rule and conditioning points as
the rate, so both reductions carry over.  They also return each
conditioning point's divergence D(p(y|x) || p(y)), the integral the rate
averages; since d I / d P(x) is that divergence less log e (Blahut,
1972), it gives the rate's derivative along a change of the prior.  The
reductions carry over to it whenever the change keeps the prior uniform
on each orbit, as the Maxwell-Boltzmann family does.

`shell_conditioning` gives the p-fold reduction's conditioning points
and weights for a shell-structured constellation; `mi_complex_cqam`
applies it, and the optimizer's CQAM curves condition on it too.
`mi_complex_naive` conditions on all p^2 points through the same kernel
and is its oracle in the tests, so it checks the p-fold reduction only;
the independent oracles for the kernel itself live in the tests.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Literal

import numpy as np

from .constellations import Constellation

#: Default Gauss-Hermite node count per real dimension.
DEFAULT_NODES = 96

_LN2 = math.log(2.0)

#: Largest Gauss-Hermite node count: numpy's (2.4) weight recurrence
#: overflows from 372 nodes on.
_MAX_NODES = 371

#: Smallest tensor-rule weight, relative to the largest, that a rule keeps.
#: The dropped nodes carry under 1e-16 of the weight mass, so a float64 sum
#: loses nothing it could hold: MI moves by under 1e-14 bits, while a floor
#: of 1e-13 moves the 2-D rule's MI by up to 4e-12 bits.
_WEIGHT_FLOOR = 1e-16

#: Terms (points x rows) the kernel reduces per block, 256 KiB of float64.
#: On the pruned rule and the points-major layout, of 2^12 .. 2^17, 2^14
#: to 2^17 ran the stretched 7^2 CQAM row in 0.28 to 0.33 s and 2^15 and
#: 2^16 the 13^2 row fastest (1.88 and 1.82 s); 2^12 was slowest (0.46 s;
#: 4.31 s).  Alternated, 2^15 and 2^16 stayed within 3% on both rows.
_BLOCK_TERMS = 1 << 15

#: Per-thread scratch buffer for two blocks of the kernel's terms.  Kept
#: between calls, so a call allocates nothing of that size and its cost
#: does not depend on how earlier work left the allocator: glibc hands a
#: freed heap top above its trim threshold (128 KiB until a large block is
#: freed) back to the system, and the next call faults it back in.
_scratch = threading.local()


@dataclass(frozen=True, slots=True)
class ChannelSnr:
    """An operating point gamma = E_s / N_0 on a real or complex channel."""

    gamma: float
    dimension: Literal["real", "complex"]

    def __post_init__(self) -> None:
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        if self.dimension not in ("real", "complex"):
            raise ValueError("dimension must be 'real' or 'complex'")


def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    # hermgauss solves a nodes x nodes eigenproblem, so a count past the
    # overflow is refused before it is built; the finiteness check stays
    # for a numpy whose recurrence overflows earlier
    overflow = f"Hermite weights overflow at {nodes} nodes; use fewer"
    if nodes > _MAX_NODES:
        raise ValueError(overflow)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        t, w = np.polynomial.hermite.hermgauss(nodes)
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(w))):
        raise ValueError(overflow)
    return t, w


def _logsumexp_last(a: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """log sum exp over the first axis of a (points, rows) array whose
    columns have finite maxima, overwriting the first a.size floats of
    scratch and leaving a holding every weight exp(a - max), the maximal
    terms' 1.0 included.

    The arithmetic of ``scipy.special.logsumexp`` (scipy 1.17) over the
    last axis of a C-ordered a.T, step for step: the maximal terms are
    counted apart and the rest summed through log1p, so results agree to
    the last bit, without its full-size temporaries.  The maximum, the
    count of terms at it and the exponentials do not depend on the
    order of the terms, so they run points-major, each reduction across
    whole rows of a.  The sum does: numpy sums a contiguous last axis
    pairwise, and along any other axis in sequence.  It is therefore taken
    from a (rows, points) copy in scratch, over its last axis, as scipy's.
    """
    # initial: an empty alphabet gives empty columns, not an error
    a_max = a.max(axis=0, initial=-np.inf)
    at_max = a == a_max
    m = at_max.sum(axis=0, dtype=float)
    a[at_max] = -np.inf
    np.exp(np.subtract(a, a_max, out=a), out=a)
    terms = scratch[: a.size].reshape(a.shape[::-1])
    np.copyto(terms, a.T)
    a[at_max] = 1.0
    # scipy keeps s where s == 0; s / m is that same 0.0, since m >= 1
    s = terms.sum(axis=-1) / m
    return np.log1p(s) + np.log(m) + a_max


@lru_cache(maxsize=16)
def _rule(nodes: int, dim: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Tensor Gauss-Hermite rule in dim: nodes (K, dim), weights, |node|^2.

    Only the nodes whose product weight is at least _WEIGHT_FLOOR times
    the largest are kept: K = 52 of 96 and 36 of 48 in one dimension
    (every node up to 24), 2164 of 96^2 and 1044 of 48^2 in two.  Cached,
    and read-only since every call shares the arrays.
    """
    t, w = _hermgauss(nodes)
    idx = np.indices([nodes] * dim).reshape(dim, -1).T
    weights = w[idx].prod(axis=1)
    keep = weights >= _WEIGHT_FLOOR * weights.max()
    idx, weights = idx[keep], weights[keep]
    rule = t[idx], weights, np.square(t[idx]).sum(axis=1)
    for a in rule:
        a.flags.writeable = False
    return rule


def _mi_points(
    points: np.ndarray, priors: np.ndarray, cond: np.ndarray, weights: np.ndarray,
    sigma: float, nodes: int,
) -> tuple[float, float, np.ndarray]:
    """I(X; Y) in bits of points (P, dim) with priors, in noise of deviation
    sigma per real component, averaged over the conditioning points cond
    (C, dim) with the given weights.

    Returns (bits, d I / d ln gamma, divergences).  The slope, in bits at
    fixed signal energy, is by I-MMSE (Guo, Shamai and Verdu,
    IEEE Trans. IT, 2005) mmse / (2 sigma^2) nats, mmse = E |X - E[X|Y]|^2
    summed over the real components.  Each block forms the posterior mean
    E[X|y] from the weights exp(a - max) its log-sum-exp leaves behind,
    and mmse is averaged over the same rule and conditioning points as I.
    divergences[c] = D(p(y|cond[c]) || p(y)) in bits, the rule's integral
    that I averages with the weights, and 0.0 where a weight is 0.  Since
    d I / d P(x) = D(p(y|x) || p(y)) - log e (Blahut, IEEE Trans. IT,
    1972), they give the rate's derivative along any change of the prior
    that keeps its symmetry.
    """
    if not 0.0 < sigma < math.inf:
        raise ValueError("sigma must be positive and finite")
    if len(points) != len(priors) or len(cond) != len(weights):
        raise ValueError("every point needs a prior, every conditioning point a weight")
    dim = points.shape[1]
    t, w, t2 = _rule(nodes, dim)
    keep = weights > 0.0
    cond, weights = cond[keep], weights[keep]
    y = (cond[:, None, :] + math.sqrt(2.0) * sigma * t).reshape(-1, dim)
    logp = np.log(priors, out=np.full(len(priors), -np.inf), where=priors > 0.0)
    rows = max(1, _BLOCK_TERMS // max(len(points), 1))
    buf = getattr(_scratch, "buf", np.empty(0))
    if buf.size < 2 * rows * len(points):
        buf = _scratch.buf = np.empty(2 * max(_BLOCK_TERMS, len(points)))
    lse = np.empty(len(y))
    mean = np.empty((dim, len(y)))  # E[X|y] of every row, component-major
    for i in range(0, len(y), rows):
        yb = y[i : i + rows]
        # log q(y) up to the common Gaussian normalizer, which cancels in the
        # ratio: log p_j - |y - x_j|^2 / (2 sigma^2), built one real
        # component at a time in the scratch buffer
        a, b = buf[: 2 * len(yb) * len(points)].reshape(2, len(points), len(yb))
        np.square(np.subtract(yb[:, 0], points[:, :1], out=a), out=a)
        for d in range(1, dim):
            a += np.square(np.subtract(yb[:, d], points[:, d, None], out=b), out=b)
        np.subtract(logp[:, None], np.divide(a, 2.0 * sigma**2, out=a), out=a)
        lse[i : i + rows] = _logsumexp_last(a, b)
        np.divide(points.T @ a, a.sum(axis=0), out=mean[:, i : i + rows])
    integrand = (-t2 - lse.reshape(len(cond), len(t))) / _LN2
    div = integrand @ w
    bits = float(np.dot(weights, div) / math.pi ** (dim / 2))
    err = mean.reshape(dim, len(cond), len(t)) - cond.T[:, :, None]
    mmse = np.dot(weights, np.square(err, out=err).sum(axis=0) @ w) / math.pi ** (dim / 2)
    divergences = np.zeros(len(keep))
    divergences[keep] = div / math.pi ** (dim / 2)
    return bits, float(mmse / (2.0 * sigma**2 * _LN2)), divergences


def _linear(x: np.ndarray) -> np.ndarray:
    """Real values as an (n, 1) float array."""
    return np.asarray(x, dtype=float)[:, None]


def _planar(z: np.ndarray) -> np.ndarray:
    """Complex values as an (n, 2) float view of their real and imaginary parts."""
    return np.ascontiguousarray(z, dtype=complex).view(float).reshape(-1, 2)


def _kernel_args(
    points: np.ndarray,
    priors: np.ndarray,
    condition_on: np.ndarray | None,
    condition_weights: np.ndarray | None,
    embed: Callable[[np.ndarray], np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Points, priors, conditioning points and weights as `_mi_points` takes
    them, points embedded in real components; by default every point is
    conditioned on with its prior."""
    if (condition_on is None) != (condition_weights is None):
        raise ValueError("condition_on and condition_weights go together")
    priors = np.asarray(priors, dtype=float)
    if condition_on is None:
        condition_on, condition_weights = points, priors
    weights = np.asarray(condition_weights, dtype=float)
    return embed(points), priors, embed(condition_on), weights


def mi_real_points(
    points: np.ndarray,
    priors: np.ndarray,
    sigma: float,
    nodes: int = DEFAULT_NODES,
    condition_on: np.ndarray | None = None,
    condition_weights: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """I(X; Y) in bits for Y = X + N, N ~ Normal(0, sigma^2), X real finite,
    with its slope and divergences: (bits, d bits / d ln gamma, divergences).

    Parameters
    ----------
    points, priors : arrays of equal length; zero-prior points are allowed.
    sigma : noise standard deviation, positive and finite.
    nodes : Gauss-Hermite node count.
    condition_on, condition_weights : given together, they restrict the
        outer expectation to representative points, as in
        `mi_complex_points`.  For priors with equal mass on x and -x,
        the points x >= 0 with weights 2 * prior for x > 0 and prior at
        x = 0 give the MI of full conditioning from half its terms (the
        mirror reduction), equal up to rounding.

    Returns
    -------
    bits, slope, divergences : the MI; its slope at fixed signal energy
        from the I-MMSE relation; and each conditioning point's
        D(p(y|x) || p(y)) in bits (0.0 at a zero weight), which the
        weights average to the bits.
    """
    return _mi_points(
        *_kernel_args(points, priors, condition_on, condition_weights, _linear),
        sigma, nodes,
    )


def mi_complex_points(
    points: np.ndarray,
    priors: np.ndarray,
    sigma: float,
    nodes: int = DEFAULT_NODES,
    condition_on: np.ndarray | None = None,
    condition_weights: np.ndarray | None = None,
) -> tuple[float, float, np.ndarray]:
    """I(X; Y) in bits for a complex alphabet in circular noise, with its
    slope and divergences as `mi_real_points` returns them.

    sigma is the per-real-component deviation (noise power N_0 = 2 sigma^2).
    By default every positive-prior point contributes a conditional term;
    condition_on/condition_weights restrict the outer expectation to
    representative points (exact whenever the prior and geometry share a
    symmetry group acting transitively on each orbit).
    """
    return _mi_points(
        *_kernel_args(points, priors, condition_on, condition_weights, _planar),
        sigma, nodes,
    )


def shell_conditioning(c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """The p-fold reduction of a shell-structured constellation with
    shell-uniform priors: one conditioning point per shell, and the shell
    priors as their weights (`condition_on`, `condition_weights`)."""
    if c.shells is None:
        raise ValueError("constellation has no shell structure")
    p = c.shells.num_shells
    grid = c.priors.reshape(p, p)
    if np.any(np.abs(grid - grid[:, :1]) > 1e-12):
        raise ValueError("priors are not uniform within shells")
    return c.points[np.arange(p) * p], grid.sum(axis=1)


def _sigma(c: Constellation, snr: ChannelSnr, dimension: str, caller: str) -> float:
    """Noise deviation per real component that puts c at snr."""
    if snr.dimension != dimension:
        raise ValueError(f"{caller} needs a {dimension}-dimension SNR")
    energy = c.mean_energy()
    if energy <= 0.0:
        raise ValueError("zero-energy constellation has no SNR interpretation")
    return math.sqrt(energy / (2.0 * snr.gamma))


def mi_real(c: Constellation, snr: ChannelSnr, nodes: int = DEFAULT_NODES) -> float:
    """I(X; Y) of a real constellation at gamma = E_s / N_0."""
    sigma = _sigma(c, snr, "real", "mi_real")
    if np.abs(c.points.imag).max() > 0.0:
        raise ValueError("constellation is not real-valued")
    return mi_real_points(c.points.real, c.priors, sigma, nodes)[0]


def mi_complex_cqam(c: Constellation, snr: ChannelSnr, nodes: int = DEFAULT_NODES) -> float:
    """I(X; Y) of a shell-structured complex constellation, shell-uniform priors.

    Exploits the p-fold rotational symmetry: one conditional term per
    shell, weighted by the shell prior (`shell_conditioning`), as the
    optimizer's CQAM curves do; `mi_complex_naive` is its oracle.
    """
    sigma = _sigma(c, snr, "complex", "mi_complex_cqam")
    reps, shell_pri = shell_conditioning(c)
    return mi_complex_points(
        c.points, c.priors, sigma, nodes, condition_on=reps, condition_weights=shell_pri
    )[0]


def mi_complex_naive(
    c: Constellation, snr: ChannelSnr, nodes: int = DEFAULT_NODES
) -> float:
    """Cross-check oracle: full conditional sum over every point."""
    sigma = _sigma(c, snr, "complex", "mi_complex_naive")
    return mi_complex_points(c.points, c.priors, sigma, nodes)[0]


def capacity_gamma(rate: float, dimension: Literal["real", "complex"]) -> float:
    """Smallest gamma at which Gaussian signaling carries `rate`.

    `rate` is expressed in bits per real dimension in both cases (a
    complex channel then carries 2 * rate bits per complex use):
    real, gamma = (2^(2 rate) - 1) / 2; complex, gamma = 2^(2 rate) - 1.
    """
    if rate < 0.0:
        raise ValueError("rate must be nonnegative")
    if dimension == "real":
        return (2.0 ** (2.0 * rate) - 1.0) / 2.0
    if dimension == "complex":
        return 2.0 ** (2.0 * rate) - 1.0
    raise ValueError("dimension must be 'real' or 'complex'")
