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

A call runs in two steps.  The prepare step builds what does not depend
on sigma: the points and conditioning points in real components, the
mask of positive conditioning weights, the log priors, the conditioning
points' transpose and the rule.  It also checks the inputs once: the
priors must be a distribution (`sumdist.check_pmf`), the points and
conditioning points finite and the weights nonnegative and finite.  The
step is memoized in a bounded LRU cache (_PREPARED_MAX states) keyed on
the contents of its inputs, the bytes of each array with the kind and
node count, so the calls along one rate curve, which differ in sigma
alone, prepare once.  The state is built from those bytes and is
read-only, so an array changed in place is a new key, never a stale
hit.  The evaluation then runs the same arithmetic on the same values
whether the state was cached or not, and the bits do not change.

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
and weights for a shell-structured constellation, and the optimizer's
CQAM curves condition on it.  `tests/oracles.py` holds `mi_complex_cqam`,
which applies it, and `mi_complex_naive`, which conditions on all p^2
points through the same kernel and so checks the p-fold reduction only;
the independent oracles for the kernel itself live in the tests too.
"""

from __future__ import annotations

import math
import threading
from functools import lru_cache
from typing import Literal, NamedTuple

import numpy as np

from .constellations import Constellation
from .field import is_int
from .sumdist import check_pmf

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

#: Prepared kernel states `_prepare` keeps, least recently used out first.
#: A time-sharing evaluation calls two curves, its shaped and its uniform
#: term, and the uniform term is every solve's; a few more keep a table's
#: alternating alphabets.
_PREPARED_MAX = 8

#: Per-thread scratch buffer for two blocks of the kernel's terms.  Kept
#: between calls, so a call allocates nothing of that size and its cost
#: does not depend on how earlier work left the allocator: glibc hands a
#: freed heap top above its trim threshold (128 KiB until a large block is
#: freed) back to the system, and the next call faults it back in.
_scratch = threading.local()


def _hermgauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    if not (is_int(nodes) and nodes >= 2):
        raise ValueError(f"need at least 2 quadrature nodes, as an integer count, got {nodes!r}")
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


@lru_cache(maxsize=16, typed=True)  # typed: 16.0 misses 16's entry and is refused
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


class _Kernel(NamedTuple):
    """The sigma-independent state of `_mi_points`: points (P, dim), their
    log priors (-inf at a zero prior), the conditioning points (C, dim)
    and weights with a positive weight, which of the given weights are
    positive (None when all are), the transposed conditioning points
    (dim, C, 1), rows per block, and the rule (nodes (K, dim), weights,
    |node|^2).  Read-only."""

    points: np.ndarray
    logp: np.ndarray
    cond: np.ndarray
    weights: np.ndarray
    keep: np.ndarray | None
    cond_t: np.ndarray
    rows: int
    t: np.ndarray
    w: np.ndarray
    t2: np.ndarray


def _contents(x: object, dtype: type) -> tuple[tuple[int, ...], bytes]:
    """An array argument as its shape and bytes in dtype: a memo key part."""
    a = np.asarray(x, dtype=dtype)
    return a.shape, a.tobytes()


@lru_cache(maxsize=_PREPARED_MAX, typed=True)  # typed, as `_rule` is
def _prepare(
    dim: int, nodes: int, points: tuple, priors: tuple, cond: tuple, weights: tuple
) -> _Kernel:
    """The `_Kernel` of points with priors, conditioned on cond with
    weights, each given by `_contents` (complex points when dim is 2), on
    the nodes-point rule.  Memoized on those contents, so a curve's calls
    share one state, and an array changed in place is a new key.

    Raises ValueError for mismatched lengths, priors that are not a
    distribution (`sumdist.check_pmf`), points or conditioning points
    that are not finite, and weights that are not nonnegative and finite.
    """
    def array(key: tuple) -> np.ndarray:
        if dim == 1:
            return np.frombuffer(key[1]).reshape(key[0])[:, None]
        return np.frombuffer(key[1], complex).view(float).reshape(-1, 2)

    points, cond = array(points), array(cond)
    priors, weights = (np.frombuffer(k[1]).reshape(k[0]) for k in (priors, weights))
    if len(points) != len(priors) or len(cond) != len(weights):
        raise ValueError("every point needs a prior, every conditioning point a weight")
    check_pmf(priors, "prior")
    if not (np.isfinite(points).all() and np.isfinite(cond).all()):
        raise ValueError("points and conditioning points must be finite")
    # NaN fails both comparisons; initial=0.0 lets an empty array pass
    if not (weights.min(initial=0.0) >= 0.0 and weights.max(initial=0.0) < math.inf):
        raise ValueError("conditioning weights must be nonnegative and finite")
    keep = weights > 0.0
    cond = cond[keep]
    logp = np.log(priors, out=np.full(len(priors), -np.inf), where=priors > 0.0)
    state = _Kernel(
        points, logp, cond, weights[keep], None if keep.all() else keep, cond.T[:, :, None],
        max(1, _BLOCK_TERMS // max(len(points), 1)), *_rule(nodes, dim),
    )
    for a in state[:6]:
        if a is not None:
            a.flags.writeable = False
    return state


def _mi_points(kernel: _Kernel, sigma: float) -> tuple[float, float, np.ndarray]:
    """I(X; Y) in bits of the kernel's points with their priors, in noise of
    deviation sigma per real component, averaged over its conditioning
    points with their weights.

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
    points, logp, cond, weights, keep, cond_t, rows, t, w, t2 = kernel
    dim = points.shape[1]
    y = (cond[:, None, :] + math.sqrt(2.0) * sigma * t).reshape(-1, dim)
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
    norm = math.pi ** (dim / 2)
    bits = float(np.dot(weights, div) / norm)
    err = mean.reshape(dim, len(cond), len(t)) - cond_t
    mmse = np.dot(weights, np.square(err, out=err).sum(axis=0) @ w) / norm
    if keep is None:
        divergences = div / norm
    else:
        divergences = np.zeros(len(keep))
        divergences[keep] = div / norm
    return bits, float(mmse / (2.0 * sigma**2 * _LN2)), divergences


def _prepared(
    dim: int,
    points: np.ndarray,
    priors: np.ndarray,
    nodes: int,
    condition_on: np.ndarray | None,
    condition_weights: np.ndarray | None,
) -> _Kernel:
    """The prepared kernel of a public call, points embedded in dim real
    components; by default every point is conditioned on with its prior."""
    if (condition_on is None) != (condition_weights is None):
        raise ValueError("condition_on and condition_weights go together")
    dtype = float if dim == 1 else complex
    points, priors = _contents(points, dtype), _contents(priors, float)
    if condition_on is None:
        return _prepare(dim, nodes, points, priors, points, priors)
    return _prepare(
        dim, nodes, points, priors,
        _contents(condition_on, dtype), _contents(condition_weights, float),
    )


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
    kernel = _prepared(1, points, priors, nodes, condition_on, condition_weights)
    return _mi_points(kernel, sigma)


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
    kernel = _prepared(2, points, priors, nodes, condition_on, condition_weights)
    return _mi_points(kernel, sigma)


def shell_conditioning(c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """The p-fold reduction of a shell-structured constellation with
    shell-uniform priors: one conditioning point per shell, and the shell
    priors as their weights (`condition_on`, `condition_weights`).
    `mi_complex_naive` in `tests/oracles.py` is its oracle."""
    if c.shells is None:
        raise ValueError("constellation has no shell structure")
    p = c.shells.num_shells
    grid = c.priors.reshape(p, p)
    if np.any(np.abs(grid - grid[:, :1]) > 1e-12):
        raise ValueError("priors are not uniform within shells")
    return c.points[np.arange(p) * p], grid.sum(axis=1)


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
