"""Systematic shaping chains: distribution matcher + linear code + mapper.

A frame of n channel uses over a p^2-point circular constellation is
assembled from n/2 shell symbols and n/2 phase symbols, all in F_p:

* the n/2 shell symbols come from the distribution matcher and carry
  the shaped (Maxwell-Boltzmann) distribution;
* a systematic rate k/n code with generator [I | P] encodes the
  information vector [shell symbols | k - n/2 uniform source symbols];
  its n - k parity symbols, together with the source symbols, fill the
  n/2 phase slots;
* point index = shell_symbol * p + phase_symbol.

Because each parity symbol is a dense F_p-linear combination of many
information symbols, the parity (and hence phase) distribution is
driven to uniform even though the shell symbols are heavily shaped;
that is what makes the phase slots usable for uniform payload without
disturbing the shell shaping.  k >= n/2 (R_c >= 1/2) is required so the
shaped symbols all fit in the systematic part.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field as dataclass_field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .field import Prime, frozen_array, is_int, symbol_array
from .shaping import CompositionPlan, MaxwellBoltzmann, ccdm_encode

#: Default distribution-matcher block length of `generate_frames`.
DEFAULT_DM_BLOCK = 64


@dataclass(frozen=True, eq=False, slots=True)
class CodeSpec:
    """A systematic linear code over F_p with generator [I_k | P].

    parity is the k x (n - k) matrix P.  Codes with k < n - k cannot
    host a half-shaped frame and are rejected.
    """

    field: Prime
    n: int
    k: int
    parity: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        if not 0 < self.k < self.n:
            raise ValueError("need 0 < k < n")
        if 2 * self.k < self.n:
            raise ValueError(
                f"coding rate {Fraction(self.k, self.n)} below 1/2; "
                "shaped symbols would spill into the parity part"
            )
        # checked before the int64 copy, which would truncate a non-integer
        symbol_array(self.parity, self.field, "parity entries")
        parity = frozen_array(self, "parity", np.int64)
        if parity.shape != (self.k, self.n - self.k):
            raise ValueError(
                f"parity matrix must be {self.k} x {self.n - self.k}, "
                f"got {parity.shape}"
            )

    @classmethod
    def random_dense(
        cls,
        field: Prime,
        n: int,
        k: int,
        seed: int = 0,
    ) -> "CodeSpec":
        """Draw P uniformly over F_p^(k x (n-k)), resampling any column
        with fewer than ceil(k/2) nonzeros or, when k > n/2, with no
        nonzero on the source rows n/2 .. k-1.

        Dense columns are what pushes each parity symbol's distribution
        to uniform; see the module docstring.  A column that misses every
        uniform source symbol is a function of the shaped shell symbols
        alone, and no density makes its parity symbol uniform.
        """
        if not 0 < k < n:
            raise ValueError("need 0 < k < n")
        rng = np.random.default_rng(seed)
        parity = rng.integers(0, field.p, size=(k, n - k))
        for _ in range(1000):
            nonzero = parity != 0
            weak = nonzero.sum(axis=0) < -(-k // 2)
            if k > n // 2:
                weak |= ~nonzero[n // 2 :].any(axis=0)
            if not weak.any():
                return cls(field, n, k, parity)
            parity[:, weak] = rng.integers(0, field.p, size=(k, weak.sum()))
        raise RuntimeError("failed to draw dense parity columns")


def encode(code: CodeSpec, info: Sequence[int] | np.ndarray) -> np.ndarray:
    """Systematic encoding [info | info @ P mod p]; batch-friendly.

    info may be a length-k vector or an (m, k) matrix of symbols.
    """
    info = symbol_array(info, code.field, "information symbols")
    if not info.ndim or info.shape[-1] != code.k:
        raise ValueError(f"information block must have length {code.k}")
    parity = info.dot(code.parity)
    parity %= code.field.p
    return np.concatenate([info, parity], axis=-1)


def split_frames(
    code: CodeSpec, codewords: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Shell, parity, phase and point-index symbols of frame codewords.

    codewords is one codeword [shells | source | parity] or a
    (frames, n) array of them; the phases are [source | parity] and
    point index = shell * p + phase.  Each result keeps the leading axes.
    """
    half = code.n // 2
    shells, phases = codewords[..., :half], codewords[..., half:]
    return shells, codewords[..., code.k:], phases, shells * code.field.p + phases


def _frame_half(code: CodeSpec) -> int:
    """n/2, the shell (and phase) slots of a frame; refuses an odd n."""
    if code.n % 2:
        raise ValueError("frame mapping needs an even code length")
    return code.n // 2


def map_frame(
    code: CodeSpec,
    dm_out: Sequence[int],
    src: Sequence[int],
) -> np.ndarray:
    """Assemble one frame from matcher output and uniform source symbols.

    dm_out must hold n/2 shell symbols and src the k - n/2 source
    symbols.  Returns the frame's codeword [dm_out | src | parity] (see
    `split_frames`); distinct inputs yield distinct frames (the frame
    embeds both verbatim).
    """
    half = _frame_half(code)
    if len(dm_out) != half:
        raise ValueError(f"need {half} matcher symbols per frame, got {len(dm_out)}")
    if len(src) != code.k - half:
        raise ValueError(
            f"need {code.k - half} source symbols per frame, got {len(src)}"
        )
    return encode(code, np.concatenate([dm_out, src]))


def generate_frames(
    code: CodeSpec,
    shell_prior: MaxwellBoltzmann,
    num_frames: int,
    seed: int,
    dm_block: int = DEFAULT_DM_BLOCK,
) -> tuple[np.ndarray, CompositionPlan]:
    """Run the full chain: matcher blocks feed frames, source is uniform.

    The matcher block length dm_block is independent of the code length;
    shaped symbols are buffered across frame boundaries.  Returns the
    (num_frames, n) int64 codewords of the frames (see `split_frames`)
    and the composition plan actually used (its counts/N are the exact
    shell distribution of full blocks).
    """
    if not is_int(num_frames):
        raise ValueError(f"num_frames must be an integer, got {num_frames!r}")
    if num_frames < 1:
        raise ValueError("need at least one frame")
    half = _frame_half(code)
    p = code.field.p
    rng = np.random.default_rng(seed)
    plan = CompositionPlan.from_distribution(code.field, shell_prior.probs, dm_block)
    d = plan.input_length()
    need = num_frames * half

    shaped: list[int] = []
    while len(shaped) < need:
        shaped.extend(ccdm_encode(plan, rng.integers(0, p, size=d)))
    shells = np.array(shaped[:need], dtype=np.int64).reshape(num_frames, half)
    src_all = rng.integers(0, p, size=(num_frames, code.k - half))
    codewords = np.empty((num_frames, code.n), dtype=np.int64)
    for i in range(num_frames):
        codewords[i] = map_frame(code, shells[i], src_all[i])
    return codewords, plan


#: The standard normal distribution's 0.99 quantile.
_NORMAL_99PCT = 2.3263478740408408


def _gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) for a > 0 and x > a + 1.

    The continued fraction for Q by the modified Lentz method (Numerical
    Recipes, 3rd ed., sec. 6.2), summed to machine precision.  It
    converges fast only for x > a + 1, the domain _chi_square_99pct
    keeps to: its Newton iterates start above a + 1 and stay at or
    above the root.
    """
    eps = sys.float_info.epsilon
    front = math.exp(a * math.log(x) - x - math.lgamma(a))
    tiny = sys.float_info.min / eps
    b = x + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    i = 0
    while True:
        i += 1
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) <= eps:
            return front * h


def _chi_square_99pct(dof: int) -> float:
    """The 0.99 quantile of the chi-square law with dof >= 1 degrees of freedom.

    Newton's method on Q(dof / 2, x / 2) = 1 - 0.99 from the
    Wilson-Hilferty approximation; within 3e-14 relative of
    ``2 * scipy.special.gammaincinv(dof / 2, 0.99)`` for dof < 2000.
    """
    if dof < 1:
        raise ValueError(f"chi-square needs at least 1 degree of freedom, got {dof}")
    a, tail = dof / 2.0, 1.0 - 0.99
    h = 2.0 / (9.0 * dof)
    x = a * (1.0 - h + _NORMAL_99PCT * math.sqrt(h)) ** 3  # of the gamma(a) law
    for _ in range(50):
        density = math.exp((a - 1.0) * math.log(x) - x - math.lgamma(a))
        step = (_gamma_upper(a, x) - tail) / density
        x += step
        if abs(step) <= 4.0 * sys.float_info.epsilon * x:
            break
    return 2.0 * x


def empirical_distributions(
    codewords: np.ndarray,
    code: CodeSpec,
    plan: CompositionPlan,
) -> dict:
    """Measure the symbol statistics a chain actually produced.

    codewords and plan are the (frames, n) codewords, at least one frame,
    and the composition plan of `generate_frames`; ValueError refuses
    codewords of another shape or outside F_p.  Reports the parity PMF
    with its uniformity gap, the shell PMF against the target counts / N
    of the plan, and a chi-square statistic of the per-point counts
    against the product law target_shell x uniform-phase, with the 0.99
    quantile for reference.  The statistic and its degrees of freedom cover the
    points with a positive expected count; a point the frames use but
    the target excludes is rejected.

    The quantile assumes that the n/2 points of a frame are independent.
    Their phases, however, are linear in the frame's shell symbols and
    only k - n/2 source symbols, so when the shells carry little
    randomness (large nu) the points of a frame move together and the
    statistic is not chi-square distributed: a correct chain at
    ``pas -p 5 --nu 100 --frames 2000 --seed 1`` reads 26.3 against a
    quantile of 13.3.
    """
    if plan.field != code.field:
        raise ValueError(f"plan over F_{plan.field.p} does not fit a code over F_{code.field.p}")
    p = code.field.p
    codewords = symbol_array(codewords, code.field, "codewords")
    if codewords.shape[1:] != (code.n,) or not codewords.size:
        raise ValueError(f"codewords must be (frames, {code.n}), got shape {codewords.shape}")
    shells, parity, _, points = (a.ravel() for a in split_frames(code, codewords))

    parity_pmf = np.bincount(parity, minlength=p) / parity.size
    shell_pmf = np.bincount(shells, minlength=p) / shells.size
    target = np.array(plan.counts, dtype=float) / plan.block_length

    point_counts = np.bincount(points, minlength=p * p).astype(float)
    expected = np.repeat(target / p, p) * points.size
    used = expected > 0.0
    if np.any(point_counts[~used]):
        raise ValueError("frames use a point whose expected count is zero")
    stat = float(((point_counts[used] - expected[used]) ** 2 / expected[used]).sum())
    dof = int(used.sum()) - 1

    return {
        "num_frames": len(codewords),
        "num_parity_symbols": int(parity.size),
        "num_points": int(points.size),
        "parity": {
            "pmf": parity_pmf.tolist(),
            "uniformity_gap": float(np.abs(parity_pmf - 1.0 / p).max()),
        },
        "shells": {
            "pmf": shell_pmf.tolist(),
            "target": target.tolist(),
            "max_abs_dev": float(np.abs(shell_pmf - target).max()),
        },
        "points": {
            "chi_square": stat,
            "degrees_of_freedom": dof,
            "chi_square_99pct": _chi_square_99pct(dof),
        },
    }
