"""Independent oracles that the tests hold the library to.

Nothing under ``src/`` calls these; they live here so that the library
carries only what its commands run.

* `mi_real`, `mi_complex_cqam` and `mi_complex_naive` evaluate a
  `Constellation` at an operating point `ChannelSnr`.
* `shell_conditioning` gives the p-fold reduction of a shell-uniform
  prior: one point per shell, weighted by the shell's mass, on which
  `mi_complex_cqam` conditions, as the optimizer's CQAM curves do
  (`optimizer._orbit_curves`).  `mi_complex_naive` conditions on every
  point through the same kernel, so it checks that reduction.
* `sum_distribution_convolve` is the direct cyclic convolution that
  `sumdist.sum_distribution_dft` is checked against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

import numpy as np

from primeshape.awgn_mi import DEFAULT_NODES, mi_complex_points, mi_real_points
from primeshape.constellations import Constellation
from primeshape.sumdist import SymbolDistribution, _common_field


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


def shell_conditioning(c: Constellation) -> tuple[np.ndarray, np.ndarray]:
    """The p-fold reduction of a shell-structured constellation with
    shell-uniform priors: one conditioning point per shell, and the shell
    priors as their weights (`condition_on`, `condition_weights`).
    `mi_complex_naive` is its oracle."""
    if c.shells is None:
        raise ValueError("constellation has no shell structure")
    p = c.shells.num_shells
    grid = c.priors.reshape(p, p)
    if np.any(np.abs(grid - grid[:, :1]) > 1e-12):
        raise ValueError("priors are not uniform within shells")
    return c.points[np.arange(p) * p], grid.sum(axis=1)


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


def sum_distribution_convolve(
    factors: Iterable[SymbolDistribution],
) -> SymbolDistribution:
    """Reference implementation by direct cyclic convolution, O(m * p^2).

    Kept deliberately elementary (index arithmetic only) so it can serve
    as an independent oracle for sum_distribution_dft.
    """
    factors = list(factors)
    fld = _common_field(factors)
    p = fld.p
    acc = np.zeros(p)
    acc[0] = 1.0
    for f in factors:
        out = np.zeros(p)
        for a in range(p):
            if acc[a] == 0.0:
                continue
            for b in range(p):
                out[(a + b) % p] += acc[a] * f.probs[b]
        acc = out
    return SymbolDistribution(fld, acc)
