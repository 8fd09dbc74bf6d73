"""ASK and circular QAM (CQAM) constellation construction.

A p^2-point CQAM constellation consists of p shells of p points each.
Shell 1 is the unit circle sampled at the p-th roots of unity.  Shell i
is placed at the smallest radius rho_i >= rho_{i-1} admitting a phase
offset phi_i in [-pi/p, pi/p] such that every new point keeps Euclidean
distance at least d = 2 sin(pi/p) from all previously placed points
(d is the intra-shell distance on the unit circle, so the first shell
meets it with equality).  The result is a greedy, deterministic packing
whose minimum distance is exactly d by construction.

Instead of scanning radii in small increments, the builder computes for
every candidate phase the exact break-even radius against each placed
point: for a placed point r*exp(j*theta) and a candidate angle psi, the
squared distance rho^2 - 2*rho*r*cos(psi - theta) + r^2 is nondecreasing
in rho for rho >= r, so the constraint dist >= d holds for all
rho >= a + sqrt(a^2 - r^2 + d^2) with a = r*cos(psi - theta) (and for
every rho when a^2 - r^2 + d^2 < 0).  Maximizing over placed points and
clamping at rho_{i-1} gives the minimal admissible radius per phase in
closed form; the shell takes the phase minimizing it.

An optional radial stretch remaps the shell radii to
rho_i = 1 + (rho_max - 1) * ((i-1)/(p-1))^beta while keeping the phase
offsets of the unstretched packing; it trades minimum distance for a
better energy profile under shaped (nonuniform) shell priors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np

from .field import Prime, ask_amplitudes, frozen_array
from .sumdist import check_pmf

#: Hard bound on the outermost shell radius; the greedy packing stays
#: well below it, so hitting the bound indicates a numerical defect.
RADIUS_BOUND = 1.0 + 2.0 * math.pi

#: Absolute tolerance used to detect centroid / prior defects.
GEOMETRY_TOL = 1e-9


@dataclass(frozen=True, slots=True)
class Stretch:
    """Radial stretch law: rho_i = 1 + (rho_max - 1) * ((i-1)/(p-1))^beta."""

    rho_max: float
    beta: float

    def __post_init__(self) -> None:
        if not 1.0 < self.rho_max < math.inf:
            raise ValueError("stretch rho_max must be finite and exceed 1")
        if not 0.0 < self.beta < math.inf:
            raise ValueError("stretch exponent beta must be positive and finite")

    def radii(self, p: int) -> np.ndarray:
        """The law's p shell radii rho_1 .. rho_p."""
        frac = np.arange(p) / (p - 1)
        return 1.0 + (self.rho_max - 1.0) * frac**self.beta


#: Size of the uniform phase grid on [-pi/p, pi/p] that the packing searches.
PHASE_STEPS = 4096


@dataclass(frozen=True, slots=True)
class CqamParams:
    """Construction parameters for build_cqam: stretch, when set,
    re-radiuses the packed shells."""

    stretch: Stretch | None = None


@dataclass(frozen=True, eq=False, slots=True)
class ShellStructure:
    """Shell radii and per-shell phase offsets of a circular constellation."""

    radii: np.ndarray = dataclass_field(repr=False)
    phases: np.ndarray = dataclass_field(repr=False)

    def __post_init__(self) -> None:
        radii = frozen_array(self, "radii", float)
        phases = frozen_array(self, "phases", float)
        if radii.ndim != 1 or radii.shape != phases.shape:
            raise ValueError("radii and phases must be 1-D with equal length")
        if np.any(np.diff(radii) < 0.0):
            raise ValueError("shell radii must be nondecreasing")

    @property
    def num_shells(self) -> int:
        return self.radii.shape[0]


@dataclass(frozen=True, eq=False, slots=True)
class Constellation:
    """A finite point set in the complex plane with point priors.

    The points must be finite and their centroid must vanish (zero-mean
    signaling); point index i*p + l addresses phase l of shell i when
    shell structure is present.
    """

    points: np.ndarray = dataclass_field(repr=False)
    priors: np.ndarray = dataclass_field(repr=False)
    shells: ShellStructure | None = None

    def __post_init__(self) -> None:
        points = frozen_array(self, "points", complex)
        priors = frozen_array(self, "priors", float)
        if points.ndim != 1 or points.shape != priors.shape:
            raise ValueError("points and priors must be 1-D with equal length")
        if points.shape[0] < 1:
            raise ValueError("constellation must be nonempty")
        if not np.all(np.isfinite(points)):
            raise ValueError("constellation points must be finite")
        check_pmf(priors, "prior")
        if not abs(points.sum()) <= GEOMETRY_TOL * max(1.0, np.abs(points).max()):
            raise ValueError("constellation centroid must be zero")
        if self.shells is not None:
            p = self.shells.num_shells
            if points.shape[0] != p * p:
                raise ValueError(
                    f"shell structure implies {p * p} points, got {points.shape[0]}"
                )

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def with_priors(self, priors: np.ndarray) -> "Constellation":
        """Same geometry under different point priors."""
        return Constellation(self.points, priors, self.shells)

    def mean_energy(self) -> float:
        """Prior-weighted mean symbol energy sum_i priors[i] |x_i|^2."""
        return float(np.dot(self.priors, np.abs(self.points) ** 2))


def build_ask(field: Prime) -> Constellation:
    """Zero-mean p-ASK alphabet {-(p-1)/2, ..., (p-1)/2} in symbol order."""
    pts = ask_amplitudes(field).astype(complex)
    return Constellation(pts, np.full(field.p, 1.0 / field.p))


def _shell_points(radius: float, phase: float, p: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(p) / p + phase
    return radius * np.exp(1j * angles)


def _pack_shells(field: Prime) -> tuple[np.ndarray, np.ndarray]:
    """Greedy shell placement; returns (radii, phases)."""
    p = field.p
    d2 = (2.0 * math.sin(math.pi / p)) ** 2
    radii = np.empty(p)
    phases = np.empty(p)
    radii[0], phases[0] = 1.0, 0.0

    # sweep phases from +pi/p down so argmin ties resolve to the largest
    phi_grid = np.linspace(math.pi / p, -math.pi / p, PHASE_STEPS)
    # need[k]: radius at which a point at phase phi_grid[k] clears every
    # placed point; placed points never move, so each shell is folded in once
    need = np.zeros_like(phi_grid)
    for i in range(1, p):
        last = _shell_points(radii[i - 1], phases[i - 1], p)
        r = np.abs(last)
        theta = np.angle(last)
        # by p-fold symmetry it suffices to place the l = 0 point of the
        # new shell against every previously placed point
        a = r[None, :] * np.cos(phi_grid[:, None] - theta[None, :])
        disc = a * a - r[None, :] ** 2 + d2
        clear = np.where(disc > 0.0, a + np.sqrt(np.maximum(disc, 0.0)), 0.0)
        need = np.maximum(need, clear.max(axis=1))
        rho_by_phi = np.maximum(need, radii[i - 1])
        best = rho_by_phi.min()
        j = int(np.argmax(rho_by_phi <= best + 1e-12))
        radii[i], phases[i] = rho_by_phi[j], phi_grid[j]
        if radii[i] >= RADIUS_BOUND:
            raise RuntimeError(
                f"shell {i + 1} radius {radii[i]:.6f} exceeded bound {RADIUS_BOUND:.6f}"
            )
    return radii, phases


def _assemble(radii: np.ndarray, phases: np.ndarray, p: int) -> Constellation:
    pts = np.concatenate(
        [_shell_points(radii[i], phases[i], p) for i in range(p)]
    )
    shells = ShellStructure(radii, phases)
    return Constellation(pts, np.full(p * p, 1.0 / (p * p)), shells)


def _cqam_params(params: CqamParams | None) -> CqamParams:
    """params, or the default CqamParams() for None; refuses anything else."""
    if not (params is None or isinstance(params, CqamParams)):
        raise TypeError(f"params must be a CqamParams or None, got {params!r}")
    return params or CqamParams()


def build_cqam(field: Prime, params: CqamParams | None = None) -> Constellation:
    """Construct the p^2-point CQAM constellation with uniform priors.

    Its shell radii follow params.stretch when that is set; the phase
    offsets are those of the unstretched packing either way.
    """
    params = _cqam_params(params)
    if field.p == 2:
        raise ValueError("CQAM construction requires an odd prime")
    radii, phases = _pack_shells(field)
    return _stretched(_assemble(radii, phases, field.p), params.stretch)


# an alias only because perfbench/workloads.py and the acceptance tests
# import this name; build_cqam is the one entry point
build_cqam_stretched = build_cqam


def _stretched(c: Constellation, stretch: Stretch | None) -> Constellation:
    """Re-radius a packed CQAM by the stretch law, keeping its phase offsets;
    c itself when `stretch` is None."""
    if stretch is None:
        return c
    p = c.shells.num_shells
    return _assemble(stretch.radii(p), c.shells.phases, p)


def shell_radii(field: Prime, stretch: Stretch | None) -> np.ndarray:
    """The shell radii of build_cqam(field, CqamParams(stretch)).

    A stretch sets them by its law alone, so only unstretched shells are
    packed.
    """
    if stretch is None or field.p == 2:  # build_cqam packs, or refuses p = 2
        return build_cqam(field).shells.radii
    return stretch.radii(field.p)


def min_distance(c: Constellation) -> float:
    """Minimum Euclidean distance over distinct point pairs."""
    if c.size < 2:
        raise ValueError("minimum distance needs at least 2 points")
    # 16 rows of the pair distances at a time: O(M) memory, not O(M^2).
    # Rows [a, b) run against the points from a + 1 on, each point's
    # distance to itself (row i, column i - a - 1) masked
    pts, dmin = c.points, math.inf
    for a in range(0, c.size - 1, 16):
        b = min(a + 16, c.size - 1)
        d = np.abs(pts[a:b, None] - pts[None, a + 1:])
        d[np.arange(1, b - a), np.arange(b - a - 1)] = np.inf
        dmin = min(dmin, float(d.min()))
    if dmin <= 1e-15 * max(1.0, float(np.abs(c.points).max())):
        raise ValueError("constellation contains duplicate points")
    return dmin


def figure_of_merit(c: Constellation) -> tuple[float, float]:
    """(d_min, packing merit log2(M) * d_min^2 / E), with E the unit-prior
    mean energy; d_min comes along so a caller measures it once.

    Uses the uniform-prior energy regardless of stored priors, so the
    merit reflects geometry alone.  Scale-invariant.
    """
    dmin = min_distance(c)
    energy = float(np.mean(np.abs(c.points) ** 2))
    return dmin, math.log2(c.size) * dmin**2 / energy
