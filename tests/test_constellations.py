import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from primeshape import constellations
from primeshape.cli import REFERENCE_STRETCH
from primeshape.constellations import (
    Constellation,
    CqamParams,
    Stretch,
    build_ask,
    build_cqam,
    build_cqam_stretched,
    figure_of_merit,
    min_distance,
    shell_radii,
)
from primeshape.field import Prime

PRIMES = [5, 7, 11, 13]


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_param_validation():
    with pytest.raises(ValueError):
        Stretch(rho_max=1.0, beta=0.5)
    with pytest.raises(ValueError):
        Stretch(rho_max=4.0, beta=0.0)


def test_constellation_invariants():
    with pytest.raises(ValueError):
        Constellation(np.array([1.0 + 0j, 1.0j]), np.array([0.5, 0.5]))  # centroid
    with pytest.raises(ValueError):
        Constellation(np.array([1.0, -1.0]), np.array([0.6, 0.6]))  # bad priors


def test_build_cqam_applies_stretch_params():
    # build_cqam builds the geometry params describe, stretched or not;
    # build_cqam_stretched is the entry that insists on a stretch
    for p in (7, 13):
        params = CqamParams(stretch=REFERENCE_STRETCH[p])
        c = build_cqam(Prime(p), params)
        ref = build_cqam_stretched(Prime(p), params)
        npt.assert_array_equal(c.points, ref.points)
        npt.assert_array_equal(c.shells.radii, ref.shells.radii)
        npt.assert_array_equal(c.shells.phases, ref.shells.phases)
        # the stretch law on the unstretched packing's phase offsets
        law, phases = params.stretch, build_cqam(Prime(p)).shells.phases
        rho = 1.0 + (law.rho_max - 1.0) * (np.arange(p) / (p - 1)) ** law.beta
        angles = 2.0 * np.pi * np.arange(p) / p + phases[:, None]
        expected = (rho[:, None] * np.exp(1j * angles)).ravel()
        npt.assert_allclose(c.points, expected, atol=1e-13)
    with pytest.raises(ValueError, match="requires stretch"):
        build_cqam_stretched(Prime(5), CqamParams())


# ---------------------------------------------------------------------------
# ASK alphabet
# ---------------------------------------------------------------------------


def test_ask_points_in_symbol_order():
    c = build_ask(Prime(7))
    npt.assert_allclose(c.points.real, [0, 1, 2, 3, -3, -2, -1])
    npt.assert_allclose(c.points.imag, 0)
    npt.assert_allclose(c.priors, 1 / 7)
    assert min_distance(c) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# CQAM geometry invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("p", PRIMES)
def test_first_shell_is_unit_roots(p):
    c = build_cqam(Prime(p))
    expected = np.exp(2j * np.pi * np.arange(p) / p)
    npt.assert_allclose(c.points[:p], expected, atol=1e-12)
    assert c.shells.radii[0] == 1.0
    assert c.shells.phases[0] == 0.0


@pytest.mark.parametrize("p", PRIMES)
def test_minimum_distance_meets_target(p):
    c = build_cqam(Prime(p))
    target = 2.0 * math.sin(math.pi / p)
    assert min_distance(c) >= target - 1e-9


@pytest.mark.parametrize("p", PRIMES)
def test_radii_increase_and_stay_bounded(p):
    c = build_cqam(Prime(p))
    radii = c.shells.radii
    assert np.all(np.diff(radii) >= 0.0)
    assert radii[-1] < 1.0 + 2.0 * math.pi


@pytest.mark.parametrize("p", PRIMES)
def test_p_fold_circular_symmetry(p):
    c = build_cqam(Prime(p))
    rotated = c.points * np.exp(2j * np.pi / p)
    # rotation by 2 pi / p permutes each shell cyclically
    residual = 0.0
    for i in range(p):
        shell = c.points[i * p:(i + 1) * p]
        shell_rot = rotated[i * p:(i + 1) * p]
        residual = max(residual, np.abs(np.roll(shell, -1) - shell_rot).max())
    assert residual < 1e-9


@pytest.mark.parametrize("p", PRIMES)
def test_centroid_vanishes(p):
    c = build_cqam(Prime(p))
    assert abs(c.points.sum()) < 1e-9


def test_phase_offsets_within_sector():
    for p in PRIMES:
        c = build_cqam(Prime(p))
        assert np.all(np.abs(c.shells.phases) <= math.pi / p + 1e-12)


def test_construction_is_deterministic():
    a = build_cqam(Prime(7))
    b = build_cqam(Prime(7))
    npt.assert_array_equal(a.points, b.points)


def test_known_radii_p5():
    # regression pin for the greedy packing (values from this construction,
    # cross-validated by the distance invariants above)
    c = build_cqam(Prime(5))
    npt.assert_allclose(
        c.shells.radii,
        [1.0, 1.827091, 2.172637, 2.813243, 2.905210],
        atol=2e-6,
    )


def _pack_against_all_points(p: int, phase_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Greedy packing that recomputes every placed point's clearance per shell."""
    def shell(radius, phase):
        return radius * np.exp(1j * (2.0 * np.pi * np.arange(p) / p + phase))

    d2 = (2.0 * math.sin(math.pi / p)) ** 2
    radii, phases = [1.0], [0.0]
    placed = shell(1.0, 0.0)
    phi_grid = np.linspace(math.pi / p, -math.pi / p, phase_steps)
    for _ in range(1, p):
        r, theta = np.abs(placed), np.angle(placed)
        a = r[None, :] * np.cos(phi_grid[:, None] - theta[None, :])
        disc = a * a - r[None, :] ** 2 + d2
        need = np.where(disc > 0.0, a + np.sqrt(np.maximum(disc, 0.0)), 0.0)
        rho_by_phi = np.maximum(need.max(axis=1), radii[-1])
        j = int(np.argmax(rho_by_phi <= rho_by_phi.min() + 1e-12))
        radii.append(rho_by_phi[j])
        phases.append(phi_grid[j])
        placed = np.concatenate([placed, shell(radii[-1], phases[-1])])
    return np.array(radii), np.array(phases)


@pytest.mark.parametrize("p", [3, *PRIMES])
@pytest.mark.parametrize("phase_steps", [7, 4096])
def test_packing_equals_all_points_oracle(monkeypatch, p, phase_steps):
    # the packing reads its grid size when it runs
    monkeypatch.setattr(constellations, "PHASE_STEPS", phase_steps)
    shells = build_cqam(Prime(p)).shells
    radii, phases = _pack_against_all_points(p, phase_steps)
    npt.assert_array_equal(shells.radii, radii)
    npt.assert_array_equal(shells.phases, phases)


# ---------------------------------------------------------------------------
# stretched CQAM
# ---------------------------------------------------------------------------


def test_stretch_endpoints_and_phases():
    params = CqamParams(stretch=Stretch(4.8, 0.76))
    base = build_cqam(Prime(7))
    stretched = build_cqam_stretched(Prime(7), params)
    radii = stretched.shells.radii
    assert radii[0] == pytest.approx(1.0)
    assert radii[-1] == pytest.approx(4.8)
    assert np.all(np.diff(radii) > 0.0)
    npt.assert_array_equal(stretched.shells.phases, base.shells.phases)


def test_stretch_follows_power_law():
    params = CqamParams(stretch=Stretch(6.0, 0.8))
    c = build_cqam_stretched(Prime(13), params)
    i = np.arange(13)
    expected = 1.0 + 5.0 * (i / 12.0) ** 0.8
    npt.assert_allclose(c.shells.radii, expected, rtol=1e-13)


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13, 31])
def test_shell_radii_equal_the_built_geometrys(p):
    field = Prime(p)
    for stretch in (None, REFERENCE_STRETCH.get(p, Stretch(6.0, 0.8)), Stretch(3.0, 0.9)):
        built = build_cqam(field, CqamParams(stretch=stretch)).shells.radii
        npt.assert_array_equal(shell_radii(field, stretch), built)


def test_stretched_centroid_and_symmetry():
    c = build_cqam_stretched(Prime(7), CqamParams(stretch=Stretch(4.8, 0.76)))
    assert abs(c.points.sum()) < 1e-9
    rotated = c.points * np.exp(2j * np.pi / 7)
    for i in range(7):
        shell = c.points[i * 7:(i + 1) * 7]
        assert np.abs(np.roll(shell, -1) - rotated[i * 7:(i + 1) * 7]).max() < 1e-9


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_figure_of_merit_unit_circle():
    # p points on the unit circle: E = 1, d = 2 sin(pi/p)
    p = 7
    pts = np.exp(2j * np.pi * np.arange(p) / p)
    c = Constellation(pts, np.full(p, 1 / p))
    expected = math.log2(p) * (2 * math.sin(math.pi / p)) ** 2
    dmin, merit = figure_of_merit(c)
    assert dmin == min_distance(c)
    npt.assert_allclose(merit, expected, rtol=1e-12)


def test_figure_of_merit_scale_invariant():
    c = build_cqam(Prime(5))
    scaled = Constellation(c.points * 3.7, c.priors, c.shells)
    npt.assert_allclose(figure_of_merit(scaled)[1], figure_of_merit(c)[1], rtol=1e-12)


def test_min_distance_needs_two_points():
    with pytest.raises(ValueError):
        min_distance(Constellation(np.array([0j]), np.array([1.0])))


def test_min_distance_memory_is_linear_in_points():
    # the full 961 x 961 pair-difference matrix peaked at 22 MB here
    c = build_cqam(Prime(31))
    tracemalloc.start()
    try:
        dmin = min_distance(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dmin == pytest.approx(2 * math.sin(math.pi / 31), rel=1e-12)
    assert peak < 100 * c.size * 16


def test_duplicate_points_rejected():
    pts = np.array([1.0 + 0j, 1.0 + 0j, -2.0 + 0j])
    c = Constellation(pts, np.full(3, 1 / 3))
    with pytest.raises(ValueError):
        min_distance(c)
    with pytest.raises(ValueError):
        figure_of_merit(c)
