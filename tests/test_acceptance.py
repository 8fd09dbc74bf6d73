"""Acceptance gate: one test per reference criterion, at stated tolerance.

Each test prints a single `ACCEPTANCE <name>: PASS/FAIL` line (visible
with `pytest -s`) and then asserts, so a failed criterion still reports
itself before failing the run.  Reference numbers are frozen here, not
imported from the library under test.
"""

import itertools
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from primeshape.constellations import (
    CqamParams,
    Stretch,
    build_ask,
    build_cqam,
    build_cqam_stretched,
    min_distance,
)
from primeshape.field import Prime
from primeshape.optimizer import optimize_cqam, optimize_time_sharing
from primeshape.pas import CodeSpec
from primeshape.shaping import (
    CompositionPlan,
    MaxwellBoltzmann,
    ccdm_decode,
    ccdm_encode,
    cqam_prior,
    mb_ask_prior,
)
from primeshape.sumdist import (
    SymbolDistribution,
    sum_distribution_dft,
    uniformity_gap,
)


def _report(name: str, failures: list[str], detail: str) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {name}: {status} — {detail}")
    for f in failures:
        print(f"  - {f}")
    assert not failures, f"{name}: {len(failures)} criterion check(s) failed"


# reference gains in dB, keyed by (p, coding rate): (potential, gap, effective)
REFERENCE_TIME_SHARING = {
    (7, Fraction(2, 3)): (0.817, 0.331, 0.485),
    (7, Fraction(3, 4)): (0.982, 0.428, 0.553),
    (7, Fraction(4, 5)): (1.105, 0.546, 0.559),
    (7, Fraction(17, 20)): (1.283, 0.753, 0.530),
    (7, Fraction(9, 10)): (1.588, 1.133, 0.455),
    (7, Fraction(19, 20)): (2.232, 1.916, 0.316),
    (13, Fraction(2, 3)): (0.997, 0.346, 0.651),
    (13, Fraction(3, 4)): (1.129, 0.376, 0.753),
    (13, Fraction(4, 5)): (1.214, 0.443, 0.771),
    (13, Fraction(17, 20)): (1.328, 0.593, 0.735),
    (13, Fraction(9, 10)): (1.549, 0.915, 0.633),
    (13, Fraction(19, 20)): (2.096, 1.658, 0.438),
}

# reference stretched constructions: (stretch, potential gain, gap) in dB
REFERENCE_CQAM = {
    7: (Stretch(4.8, 0.76), 0.744, 0.101),
    13: (Stretch(6.0, 0.80), 1.092, 0.088),
}


def test_time_sharing_gain_table():
    """All 12 (p, R_c) rows match the reference gains within +/- 0.05 dB
    under at least one of the two energy conventions, with the exact
    closed-form target rate and < 1 minute of work per row."""
    failures: list[str] = []
    matched_by: list[str] = []
    max_row_time = 0.0
    for (p, rc), (pot_ref, gap_ref, eff_ref) in REFERENCE_TIME_SHARING.items():
        t0 = time.perf_counter()
        matches = []
        for conv in ("shaped", "time-averaged"):
            sol = optimize_time_sharing(Prime(p), rc, convention=conv)
            if sol.target_rate != float(rc) * math.log2(p):
                failures.append(f"p={p} Rc={rc} {conv}: target rate not closed form")
            if (
                abs(sol.gap_db - gap_ref) <= 0.05
                and abs(sol.effective_gain_db - eff_ref) <= 0.05
            ):
                matches.append((conv, sol))
        elapsed = time.perf_counter() - t0
        max_row_time = max(max_row_time, elapsed)
        if elapsed > 60.0:
            failures.append(f"p={p} Rc={rc}: {elapsed:.1f}s exceeds 1 min/row")
        if not matches:
            failures.append(
                f"p={p} Rc={rc}: no convention within 0.05 dB of "
                f"gap {gap_ref}/eff {eff_ref}"
            )
            continue
        conv, sol = matches[0]
        matched_by.append(conv)
        print(
            f"  p={p:>2} Rc={str(rc):>5}: {conv} convention — "
            f"gap {sol.gap_db:.3f} (ref {gap_ref}), "
            f"eff {sol.effective_gain_db:.3f} (ref {eff_ref}), "
            f"pot {sol.potential_gain_db:.3f} (ref {pot_ref}), {elapsed:.1f}s"
        )
    counts = {c: matched_by.count(c) for c in sorted(set(matched_by))}
    _report(
        "time-sharing gain table",
        failures,
        f"{len(matched_by)}/12 rows within ±0.05 dB; matching convention: "
        f"{counts}; max row time {max_row_time:.1f}s",
    )


def test_cqam_gain_table():
    """Stretched p^2 constructions reach the reference gap within
    +/- 0.03 dB and potential gain within +/- 0.05 dB at R_c = 2/3."""
    failures: list[str] = []
    details = []
    for p, (stretch, pot_ref, gap_ref) in REFERENCE_CQAM.items():
        sol = optimize_cqam(
            Prime(p), Fraction(2, 3), CqamParams(stretch=stretch)
        )
        if abs(sol.gap_db - gap_ref) > 0.03:
            failures.append(
                f"p={p}: gap {sol.gap_db:.4f} vs reference {gap_ref} (> 0.03)"
            )
        if abs(sol.potential_gain_db - pot_ref) > 0.05:
            failures.append(
                f"p={p}: potential {sol.potential_gain_db:.4f} vs "
                f"reference {pot_ref} (> 0.05)"
            )
        details.append(
            f"{p}^2: gap {sol.gap_db:.3f} (ref {gap_ref}), "
            f"pot {sol.potential_gain_db:.3f} (ref {pot_ref})"
        )
    _report("circular constellation gain table", failures, "; ".join(details))


def test_cqam_geometry():
    """Unstretched constructions keep the inner shell at radius one, the
    design minimum distance, bounded outer radius, p-fold rotational
    symmetry, and a centered centroid."""
    failures: list[str] = []
    details = []
    for p in (5, 7, 11, 13):
        c = build_cqam(Prime(p))
        pts = c.points
        dmin = min_distance(c)
        d_design = 2.0 * math.sin(math.pi / p)
        if dmin < d_design - 1e-9:
            failures.append(f"p={p}: d_min {dmin!r} below design {d_design!r}")
        if float(c.shells.radii[0]) != 1.0:
            failures.append(f"p={p}: inner radius {c.shells.radii[0]!r} != 1")
        rho_out = float(c.shells.radii[-1])
        if not rho_out < 1.0 + 2.0 * math.pi:
            failures.append(f"p={p}: outer radius {rho_out!r} >= 1 + 2*pi")
        rotated = pts * np.exp(2j * np.pi / p)
        residual = np.abs(rotated[:, None] - pts[None, :]).min(axis=1).max()
        if residual >= 1e-9:
            failures.append(f"p={p}: rotation residual {residual:.2e}")
        centroid = abs(pts.mean())
        if centroid >= 1e-9:
            failures.append(f"p={p}: centroid magnitude {centroid:.2e}")
        details.append(f"p={p}: d_min/design {dmin / d_design:.6f}, "
                       f"rho_out {rho_out:.3f}")
    _report("circular constellation geometry", failures, "; ".join(details))


def test_sum_distribution_oracles():
    """Character-transform PMF of a mod-p sum agrees with the exhaustive
    convolution oracle to 1e-10 over 100 random cases per field, and the
    uniform-absorption and single-factor cases are exact."""
    from oracles import sum_distribution_convolve
    failures: list[str] = []
    rng = np.random.default_rng(20240817)
    worst = 0.0
    cases = 0
    for p in (3, 5, 7, 11, 13):
        field = Prime(p)
        for _ in range(100):
            m = int(rng.integers(1, 7))
            alpha = float(rng.choice([0.3, 1.0, 3.0]))
            factors = [
                SymbolDistribution(field, rng.dirichlet(np.full(p, alpha)))
                for _ in range(m)
            ]
            a = sum_distribution_dft(factors).probs
            b = sum_distribution_convolve(factors).probs
            diff = float(np.abs(a - b).max())
            worst = max(worst, diff)
            cases += 1
            if diff > 1e-10:
                failures.append(f"p={p}, m={m}: oracle disagreement {diff:.2e}")
    for p in (3, 7, 13):
        field = Prime(p)
        skewed = SymbolDistribution(field, rng.dirichlet(np.full(p, 0.5)))
        absorbed = sum_distribution_dft(
            [skewed, SymbolDistribution.uniform(field)]
        )
        if uniformity_gap(absorbed) > 1e-12:
            failures.append(f"p={p}: uniform factor not absorbed exactly")
        identity = sum_distribution_dft([skewed])
        if np.abs(identity.probs - skewed.probs).max() > 1e-12:
            failures.append(f"p={p}: single-factor sum is not the identity")
        if np.abs(
            sum_distribution_convolve([skewed]).probs - skewed.probs
        ).max() != 0.0:
            failures.append(f"p={p}: convolution single-factor not bit-exact")
    _report(
        "sum distribution oracles",
        failures,
        f"{cases} randomized cases, worst disagreement {worst:.2e} (tol 1e-10); "
        "uniform absorption and identity exact",
    )


def test_parity_uniformization():
    """A dense random parity check over F_7 applied to heavily shaped
    inputs produces near-uniform parity symbols (gap < 0.01 over 1e5
    samples), while a sparse two-term check leaves gap > 0.05."""
    failures: list[str] = []
    field = Prime(7)
    k, num = 50, 100_000
    q = mb_ask_prior(field, 0.3).probs
    rng = np.random.default_rng(99)
    samples = rng.choice(7, size=(num, k), p=q)

    code = CodeSpec.random_dense(field, k + 1, k, seed=2)
    col = code.parity[:, 0]
    dense_gap = float(
        np.abs(np.bincount(samples @ col % 7, minlength=7) / num - 1 / 7).max()
    )
    if dense_gap >= 0.01:
        failures.append(f"dense column (weight {(col != 0).sum()}): gap {dense_gap:.4f}")

    sparse_gap = float(
        np.abs(
            np.bincount((samples[:, 0] + samples[:, 1]) % 7, minlength=7) / num
            - 1 / 7
        ).max()
    )
    # exact value of the same two-term sum, as a cross-check on the sampling
    factor = SymbolDistribution(field, q)
    exact = uniformity_gap(sum_distribution_dft([factor, factor]))
    if sparse_gap <= 0.05:
        failures.append(f"sparse counterexample: gap {sparse_gap:.4f} <= 0.05")
    if abs(sparse_gap - exact) > 0.005:
        failures.append(
            f"sparse empirical gap {sparse_gap:.4f} far from exact {exact:.4f}"
        )
    _report(
        "parity uniformization",
        failures,
        f"dense k={k} gap {dense_gap:.4f} (< 0.01); sparse gap {sparse_gap:.4f} "
        f"(exact {exact:.4f}, > 0.05); {num} samples each",
    )


def test_mi_engine_properties():
    """Symmetry-reduced MI equals the naive per-point sum, MI is monotone
    in SNR, quadrature doubling is converged, and both asymptotes are
    approached."""
    from oracles import ChannelSnr, mi_complex_cqam, mi_complex_naive, mi_real
    failures: list[str] = []
    p5 = Prime(5)
    cqam = build_cqam(p5)
    shaped = cqam.with_priors(cqam_prior(mb_ask_prior(p5, 0.25), p5))

    reduced_err = 0.0
    for c in (cqam, shaped):
        for gamma in (0.1, 1.0, 10.0):
            snr = ChannelSnr(gamma, "complex")
            err = abs(mi_complex_cqam(c, snr) - mi_complex_naive(c, snr))
            reduced_err = max(reduced_err, err)
    if reduced_err > 1e-6:
        failures.append(f"reduced vs naive MI differs by {reduced_err:.2e}")

    ask = build_ask(Prime(7))
    mis = [mi_real(ask, ChannelSnr(g, "real")) for g in np.logspace(-2, 2, 15)]
    if not all(a < b for a, b in zip(mis, mis[1:])):
        failures.append("MI not strictly increasing in SNR on 1e-2..1e2")

    doubling = max(
        abs(
            mi_real(ask, ChannelSnr(5.0, "real"), nodes=96)
            - mi_real(ask, ChannelSnr(5.0, "real"), nodes=192)
        ),
        abs(
            mi_complex_cqam(shaped, ChannelSnr(5.0, "complex"), nodes=96)
            - mi_complex_cqam(shaped, ChannelSnr(5.0, "complex"), nodes=192)
        ),
    )
    if doubling > 1e-7:
        failures.append(f"quadrature doubling moves MI by {doubling:.2e}")

    low = mi_real(ask, ChannelSnr(1e-8, "real"))
    high = mi_real(ask, ChannelSnr(1e6, "real"))
    low_c = mi_complex_cqam(cqam, ChannelSnr(1e-8, "complex"))
    high_c = mi_complex_cqam(cqam, ChannelSnr(1e6, "complex"))
    if not (0.0 <= low < 1e-6 and 0.0 <= low_c < 1e-6):
        failures.append(f"low-SNR asymptote violated: {low:.2e}, {low_c:.2e}")
    if high < math.log2(7) - 1e-3 or high_c < math.log2(25) - 1e-3:
        failures.append(f"high-SNR asymptote violated: {high}, {high_c}")
    _report(
        "mutual information engine",
        failures,
        f"reduction error {reduced_err:.2e}; doubling shift {doubling:.2e}; "
        f"asymptotes [{low:.1e}, {high:.4f}/{math.log2(7):.4f}] and "
        f"[{low_c:.1e}, {high_c:.4f}/{math.log2(25):.4f}]",
    )


def test_matcher_round_trip():
    """The fixed-composition matcher inverts exactly: 1000 random inputs
    at p=7, N=64 round-trip, and the N=4, p=3, counts=(2,1,1) class is
    checked exhaustively (9 of its 12 sequences are encoder images; the
    rest are rejected as such)."""
    failures: list[str] = []
    field = Prime(7)
    plan = CompositionPlan.from_distribution(field, mb_ask_prior(field, 0.2).probs, 64)
    d = plan.input_length()
    rng = np.random.default_rng(7)
    ok = 0
    for _ in range(1000):
        u = rng.integers(0, 7, size=d).tolist()
        block = ccdm_encode(plan, u)
        counts = [block.count(s) for s in range(7)]
        if tuple(counts) != plan.counts:
            failures.append(f"block composition {counts} != {plan.counts}")
            break
        if ccdm_decode(plan, block) != u:
            failures.append(f"round trip failed for input {u}")
            break
        ok += 1

    tiny = CompositionPlan(Prime(3), 4, (2, 1, 1))
    images = {}
    for u in itertools.product(range(3), repeat=tiny.input_length()):
        block = tuple(ccdm_encode(tiny, list(u)))
        if ccdm_decode(tiny, list(block)) != list(u):
            failures.append(f"tiny class round trip failed for {u}")
        images[block] = u
    if len(images) != 9:
        failures.append(f"encoder image has {len(images)} blocks, expected 3^2 = 9")
    type_class = set(itertools.permutations((0, 0, 1, 2)))
    if len(type_class) != 12:
        failures.append("type class enumeration is wrong")
    rejected = 0
    for seq in sorted(type_class):
        if seq in images:
            if tuple(ccdm_encode(tiny, list(images[seq]))) != seq:
                failures.append(f"image sequence {seq} does not reproduce")
        else:
            with pytest.raises(ValueError):
                ccdm_decode(tiny, list(seq))
            rejected += 1
    if rejected != 3:
        failures.append(f"{rejected} sequences rejected, expected 12 - 9 = 3")
    _report(
        "matcher round trip",
        failures,
        f"{ok}/1000 random N=64 blocks over F_7 round-trip (d={d}); "
        f"(2,1,1) class: 9/12 sequences are images and round-trip, "
        f"3 non-image sequences rejected",
    )
