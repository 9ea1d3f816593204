"""Thirteen headline checks, one per test, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every stated tolerance is asserted exactly as given.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import tractrix_lab as tl
from tractrix_lab.geom import Geometry
from tractrix_lab.moebius import MapClass
from conftest import random_convex_spec

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


def check(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {label}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_rear_circle_oracle(circle2):
    params = tl.BikeParams(ell=1.0, steps_per_traversal=4096)
    # invariant start: the rear wheel traces the concentric circle exactly
    sol = tl.integrate_steering(circle2, params, math.pi / 6.0)
    radii = np.linalg.norm(tl.rear_track(sol).points, axis=1)
    dev_invariant = float(np.max(np.abs(radii - SQRT3)))
    # generic start: the same circle is reached after the transient dies
    triple = tl.make_curve({"kind": "circle", "r": 2.0, "traversals": 3})
    sol2 = tl.integrate_steering(triple, params, math.pi / 2.0)
    tail = tl.rear_track(sol2).points[-4096:]
    dev_attracted = float(np.max(np.abs(np.linalg.norm(tail, axis=1) - SQRT3)))
    check(1, "rear circle radius sqrt(3) within 1e-6",
          dev_invariant < 1e-6 and dev_attracted < 1e-6,
          f"invariant {dev_invariant:.2e}, attracted {dev_attracted:.2e}")


def test_criterion_02_straight_track_monodromy():
    seg = tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [1.0, 0.0]})
    M = tl.monodromy_matrix(seg, tl.BikeParams(ell=1.0))
    mob = tl.MoebiusMap.from_matrix(M)
    trace_err = abs(abs(M[0, 0] + M[1, 1]) - 2.0 * math.cosh(0.5))
    fixed = mob.fixed_points()
    attracting = fixed[0]
    angle_err = abs(math.sin(0.5 * attracting.angle))  # alpha = 0 (mod 2 pi)
    mult_err = abs(attracting.multiplier - math.exp(-1.0))
    check(2, "straight track trace 2cosh(1/2), multiplier 1/e within 1e-6",
          trace_err < 1e-6 and mult_err < 1e-6 and angle_err < 1e-6,
          f"trace err {trace_err:.2e}, multiplier err {mult_err:.2e}")


def test_criterion_03_moebius_property_random_tracks():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        track = tl.make_curve(random_convex_spec(rng))
        rep = tl.monodromy(track, tl.BikeParams(ell=0.4))
        worst = max(worst, rep.residual)
    check(3, "held-out angle predicted within 1e-5 on 10 random tracks",
          worst < 1e-5, f"worst residual {worst:.2e}")


def test_criterion_04_eigenvalue_theorem(circle2):
    _, deriv = tl.steering_endpoints(circle2, tl.BikeParams(ell=1.0),
                                     [math.pi / 6.0], variational=True)
    expected = math.exp(-TWO_PI * SQRT3)
    rel = abs(float(deriv[0]) - expected) / expected
    check(4, "circle-map derivative at pi/6 equals exp(-2 pi sqrt(3)) rel 1e-4",
          rel < 1e-4, f"rel err {rel:.2e}")


def test_criterion_05_parabolic_boundary(unit_circle):
    rep = tl.monodromy(unit_circle, tl.BikeParams(ell=1.0))
    trace_gap = abs(abs(rep.trace) - 2.0)
    rear_len = abs(rep.rear_lengths[0])
    check(5, "circle r = ell = 1 parabolic: ||trace|-2| < 1e-5, |L| < 1e-4",
          trace_gap < 1e-5 and rear_len < 1e-4,
          f"trace gap {trace_gap:.2e}, rear length {rear_len:.2e}")


def test_criterion_06_identity_monodromy():
    doubled = tl.make_curve({"kind": "circle", "r": SQRT3 / 2.0, "traversals": 2})
    rep = tl.monodromy(doubled, tl.BikeParams(ell=1.0))
    dist = rep.map.distance_to_identity()
    k = 2.0 / SQRT3
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, k), 2.0 * TWO_PI * SQRT3)
    gap_dist, gap_frame = curve.closure_gap()
    check(6, "doubled circle r = sqrt(3)/2 gives identity; development closes C^1",
          rep.is_identity and dist < 1e-4 and gap_dist < 1e-4 and gap_frame < 1e-4,
          f"map dist {dist:.2e}, closure {gap_dist:.2e}/{gap_frame:.2e}")


def test_criterion_07_area_identity():
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(10):
        loop = tl.random_config_loop(rng)
        chk = tl.loop_identity(loop, ell=1.5)
        scale2 = max(1.0, abs(chk.area_front), abs(chk.area_rear), 1.5**2)
        worst = max(worst, chk.mismatch / scale2)
    # full tractrix sweep: the rod turns through pi, enclosing half its disk
    line = tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [40.0, 0.0]})
    sol = tl.integrate_steering(line, tl.BikeParams(ell=1.0), math.pi - 1e-7)
    tract_err = abs(tl.area_between_tracks(sol) - 0.5 * math.pi)
    check(7, "loop identity < 1e-6 scale^2 on 10 loops; tractrix area pi ell^2 / 2",
          worst < 1e-6 and tract_err < 1e-6,
          f"worst loop residual {worst:.2e}, tractrix err {tract_err:.2e}")


def test_criterion_08_planimeter_error_law(unit_circle):
    ells = np.array([5.0, 10.0, 20.0, 40.0])
    residuals = [abs(tl.measure(unit_circle, ell, placement="centroid").residual_error)
                 for ell in ells]
    slope = float(np.polyfit(np.log(ells), np.log(residuals), 1)[0])
    check(8, "centroid-start residual scales as ell^-3 (slope -3 +/- 0.3)",
          abs(slope + 3.0) < 0.3, f"slope {slope:+.3f}")


def test_criterion_09_menzin_verification(menzin_unit_circle):
    rep = menzin_unit_circle
    ell0_err = abs(rep.ell0 - 1.0)
    area_rel = abs(math.pi * rep.ell0**2 - rep.area) / rep.area
    rng = np.random.default_rng(7)
    bound_ok, worst_excess = True, -math.inf
    for _ in range(10):
        track = tl.make_curve(random_convex_spec(rng))
        area = tl.enclosed_area(track)
        ell0 = tl.critical_length(track, steps_per_traversal=2048)
        excess = area / (math.pi * ell0**2) - 1.0
        worst_excess = max(worst_excess, excess)
        bound_ok &= excess <= 1e-3
    check(9, "ell0(circle) = 1 +/- 1e-5; A <= pi ell0^2 (1 + 1e-3) on 10 random",
          ell0_err < 1e-5 and area_rel < 1e-4 and bound_ok,
          f"ell0 err {ell0_err:.2e}, worst area excess {worst_excess:+.2e}")


def test_criterion_10_wirtinger_and_defect(ellipse21):
    rng = np.random.default_rng(5)
    worst_area = -math.inf
    for _ in range(10):
        n = np.arange(1, 7, dtype=float)
        decay = rng.uniform(-1.0, 1.0, 6) / n**2
        decay2 = rng.uniform(-1.0, 1.0, 6) / n**2
        p = tl.SupportFunction.from_coefficients(0.0, decay, decay2)
        _, area = tl.support_length_area(p)
        worst_area = max(worst_area, area)
    p_ell = tl.support_function(ellipse21)
    invariance = abs(tl.isoperimetric_defect(tl.wavefront(p_ell, 0.3))
                     - tl.isoperimetric_defect(p_ell))
    defect, bound = tl.defect_bound(ellipse21, 0.5)
    check(10, "zero-mean Wirtinger area <= 1e-9; wavefront defect invariant; "
              "ellipse defect above -4 pi A0",
          worst_area <= 1e-9 and invariance < 1e-8 and defect >= bound - 1e-6,
          f"max area {worst_area:+.2e}, invariance {invariance:.2e}, "
          f"defect {defect:.3f} >= {bound:.3f}")


def test_criterion_11_spherical_holonomy():
    params = tl.BikeParams(ell=0.5 * math.pi, geometry=Geometry.SPHERICAL)
    cap = tl.geodesic_circle(math.pi / 3.0, Geometry.SPHERICAL)  # area pi
    rep = tl.monodromy(cap, params)
    worst_shift = 0.0
    for probe in (0.0, 1.0, 2.5):
        shift = rep.map.act_angle(probe) - probe
        worst_shift = max(worst_shift, abs(math.sin(0.5 * (shift - math.pi))))
    equator = tl.geodesic_circle(0.5 * math.pi, Geometry.SPHERICAL)  # area 2 pi
    rep_eq = tl.monodromy(equator, params)
    dist = rep_eq.map.distance_to_identity()
    check(11, "cap area pi -> rotation by pi; area 2 pi -> identity (1e-4)",
          worst_shift < 1e-4 and rep_eq.is_identity and dist < 1e-4,
          f"rotation defect {worst_shift:.2e}, identity dist {dist:.2e}")


def test_criterion_12_curved_plane_spot_checks():
    cap = tl.geodesic_circle(math.pi / 3.0, Geometry.SPHERICAL)
    sphere = tl.hpz_verify(cap, Geometry.SPHERICAL, math.pi / 6.0)
    circ = tl.geodesic_circle(math.atanh(0.5), Geometry.HYPERBOLIC)  # k = 2
    hyper = tl.hpz_verify(circ, Geometry.HYPERBOLIC, 0.3)
    check(12, "sphere (rho = pi/3, ell = pi/6) and H^2 (k = 2) both hyperbolic",
          sphere.status == "confirmed" and hyper.status == "confirmed",
          f"sphere {sphere.map_class}, H^2 {hyper.map_class}")


def test_criterion_13_convergence_order(circle2):
    # the invariant-circle observable of criterion 1 is exact at any N (the
    # start sits on an equilibrium) and generic endpoints saturate at machine
    # precision through the e^{-2 pi sqrt(3)} contraction, so the order is
    # read off the trace of the same configuration against its closed form
    # the circle's pieces are propagated exactly; the same circle without
    # them is a smooth track, whose RK4 steps this measures; at N = 8192 the
    # error (about 2e-12 on a trace of 231) is at the rounding floor, so the
    # ratios are read on N = 1024, 2048, 4096 (errors near 8e-9, 5e-10, 3e-11)
    smooth = tl.FrontTrack(circle2.period, circle2.frame, circle2.curvature, closed=True)
    exact = 2.0 * math.cosh(math.pi * SQRT3)
    errs = []
    for n in (1024, 2048, 4096):
        M = tl.monodromy_matrix(smooth, tl.BikeParams(ell=1.0, steps_per_traversal=n))
        errs.append(abs(abs(M[0, 0] + M[1, 1]) - exact))
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    ok = all(16.0 * 0.8 <= r <= 16.0 * 1.2 for r in ratios)
    check(13, "doubling N cuts the error x16 +/- 20%",
          ok, "ratios " + ", ".join(f"{r:.2f}" for r in ratios))
