"""Critical wheelbase: transition scan, area bound, isoperimetric defect."""

import json
import math

import numpy as np
import pytest
from scipy.special import ellipe

import tractrix_lab as tl

ELL0_ELLIPSE = 1.446222933717304  # 4096-step transition of the 2x1 ellipse


def test_min_osculating_radius(unit_circle, ellipse21):
    assert tl.min_osculating_radius(unit_circle) == pytest.approx(1.0, rel=1e-9)
    # flattest ellipse point has k = a / b^2; the tightest is 1 / (a / b^2)
    assert tl.min_osculating_radius(ellipse21) == pytest.approx(0.5, rel=1e-7)
    small = tl.make_curve({"kind": "circle", "r": 0.7})
    assert tl.min_osculating_radius(small) == pytest.approx(0.7, rel=1e-9)


def test_critical_length_circle(unit_circle):
    ell0 = tl.critical_length(unit_circle)
    assert ell0 == pytest.approx(1.0, abs=1e-5)


def test_critical_length_ellipse(ellipse21):
    ell0 = tl.critical_length(ellipse21)
    assert ell0 == pytest.approx(ELL0_ELLIPSE, abs=1e-9)
    # area bound: pi ell0^2 >= A, i.e. ell0 >= sqrt(2)
    assert ell0 >= math.sqrt(2.0)


def test_critical_length_equivariant(ellipse21):
    moved = ellipse21.transformed(rotation=1.1, translation=(4.0, -7.0))
    assert tl.critical_length(moved) == pytest.approx(ELL0_ELLIPSE, abs=1e-9)


def test_critical_length_rejects_nonconvex():
    sq = tl.make_curve({"kind": "polyline",
                        "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]})
    with pytest.raises(tl.ValidationError):
        tl.critical_length(sq)
    seg = tl.make_curve({"kind": "line", "start": [0, 0], "end": [1, 0]})
    with pytest.raises(tl.ValidationError):
        tl.critical_length(seg)


def test_critical_length_cap_raises(unit_circle):
    # a cap below the transition leaves the scan without a bracket
    with pytest.raises(tl.ScanError):
        tl.critical_length(unit_circle, cap_factor=0.8)


def test_defect_bound_circle_exact(unit_circle):
    defect, bound = tl.defect_bound(unit_circle, 0.5)
    # circles are isoperimetrically tight
    assert defect == pytest.approx(0.0, abs=1e-9)
    # rod-annulus area: A - pi ell^2 = (3/4) pi, bound = -4 pi A0 = -3 pi^2
    assert bound == pytest.approx(-3.0 * math.pi**2, rel=1e-10)
    assert defect >= bound


def test_defect_bound_ellipse_oracle(ellipse21):
    ell = 1.2
    defect, bound = tl.defect_bound(ellipse21, ell)
    perimeter = 4.0 * 2.0 * ellipe(0.75)
    assert defect == pytest.approx(perimeter**2 - 8.0 * math.pi**2, rel=1e-10)
    assert bound == pytest.approx(-4.0 * math.pi * (2.0 * math.pi - math.pi * ell**2),
                                  rel=1e-8)
    assert defect >= bound


def test_defect_bound_needs_nonelliptic(unit_circle):
    # far above the critical wheelbase the monodromy is elliptic: no closed
    # rear track exists to build the bound from
    with pytest.raises(tl.ValidationError):
        tl.defect_bound(unit_circle, 5.0)


def test_menzin_report_ellipse(menzin_ellipse):
    rep = menzin_ellipse
    assert rep.ok
    assert rep.ell0 == pytest.approx(ELL0_ELLIPSE, abs=1e-6)
    assert rep.area == pytest.approx(2.0 * math.pi, rel=1e-9)
    assert rep.min_osculating_radius == pytest.approx(0.5, rel=1e-7)
    assert rep.bound_check
    assert rep.bound_margin == pytest.approx(math.pi * rep.ell0**2 - rep.area, rel=1e-9)
    names = [c.name for c in rep.checks]
    assert names == ["hyperbolic_below_osculating_radius", "elliptic_at_cap",
                     "parabolic_transition_found", "area_bound",
                     "hyperbolic_below_transition"]
    assert all(c.passed for c in rep.checks)
    # defect inequality evaluated at a sub-critical wheelbase
    assert rep.defect_ell is not None and rep.defect_ell < rep.ell0
    assert rep.defect >= rep.defect_bound - 1e-9


def test_menzin_classification_curve(menzin_ellipse):
    samples = menzin_ellipse.classification_curve
    assert len(samples) > 10
    ells = [s.ell for s in samples]
    assert ells == sorted(ells)
    # hyperbolic below the transition, never after the first elliptic sample
    seen_elliptic = False
    for s in samples:
        if s.map_class == "elliptic":
            seen_elliptic = True
        if s.ell < menzin_ellipse.ell0 * 0.999:
            assert s.map_class == "hyperbolic" and s.trace > 2.0
    assert seen_elliptic
    csv = menzin_ellipse.classification_csv()
    assert csv.startswith("ell,trace,class\n")
    assert len(csv.strip().split("\n")) == len(samples) + 1


def test_menzin_report_circle_tight(menzin_unit_circle):
    rep = menzin_unit_circle
    assert rep.ok
    assert rep.ell0 == pytest.approx(1.0, abs=1e-5)
    # the circle saturates the bound: pi ell0^2 = A, no room below for the
    # defect stage
    assert rep.bound_margin == pytest.approx(0.0, abs=1e-4)
    assert rep.defect_ell is None and rep.defect_bound is None


def test_menzin_report_serializes(menzin_ellipse):
    data = json.loads(menzin_ellipse.to_json())
    assert data["ok"] is True
    assert data["ell0"] == pytest.approx(ELL0_ELLIPSE, abs=1e-6)
    assert [c["name"] for c in data["checks"]] == [c.name for c in menzin_ellipse.checks]
    assert len(data["classification_curve"]) == len(menzin_ellipse.classification_curve)


def test_menzin_random_convex_bound():
    # the area bound must hold on arbitrary convex tracks, not just the demos
    rng = np.random.default_rng(11)
    from conftest import random_convex_spec

    for _ in range(3):
        track = tl.make_curve(random_convex_spec(rng))
        ell0 = tl.critical_length(track, steps_per_traversal=2048)
        area = tl.enclosed_area(track)
        assert area <= math.pi * ell0**2 * (1.0 + 1e-3)
        # sufficiency: below the min osculating radius the map is hyperbolic
        r = tl.min_osculating_radius(track)
        rep = tl.monodromy(track, tl.BikeParams(ell=0.9 * r, steps_per_traversal=2048))
        assert rep.trace > 2.0


# -- batched sweeps ------------------------------------------------------------

BATCH_STEPS = 512


def _fourier5_spec():
    from conftest import random_convex_spec

    return random_convex_spec(np.random.default_rng(5), n_harmonics=5)


@pytest.mark.parametrize("spec", [{"kind": "ellipse", "a": 2.0, "b": 1.0}, _fourier5_spec()],
                         ids=["ellipse21", "fourier5"])
def test_batched_ladder_matches_single_monodromy(spec):
    rep = tl.menzin_verify(tl.make_curve(spec), steps_per_traversal=BATCH_STEPS)
    fresh = tl.make_curve(spec)  # no curvature grid shared with the scan
    for s in rep.classification_curve:
        single = tl.monodromy(fresh, tl.BikeParams(ell=s.ell, steps_per_traversal=BATCH_STEPS))
        assert s.trace == single.trace
        assert s.map_class == single.map_class.value


def test_speculative_bisection_matches_plain(ellipse21):
    from tractrix_lab.menzin import _bisect_transition

    lo, hi, tol = 1.3, 1.6, 1e-7
    fresh = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    a, b = lo, hi
    while b - a > tol:
        mid = 0.5 * (a + b)
        if tl.monodromy(fresh, tl.BikeParams(ell=mid, steps_per_traversal=BATCH_STEPS)).trace > 2.0:
            a = mid
        else:
            b = mid
    assert _bisect_transition(ellipse21, lo, hi, tol, BATCH_STEPS) == 0.5 * (a + b)


def test_cached_curvature_grid_is_read_only(ellipse21):
    from tractrix_lab.dynamics import _half_grid_curvature

    k = _half_grid_curvature(ellipse21, BATCH_STEPS)
    assert _half_grid_curvature(ellipse21, BATCH_STEPS) is k
    assert not k.flags.writeable
    with pytest.raises(ValueError):
        k[0, 0] = 0.0
    t = np.linspace(0.0, ellipse21.total_length, 2 * BATCH_STEPS + 1)
    assert np.array_equal(k[0], tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0}).curvature(t))


def test_lift_fallback_row_matches_monodromy(unit_circle):
    # at ell = R / 2 the monodromy contracts by exp(-2 pi sqrt(3)): every probe
    # lands on the attracting angle and the fit must take the linear lift
    from tractrix_lab.moebius import DEFAULT_PROBES, _sweep_fits

    ells = [0.5, 1.5]
    params = tl.BikeParams(ell=ells[0], steps_per_traversal=BATCH_STEPS)
    ends = tl.steering_endpoints(unit_circle, params, DEFAULT_PROBES)
    assert min(abs(math.sin(0.5 * (ends[i] - ends[j]))) for i, j in [(0, 1), (0, 2), (1, 2)]) < 1e-3
    fit = _sweep_fits(unit_circle, ells, BATCH_STEPS)
    for i, ell in enumerate(ells):
        rep = tl.monodromy(unit_circle, tl.BikeParams(ell=ell, steps_per_traversal=BATCH_STEPS))
        fitted, eps_par = fit(i)
        assert np.array_equal(fitted.matrix, rep.map.matrix)
        assert eps_par == rep.eps_parabolic


def test_refined_row_matches_monodromy(ellipse21):
    # 16 steps leave the held-out residual above its cap: monodromy() refines
    # the grid (to 128 steps), and the swept row must come out the same
    from tractrix_lab.moebius import _sweep_fits

    rep = tl.monodromy(ellipse21, tl.BikeParams(ell=1.0, steps_per_traversal=16))
    assert rep.n_steps > 16
    fitted, eps_par = _sweep_fits(ellipse21, [1.0], 16)(0)
    assert np.array_equal(fitted.matrix, rep.map.matrix)
    assert eps_par == rep.eps_parabolic
