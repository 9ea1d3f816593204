"""Critical wheelbase: transition scan, area bound, isoperimetric defect."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ellipe

import tractrix_lab as tl

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

# 4096-step transition of the 2x1 ellipse: plain bisection on the monodromy
# trace (see _plain_bisection) down to a bracket width of 1e-14
ELL0_ELLIPSE = 1.4462224676194553


def _plain_bisection(track, lo, hi, steps, width):
    """First trace = 2 crossing in (lo, hi), one independent monodromy per midpoint."""
    while hi - lo > width:
        mid = 0.5 * (lo + hi)
        if tl.monodromy(track, tl.BikeParams(ell=mid, steps_per_traversal=steps)).trace > 2.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


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


def test_critical_length_cap_raises(unit_circle, monkeypatch):
    # a cap below the transition leaves the scan without a bracket
    monkeypatch.setattr(tl.menzin, "CAP_FACTOR", 0.8)
    with pytest.raises(tl.ScanError):
        tl.critical_length(unit_circle)


def test_critical_length_with_overflowing_multipliers():
    # the 15x1 ellipse's smallest ladder rows have traces near 1e197: the
    # scan reads their class from the trace and never forms their multipliers;
    # 512 steps in the eccentric-anomaly chart read the converged transition
    # (16384 steps: 5.31350346763) to 4.4e-8
    track = tl.make_curve({"kind": "ellipse", "a": 15.0, "b": 1.0})
    assert tl.critical_length(track, steps_per_traversal=512) == pytest.approx(
        5.3135034676, rel=2e-7)


def test_overflowing_row_does_not_stop_the_scan():
    # at ell = r / 2 (1/30) the 15x1 ellipse's trace is past double range: that
    # row alone is flagged, the check reads it as hyperbolic, and the ladder
    # rows are the rows swept without it
    from tractrix_lab.menzin import _ladder
    from tractrix_lab.moebius import _fits

    track = tl.make_curve({"kind": "ellipse", "a": 15.0, "b": 1.0})
    rep = tl.menzin_verify(track, steps_per_traversal=512)
    assert rep.ok
    assert rep.ell0 == pytest.approx(5.3135034676, rel=2e-7)  # converged, 16384 steps
    check = rep.checks[0]
    assert check.name == "hyperbolic_below_osculating_radius" and check.passed
    assert check.detail == "trace exceeds double range"
    r = rep.min_osculating_radius
    ladder = _ladder(r, 10.0 * math.sqrt(rep.area / math.pi))
    alone = [f[0].trace for f in _fits(track, ladder, 512)]
    assert [s.trace for s in rep.classification_curve] == alone
    with pytest.raises(tl.ResidualError, match="overflowed"):
        tl.monodromy(track, tl.BikeParams(ell=0.5 * r, steps_per_traversal=512))


def test_batched_fits_build_no_fixed_points(ellipse21, monkeypatch):
    # 16 steps put the row over the error cap, so it is refined in place
    from tractrix_lab.moebius import _fits

    def refuse(*args, **kwargs):
        raise AssertionError("fixed points built for a batched fit")

    monkeypatch.setattr(tl.MoebiusMap, "fixed_points", refuse)
    fitted, eps_par = _fits(ellipse21, [0.3, 1.0], 16)[1]
    assert fitted.trace > 0.0 and eps_par >= 1e-7


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


def test_area_bounds_refuse_a_track_of_several_passes(ellipse21):
    # the area counts both passes and ell0 only one, which read as a failed
    # area bound and a defect below its bound; the first transition is the
    # same for both passes, so critical_length keeps them
    twice = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0, "traversals": 2})
    with pytest.raises(tl.ValidationError, match="single traversal"):
        tl.menzin_verify(twice, steps_per_traversal=512)
    with pytest.raises(tl.ValidationError, match="single traversal"):
        tl.defect_bound(twice, 1.3)
    once = tl.critical_length(ellipse21, steps_per_traversal=512)
    assert tl.critical_length(twice, steps_per_traversal=512) == pytest.approx(once, rel=1e-10)


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


def test_critical_length_matches_plain_bisection(ellipse21):
    # the search must land within its tolerance of the root that
    # plain bisection on fresh monodromies finds for the same grid
    tol = 1e-10 * math.sqrt(2.0)  # default: 1e-10 * sqrt(A / pi)
    fresh = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    plain = _plain_bisection(fresh, 1.3, 1.6, BATCH_STEPS, 1e-14)
    assert abs(tl.critical_length(ellipse21, steps_per_traversal=BATCH_STEPS) - plain) <= tol


def test_cached_curvature_grid_is_read_only(ellipse21):
    from tractrix_lab.dynamics import _grid, _half_grid

    grid = _grid(ellipse21, BATCH_STEPS, False)
    assert _grid(ellipse21, BATCH_STEPS, False) is grid
    for terms in grid[3:]:
        for x in terms:
            if np.ndim(x):
                assert not x.flags.writeable
                with pytest.raises(ValueError):
                    x[0, 0] = 0.0
    h, sigma, k = _half_grid(ellipse21, BATCH_STEPS, False)
    assert sigma == 1.0  # arc length
    t = np.linspace(0.0, ellipse21.total_length, 2 * BATCH_STEPS + 1)
    assert np.array_equal(k[0], tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0}).curvature(t))


def test_lift_fallback_row_matches_monodromy(unit_circle):
    # at ell = R / 2 the monodromy contracts by exp(-2 pi sqrt(3))
    from tractrix_lab.moebius import _fits

    ells = [0.5, 1.5]
    fits = _fits(unit_circle, ells, BATCH_STEPS)
    for i, ell in enumerate(ells):
        rep = tl.monodromy(unit_circle, tl.BikeParams(ell=ell, steps_per_traversal=BATCH_STEPS))
        fitted, eps_par = fits[i]
        assert np.array_equal(fitted.matrix, rep.map.matrix)
        assert eps_par == rep.eps_parabolic


def test_refined_row_matches_monodromy(ellipse21):
    # 16 steps leave the step-doubling error above its cap: monodromy() refines
    # the grid (to 128 steps), and the swept row must come out the same
    from tractrix_lab.moebius import _fits

    rep = tl.monodromy(ellipse21, tl.BikeParams(ell=1.0, steps_per_traversal=16))
    assert rep.n_steps > 16
    fitted, eps_par = _fits(ellipse21, [1.0], 16)[0]
    assert np.array_equal(fitted.matrix, rep.map.matrix)
    assert eps_par == rep.eps_parabolic


# ell0 of the benchmark's 8 menzin fourier shapes at 512 steps, scanned in arc length
FOURIER_ELL0_ARC_LENGTH = (0.9983453638509767, 0.998854993162936, 0.9998407438495542,
                           0.9987578542693993, 0.9989949569754677, 0.9985685900040545,
                           0.999027232042289, 0.9980612070739237)


def test_menzin_reference_accuracy_at_512_steps():
    # the benchmark's menzin references (16-fold steps): the ellipses, stepped
    # in the eccentric anomaly, reach these digits (10.55, 10.42 and 9.10 in
    # arc length); the fourier shapes keep their arc-length ell0 within tol
    ref = json.loads(REFERENCE.read_text())
    for entry, floor in zip(ref["menzin_ellipse"], (10.5, 10.7, 9.6)):
        rep = tl.menzin_verify(tl.make_curve(entry["spec"]), steps_per_traversal=512)
        assert rep.ok
        assert -math.log10(abs(rep.ell0 - entry["ell0"]) / entry["ell0"]) >= floor
    for shape, before in zip(ref["menzin_fourier"], FOURIER_ELL0_ARC_LENGTH, strict=True):
        rep = tl.menzin_verify(tl.make_curve(shape["spec"]), steps_per_traversal=512)
        assert rep.ok
        assert abs(rep.ell0 - before) <= tl.menzin.DEFAULT_TOL * math.sqrt(rep.area / math.pi)


# ell0 of the 1 x b ellipses at 512 steps with every step of the pass swept
# (on extrapolated maps), and the rows of their classification curves
ELLIPSE_ELL0_FULL_PASS = {0.9: (0.9491770037501959, 52), 0.7: (0.8416558493626966, 60),
                          0.5: (0.723111233809756, 70)}


@pytest.mark.parametrize("b", sorted(ELLIPSE_ELL0_FULL_PASS))
def test_symmetric_sweep_keeps_ell0(b):
    # the ellipse's sweeps step half a pass and square it; ell0 stays at rounding
    ell0, rows = ELLIPSE_ELL0_FULL_PASS[b]
    rep = tl.menzin_verify(tl.make_curve({"kind": "ellipse", "a": 1.0, "b": b}), steps_per_traversal=512)
    assert rep.ok
    assert rep.ell0 == pytest.approx(ell0, rel=1e-14, abs=0.0)
    assert len(rep.classification_curve) == rows


@pytest.mark.parametrize("b", [0.9, 0.7, 0.5, 0.3, 0.2])
def test_ell0_within_tolerance_at_512_steps(b):
    # the search reads extrapolated maps, so the 512-step ell0 is within its
    # default tolerance of the converged one (4096 steps, tol 1e-15); RK4's
    # raw products put it 0.2 to 90 tolerances off
    track = tl.make_curve({"kind": "ellipse", "a": 1.0, "b": b})
    tol = tl.menzin.DEFAULT_TOL * math.sqrt(b)
    converged = tl.critical_length(track, tol=1e-15, steps_per_traversal=4096)
    assert abs(tl.critical_length(track, steps_per_traversal=512) - converged) <= tol


# -- the ell0 search -----------------------------------------------------------

SEARCH_TOL = 1e-10
SEARCH_LADDER = [1.05 ** i for i in range(20)]


def _synthetic_search(curve):
    """``ell0`` of the trace curve ``curve`` from its ladder rows, and the wheelbases of each sweep."""
    from tractrix_lab.menzin import ScanSample, _resolve_first

    sweeps = []

    def traces(ells):
        sweeps.append(list(ells))
        return [curve(ell) for ell in ells]

    samples = [ScanSample(ell, curve(ell), "") for ell in SEARCH_LADDER]
    first = next(i for i, s in enumerate(samples) if s.trace < 2.0)
    return _resolve_first(traces, samples, first, SEARCH_LADDER[0], SEARCH_TOL), sweeps


@pytest.mark.parametrize("curve, root, most", [
    (lambda ell: 2.0 - 3.0 * (ell - 1.0), 1.0, 1),  # at the lower bracket end, the first row
    (lambda ell: 2.0 + 0.7 * (0.99 - ell), 0.99, 2),  # below the first row: one sweep brackets it
    (lambda ell: 2.0 + 0.7 * (1.234 - ell), 1.234, 1),
    (lambda ell: 2.0 + math.expm1(30.0 * (1.234 - ell)), 1.234, 5),  # steep and curved
], ids=["lower-end", "below-ladder", "linear", "steep"])
def test_search_on_synthetic_traces(curve, root, most):
    ell0, sweeps = _synthetic_search(curve)
    assert abs(ell0 - root) <= SEARCH_TOL
    assert len(sweeps) <= most
    assert all(len(sweep) <= 4 for sweep in sweeps)


def test_search_through_a_jump_splits_the_bracket():
    # the trace jumps across 2 between ladder rows, as where a row over the
    # error cap is refined: the interpolation misses, a sweep that does not
    # halve the bracket is followed by one at 4 evenly spaced points, and the
    # search closes on the jump within 4-fold narrowing per two sweeps
    jump = 1.2345678
    ell0, sweeps = _synthetic_search(lambda ell: 2.0 + 0.8 * ((1.3 if ell < jump else 1.2) - ell))
    assert abs(ell0 - jump) <= SEARCH_TOL
    width = SEARCH_LADDER[5] - SEARCH_LADDER[4]  # the ladder's bracket
    assert len(sweeps) <= 2 * math.ceil(math.log(width / SEARCH_TOL, 4)) + 1
    assert any(len(s) == 4 and np.allclose(np.diff(s), s[1] - s[0], rtol=1e-6, atol=0.0)
               for s in sweeps)


def test_reference_searches_take_two_sweeps(monkeypatch):
    # the ladder sweep and two search sweeps per report on the benchmark's
    # ellipses and fourier shapes; the circle's root is the ladder's first
    # row, and one sweep closes on it, a quarter tolerance above
    calls = []
    fits = tl.menzin._fits

    def counted(track, ells, steps):
        calls.append(len(ells))
        return fits(track, ells, steps)

    monkeypatch.setattr(tl.menzin, "_fits", counted)
    ref = json.loads(REFERENCE.read_text())
    for entry in ref["menzin_ellipse"] + ref["menzin_fourier"]:
        calls.clear()
        assert tl.menzin_verify(tl.make_curve(entry["spec"]), steps_per_traversal=512).ok
        assert len(calls) <= 3 and all(n <= 4 for n in calls[1:]), entry["spec"]
    calls.clear()
    circle = tl.menzin_verify(tl.make_curve({"kind": "circle", "r": 1.0}), steps_per_traversal=512)
    assert circle.ell0 == 1.000000000025
    assert len(calls) == 2
