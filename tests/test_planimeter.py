"""Hatchet-planimeter simulation: exactness identity, error orders, scans."""

import math
from dataclasses import replace

import numpy as np
import pytest

import tractrix_lab as tl
from tractrix_lab.geom import Geometry
from tractrix_lab.planimeter import CSV_HEADER

TWO_PI = 2.0 * math.pi


def test_reading_identity_circle(unit_circle):
    r = tl.measure(unit_circle, ell=8.0)
    assert r.exact_area == pytest.approx(math.pi, rel=1e-9)
    assert r.estimate == pytest.approx(r.deflection * 64.0, rel=1e-12)
    # the deflection times ell^2 equals area minus the chisel-path area, exactly
    assert abs(r.closure_defect) < 1e-10


def test_centroid_reading_matches_correction(unit_circle):
    # from the centroid the O(1/ell) term cancels and the reading lands on
    # A (1 + R^2 / (2 ell^2)) up to O(1/ell^3)
    r = tl.measure(unit_circle, ell=8.0, placement="centroid")
    assert r.estimate == pytest.approx(math.pi * (1.0 + r.mean_square_radius / 128.0),
                                       rel=1e-3)


def test_mean_square_radius_reported(unit_circle):
    r = tl.measure(unit_circle, ell=5.0)
    assert r.mean_square_radius == pytest.approx(0.5, rel=1e-8)


def test_centroid_reading_frozen_oracle(ellipse21):
    # deterministic RK4 at 4096 steps per traversal: the residual after the
    # R^2/(2 ell^2) correction reproduces bit-for-bit
    r = tl.measure(ellipse21, ell=10.0, placement="centroid")
    assert r.exact_area == pytest.approx(TWO_PI, rel=1e-10)
    assert r.residual_error == pytest.approx(-3.956131849861322e-3, abs=1e-12)
    assert abs(r.closure_defect) < 1e-10


def test_centroid_error_third_order(ellipse21):
    residuals = [abs(tl.measure(ellipse21, ell=l, placement="centroid").residual_error)
                 for l in (5.0, 10.0, 20.0)]
    assert residuals[0] / residuals[1] == pytest.approx(8.0, rel=0.15)
    assert residuals[1] / residuals[2] == pytest.approx(8.0, rel=0.15)


def test_normal_start_error_first_order(ellipse21):
    residuals = [abs(tl.measure(ellipse21, ell=l, placement="normal").residual_error)
                 for l in (10.0, 20.0, 40.0)]
    assert residuals[0] / residuals[1] == pytest.approx(2.0, rel=0.3)
    assert residuals[1] / residuals[2] == pytest.approx(2.0, rel=0.3)


def test_orientation_flips_deflection(ellipse21):
    fwd = tl.measure(ellipse21, ell=12.0)
    rev = tl.measure(tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0,
                                    "orientation": -1}), ell=12.0)
    assert rev.exact_area == pytest.approx(-fwd.exact_area, rel=1e-10)
    assert rev.estimate == pytest.approx(-fwd.estimate, rel=1e-6)


def test_absolute_placement(ellipse21):
    r = tl.measure(ellipse21, ell=9.0, placement=1.25)
    assert math.isfinite(r.deflection)
    assert float(r.placement) == pytest.approx(1.25)


def test_base_point_moves_start(ellipse21):
    a = tl.measure(ellipse21, ell=9.0, base=0.0)
    b = tl.measure(ellipse21, ell=9.0, base=2.0)
    assert not np.allclose(a.base_point, b.base_point)
    assert np.allclose(b.base_point, ellipse21.position(2.0), atol=1e-12)
    # a fixed-attitude start sees an O(1/ell) error with a base-dependent
    # coefficient; both readings still land within coarse range of the area
    for reading in (a, b):
        assert abs(reading.estimate - reading.exact_area) < 0.5 * abs(reading.exact_area)


FAR_SHAPES = {"ellipse": {"kind": "ellipse", "a": 2.0, "b": 1.0},
              "square": {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]},
              "circle": {"kind": "circle", "r": 1.5},
              "samples": {"kind": "samples", "points": [[1, 0], [0, 1], [-1, 0], [0, -1]]}}


@pytest.mark.parametrize("spec", FAR_SHAPES.values(), ids=FAR_SHAPES.keys())
def test_reading_depends_on_the_base_point_only(spec):
    # a base many passes on reads the same as its remainder in the first pass
    # (far bases used to lose digits, be refused from about 1e9, and read 0 at 1e300)
    track = tl.make_curve(spec)
    for base in [10.0**k + 0.3 for k in (3, 6, 9, 12)] + [1e300]:
        far, near = (tl.measure(track, ell=10.0, base=b) for b in (base, base % track.period))
        assert far.base_param == base
        assert replace(far, base_param=near.base_param) == near


def test_rod_flow_multi_leg(ellipse21):
    seg = tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [2.0, 0.0]})
    back = tl.make_curve({"kind": "line", "start": [2.0, 0.0], "end": [0.0, 0.0]})
    legs = tl.rod_flow([seg, back, seg, back], ell=4.0, theta0=1.0)
    assert len(legs) == 4
    # theta is continuous across leg boundaries
    for prev, nxt in zip(legs, legs[1:]):
        assert nxt.theta[0] == pytest.approx(prev.theta[-1], abs=1e-12)
    # rod chart along a straight leg: theta relaxes toward the leg direction
    assert legs[0].theta[-1] < legs[0].theta[0]


def test_rod_flow_straight_leg_closed_form():
    # along a straight leg alpha = Phi - theta obeys alpha' = -sin(alpha) / ell,
    # so tan(alpha/2) = tan(alpha0/2) e^(-t/ell)
    seg = tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [3.0, 4.0]})
    phi, ell, theta0 = math.atan2(4.0, 3.0), 2.0, 0.3
    (leg,) = tl.rod_flow([seg], ell=ell, theta0=theta0)
    exact = phi - 2.0 * np.arctan(math.tan(0.5 * (phi - theta0)) * np.exp(-leg.t / ell))
    assert np.max(np.abs(leg.theta - exact)) < 1e-12


def test_rod_flow_forms_each_generator_once():
    # the generator at all 2n + 1 nodes, sliced, gives the same bits as one
    # generator per node set (start, midpoint, end) on re-based ellipses,
    # stepped in the chart, and on the centroid start's straight legs
    from tractrix_lab.dynamics import _angles, _lifted, _rk4, _scan
    from tractrix_lab.planimeter import _leg_nodes

    rng = np.random.default_rng(11)
    for _ in range(10):
        a = rng.uniform(0.5, 3.0)
        loop = tl.make_curve({"kind": "ellipse", "a": a, "b": a * rng.uniform(0.2, 1.0)}).rebased(
            rng.uniform(0.0, 5.0))
        ell, n = rng.uniform(0.3, 3.0), 1024
        legs = [tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [1.0, 0.5]}), loop]
        factors = []
        for leg in legs:
            h, t, _, phi, sigma = _leg_nodes(leg, n, ell)
            s = np.broadcast_to(sigma, t.shape)
            parts = [(0.5 / ell) * s[p] * np.stack((-np.cos(phi[p]) - 1.0, np.sin(phi[p]), np.sin(phi[p]),
                                                    np.cos(phi[p]) - 1.0))[:, None]
                     for p in (slice(0, -1, 2), slice(1, None, 2), slice(2, None, 2))]
            factors.append(_rk4(*parts, h))
        start = np.array([0.7])
        theta = _angles(_lifted(_scan(np.concatenate(factors, axis=-1)), start), start)[0, 0]
        rod = tl.rod_flow(legs, ell, 0.7, steps_per_unit=1.0, n_min=n)  # every leg takes n steps
        assert np.array_equal(np.concatenate((rod[0].theta, rod[1].theta[1:])), theta)


def test_short_rod_does_not_overflow(unit_circle):
    # the boundary is about 3100 rod lengths long, over which an expanding
    # lift would grow like e^1570; the rod ends tangent, a quarter turn past
    # one revolution
    r = tl.measure(unit_circle, ell=0.002)
    assert r.deflection == pytest.approx(2.5 * math.pi, abs=0.01)
    assert abs(r.closure_defect) < 1e-4


def test_coarse_rod_grid_is_refused(ellipse21):
    # 64 steps of the 2x1 ellipse are 3.03 rod lengths of 0.05 each: RK4
    # read the deflection 4.79 against the converged 7.76, so the grid is
    # refused as every smooth grid with a step over 2 / c is
    with pytest.raises(tl.ResidualError, match="do not resolve the flow"):
        tl.measure(ellipse21, ell=0.05, steps_per_traversal=64)


THIN = {"kind": "ellipse", "a": 1.0, "b": 0.02}  # max |k sigma| = a / b = 50 at the tips, in psi


@pytest.mark.parametrize("base", [0.0, 0.37])
@pytest.mark.parametrize("steps", [64])
def test_unresolved_turning_is_refused(steps, base):
    # 64 steps of 2 pi / 64 in the eccentric anomaly turn h max |k sigma| = 4.91 at
    # the tips; they read the deflection 0.039174 against the converged 0.026133287,
    # so the grid is refused whatever the base point, as in every dense history
    with pytest.raises(tl.ResidualError, match="turning"):
        tl.measure(tl.make_curve(THIN), ell=1.0, base=base, steps_per_traversal=steps)


@pytest.mark.parametrize("base, converged", [(0.0, 0.02613328733788695),
                                             (0.37, 0.08533648320021991)], ids=["0.0", "0.37"])
def test_turning_resolved_in_the_chart_is_accepted(base, converged):
    # 4096 steps in the eccentric anomaly read h max |k sigma| = 0.077; in arc
    # length the same count had h max |k| = 2.44 and was refused; the
    # converged deflections are 65536-step readings
    r = tl.measure(tl.make_curve(THIN), ell=1.0, base=base, steps_per_traversal=4096)
    assert r.deflection == pytest.approx(converged, abs=1e-12)
    assert abs(r.closure_defect) < 1e-14


def test_resolved_turning_is_accepted():
    r = tl.measure(tl.make_curve(THIN), ell=1.0, steps_per_traversal=8192)  # h max |k sigma| = 0.038
    assert r.deflection == pytest.approx(0.026133287, abs=1e-5)


def test_unresolved_turning_in_arc_length_is_refused():
    # a closed spline through 12 points of the 1x0.05 ellipse has no chart and
    # max |k| = 570, so 64 arc-length steps of its 4.02 turn h max |k| = 36;
    # the rod flow refuses them for any caller, not only for measure
    spline = tl.make_curve({"kind": "samples", "points": [
        [math.cos(a), 0.05 * math.sin(a)] for a in np.linspace(0.0, TWO_PI, 12, endpoint=False)]})
    with pytest.raises(tl.ResidualError, match="turning"):
        tl.rod_flow([spline], ell=5.0, theta0=0.3, steps_per_unit=4.0)
    with pytest.raises(tl.ResidualError, match="turning"):
        tl.measure(spline, ell=5.0, steps_per_traversal=64)


@pytest.mark.parametrize("steps", [1, 0, -5])
def test_fewer_than_two_steps_are_refused(unit_circle, steps):
    with pytest.raises(tl.ValidationError, match="at least 2"):
        tl.measure(unit_circle, ell=5.0, steps_per_traversal=steps)
    with pytest.raises(tl.ValidationError, match="at least 2"):
        tl.error_scan(unit_circle, lengths=[5.0], bases=[0.0], steps_per_traversal=steps)


CHARTED = {"ellipse": {"kind": "ellipse", "a": 2.0, "b": 1.0},
           "fourier": {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.08, -0.02, 0.01],
                       "sin": [0.0, 0.03, 0.015, 0.0]}}
CHARTED_READINGS = [("normal", {}, 0.4), ("centroid", {}, 0.4), ("normal", {"orientation": -1}, 1.3),
                    ("centroid", {"center": [3.0, -1.0], "angle": 0.7}, 2.0), ("normal", {}, 14.0),
                    ("centroid", {"orientation": -1, "center": [1.0, 2.0]}, 9.0)]


@pytest.mark.parametrize("kind", CHARTED)
@pytest.mark.parametrize("placement, extra, base", CHARTED_READINGS,
                         ids=["normal", "centroid", "reversed", "placed", "base-past-period",
                              "reversed-placed-past-period"])
def test_charted_reading_builds_no_arc_length_table(kind, placement, extra, base, monkeypatch):
    # the re-based chart, the start frame, the region moments, the rod flow and
    # the pivot are all read in the chart, so no arc length is inverted
    from tractrix_lab._num import ArcLengthParam

    calls = []
    init, invert = ArcLengthParam.__init__, ArcLengthParam._invert

    def spy_init(self, *args, **kwargs):
        calls.append("init")
        init(self, *args, **kwargs)

    def spy_invert(self, t):
        calls.append("invert")
        return invert(self, t)

    track = tl.make_curve(dict(CHARTED[kind], **extra))
    monkeypatch.setattr(ArcLengthParam, "__init__", spy_init)
    monkeypatch.setattr(ArcLengthParam, "_invert", spy_invert)
    r = tl.measure(track, ell=10.0, base=base, placement=placement)
    assert calls == []
    assert abs(r.closure_defect) < 1e-12
    monkeypatch.undo()
    assert np.allclose(r.base_point, track.position(base), rtol=0.0, atol=1e-13)


def test_rod_legs_keep_their_front_frame(ellipse21):
    loop = ellipse21.rebased(0.4)
    square = tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [1, 0], [1, 1], [0, 1]]})
    legs = tl.rod_flow([*loop.split_at_corners(), *square.split_at_corners()],
                       ell=3.0, theta0=0.2, steps_per_unit=300.0)
    assert legs[0].track.chart is not None and all(leg.track.chart is None for leg in legs[1:])
    for leg in legs:
        # a charted leg is stepped in its chart parameter, any other in arc length
        chart = leg.track.chart
        front, phi, speed = (leg.track.frame(leg.t) + (1.0,) if chart is None
                             else chart.frame(leg.t)[:3])
        assert leg.front.shape == front.shape and leg.phi.shape == leg.t.shape == leg.theta.shape
        assert np.allclose(leg.front, front, rtol=0.0, atol=1e-14)
        assert np.allclose(leg.phi, phi, rtol=0.0, atol=1e-14)
        assert np.allclose(leg.speed, speed, rtol=0.0, atol=1e-14)
    assert legs[0].t[-1] == loop.chart.span
    # the charted leg ends where the rebased loop starts, one pass on
    assert np.allclose(legs[0].front[[0, -1]], loop.position(0.0), rtol=0.0, atol=1e-14)


def test_centroid_start_at_the_centroid_is_refused():
    # the chevron's centroid is its notch vertex (0.5, 0), the base point
    chevron = tl.make_curve({"kind": "polyline",
                             "vertices": [[2.0, 0.0], [-1.0, 1.5], [0.5, 0.0], [-1.0, -1.5]]})
    notch = math.hypot(3.0, 1.5) + math.hypot(1.5, 1.5)
    with pytest.raises(tl.ValidationError, match="coincides with the centroid"):
        tl.measure(chevron, ell=3.0, base=notch, placement="centroid")


def test_measure_validations(unit_circle):
    seg = tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [1.0, 0.0]})
    with pytest.raises(tl.ValidationError):
        tl.measure(seg, ell=5.0)  # open boundary
    doubled = tl.make_curve({"kind": "circle", "r": 1.0, "traversals": 2})
    with pytest.raises(tl.ValidationError):
        tl.measure(doubled, ell=5.0)  # turning number 2
    curved = unit_circle.reinterpreted(Geometry.SPHERICAL)
    with pytest.raises(tl.ValidationError):
        tl.measure(curved, ell=5.0)
    with pytest.raises(tl.ValidationError):
        tl.measure(unit_circle, ell=5.0, placement="sideways")
    with pytest.raises(tl.ValidationError, match="base must be finite"):
        tl.measure(unit_circle, ell=5.0, base=math.inf)


def test_rod_length_whose_square_overflows_is_refused(unit_circle):
    with pytest.raises(tl.ValidationError, match="rod length"):
        tl.measure(unit_circle, 1.5e154, steps_per_traversal=64)


def test_error_scan_table(ellipse21):
    table = tl.error_scan(ellipse21, lengths=[6.0, 12.0], bases=[0.0, 1.0],
                          placement="normal", steps_per_traversal=2048)
    text = table.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    # 2 bases + 1 centroid row per length
    assert len(lines) == 1 + 2 * 3
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_HEADER.split(","))
    float(cells[4])  # deflection parses
    # centroid rows are flagged
    flags = [line.split(",")[3] for line in lines[1:]]
    assert flags == ["0", "0", "1", "0", "0", "1"]


def test_error_scan_needs_inputs(ellipse21):
    with pytest.raises(tl.ValidationError):
        tl.error_scan(ellipse21, lengths=[], bases=[0.0])
