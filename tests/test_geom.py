"""Front-track constructions: lengths, areas, curvature, support functions."""

import itertools
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ellipe

import tractrix_lab as tl
from tractrix_lab.geom import Geometry

from conftest import random_convex_spec

TWO_PI = 2.0 * math.pi


# -- circles and ellipses ----------------------------------------------------


def test_circle_basic(circle2):
    assert circle2.total_length == pytest.approx(4.0 * math.pi, rel=1e-12)
    assert tl.enclosed_area(circle2) == pytest.approx(4.0 * math.pi, rel=1e-10)
    t = np.linspace(0.0, circle2.total_length, 37)
    assert np.allclose(circle2.curvature(t), 0.5)
    assert np.allclose(np.linalg.norm(circle2.position(t), axis=1), 2.0)
    assert circle2.turning_number == 1
    assert circle2.convex


def test_circle_reversed():
    rev = tl.make_curve({"kind": "circle", "r": 2.0, "orientation": -1})
    assert tl.enclosed_area(rev) == pytest.approx(-4.0 * math.pi, rel=1e-10)
    assert rev.turning_number == -1
    assert np.allclose(rev.curvature(np.linspace(0, 1, 5)), -0.5)


def test_circle_off_center():
    c = tl.make_curve({"kind": "circle", "r": 1.5, "center": [3.0, -2.0]})
    assert tl.enclosed_area(c) == pytest.approx(math.pi * 2.25, rel=1e-10)
    assert np.allclose(tl.area_centroid(c), [3.0, -2.0], atol=1e-9)


@pytest.mark.parametrize("spec", [
    {"kind": "circle", "r": 1.5},
    {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.05, -0.02], "sin": [0.0, 0.03]},
], ids=["circle", "fourier-support"])
def test_center_and_angle_place_the_curve(spec):
    # the curve is rotated by `angle` about its own origin, then moved to `center`
    base = tl.make_curve(spec)
    placed = tl.make_curve({**spec, "center": [5.0, 5.0], "angle": 0.7})
    t = np.linspace(0.0, base.period, 41)
    c, s = math.cos(0.7), math.sin(0.7)
    expected = base.position(t) @ np.array([[c, -s], [s, c]]).T + [5.0, 5.0]
    assert np.allclose(placed.position(t), expected, rtol=0.0, atol=1e-14)
    assert np.allclose(placed.tangent_angle(t), base.tangent_angle(t) + 0.7, rtol=0.0, atol=1e-14)
    assert np.array_equal(placed.curvature(t), base.curvature(t))
    assert tl.enclosed_area(placed) == pytest.approx(tl.enclosed_area(base), rel=1e-12)


def test_ellipse_oracles(ellipse21):
    # perimeter of the 2x1 ellipse: 4 a E(e^2), e^2 = 1 - b^2/a^2
    perimeter = 4.0 * 2.0 * ellipe(0.75)
    assert ellipse21.total_length == pytest.approx(perimeter, rel=1e-10)
    assert tl.enclosed_area(ellipse21) == pytest.approx(2.0 * math.pi, rel=1e-10)
    k_min, k_max = ellipse21.curvature_range()
    assert k_min == pytest.approx(0.25, rel=1e-8)  # b / a^2
    assert k_max == pytest.approx(2.0, rel=1e-8)  # a / b^2


def test_arc_length_parametrization(ellipse21):
    t = np.linspace(0.1, ellipse21.total_length - 0.1, 25)
    h = 1e-6
    speed = np.linalg.norm(
        (ellipse21.position(t + h) - ellipse21.position(t - h)) / (2 * h), axis=1)
    assert np.allclose(speed, 1.0, atol=1e-7)
    # tangent angle derivative is the signed curvature
    dphi = (ellipse21.tangent_angle(t + h) - ellipse21.tangent_angle(t - h)) / (2 * h)
    assert np.allclose(dphi, ellipse21.curvature(t), atol=1e-5)


def test_traversals_extend_the_path():
    twice = tl.make_curve({"kind": "circle", "r": 1.0, "traversals": 2})
    assert twice.total_length == pytest.approx(2.0 * TWO_PI, rel=1e-12)
    assert twice.period == pytest.approx(TWO_PI, rel=1e-12)
    assert twice.turning_number == 2
    p = twice.position(np.array([0.5, TWO_PI + 0.5]))
    assert np.allclose(p[0], p[1], atol=1e-12)


# -- polylines ---------------------------------------------------------------


def test_polyline_square():
    sq = tl.make_curve({"kind": "polyline",
                        "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]})
    # without a fillet radius the corners are exact
    assert sq.total_length == pytest.approx(8.0, rel=1e-15)
    assert tl.enclosed_area(sq) == pytest.approx(4.0, rel=1e-14)
    assert sq.turning_number == 1
    assert not sq.convex  # flat edges: k = 0


def test_polyline_fillet():
    r = 0.3
    sq = tl.make_curve({"kind": "polyline", "fillet_radius": r,
                        "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]})
    assert sq.total_length == pytest.approx(4 * (2 - 2 * r) + TWO_PI * r, rel=1e-10)
    assert tl.enclosed_area(sq) == pytest.approx(4.0 - (4.0 - math.pi) * r * r, rel=1e-8)
    k_min, k_max = sq.curvature_range()
    assert k_min == pytest.approx(0.0, abs=1e-12)
    assert k_max == pytest.approx(1.0 / r, rel=1e-9)


def test_polyline_rejects_degenerate():
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [1, 0]]})
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [1, 0], [2, 0]]})
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "polyline", "fillet_radius": 5.0,
                       "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]})


# -- sampled curves ----------------------------------------------------------


def test_samples_rebuild_ellipse(ellipse21):
    t, pts = ellipse21.sample(400)
    rebuilt = tl.make_curve({"kind": "samples", "points": pts[:-1].tolist()})
    assert rebuilt.total_length == pytest.approx(ellipse21.total_length, rel=1e-5)
    assert tl.enclosed_area(rebuilt) == pytest.approx(2.0 * math.pi, rel=1e-5)


def test_samples_tangent_and_area_follow_the_spline():
    from scipy.interpolate import CubicSpline

    phi = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    r = 1.0 + 0.2 * np.cos(3.0 * phi) + 0.1 * np.sin(2.0 * phi)
    pts = np.stack([2.0 * r * np.cos(phi), r * np.sin(phi)], axis=1)
    track = tl.make_curve({"kind": "samples", "points": pts.tolist()})
    # the builder's spline: chord-length knots, periodic
    closed = np.vstack([pts, pts[:1]])
    chord = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(closed, axis=0).T))])
    spline = CubicSpline(chord, closed, axis=0, bc_type="periodic")
    d1, d2 = spline.derivative(1), spline.derivative(2)
    # Green's area of the spline itself: Gauss-Legendre, exact on each knot span
    x, w = np.polynomial.legendre.leggauss(4)
    a, b = chord[:-1, None], chord[1:, None]
    u = 0.5 * (b - a) * x + 0.5 * (a + b)
    p, v = spline(u), d1(u)
    green = 0.5 * np.sum(0.5 * (b - a) * w * (p[..., 0] * v[..., 1] - p[..., 1] * v[..., 0]))
    assert tl.enclosed_area(track) == pytest.approx(green, rel=1e-9)
    # spline parameter of each track point, by Newton on the distance
    t = np.linspace(0.0, track.period, 997)
    q = track.position(t)
    u = t / track.period * chord[-1]
    for _ in range(8):
        gap = spline(u) - q
        u -= np.sum(gap * d1(u), -1) / (np.sum(d1(u) ** 2, -1) + np.sum(gap * d2(u), -1))
    v = d1(u)
    miss = np.angle(np.exp(1j * (track.tangent_angle(t) - np.arctan2(v[:, 1], v[:, 0]))))
    assert np.max(np.abs(miss)) < 1e-13


def test_samples_open_polyline():
    pts = [[0, 0], [1, 0.2], [2, 0], [3, 0.4]]
    open_track = tl.make_curve({"kind": "samples", "points": pts, "closed": False})
    assert not open_track.closed
    with pytest.raises(tl.ValidationError):
        tl.enclosed_area(open_track)


def test_samples_reject_duplicates():
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "samples", "points": [[0, 0], [1, 0], [1, 0], [0, 1]]})


# -- line segments -----------------------------------------------------------


def test_line_segment():
    seg = tl.make_curve({"kind": "line", "start": [1.0, 2.0], "end": [4.0, 6.0]})
    assert seg.total_length == pytest.approx(5.0, rel=1e-12)
    assert not seg.closed
    assert np.allclose(seg.position(5.0), [4.0, 6.0], atol=1e-12)
    assert np.allclose(seg.curvature(np.linspace(0, 5, 7)), 0.0)


# -- spec validation ---------------------------------------------------------


def test_make_curve_rejections():
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "heptagram"})
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "circle", "r": 1.0, "radius": 1.0})
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "circle", "r": -1.0})
    with pytest.raises(tl.InvalidCurveError):
        tl.make_curve({"kind": "ellipse", "a": 2.0})
    with pytest.raises(tl.InvalidCurveError):
        # second harmonic too strong: p + p'' changes sign
        tl.make_curve({"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.5]})


def test_coordinates_past_sqrt_max_double_are_refused():
    # their squares leave double range
    with pytest.raises(tl.InvalidCurveError, match="coordinates exceed"):
        tl.make_curve({"kind": "circle", "r": 1.0, "center": [1e300, 0.0]})


@pytest.mark.parametrize("a, b", [(1.0, 1e-160), (1e-300, 1e-300)])
def test_ellipse_curvature_past_sqrt_max_double_is_refused(a, b):
    # a / b^2 past 1.3e154: its chart's k sigma and its curvature would overflow
    with pytest.raises(tl.InvalidCurveError, match="ellipse curvature"):
        tl.make_curve({"kind": "ellipse", "a": a, "b": b})


def test_make_curve_accepts_json_text():
    c = tl.make_curve('{"kind": "circle", "r": 1.0}')
    assert c.total_length == pytest.approx(TWO_PI, rel=1e-12)


# -- rigid motions and reinterpretation --------------------------------------


def test_transformed_invariants(ellipse21):
    moved = ellipse21.transformed(rotation=0.7, translation=(3.0, -1.0))
    assert moved.total_length == pytest.approx(ellipse21.total_length, rel=1e-12)
    assert tl.enclosed_area(moved) == pytest.approx(tl.enclosed_area(ellipse21), rel=1e-10)
    t = np.linspace(0.0, moved.total_length, 17)
    assert np.allclose(moved.curvature(t), ellipse21.curvature(t), atol=1e-12)
    assert np.allclose(tl.area_centroid(moved), [3.0, -1.0], atol=1e-8)


def test_reinterpreted_keeps_chart(ellipse21):
    h = ellipse21.reinterpreted(Geometry.HYPERBOLIC)
    assert h.geometry is Geometry.HYPERBOLIC
    t = np.linspace(0.0, 1.0, 9)
    assert np.allclose(h.curvature(t), ellipse21.curvature(t), atol=1e-15)
    assert np.allclose(h.position(t), ellipse21.position(t), atol=1e-15)


# -- support functions -------------------------------------------------------


def test_support_function_of_circle(unit_circle):
    p = tl.support_function(unit_circle)
    length, area = tl.support_length_area(p)
    assert length == pytest.approx(TWO_PI, rel=1e-9)
    assert area == pytest.approx(math.pi, rel=1e-9)
    assert tl.isoperimetric_defect(p) == pytest.approx(0.0, abs=1e-8)


def test_support_function_translation_rule(unit_circle):
    # moving the anchor to (cx, cy) adds cx cos + cy sin to the support values
    p = tl.support_function(unit_circle, origin=(0.25, -0.4))
    phi = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    expected = 1.0 - 0.25 * np.cos(phi) + 0.4 * np.sin(phi)
    assert np.allclose(p.value(phi), expected, atol=1e-8)
    # length and signed area do not see the anchor
    length, area = tl.support_length_area(p)
    assert length == pytest.approx(TWO_PI, rel=1e-9)
    assert area == pytest.approx(math.pi, rel=1e-9)


def test_support_round_trip(ellipse21):
    p = tl.support_function(ellipse21)
    # centroid anchor kills the first harmonic
    assert abs(p.cos_coeffs[0]) < 1e-9
    assert abs(p.sin_coeffs[0]) < 1e-9
    length, area = tl.support_length_area(p)
    assert length == pytest.approx(ellipse21.total_length, rel=1e-8)
    assert area == pytest.approx(2.0 * math.pi, rel=1e-8)
    # envelope points lie on the ellipse: (x/2)^2 + y^2 = 1
    xy = p.envelope(np.linspace(0.0, TWO_PI, 128, endpoint=False))
    assert np.allclose((xy[:, 0] / 2.0) ** 2 + xy[:, 1] ** 2, 1.0, atol=1e-6)


def test_wavefront_defect_invariance(ellipse21):
    p = tl.support_function(ellipse21)
    base = tl.isoperimetric_defect(p)
    for t in (0.05, 0.2, 0.5):
        inner = tl.wavefront(p, t)
        assert tl.isoperimetric_defect(inner) == pytest.approx(base, abs=1e-8)
        length, _ = tl.support_length_area(inner)
        assert length == pytest.approx(ellipse21.total_length - TWO_PI * t, rel=1e-8)


def test_support_function_rejects_nonconvex():
    sq = tl.make_curve({"kind": "polyline",
                        "vertices": [[1, 1], [-1, 1], [-1, -1], [1, -1]]})
    with pytest.raises(tl.ValidationError):
        tl.support_function(sq)


def test_mean_square_radius_disk(unit_circle):
    # uniform unit disk about its center: <r^2> = 1/2
    assert tl.mean_square_radius(unit_circle) == pytest.approx(0.5, rel=1e-9)


PLACEMENTS = [(0.0, 0.0), (5.0, -3.0), (1e3, 0.0), (1e5, 1e5), (1e7, 0.0)]


@pytest.mark.parametrize("center", PLACEMENTS, ids=["origin", "near", "1e3", "1e5-1e5", "1e7"])
@pytest.mark.parametrize("spec, msr", [({"kind": "circle", "r": 1.0}, 0.5),
                                       ({"kind": "ellipse", "a": 2.0, "b": 1.0, "angle": 0.3}, 1.25)],
                         ids=["circle", "ellipse"])
def test_region_moments_keep_their_digits_away_from_the_origin(spec, msr, center):
    # taken about the origin, <r^2> lost digits with the square of the
    # offset (a unit circle at (1e7, 0) read 21975.8); about a point of the
    # track they stay at rounding of the coordinates
    track = tl.make_curve(dict(spec, center=list(center)))
    scale = max(1.0, math.hypot(*center))
    assert abs(tl.mean_square_radius(track) - msr) <= 1e-14 * scale * msr
    assert np.max(np.abs(tl.area_centroid(track) - center)) <= 1e-14 * scale


@pytest.mark.parametrize("center", PLACEMENTS, ids=["origin", "near", "1e3", "1e5-1e5", "1e7"])
def test_square_moments_are_exact_anywhere(center):
    # a unit square (Green quadrature on its sides): <r^2> = 1/6, centroid at its middle
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]) + center
    track = tl.make_curve({"kind": "polyline", "vertices": vertices.tolist()})
    assert tl.mean_square_radius(track) == pytest.approx(1.0 / 6.0, rel=1e-14)
    assert np.max(np.abs(tl.area_centroid(track) - np.add(center, 0.5))) <= 4e-16 * max(1.0, abs(center[0]))


@pytest.mark.parametrize("spec", [
    {"kind": "samples", "points": [[2.0 * math.cos(a), math.sin(a)] for a in np.linspace(0.0, 6.0, 20)]},
    {"kind": "polyline", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]], "fillet_radius": 0.2}],
    ids=["samples", "filleted"])
def test_moments_of_passes_are_those_of_one_pass(spec):
    # Green quadrature of a chartless track takes one pass, weighted by the passes
    once, thrice = tl.make_curve(spec), tl.make_curve(dict(spec, traversals=3))
    area = tl.enclosed_area(once)
    assert abs(tl.enclosed_area(thrice) - 3.0 * area) <= 1e-14 * abs(area)
    assert np.max(np.abs(tl.area_centroid(thrice) - tl.area_centroid(once))) <= 1e-14
    msr = tl.mean_square_radius(once)
    assert abs(tl.mean_square_radius(thrice) - msr) <= 1e-14 * msr


def test_region_moments_invert_arc_length_once(monkeypatch):
    from tractrix_lab._num import ArcLengthParam
    from tractrix_lab.geom import _region_moments

    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    copy = _chartless(track)
    calls = []
    invert = ArcLengthParam._invert

    def spy(self, t):
        calls.append(len(t))
        return invert(self, t)

    monkeypatch.setattr(ArcLengthParam, "_invert", spy)
    area, _, _ = _region_moments(track)
    assert calls == []  # read in the chart
    assert area == pytest.approx(2.0 * math.pi, rel=1e-15)
    area, _, _ = _region_moments(copy)
    assert len(calls) == 1  # position and tangent angle share the Gauss nodes
    assert area == pytest.approx(2.0 * math.pi, rel=1e-12)


@pytest.mark.parametrize("extra", [{}, {"orientation": -1, "center": [3.0, -1.0], "angle": 0.5},
                                   {"traversals": 2, "center": [-0.5, 0.2]}],
                         ids=["canonical", "reversed-placed", "two-passes"])
@pytest.mark.parametrize("spec", [{"kind": "ellipse", "a": 2.0, "b": 0.7},
                                  {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.08, -0.02, 0.01],
                                   "sin": [0.0, 0.03, 0.015, 0.0]}], ids=["ellipse", "fourier-support"])
def test_charted_region_moments_match_green_quadrature(spec, extra):
    from tractrix_lab.geom import _region_moments

    track = tl.make_curve(dict(spec, **extra))
    area, centroid, msr = _region_moments(track)
    expected = _region_moments(_chartless(track))  # 16-point Gauss panels in arc length
    assert abs(area - expected[0]) <= 1e-13 * abs(area)
    assert np.allclose(centroid, expected[1], rtol=0.0, atol=1e-13)
    assert abs(msr - expected[2]) <= 1e-13 * msr
    assert area == pytest.approx(tl.enclosed_area(track), rel=1e-14)


FRAME_SPECS = [
    {"kind": "circle", "r": 1.5, "center": [0.2, -0.1]},
    {"kind": "ellipse", "a": 2.0, "b": 1.0, "angle": 0.4, "center": [0.3, 0.5]},
    {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.08, -0.02], "sin": [0.0, 0.03, 0.015]},
    {"kind": "polyline", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]},
    {"kind": "polyline", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]], "fillet_radius": 0.2},
    {"kind": "samples", "points": [[2.0 * math.cos(a), math.sin(a)] for a in np.linspace(0.0, 6.0, 20)]},
    {"kind": "samples", "points": [[0.0, 0.0], [1.0, 0.5], [2.0, 0.0], [3.0, 1.0]], "closed": False},
    {"kind": "line", "start": [0.0, 1.0], "end": [3.0, 5.0]},
]


def _frame_tracks():
    tracks = [tl.make_curve(spec) for spec in FRAME_SPECS]
    tracks += [tl.make_curve(dict(FRAME_SPECS[1], traversals=2)),
               tl.geodesic_circle(0.8, Geometry.HYPERBOLIC), tl.geodesic_circle(1.0, Geometry.SPHERICAL),
               tl.geodesic_circle(0.8, Geometry.HYPERBOLIC, traversals=2)]
    out = []
    for track in tracks:
        out += [track, track.reversed(), track.reinterpreted(Geometry.HYPERBOLIC),
                *track.split_at_corners(), *track.reversed().split_at_corners()]
        if track.closed:
            out += [track.rebased(0.37), track.reversed().rebased(1.1)]
        if track.geometry is Geometry.EUCLIDEAN:
            out.append(track.transformed(0.7, (1.5, -2.0)))
    return out


FORMATS = Path(__file__).resolve().parents[1] / "FORMATS.md"


def test_make_curve_builds_every_formats_kind():
    section = FORMATS.read_text().split("## Curve spec")[1].split("\n## ")[0]
    kinds = re.findall(r"^\| `([a-z-]+)` \|", section, flags=re.M)
    examples = {spec["kind"]: spec for spec in FRAME_SPECS}
    examples["geodesic-circle"] = {"kind": "geodesic-circle", "rho": 1.0}
    assert sorted(kinds) == sorted(examples)
    for kind in kinds:
        assert isinstance(tl.make_curve(examples[kind]), tl.FrontTrack)


@pytest.mark.parametrize("geometry, rho", [("euclidean", 1.3), ("spherical", 1.0), ("hyperbolic", 0.8)])
@pytest.mark.parametrize("traversals", [1, 2])
@pytest.mark.parametrize("orientation", [1, -1])
def test_geodesic_circle_spec_is_geodesic_circle(geometry, rho, traversals, orientation):
    track = tl.make_curve({"kind": "geodesic-circle", "rho": rho, "geometry": geometry,
                           "traversals": traversals, "orientation": orientation})
    direct = tl.geodesic_circle(rho, Geometry(geometry), traversals)
    direct = direct if orientation == 1 else direct.reversed()
    assert (track.period, track.traversals, track.geometry) == (direct.period, traversals, Geometry(geometry))
    assert np.array_equal(track.pieces, direct.pieces)
    t = np.linspace(-0.5, 2.5 * track.total_length, 97)
    for got, want in zip(track.frame(t), direct.frame(t)):
        assert np.array_equal(got, want)
    assert np.array_equal(track.curvature(t), direct.curvature(t))


def test_circle_frame_is_closed_form():
    r = 1.5
    track = tl.make_curve({"kind": "circle", "r": r})
    t = np.linspace(0.0, track.period, 97, endpoint=False)
    xy, phi = track.frame(t)
    assert np.array_equal(xy, r * np.stack([np.cos(t / r), np.sin(t / r)], axis=-1))
    assert np.array_equal(phi, t / r + 0.5 * math.pi)
    assert np.array_equal(track.pieces, [[TWO_PI * r, 1.0 / r, 0.0]])


def test_frame_is_position_and_tangent_angle():
    for track in _frame_tracks():
        one = np.append(track.breakpoints, track.period)  # a pass may kink where the next begins
        corners = (one + track.period * np.arange(track.traversals)[:, None]).ravel()
        t = np.concatenate((np.linspace(-0.5, 2.5 * track.total_length, 97), corners, corners - 1e-9))
        xy, phi = track.frame(t)
        assert xy.shape == (t.size, 2) and phi.shape == t.shape
        assert np.array_equal(xy, track.position(t))
        assert np.array_equal(phi, track.tangent_angle(t))
        for scalar in (0.0, 0.3 * track.period, track.period, 1.7 * track.total_length):
            point, heading = track.frame(scalar)
            assert point.shape == (2,) and isinstance(heading, float)
            assert np.array_equal(point, track.position(scalar))
            assert heading == track.tangent_angle(scalar)


# -- charts: the tangent angle of support functions, the eccentric anomaly of ellipses

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"


def _rotated_support(spec: dict, angle: float) -> dict:
    # p(phi) -> p(phi - angle): a rigid rotation, which keeps every trace
    cos_c, sin_c = [], []
    for n, (a, b) in enumerate(zip(spec["cos"], spec["sin"]), start=1):
        c, s = math.cos(n * angle), math.sin(n * angle)
        cos_c.append(a * c - b * s)
        sin_c.append(a * s + b * c)
    return {"kind": "fourier-support", "a0": spec["a0"], "cos": cos_c, "sin": sin_c}


def _chartless(track):
    return tl.FrontTrack(track.period, track.frame, track.curvature,
                         closed=True, traversals=track.traversals)


@pytest.mark.parametrize("m", [8, 100, 8192])
def test_radius_on_grid_matches_the_series(m):
    # 8 points hold fewer than twice the 6 harmonics: the transform is taken on 16
    p = tl.SupportFunction.from_coefficients(1.0, [0.0, 0.02, -0.01, 0.003, 0.0, 0.001],
                                             [0.0, 0.01, 0.004, 0.0, -0.002, 0.0005])
    phi = np.linspace(0.0, TWO_PI, m, endpoint=False)
    assert np.max(np.abs(p.radius_on_grid(m) - p.radius_of_curvature(phi))) <= 1e-13


def test_fourier_monodromy_builds_no_arc_length_table(monkeypatch):
    from tractrix_lab._num import ArcLengthParam

    built = []
    init = ArcLengthParam.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArcLengthParam, "__init__", spy)
    track = tl.make_curve({"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.05, 0.01],
                           "sin": [0.0, -0.02, 0.0]})
    tl.monodromy(track, tl.BikeParams(ell=0.6))
    assert built == []
    assert track.period == TWO_PI  # the exact perimeter, 2 pi a0
    track.position(np.linspace(0.0, track.period, 5))
    track.curvature(np.linspace(0.0, track.period, 5))
    assert built == [1]  # built on the first arc-length accessor, once


FOURIER_SPEC = {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.08, -0.02, 0.01],
                "sin": [0.0, 0.03, 0.015, 0.0]}
VARIANTS = ("reversed", "transformed", "traversals")


@pytest.mark.parametrize("spec, variant",
                         [(FOURIER_SPEC, v) for v in VARIANTS]
                         + [({"kind": "ellipse", "a": 2.0, "b": 1.0}, v) for v in VARIANTS],
                         ids=[*VARIANTS, *(f"ellipse-{v}" for v in VARIANTS)])
def test_chart_tracks_match_their_arc_length_copies(spec, variant):
    if variant == "reversed":
        track = tl.make_curve(dict(spec, orientation=-1))
    elif variant == "transformed":
        track = tl.make_curve(spec).transformed(0.7, (1.5, -2.0))
    else:
        track = tl.make_curve(dict(spec, traversals=2))
    assert track.chart is not None
    copy = _chartless(track)
    assert copy.chart is None
    for ell in (0.4, 0.9, 1.2):
        params = tl.BikeParams(ell=ell)
        a, b = tl.monodromy(track, params).trace, tl.monodromy(copy, params).trace
        assert abs(a - b) <= 1e-9 * max(abs(b), 1.0)
        assert np.allclose(tl.monodromy_matrix(track, params), tl.monodromy_matrix(copy, params),
                           rtol=0.0, atol=1e-9 * max(abs(b), 1.0))


@pytest.mark.parametrize("cos, sin, symmetry", [
    ([0.0, 0.05], [], 2), ([], [0.0, 0.0, 0.01, 0.0, 0.0, 0.002], 3), ([0.0, 0.03, 0.01], [], 1),
    ([0.0] * 11 + [1e-4], [], 12), ([], [], 1), ([0.2], [0.1], 1),
])
def test_chart_symmetry_is_read_from_the_harmonics(cos, sin, symmetry):
    # the gcd of the harmonics n >= 2; a first harmonic is a translation and changes nothing
    for first in (0.0, 0.2):
        track = tl.make_curve({"kind": "fourier-support", "a0": 1.0, "cos": [first, *cos[1:]], "sin": sin})
        assert track.chart.symmetry == symmetry
        for derived in (track.reversed(), track.transformed(0.8, (1.0, -3.0)), track.rebased(1.7),
                        track.reinterpreted(Geometry.HYPERBOLIC)):
            assert derived.chart.symmetry == symmetry
    assert tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0, "traversals": 3}).chart.symmetry == 2


def test_chart_is_carried_or_dropped():
    track = tl.make_curve({"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.05]})
    assert track.reinterpreted(Geometry.HYPERBOLIC).chart is track.chart
    assert track.rebased(0.3).chart is not None  # shifted, see below
    assert _chartless(track).chart is None
    start, stop = track.position(np.array([0.0, track.period]))
    back = track.reversed()
    assert np.allclose(back.chart.points, [stop, start], atol=1e-12)
    assert back.chart.half_grid(8)[1] == -1.0


@pytest.mark.parametrize("t0", [0.3, 4.1, 14.0], ids=["near", "far", "past-period"])
@pytest.mark.parametrize("spec", [{"kind": "ellipse", "a": 2.0, "b": 1.0},
                                  {"kind": "ellipse", "a": 1.0, "b": 0.3, "orientation": -1,
                                   "center": [1.0, -2.0], "angle": 0.4},
                                  FOURIER_SPEC, dict(FOURIER_SPEC, orientation=-1, center=[0.5, 0.5])],
                         ids=["ellipse", "ellipse-reversed-placed", "fourier", "fourier-reversed-placed"])
def test_rebased_chart_starts_at_the_base_point(spec, t0):
    track = tl.make_curve(spec)
    based = track.rebased(t0)
    chart = based.chart
    xy, phi, _, _ = chart.frame(np.array([0.0, chart.span]))
    point, heading = track.frame(t0 % track.period)
    assert np.allclose(xy, point, rtol=0.0, atol=1e-12)
    assert abs(phi[0] - heading) <= 1e-12  # at t0's remainder: the passes before it do not count
    assert phi[1] - phi[0] == pytest.approx(TWO_PI * track.turning_single, abs=1e-12)
    # the shifted chart's own inverse, from its new start
    t = 0.6 * track.period
    assert np.allclose(chart.frame(np.array([chart.u_of_t(t)]))[0][0], track.position(t0 + t),
                       rtol=0.0, atol=1e-12)
    for ell in (0.5, 1.3):
        params = tl.BikeParams(ell=ell)
        a, b = tl.monodromy(based, params).trace, tl.monodromy(track, params).trace
        assert abs(a - b) <= 1e-12 * max(abs(b), 1.0)


@pytest.mark.parametrize("k", [1, 3, -2, 10**6, 10**9, 10**12, pytest.param(10**299, id="1e299")])
def test_rebased_many_passes_on_starts_at_its_remainder(k):
    # the start is t0's exact remainder in one pass, and the re-based track depends on it alone
    # (adding the passes' turning to its headings was refused from 1e12 and read turning 0 at 1e300)
    for track in _frame_tracks():
        if not track.closed:
            continue
        t0 = 0.3 * track.period + k * track.period
        far, near = track.rebased(t0), track.rebased(t0 % track.period)
        t = np.linspace(-0.5, 1.5 * track.total_length, 29)
        (xy_far, phi_far), (xy_near, phi_near) = far.frame(t), near.frame(t)
        assert np.array_equal(xy_far, xy_near)
        assert np.array_equal(phi_far, phi_near)
        if track.chart is not None:
            assert np.array_equal(far.chart.points, near.chart.points)
            assert np.array_equal(far.chart.frame(t)[0], near.chart.frame(t)[0])


CHAIN_SPECS = {"ellipse": {"kind": "ellipse", "a": 2.0, "b": 1.0},
               "ellipse-two-passes": {"kind": "ellipse", "a": 2.0, "b": 1.0, "traversals": 2},
               "fourier": {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.08, -0.02],
                           "sin": [0.0, 0.03, 0.015]}}


@pytest.mark.parametrize("spec", CHAIN_SPECS.values(), ids=CHAIN_SPECS.keys())
def test_chained_charts_agree_with_arc_length(spec):
    # every three-step chain of the combinators, re-based before, at and past the ends
    track = tl.make_curve(spec)
    steps = [lambda x: x.reversed(), lambda x: x.transformed(0.8, (1.0, -3.0))]
    steps += [lambda x, t0=t0: x.rebased(t0) for t0 in
              (0.0, 1.0, track.period, -2.5 * track.total_length, 1.7 * track.total_length)]
    t = np.array([0.0, track.period / 3.0, track.period])
    bad = []
    for chain in itertools.product(range(len(steps)), repeat=3):
        derived = track
        for i in chain:
            derived = steps[i](derived)
        chart = derived.chart
        point, heading = derived.frame(0.0)
        xy, phi, _, _ = chart.frame(np.array([chart.u_of_t(x) for x in t]))
        want_xy, want_phi = derived.frame(t)
        if not (np.allclose(chart.points[0], point, rtol=0.0, atol=1e-12)
                and abs(chart.headings[0] - heading) <= 1e-12
                and np.allclose(xy, want_xy, rtol=0.0, atol=1e-12)
                and np.allclose(phi, want_phi, rtol=0.0, atol=1e-12)):
            bad.append(chain)
    assert not bad, f"{len(bad)} of {len(steps) ** 3} chains disagree, first {bad[:3]}"


def test_derived_tracks_inherit_their_options():
    # what each combinator keeps of closed, traversals, geometry, pieces and chart
    circle = tl.geodesic_circle(0.8, Geometry.HYPERBOLIC, traversals=2)
    length, k, _ = circle.pieces[0]
    for derived, geometry, pieces in [
            (circle.reversed(), Geometry.HYPERBOLIC, [[length, -k, 0.0]]),
            (circle.rebased(0.3), Geometry.HYPERBOLIC, [[length - 0.3, k, 0.0], [0.3, k, 0.0]]),
            (circle.reinterpreted(Geometry.EUCLIDEAN), Geometry.EUCLIDEAN, circle.pieces)]:
        assert derived.closed and derived.traversals == 2
        assert derived.geometry is geometry and derived.chart is None
        assert np.allclose(derived.pieces, pieces, rtol=0.0, atol=1e-15)
    for spec in (FRAME_SPECS[1], FRAME_SPECS[4]):  # a placed ellipse, a filleted polyline
        track = tl.make_curve(spec)
        moved = track.transformed(0.7, (1.5, -2.0))
        assert moved.closed and moved.traversals == 1 and moved.geometry is Geometry.EUCLIDEAN
        assert (moved.pieces is None) == (track.pieces is None)
        assert track.pieces is None or np.array_equal(moved.pieces, track.pieces)
        assert (moved.chart is None) == (track.chart is None)
        if moved.chart is not None:
            ends = moved.position(np.array([0.0, track.period]))
            assert np.allclose(moved.chart.points, ends, rtol=0.0, atol=1e-12)


def test_reference_shapes_in_their_chart():
    # the benchmark's 24 shapes, rotated, against their 16-fold-step traces
    ref = json.loads(REFERENCE.read_text())
    rng = np.random.default_rng(302)
    worst = 0.0
    for shape in ref["monodromy_fourier"]:
        track = tl.make_curve(_rotated_support(shape["spec"], rng.uniform(0.0, TWO_PI)))
        for ell, expected in shape["trace"].items():
            trace = tl.monodromy(track, tl.BikeParams(ell=float(ell))).trace
            worst = max(worst, abs(trace - expected) / max(abs(expected), 1.0))
    # 4.8153e-10 on extrapolated maps (4.81e-10 raw): the worst rows, at ell
    # 0.4, are rounding-bound, and (M - Mc) / 15 adds 1/15 of the coarse
    # product's rounding to the fine product's
    assert worst <= 4.82e-10


# -- what a charted track reads from its chart ------------------------------

@pytest.mark.parametrize("spec", [{"kind": "ellipse", "a": 2.0, "b": 1.0, "angle": 0.4},
                                  FOURIER_SPEC], ids=["ellipse", "fourier-support"])
def test_menzin_builds_no_arc_length_table(spec, monkeypatch):
    from tractrix_lab._num import ArcLengthParam

    built = []
    init = ArcLengthParam.__init__

    def spy(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArcLengthParam, "__init__", spy)
    track = tl.make_curve(spec)
    assert track.chart is not None
    tl.monodromy(track, tl.BikeParams(ell=0.6, steps_per_traversal=512))
    tl.critical_length(track, steps_per_traversal=512)
    assert tl.menzin_verify(track, steps_per_traversal=512).ok
    assert built == []


@pytest.mark.parametrize("a, b", [(1.0, 0.9), (1.0, 0.5), (2.0, 1.0), (15.0, 1.0), (1.0, 1.0),
                                  (0.5, 2.0)])
def test_ellipse_perimeter_is_the_closed_form(a, b, monkeypatch):
    from tractrix_lab._num import ArcLengthParam

    with monkeypatch.context() as patch:  # the perimeter is read without the table
        patch.setattr(ArcLengthParam, "__init__", lambda *args, **kwargs: pytest.fail("table built"))
        track = tl.make_curve({"kind": "ellipse", "a": a, "b": b})
    big, small = max(a, b), min(a, b)
    assert track.period == pytest.approx(4.0 * big * ellipe(1.0 - (small / big) ** 2), rel=1e-15)
    # the arc-length table's own total is off by up to 2.4e-15 (0.5x2)
    table = ArcLengthParam(lambda u: np.hypot(a * np.sin(u), b * np.cos(u)), 0.0, TWO_PI)
    assert track.period == pytest.approx(table.total, rel=3e-15)


@pytest.mark.parametrize("a, b", [(2.0, 1.0), (1.0, 3.0), (15.0, 1.0)])
def test_charted_curvature_range_and_area_are_exact(a, b):
    track = tl.make_curve({"kind": "ellipse", "a": a, "b": b, "angle": 0.3, "center": [1.0, 2.0]})
    ends = sorted((b / a**2, a / b**2))
    assert track.curvature_range() == pytest.approx(ends, rel=1e-15)
    assert tl.enclosed_area(track) == math.pi * a * b
    back = track.reversed()
    assert back.curvature_range() == pytest.approx([-ends[1], -ends[0]], rel=1e-15)
    assert tl.enclosed_area(back) == -math.pi * a * b
    assert tl.enclosed_area(tl.make_curve({"kind": "ellipse", "a": a, "b": b, "traversals": 2})) \
        == 2.0 * math.pi * a * b


def test_fourier_area_is_the_parseval_sum():
    track = tl.make_curve(dict(FOURIER_SPEC, center=[3.0, -1.0], angle=0.5))
    p = tl.SupportFunction.from_coefficients(FOURIER_SPEC["a0"], FOURIER_SPEC["cos"],
                                             FOURIER_SPEC["sin"])
    area = tl.support_length_area(p)[1]
    assert tl.enclosed_area(track) == area
    assert tl.enclosed_area(track.reversed()) == -area
    assert tl.enclosed_area(_chartless(track)) == pytest.approx(area, rel=1e-13)
    rho = p.radius_on_grid(8192)[::2]  # every other point of the convexity probe
    assert track.curvature_range() == (1.0 / np.max(rho), 1.0 / np.min(rho))


# -- properties over random convex specs -------------------------------------


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1))
def test_random_support_specs_are_convex(seed):
    spec = random_convex_spec(np.random.default_rng(seed))
    track = tl.make_curve(spec)
    assert track.convex
    assert tl.enclosed_area(track) > 0.0
    p = tl.support_function(track, n_grid=1024, n_harmonics=32)
    length, area = tl.support_length_area(p)
    assert length == pytest.approx(track.total_length, rel=1e-6)
    assert area == pytest.approx(tl.enclosed_area(track), rel=1e-6)
    assert tl.isoperimetric_defect(p) >= -1e-8
