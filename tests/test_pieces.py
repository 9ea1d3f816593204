"""Closed-form propagation on tracks made of constant-curvature pieces and corners."""

import json
import math

import numpy as np
import pytest

import tractrix_lab as tl
from tractrix_lab.cli import main
from tractrix_lab.geom import Geometry
from tractrix_lab.moebius import MapClass

SQUARE = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]


def _square_trace(ell: float) -> float:
    # (R(pi/4) diag(e^-x, e^x))^4 with x = 1/(2 ell)
    return abs((math.cosh(1.0 / ell) - 1.0) ** 2 - 2.0)


def _circle_trace(r: float, ell: float) -> float:
    disc = r * r / (ell * ell) - 1.0
    if disc >= 0.0:
        return 2.0 * math.cosh(math.pi * math.sqrt(disc))
    return 2.0 * abs(math.cos(math.pi * math.sqrt(-disc)))


def test_square_trace_is_the_exact_corner_value_in_every_copy():
    square = tl.make_curve({"kind": "polyline", "vertices": SQUARE})
    copies = {
        "counterclockwise": square,
        "clockwise": tl.make_curve({"kind": "polyline", "vertices": SQUARE, "orientation": -1}),
        "translated": square.transformed(rotation=0.3, translation=(2.0, -5.0)),
        "rebased inside an edge": square.rebased(0.37),
        "rebased on a corner": square.rebased(1.0),
        "reversed and rebased": square.reversed().rebased(2.2),
    }
    expected = _square_trace(0.7)
    assert expected == pytest.approx(0.5450997494, abs=1e-10)
    for name, track in copies.items():
        rep = tl.monodromy(track, tl.BikeParams(ell=0.7))
        assert abs(rep.trace - expected) < 1e-12, name
        assert rep.map_class is MapClass.ELLIPTIC, name


def test_polyline_pieces_follow_the_combinators():
    square = tl.make_curve({"kind": "polyline", "vertices": SQUARE})
    turn = 0.5 * math.pi
    assert np.allclose(square.pieces, [[1.0, 0.0, turn]] * 4)
    assert np.allclose(square.reversed().pieces, [[1.0, 0.0, -turn]] * 4)
    assert np.allclose(square.rebased(0.25).pieces,
                       [[0.75, 0.0, turn]] + [[1.0, 0.0, turn]] * 3 + [[0.25, 0.0, 0.0]])
    assert np.array_equal(square.reinterpreted(Geometry.HYPERBOLIC).pieces, square.pieces)
    # the tangent at the end of the pass includes the last corner
    for track in (square, square.reversed(), square.rebased(0.25)):
        span = track.tangent_angle(track.period) - track.tangent_angle(0.0)
        assert span == pytest.approx(track.turning_single * 2.0 * math.pi, abs=1e-12)


def test_clockwise_square_heads_along_its_first_edge():
    # traced the other way, the square leaves (0, 0) up its left edge
    clockwise = tl.make_curve({"kind": "polyline", "vertices": SQUARE, "orientation": -1})
    assert np.allclose(clockwise.position(np.array([0.1, 1.1])), [[0.0, 0.1], [0.1, 1.0]])
    tangent = clockwise.tangent_angle(np.array([0.0, 0.1, 1.0, 1.1, 3.9]))
    expected = np.array([0.5, 0.5, 0.0, 0.0, 1.0]) * math.pi
    assert np.allclose(np.mod(tangent - expected + math.pi, 2.0 * math.pi), math.pi, atol=1e-15)
    assert tl.enclosed_area(clockwise) == pytest.approx(-1.0, abs=1e-15)
    assert [leg.tangent_angle(0.5) % (2.0 * math.pi) for leg in clockwise.split_at_corners()] \
        == pytest.approx([0.5 * math.pi, 0.0, 1.5 * math.pi, math.pi], abs=1e-15)


@pytest.mark.parametrize("placement", ["normal", "centroid"])
def test_planimeter_reading_of_a_mirrored_rectangle_flips_sign(placement):
    rectangle = tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]})
    # the mirror image in the x axis, traced clockwise from the same vertex
    mirrored = tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [0, -1], [2, -1], [2, 0]],
                              "orientation": -1})
    a = tl.measure(rectangle, 3.0, base=0.3, placement=placement)
    b = tl.measure(mirrored, 3.0, base=0.3, placement=placement)
    assert b.exact_area == pytest.approx(-a.exact_area, rel=1e-15)
    assert b.deflection == pytest.approx(-a.deflection, rel=1e-13)
    assert b.estimate == pytest.approx(-a.estimate, rel=1e-13)


def test_reversed_geodesic_circle_closes():
    cap = tl.geodesic_circle(1.0, Geometry.SPHERICAL).reversed()
    assert cap.turning_single == -1
    assert np.array_equal(cap.pieces, [[cap.period, -1.0 / math.tan(1.0), 0.0]])


def test_tiny_fillet_is_elliptic_and_near_the_corner_value():
    rounded = tl.make_curve({"kind": "polyline", "vertices": SQUARE, "fillet_radius": 1e-9})
    rep = tl.monodromy(rounded, tl.BikeParams(ell=0.7))
    assert rep.map_class is MapClass.ELLIPTIC
    assert abs(rep.trace - _square_trace(0.7)) < 1e-8


def test_zero_fillet_is_refused(capsys, tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"kind": "polyline", "vertices": SQUARE, "fillet_radius": 0}))
    assert main(["monodromy", "--input", str(path), "--ell", "0.7"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("ell", np.linspace(0.01, 0.9, 25))
def test_unit_circle_traces_match_the_closed_form(unit_circle, ell):
    rep = tl.monodromy(unit_circle, tl.BikeParams(ell=float(ell)))
    assert rep.trace == pytest.approx(_circle_trace(1.0, float(ell)), rel=1e-13)


def test_trace_is_continuous_across_the_parabolic_wheelbase(unit_circle):
    below = tl.monodromy(unit_circle, tl.BikeParams(ell=1.0 - 1e-9))
    at = tl.monodromy(unit_circle, tl.BikeParams(ell=1.0))
    above = tl.monodromy(unit_circle, tl.BikeParams(ell=1.0 + 1e-9))
    assert at.trace == 2.0
    assert at.map_class is MapClass.PARABOLIC
    assert at.rear_lengths == (0.0,)
    for rep, ell in ((below, 1.0 - 1e-9), (above, 1.0 + 1e-9)):
        assert abs(rep.trace - _circle_trace(1.0, ell)) < 1e-14
    assert below.trace > 2.0 > above.trace
    assert below.trace - above.trace < 1e-7


def test_piecewise_monodromy_never_refines(unit_circle):
    rep = tl.monodromy(unit_circle, tl.BikeParams(ell=0.1, steps_per_traversal=64))
    assert rep.n_steps == 64
    assert rep.residual < 1e-15


@pytest.mark.parametrize("case", ["ellipse", "fourier", "spherical-circle"])
def test_rear_lengths_match_the_integral_from_the_fixed_angle(case):
    if case == "ellipse":
        track, ell, geometry = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0}), 0.8, Geometry.EUCLIDEAN
    elif case == "fourier":
        spec = {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.05], "sin": [0.0, 0.0, 0.03]}
        track, ell, geometry = tl.make_curve(spec), 0.6, Geometry.EUCLIDEAN
    else:  # cot(ell) < 0 past pi/2, so the attracting rear length is negative
        track, ell, geometry = tl.geodesic_circle(1.3, Geometry.SPHERICAL), 2.0, Geometry.SPHERICAL
    rep = tl.monodromy(track, tl.BikeParams(ell=ell, geometry=geometry))
    assert rep.map_class is MapClass.HYPERBOLIC
    fine = tl.BikeParams(ell=ell, geometry=geometry, steps_per_traversal=2**16)
    # a repelling angle is integrated forward, where its error grows by the
    # multiplier, so it starts from the angle of the finer map
    for fp, rear in zip(tl.monodromy(track, fine).fixed_points, rep.rear_lengths):
        integral = tl.signed_rear_length(tl.integrate_steering(track, fine, fp.angle))
        assert rear == pytest.approx(integral, rel=1e-9, abs=1e-9)
    if case == "spherical-circle":
        assert rep.rear_lengths[0] < 0.0


def test_dense_history_turns_at_the_corners():
    square = tl.make_curve({"kind": "polyline", "vertices": SQUARE})
    params = tl.BikeParams(ell=0.7, steps_per_traversal=64)
    sol = tl.integrate_steering(square, params, 0.3)
    rep = tl.monodromy(square, params)
    assert sol.final_alpha % (2.0 * math.pi) == pytest.approx(rep.map.act_angle(0.3), abs=1e-13)
    # a corner on a grid node belongs to the step that ends there: the angle
    # jumps by the turn plus one step of the flow
    jumps = np.diff(sol.alpha)[15::16]
    assert np.all(np.abs(jumps - 0.5 * math.pi) < 0.1)
    ends, beta = tl.steering_endpoints(square, params, [0.3], variational=True)
    assert ends[0] == sol.final_alpha
    assert beta[0] == pytest.approx(rep.map.derivative(0.3), rel=1e-13)


def test_corners_count_in_the_gauss_bonnet_area():
    square = tl.make_curve({"kind": "polyline", "vertices": SQUARE})
    # straight edges and four right turns: zero total curvature deficit
    assert tl.geodesic_area(square.reinterpreted(Geometry.HYPERBOLIC)) == pytest.approx(0.0, abs=1e-12)


def test_developed_square_turns_at_its_corners():
    # geodesic legs of length 1 and right turns, composed on the hyperboloid
    square = tl.make_curve({"kind": "polyline", "vertices": SQUARE})
    curve = tl.develop_hyperbolic(square, n_steps=64)
    frame = np.eye(3)  # rows P, T, N
    for corner in range(1, 5):
        p, t, n = frame
        frame = np.array([math.cosh(1.0) * p + math.sinh(1.0) * t,
                          math.sinh(1.0) * p + math.cosh(1.0) * t, n])
        p, t, n = frame
        frame = np.array([p, n, -t])  # turn left by pi/2
        node = 16 * corner
        developed = np.array([curve.points[node], curve.tangents[node], curve.normals[node]])
        assert np.abs(developed - frame).max() < 1e-14
    # a straight geodesic of the same length would end 4 apart
    assert curve.closure_gap()[0] == pytest.approx(0.8744625762, abs=1e-9)
    assert curve.frame_defect() < 1e-14
    with pytest.raises(tl.ValidationError):
        tl.develop_hyperbolic(square, 2.0)


def test_split_at_corners_gives_the_stretches_between_turns():
    square = tl.make_curve({"kind": "polyline", "vertices": SQUARE}).rebased(0.25)
    legs = square.split_at_corners()
    assert [leg.total_length for leg in legs] == pytest.approx([0.75, 1.0, 1.0, 1.0, 0.25])
    for leg in legs:
        # a stretch keeps its direction up to the corner that ends it
        assert leg.tangent_angle(leg.total_length) == pytest.approx(leg.tangent_angle(0.0), abs=1e-15)
    assert np.allclose(legs[-1].position(np.array([0.25])), square.position(0.0))
    circle = tl.make_curve({"kind": "circle", "r": 1.0})
    assert circle.split_at_corners() == [circle]


@pytest.mark.parametrize("placement", ["normal", "centroid"])
def test_planimeter_closes_on_a_polyline_with_exact_corners(placement):
    rectangle = tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [2, 0], [2, 1], [0, 1]]})
    reading = tl.measure(rectangle, 3.0, base=0.3, placement=placement)
    assert reading.exact_area == pytest.approx(2.0, rel=1e-15)
    # stepping RK4 across the corners left a closure defect of 6e-4
    assert abs(reading.closure_defect) < 1e-11


# -- closed-form areas on pieces ---------------------------------------------


def _green_area(track, panels: int = 4096) -> float:
    # Gauss-Legendre Green quadrature, exact to rounding on every arc
    from tractrix_lab._num import panel_nodes
    from tractrix_lab.geom import _area_density

    one = np.append(track.breakpoints, track.period)  # a pass may kink where the next begins
    corners = (one + track.period * np.arange(track.traversals)[:, None]).ravel()
    t, weights = panel_nodes(0.0, track.total_length, corners, min_panels=panels * track.traversals)
    xy, phi = track.frame(t.ravel())
    return float(np.sum(weights * _area_density(xy[..., 0], xy[..., 1], np.cos(phi),
                                                 np.sin(phi)).reshape(t.shape)))


def _ulps(value: float, exact: float) -> float:
    return abs(value - exact) / math.ulp(exact)


@pytest.mark.parametrize("w, h, r", [(2.0, 2.0, 0.3), (3.0, 1.0, 0.4), (5.0, 2.0, 0.999),
                                     (1.0, 1.0, 0.01)])
def test_filleted_rectangle_area_is_exact(w, h, r):
    rect = tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [w, 0], [w, h], [0, h]],
                          "fillet_radius": r})
    exact = w * h - (4.0 - math.pi) * r * r
    assert _ulps(tl.enclosed_area(rect), exact) <= 2.0
    assert _ulps(tl.enclosed_area(rect), _green_area(rect)) <= 4.0


def test_reversed_piece_track_has_the_negative_area():
    # the chords and segments are the same terms with their signs flipped,
    # summed exactly rounded, so the sum flips exactly where the piece starts
    # evaluate to the same points (one piece; exact vertices)
    for track in (tl.make_curve({"kind": "circle", "r": 1.7, "center": [3.0, -2.0]}),
                  tl.make_curve({"kind": "polyline", "vertices": SQUARE})):
        assert tl.enclosed_area(track.reversed()) == -tl.enclosed_area(track)
    # elsewhere the reversed starts may round differently
    filleted = tl.make_curve({"kind": "polyline", "vertices": [[-1, -1], [1, -1], [1, 1], [-1, 1]],
                              "fillet_radius": 0.3})
    assert _ulps(-tl.enclosed_area(filleted.reversed()), tl.enclosed_area(filleted)) <= 2.0


def test_passes_multiply_the_piece_area():
    spec = {"kind": "polyline", "vertices": [[0, 0], [4, 0], [5, 3], [2, 5], [-1, 3]],
            "fillet_radius": 0.4}
    once = tl.enclosed_area(tl.make_curve(spec))
    twice = tl.make_curve(spec | {"traversals": 2})
    assert tl.enclosed_area(twice) == 2.0 * once
    # Green quadrature agrees once a panel ends where one pass kinks into the next
    assert _ulps(_green_area(twice), 2.0 * once) <= 8.0


@pytest.mark.parametrize("center", [(0.0, 0.0), (3.0, -2.0), (1e3, -2e3), (1e6, 1e6)])
def test_placed_circle_area_does_not_see_its_center(center):
    for r in (0.5, 1.7, 3.0):
        circle = tl.make_curve({"kind": "circle", "r": r, "center": list(center)})
        assert _ulps(tl.enclosed_area(circle), math.pi * r * r) <= 1.0


@pytest.mark.parametrize("rise", [1e-6, 1e-3])
def test_nearly_collinear_fillet_takes_the_series(rise):
    # the corner at (1, rise) turns by about 2 rise: its fillet's theta = k L is tiny
    track = tl.make_curve({"kind": "polyline", "vertices": [[0, 0], [1, rise], [2, 0], [2, 1], [0, 1]],
                           "fillet_radius": 0.2})
    length, k, _ = track.pieces.T
    assert np.min(np.abs(k * length)[k != 0.0]) < 3.0 * rise
    assert _ulps(tl.enclosed_area(track), _green_area(track)) <= 4.0


def test_geodesic_circle_keeps_its_green_area():
    # flat chart positions with geodesic curvature: the planar sum does not apply
    from tractrix_lab.geom import _area_density, _boundary_nodes

    for geometry in (Geometry.SPHERICAL, Geometry.HYPERBOLIC):
        cap = tl.geodesic_circle(1.0, geometry)
        weights, xy, phi = _boundary_nodes(cap)
        green = np.sum(weights * _area_density(xy[:, 0], xy[:, 1], np.cos(phi), np.sin(phi)))
        assert tl.enclosed_area(cap) == green


def test_open_line_area_is_its_end_term():
    from tractrix_lab.geom import _path_area

    line = tl.make_curve({"kind": "line", "start": [1.0, 2.0], "end": [5.0, 3.0]})
    assert _path_area(line) == 0.5 * (1.0 * 3.0 - 2.0 * 5.0)
    # the tractrix's circuit area does not depend on where its line lies
    for start in ([0.0, 0.0], [3.0, -2.0]):
        ell = 1.3
        line = tl.make_curve({"kind": "line", "start": start, "end": [start[0] + 40 * ell, start[1]]})
        sol = tl.integrate_steering(line, tl.BikeParams(ell=ell), math.pi - 1e-7)
        assert tl.area_between_tracks(sol) == pytest.approx(0.5 * math.pi * ell**2, rel=1e-6)
