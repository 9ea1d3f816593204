"""Circle-map algebra and the fitted steering monodromy."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tractrix_lab as tl
from tractrix_lab.geom import Geometry
from tractrix_lab.moebius import MapClass, MoebiusMap, from_three_pairs

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


def _rotation(phi: float) -> MoebiusMap:
    """Circle rotation by ``phi`` (an SL(2) rotation by half the angle)."""
    c, s = math.cos(0.5 * phi), math.sin(0.5 * phi)
    return MoebiusMap.from_matrix([[c, s], [-s, c]])


# -- canonical form ----------------------------------------------------------


def test_from_matrix_canonicalizes_scale_and_sign():
    m = MoebiusMap.from_matrix([[2.0, 0.0], [0.0, 8.0]])
    assert np.linalg.det(m.matrix) == pytest.approx(1.0, abs=1e-12)
    assert m.trace >= 0.0
    neg = MoebiusMap.from_matrix([[-2.0, 0.0], [0.0, -8.0]])
    assert np.allclose(m.matrix, neg.matrix, atol=1e-12)


def test_from_matrix_rejects_singular():
    with pytest.raises(tl.ValidationError):
        MoebiusMap.from_matrix([[1.0, 1.0], [1.0, 1.0]])


def test_identity_map():
    ident = MoebiusMap.identity()
    assert ident.distance_to_identity() == pytest.approx(0.0, abs=1e-15)
    angles = np.linspace(0.0, TWO_PI, 9, endpoint=False)
    assert np.allclose(np.vectorize(ident.act_angle)(angles), angles, atol=1e-12)


# -- classification and fixed points -----------------------------------------


def test_distance_of_huge_maps_does_not_overflow():
    m = MoebiusMap._canonical(np.array([[1e200, 3e199], [0.0, 1e-200]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = m.distance_to_identity()
    assert d == pytest.approx(math.hypot(1e200, 3e199), rel=1e-12)


def test_rotation_is_elliptic():
    rot = _rotation(1.0)
    assert rot.classify() is MapClass.ELLIPTIC
    assert rot.fixed_points() == ()
    # every angle advances by the same amount
    for a in (0.0, 1.3, 4.0):
        assert (rot.act_angle(a) - a) % TWO_PI == pytest.approx(1.0, abs=1e-12)


def test_diagonal_hyperbolic_fixed_points():
    m = MoebiusMap.from_matrix(np.diag([3.0, 1.0 / 3.0]))
    assert m.classify() is MapClass.HYPERBOLIC
    fps = m.fixed_points()
    assert len(fps) == 2
    # z = (sin(a/2), cos(a/2)): the expanding axis e1 is the angle pi
    assert fps[0].angle == pytest.approx(math.pi, abs=1e-12)
    assert fps[0].multiplier == pytest.approx(1.0 / 9.0, rel=1e-12)
    assert fps[0].attracting
    assert fps[1].angle == pytest.approx(0.0, abs=1e-12)
    assert fps[1].multiplier == pytest.approx(9.0, rel=1e-12)
    assert not fps[1].attracting
    # fixed angles are actually fixed
    for fp in fps:
        assert math.sin(0.5 * (m.act_angle(fp.angle) - fp.angle)) == pytest.approx(0.0, abs=1e-9)


def test_huge_trace_fixed_points_are_finite():
    # the subtractive small-eigenvalue formula collapses past trace ~1e8;
    # reciprocal eigenvalues must keep both fixed points computable
    m = MoebiusMap.from_matrix(np.diag([1e9, 1e-9]))
    fps = m.fixed_points()
    assert len(fps) == 2
    assert fps[0].multiplier == pytest.approx(1e-18, rel=1e-6)
    assert fps[1].multiplier == pytest.approx(1e18, rel=1e-6)
    rot = _rotation(0.8)
    conj = MoebiusMap.from_matrix(rot.matrix @ np.diag([1e9, 1e-9]) @ rot.inverse().matrix)
    fps = conj.fixed_points()
    assert fps[0].angle == pytest.approx((math.pi + 0.8) % TWO_PI, abs=1e-6)
    assert fps[0].attracting and not fps[1].attracting


def test_parabolic_fixed_point():
    m = MoebiusMap.from_matrix([[1.0, 1.0], [0.0, 1.0]])
    assert m.classify() is MapClass.PARABOLIC
    fps = m.fixed_points()
    assert len(fps) == 1
    assert fps[0].multiplier == pytest.approx(1.0)
    a = fps[0].angle
    assert math.sin(0.5 * (m.act_angle(a) - a)) == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("s", [0.7, -0.7, 3.0, -3.0])
@pytest.mark.parametrize("phi", [0.0, 0.3, 1.9, -2.6, math.pi])
def test_parabolic_fixed_point_of_a_conjugated_shear(phi, s):
    # R [[1, s], [0, 1]] R^-1 fixes the lift R (1, 0) = (cos phi, sin phi),
    # whose circle angle is 2 atan2(cos phi, sin phi) = pi - 2 phi
    r = np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])
    m = MoebiusMap.from_matrix(r @ np.array([[1.0, s], [0.0, 1.0]]) @ r.T)
    assert m.classify() is MapClass.PARABOLIC
    (fp,) = m.fixed_points()
    assert fp.multiplier == 1.0
    assert abs(math.remainder(fp.angle - (math.pi - 2.0 * phi), TWO_PI)) < 1e-12


# -- group structure ---------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=8, max_size=8))
@example([-1.0, 0.0, 1.1125369292536007e-308, 0.0, 0.0, 0.0, 0.0, 0.0])  # a subnormal entry
def test_compose_and_inverse(vals):
    m1 = np.array(vals[:4]).reshape(2, 2) + np.eye(2)
    m2 = np.array(vals[4:]).reshape(2, 2) + np.eye(2)

    def det(m):  # closed form: np.linalg.det warns on subnormal entries
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    if abs(det(m1)) < 1e-3 or abs(det(m2)) < 1e-3:
        return
    # negate if orientation-reversing: the circle maps live in PSL(2, R)
    if det(m1) < 0:
        m1[0] *= -1.0
    if det(m2) < 0:
        m2[0] *= -1.0
    a, b = MoebiusMap.from_matrix(m1), MoebiusMap.from_matrix(m2)
    comp = a.compose(b)
    for angle in (0.1, 2.0, 5.0):
        chained = a.act_angle(b.act_angle(angle))
        assert math.sin(0.5 * (comp.act_angle(angle) - chained)) == pytest.approx(0.0, abs=1e-9)
    assert a.compose(a.inverse()).distance_to_identity() < 1e-9


def test_act_x_matches_act_angle():
    m = MoebiusMap.from_matrix([[1.2, 0.3], [-0.1, 0.9]])
    for angle in (0.3, 1.1, 2.9):
        x = math.tan(0.5 * angle)
        assert m.act_x(x) == pytest.approx(math.tan(0.5 * m.act_angle(angle)), rel=1e-10)


def test_derivative_matches_finite_difference():
    m = MoebiusMap.from_matrix([[1.4, 0.2], [0.1, 0.8]])
    h = 1e-6
    for angle in (0.0, 1.0, 3.7):
        numeric = (m.act_angle(angle + h) - m.act_angle(angle - h)) / (2.0 * h)
        assert m.derivative(angle) == pytest.approx(numeric, rel=1e-6)


def test_derivative_integrates_to_full_turn():
    # degree-one circle diffeomorphism: the derivative has mean 1
    m = MoebiusMap.from_matrix([[1.5, 0.4], [0.2, 0.8]])
    angles = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
    assert np.mean(m.derivative(angles)) == pytest.approx(1.0, rel=1e-10)


# -- three-point fitting -----------------------------------------------------


def test_from_three_pairs_reconstructs():
    target = MoebiusMap.from_matrix([[1.3, 0.25], [-0.15, 0.85]])
    angles = [0.0, 2.0, 4.0]
    pairs = [(a, target.act_angle(a)) for a in angles]
    fitted = from_three_pairs(pairs)
    assert fitted.distance(target) < 1e-9


def test_from_three_pairs_rejects_coincident():
    with pytest.raises(tl.ValidationError):
        from_three_pairs([(0.0, 1.0), (0.0 + TWO_PI, 2.0), (3.0, 4.0)])


def test_from_three_pairs_rejects_orientation_reversal():
    with pytest.raises(tl.ValidationError):
        from_three_pairs([(0.0, 0.0), (1.0, 2.0), (2.0, 1.0)])


# -- fitted monodromy --------------------------------------------------------


def test_monodromy_circle_oracle(circle2):
    rep = tl.monodromy(circle2, tl.BikeParams(ell=1.0))
    assert rep.map_class is MapClass.HYPERBOLIC
    assert rep.trace == pytest.approx(2.0 * math.cosh(math.pi * SQRT3), rel=1e-9)
    att = rep.fixed_points[0]
    assert att.angle == pytest.approx(math.pi / 6.0, abs=1e-8)
    assert att.multiplier == pytest.approx(math.exp(-TWO_PI * SQRT3), rel=1e-5)
    assert rep.rear_lengths[0] == pytest.approx(TWO_PI * SQRT3, rel=1e-8)
    assert rep.rear_lengths[1] == pytest.approx(-TWO_PI * SQRT3, rel=1e-8)
    assert rep.residual < 1e-6


@pytest.mark.parametrize("ell, rel", [(0.01, 1e-4), (0.05, 1e-6), (0.1, 1e-6), (0.15, 1e-6),
                                      (0.2, 1e-6)])
def test_monodromy_stiff_circle_trace(unit_circle, ell, rel):
    # the product's own ad - bc is rounding noise here; the map is not scaled by it
    rep = tl.monodromy(unit_circle, tl.BikeParams(ell=ell))
    assert rep.trace == pytest.approx(2.0 * math.cosh(math.pi * math.sqrt(1.0 / ell**2 - 1.0)),
                                      rel=rel)


@pytest.mark.parametrize("ell", [0.05, 0.01])
def test_unresolved_grid_is_refined_not_kept(unit_circle, ell):
    # on 16 steps h * c is about 8 and 39: the smooth circle's grid is doubled
    # until h * c <= 2 (64 and 512 steps), then while the estimate falls
    smooth = tl.FrontTrack(unit_circle.period, unit_circle.frame, unit_circle.curvature, closed=True)
    rep = tl.monodromy(smooth, tl.BikeParams(ell=ell, steps_per_traversal=16))
    exact = 2.0 * math.cosh(math.pi * math.sqrt(1.0 / ell**2 - 1.0))
    assert rep.n_steps == 1024
    assert rep.trace == pytest.approx(exact, rel=2.0 * rep.residual)


@pytest.mark.parametrize("ell", [0.1, 0.15, 0.2, 0.3])
def test_monodromy_stiff_circle_rear_lengths(unit_circle, ell):
    # rear circles of radius sqrt(1 - ell^2), ridden forward and backward
    rep = tl.monodromy(unit_circle, tl.BikeParams(ell=ell))
    exact = TWO_PI * math.sqrt(1.0 - ell**2)
    assert rep.rear_lengths[0] == pytest.approx(exact, rel=1e-9)
    assert rep.rear_lengths[1] == pytest.approx(-exact, rel=1e-9)


def test_repelling_rear_length_is_propagated_backward(ellipse21):
    # forward from the repelling angle, rounding grows by its multiplier;
    # the reference is a backward RK4 run, along which the angle attracts
    rep = tl.monodromy(ellipse21, tl.BikeParams(ell=0.3))
    assert not rep.fixed_points[1].attracting
    assert rep.rear_lengths[1] == pytest.approx(-9.40651484, abs=1e-8)


def test_report_of_a_strongly_hyperbolic_map_reads_back(unit_circle):
    # at trace ~ 2.7e136, ad - bc of the stored entries is rounding noise
    rep = tl.monodromy(unit_circle, tl.BikeParams(ell=0.01))
    back = tl.MonodromyReport.from_json(rep.to_json())
    assert np.array_equal(back.map.matrix, rep.map.matrix)
    assert back.to_json() == rep.to_json()


def test_coarse_grid_is_refined_to_the_error_cap(ellipse21):
    # the step-doubling estimate of 16 steps is ~1e-2; each doubling cuts it
    # about 16-fold until it is under the 1e-6 cap, and the map then agrees
    # with a fine grid to that error
    rep = tl.monodromy(ellipse21, tl.BikeParams(ell=1.0, steps_per_traversal=16))
    fine = tl.monodromy(ellipse21, tl.BikeParams(ell=1.0, steps_per_traversal=4096))
    assert rep.n_steps == 128
    scale = np.max(np.abs(fine.map.matrix))
    assert np.max(np.abs(rep.map.matrix - fine.map.matrix)) < 1e-6 * scale
    assert rep.eps_parabolic > fine.eps_parabolic == 1e-7  # the band widens with the error


def test_unresolved_track_keeps_the_grid_with_the_least_error():
    # a radius of curvature down to 1e-4 makes a curvature spike of height
    # 1e4 about 1e-6 wide in arc length, far below a step of the default grid
    # (1.5e-3): doubling the steps raises the error estimate instead of
    # cutting it, so the first grid is kept and the parabolic band widens
    # with its error. The copy drops the track's tangent-angle chart, so it
    # is stepped in arc length.
    spike = tl.make_curve({"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.3333]})
    chartless = tl.FrontTrack(spike.period, spike.frame, spike.curvature, closed=True)
    rep = tl.monodromy(chartless, tl.BikeParams(ell=1.0))
    assert rep.n_steps == 4096
    assert rep.eps_parabolic > 0.1


def test_refinement_survives_one_doubling_that_raises_the_error():
    # stepped in arc length, the 15x1 ellipse's cap row (ell = 10 sqrt(15))
    # reads error estimates 3.5e-3, 5.4e-3, 4.2e-4, 2.3e-6 and 5.9e-8 at 512
    # to 8192 steps: the first doubling is short of RK4's asymptotic range,
    # not past the track's resolution. Stopping there kept 512 steps and
    # read a parabolic trace 1.99044
    ellipse = tl.make_curve({"kind": "ellipse", "a": 15.0, "b": 1.0})
    chartless = tl.FrontTrack(ellipse.period, ellipse.frame, ellipse.curvature, closed=True)
    rep = tl.monodromy(chartless, tl.BikeParams(ell=10.0 * math.sqrt(15.0), steps_per_traversal=512))
    assert rep.n_steps == 8192 and rep.residual < 1e-6
    assert rep.map_class is tl.MapClass.ELLIPTIC
    assert rep.trace == pytest.approx(1.9997438, abs=1e-6)


def test_near_cusp_support_function_is_resolved_in_its_chart():
    # the same spike is an angle interval like any other in the tangent-angle
    # chart: the map is elliptic, and 4096 steps agree with 65536
    spike = tl.make_curve({"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.3333]})
    rep = tl.monodromy(spike, tl.BikeParams(ell=1.0))
    fine = tl.monodromy(spike, tl.BikeParams(ell=1.0, steps_per_traversal=65536))
    assert rep.map_class is tl.MapClass.ELLIPTIC
    assert rep.n_steps == 4096 and rep.residual < 1e-10
    assert abs(rep.trace - fine.trace) <= 1e-11


@pytest.mark.parametrize("a, b", [(1.0, 1e-4), (1e-4, 1.0)])
def test_ellipse_tips_are_resolved_in_their_chart(a, b):
    # an ellipse turns through each tip in about min/max of its eccentric
    # anomaly, and a grid that steps over the tips passes step doubling with
    # a wrong map (1x1e-4 at 4096 steps read trace 0.487, residual 0.1): a
    # charted grid is kept only while h max |k sigma| = h max/min is at most
    # 2. This one is doubled until it is, and reads the |trace| 2 that thin
    # ellipses tend to (1x1e-3: 1.9999968)
    rep = tl.monodromy(tl.make_curve({"kind": "ellipse", "a": a, "b": b}), tl.BikeParams(ell=1.0))
    assert TWO_PI / rep.n_steps * 1e4 <= 2.0
    assert abs(abs(rep.trace) - 2.0) < 1e-6


def test_ellipse_with_unresolvable_tips_is_refused():
    # at b/a = 1e-40 no grid within the doublings keeps h a/b at most 2
    needle = tl.make_curve({"kind": "ellipse", "a": 1.0, "b": 1e-40})
    for steps in (64, 4096):
        with pytest.raises(tl.ResidualError, match="no grid"):
            tl.monodromy(needle, tl.BikeParams(ell=1.0, steps_per_traversal=steps))
    with pytest.raises(tl.ResidualError):
        tl.critical_length(needle, steps_per_traversal=512)


def test_monodromy_parabolic_circle(unit_circle):
    rep = tl.monodromy(unit_circle, tl.BikeParams(ell=1.0))
    assert rep.map_class is MapClass.PARABOLIC
    assert abs(rep.trace - 2.0) < 1e-6
    assert len(rep.fixed_points) == 1
    assert rep.fixed_points[0].angle == pytest.approx(0.5 * math.pi, abs=1e-4)
    assert abs(rep.rear_lengths[0]) < 1e-4


def test_monodromy_elliptic_circle():
    small = tl.make_curve({"kind": "circle", "r": 0.5})
    rep = tl.monodromy(small, tl.BikeParams(ell=1.0))
    assert rep.map_class is MapClass.ELLIPTIC
    assert rep.fixed_points == ()
    # conjugate of a rotation by L sqrt(k^2 - c^2) / 2: only the trace is
    # conjugacy-invariant (the pointwise shift is not)
    expected = abs(2.0 * math.cos(0.5 * math.pi * math.sqrt(3.0)))
    assert rep.trace == pytest.approx(expected, abs=1e-8)


def test_monodromy_identity_double_circle():
    # radius sqrt(3)/2 at ell = 1: rotation by pi per lap, identity after two
    twice = tl.make_curve({"kind": "circle", "r": 0.5 * SQRT3, "traversals": 2})
    rep = tl.monodromy(twice, tl.BikeParams(ell=1.0))
    assert rep.is_identity
    assert rep.map.distance_to_identity() < 1e-8
    assert rep.fixed_points == ()
    once = tl.make_curve({"kind": "circle", "r": 0.5 * SQRT3})
    rep1 = tl.monodromy(once, tl.BikeParams(ell=1.0))
    assert rep1.map_class is MapClass.ELLIPTIC
    assert abs(rep1.trace) < 1e-6


def test_monodromy_strongly_contracting_uses_lift(ellipse21):
    # at ell = 0.25 every probe lands on the attracting angle; the
    # three-point fit is unusable and the matrix lift must take over
    rep = tl.monodromy(ellipse21, tl.BikeParams(ell=0.25))
    assert rep.map_class is MapClass.HYPERBOLIC
    assert rep.trace > 1e6
    assert rep.residual < 1e-6
    assert len(rep.fixed_points) == 2
    assert rep.fixed_points[0].multiplier < 1e-12


def _scalar_rk4(track, ell, alphas, n):
    """RK4 on the scalar steering equation alpha' = k - sin(alpha) / ell, n steps."""
    h = track.total_length / n
    k = track.curvature(np.linspace(0.0, track.total_length, 2 * n + 1))
    a = np.array(alphas, dtype=float)

    def rate(kk, a):
        return kk - np.sin(a) / ell

    for j in range(n):
        s1 = rate(k[2 * j], a)
        s2 = rate(k[2 * j + 1], a + 0.5 * h * s1)
        s3 = rate(k[2 * j + 1], a + 0.5 * h * s2)
        s4 = rate(k[2 * j + 2], a + h * s3)
        a = a + h / 6.0 * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    return a


@pytest.mark.parametrize("ell", [0.8, 1.6])
def test_scalar_flow_is_moebius(ellipse21, ell):
    # an independent witness of the Moebius claim: the nonlinear scalar flow,
    # integrated without the lift, preserves the cross-ratio of tan(alpha/2),
    # and the lift's monodromy sends each start where the scalar flow does
    starts = [0.3, 1.4, 2.5, 4.0]
    ends = _scalar_rk4(ellipse21, ell, starts, 4096)

    def cross_ratio(alphas):
        x = np.tan(0.5 * np.asarray(alphas))
        return (x[0] - x[2]) * (x[1] - x[3]) / ((x[1] - x[2]) * (x[0] - x[3]))

    assert cross_ratio(ends) == pytest.approx(cross_ratio(starts), rel=1e-9)
    images = tl.monodromy(ellipse21, tl.BikeParams(ell=ell)).map.act_angle(starts)
    assert np.max(np.abs(np.mod(images - ends + math.pi, TWO_PI) - math.pi)) < 1e-10


def test_monodromy_reversal_is_transpose(ellipse21):
    # beta(s) = pi + alpha(L - s) solves the reversed steering equation, so
    # M_rev = R M^{-1} R^{-1} with R the half-turn; by the adjugate identity
    # that is exactly the transpose in PSL(2, R)
    fwd = tl.monodromy(ellipse21, tl.BikeParams(ell=0.8))
    rev_track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0, "orientation": -1})
    rev = tl.monodromy(rev_track, tl.BikeParams(ell=0.8))
    assert MoebiusMap.from_matrix(fwd.map.matrix.T).distance(rev.map) < 1e-6
    # same trace either way: the critical wheelbase cannot see orientation
    assert rev.trace == pytest.approx(fwd.trace, rel=1e-9)


def test_monodromy_report_round_trip(circle2):
    rep = tl.monodromy(circle2, tl.BikeParams(ell=1.0))
    back = tl.MonodromyReport.from_json(rep.to_json())
    assert np.allclose(back.map.matrix, rep.map.matrix, atol=1e-15)
    assert back.map_class is rep.map_class
    assert back.fixed_points[0].angle == rep.fixed_points[0].angle
    assert back.ell == rep.ell and back.geometry == rep.geometry


def test_monodromy_spherical_geometry_tag(circle2):
    cap = tl.geodesic_circle(math.pi / 3.0, Geometry.SPHERICAL)
    rep = tl.monodromy(cap, tl.BikeParams(ell=math.pi / 6.0, geometry=Geometry.SPHERICAL))
    assert rep.geometry == "spherical"
    assert rep.map_class is MapClass.HYPERBOLIC
