"""Curved-plane analogues: developments, stargazing, thresholds, unit bicycle."""

import math

import numpy as np
import pytest
from scipy.linalg import expm

import tractrix_lab as tl
from tractrix_lab.geom import Geometry
from tractrix_lab.moebius import MapClass
from tractrix_lab.noneuclid import mink

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


# -- geodesic circles --------------------------------------------------------


def test_spherical_cap_oracles():
    cap = tl.geodesic_circle(math.pi / 3.0, Geometry.SPHERICAL)
    assert cap.geometry is Geometry.SPHERICAL
    assert cap.total_length == pytest.approx(TWO_PI * math.sin(math.pi / 3.0), rel=1e-12)
    assert np.allclose(cap.curvature(np.linspace(0, 1, 5)), 1.0 / math.tan(math.pi / 3.0))
    # Gauss-Bonnet: A = 2 pi - integral of k = 2 pi (1 - cos rho); here exactly pi
    assert tl.geodesic_area(cap) == pytest.approx(math.pi, rel=1e-14)


def test_hyperbolic_circle_oracles():
    rho = 1.2
    circ = tl.geodesic_circle(rho, Geometry.HYPERBOLIC)
    assert circ.total_length == pytest.approx(TWO_PI * math.sinh(rho), rel=1e-12)
    assert np.allclose(circ.curvature(np.array([0.3])), 1.0 / math.tanh(rho))
    assert tl.geodesic_area(circ) == pytest.approx(TWO_PI * (math.cosh(rho) - 1.0), rel=1e-14)


def test_euclidean_geodesic_circle_is_circle():
    c = tl.geodesic_circle(2.0, Geometry.EUCLIDEAN)
    assert c.total_length == pytest.approx(2.0 * TWO_PI, rel=1e-12)
    assert tl.enclosed_area(c) == pytest.approx(4.0 * math.pi, rel=1e-10)


def test_geodesic_circle_validation():
    with pytest.raises(tl.ValidationError):
        tl.geodesic_circle(-1.0, Geometry.SPHERICAL)
    with pytest.raises(tl.ValidationError):
        tl.geodesic_circle(math.pi, Geometry.SPHERICAL)  # degenerate antipode


# -- hyperboloid developments ------------------------------------------------


def test_develop_geodesic():
    curve = tl.develop_hyperbolic(lambda t: np.zeros_like(t), 2.0)
    end = curve.points[-1]
    assert np.allclose(end, [math.cosh(2.0), math.sinh(2.0), 0.0], atol=1e-10)
    assert curve.frame_defect() < 1e-12
    # all points on the upper sheet of <P, P> = 1
    assert np.max(np.abs(mink(curve.points, curve.points) - 1.0)) < 1e-10
    assert np.all(curve.points[:, 0] >= 1.0 - 1e-12)


def test_develop_hyperbolic_circle_closes():
    # constant k = 2/sqrt(3) > 1: a circle of circumference 2 pi sqrt(3)
    k = 2.0 / SQRT3
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, k), TWO_PI * SQRT3)
    dist, frame = curve.closure_gap()
    assert dist < 1e-9
    assert frame < 1e-9


def test_develop_circle_length_from_curvature():
    # coth rho = k inverts to sinh rho = 1 / sqrt(k^2 - 1)
    k = 1.25
    length = TWO_PI / math.sqrt(k * k - 1.0)
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, k), length)
    dist, _ = curve.closure_gap()
    assert dist < 1e-8


def test_develop_subunit_curvature_never_closes():
    # k <= 1 cannot close in the hyperbolic plane (hypercycle / horocycle);
    # length kept moderate: hyperboloid coordinates grow like e^t
    for k in (0.5, 1.0):
        curve = tl.develop_hyperbolic(lambda t, kk=k: np.full_like(t, kk), 15.0)
        dist, _ = curve.closure_gap()
        assert dist > 1.0


def test_develop_hypercycle_matches_exponential():
    # constant k: the frame (P, T, N) from the standard basis is expm(L K)
    k, length = 0.5, 15.0
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, k), length)
    frame = np.stack([curve.points[-1], curve.tangents[-1], curve.normals[-1]])
    exact = expm(length * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, k], [0.0, -k, 0.0]]))
    assert np.max(np.abs(frame - exact)) < 1e-10 * np.max(np.abs(exact))


def test_developed_circle_closes_to_rounding():
    k = 1.25
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, k), TWO_PI / math.sqrt(k * k - 1.0))
    dist, frame = curve.closure_gap()
    assert dist < 1e-12
    assert frame < 1e-12


@pytest.mark.parametrize("d", [1e-9, 1e-6])
def test_closure_gap_resolves_small_distances(d):
    # acosh(<P0, P1>) = acosh(1 + d^2/2) loses d to rounding near closure
    points = np.array([[1.0, 0.0, 0.0], [math.cosh(d), 0.6 * math.sinh(d), 0.8 * math.sinh(d)]])
    curve = tl.HCurve(np.array([0.0, d]), points, np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(2))
    assert curve.closure_gap()[0] == pytest.approx(d, rel=1e-12)


def test_develop_from_front_track(ellipse21):
    curve = tl.develop_hyperbolic(ellipse21)
    assert curve.t[-1] == pytest.approx(ellipse21.total_length, rel=1e-12)
    dist, _ = curve.closure_gap()
    assert dist > 1e-2  # euclidean closure does not survive the development
    assert curve.frame_defect() < 1e-8


def test_frame_defect_is_relative_to_the_coordinates():
    # coordinates pass 1e5 on this hypercycle, where an absolute Gram
    # deviation reads about 3e-5 although the frame is right to rounding
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, 0.5), 15.0)
    assert np.abs(curve.points).max() > 1e5
    assert curve.frame_defect() < 1e-13


def test_poincare_disk_projection():
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, 2.0 / SQRT3), TWO_PI * SQRT3)
    disk = curve.poincare()
    assert np.max(np.linalg.norm(disk, axis=1)) < 1.0
    # hyperbolic circle projects to a euclidean circle in the disk; fit the
    # circumcenter by least squares (x^2 + y^2 = 2 a x + 2 b y + c)
    design = np.column_stack([2.0 * disk, np.ones(len(disk))])
    sol, *_ = np.linalg.lstsq(design, (disk**2).sum(axis=1), rcond=None)
    radii = np.linalg.norm(disk - sol[:2], axis=1)
    assert np.std(radii) < 1e-9


# -- stargazing --------------------------------------------------------------


def test_star_direction_is_null():
    s = tl.star_direction(0.7)
    assert mink(s, s) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(tl.ValidationError):
        tl.stargazing_angle(tl.develop_hyperbolic(lambda t: np.zeros_like(t), 1.0),
                            np.array([1.0, 0.3, 0.0]))  # not null


def test_unresolved_development_grid_is_refused():
    # h = 5: four steps return a point 80 times too far, with a unimodular frame
    with pytest.raises(tl.ResidualError, match="do not resolve"):
        tl.develop_hyperbolic(lambda t: 1.5 + 0.7 * np.sin(t), 20.0, n_steps=4)
    # h = 1/256 on the default grid
    curve = tl.develop_hyperbolic(lambda t: 1.5 + 0.7 * np.sin(t), 20.0)
    assert curve.points[-1] == pytest.approx([141.035, 127.295, 60.711], rel=1e-4)


def test_coarse_grid_on_a_curved_profile_is_refused():
    # h = 2 resolves c = 1 but not max k = 2.2: ten steps would end at
    # (50.1, 44.6, 22.9), a third of the way out
    with pytest.raises(tl.ResidualError, match="do not resolve"):
        tl.develop_hyperbolic(lambda t: 1.5 + 0.7 * np.sin(t), 20.0, n_steps=10)


def test_long_geodesic_is_refused_once_the_lift_drifts():
    # the lift's contracting entry e^(-t/2) falls below the rounding of 1 + E:
    # at length 30 the frame still holds to about 1e-9, at 40 it would not
    curve = tl.develop_hyperbolic(lambda t: np.zeros_like(t), 30.0)
    assert curve.frame_defect() < 2e-8
    with pytest.raises(tl.ResidualError, match="unimodular"):
        tl.develop_hyperbolic(lambda t: np.zeros_like(t), 40.0)
    line = tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [300.0, 0.0]})
    with pytest.raises(tl.ResidualError, match="unimodular"):
        tl.develop_hyperbolic(line)


def test_stargazing_receding_geodesic():
    # riding straight away from the star: alpha stays identically zero
    curve = tl.develop_hyperbolic(lambda t: np.zeros_like(t), 5.0)
    alpha = tl.stargazing_angle(curve, tl.star_direction(math.pi))
    assert np.max(np.abs(alpha)) < 1e-9


def test_stargazing_geodesic_closed_form():
    # along any geodesic tan(alpha/2) = e^{-t} tan(alpha0/2)
    curve = tl.develop_hyperbolic(lambda t: np.zeros_like(t), 4.0)
    alpha = tl.stargazing_angle(curve, tl.star_direction(0.5 * math.pi))
    expected = 2.0 * np.arctan(np.exp(-curve.t) * math.tan(0.5 * alpha[0]))
    assert np.max(np.abs(alpha - expected)) < 1e-10


def test_stargazing_satisfies_steering_equation():
    # alpha' = k - sin(alpha): the star is a rear wheel at infinity
    k = 2.0 / SQRT3
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, k), TWO_PI * SQRT3)
    residual = tl.stargazing_residual(curve, tl.star_direction(0.7))
    assert residual < 1e-5


# -- unit bicycle ------------------------------------------------------------


def test_unit_wheelbase_constant():
    assert tl.UNIT_WHEELBASE == math.inf
    params = tl.BikeParams(ell=tl.UNIT_WHEELBASE, geometry=Geometry.HYPERBOLIC)
    assert params.coefficient == 1.0


def test_unit_bicycle_identity_on_doubled_circle():
    # the hyperbolic circle with k = 2/sqrt(3), traversed twice, is the
    # canonical identity monodromy
    rho = math.atanh(SQRT3 / 2.0)
    track = tl.geodesic_circle(rho, Geometry.HYPERBOLIC, traversals=2)
    assert track.total_length == pytest.approx(2.0 * TWO_PI * SQRT3, rel=1e-12)
    rep = tl.unit_bicycle_monodromy(track)
    assert rep.is_identity
    assert rep.map.distance_to_identity() < 1e-8


def test_unit_bicycle_never_identity_on_euclidean_convex(ellipse21):
    rep = tl.unit_bicycle_monodromy(ellipse21)
    assert not rep.is_identity
    assert rep.map.distance_to_identity() > 1.0
    assert rep.map_class is MapClass.HYPERBOLIC


def test_unit_bicycle_matches_euclidean_scaling(circle2):
    # c = 1 makes the unit bicycle equation identical to the euclidean
    # steering law at ell = 1: same trace on the same curvature profile
    rep_unit = tl.unit_bicycle_monodromy(circle2)
    rep_eucl = tl.monodromy(circle2, tl.BikeParams(ell=1.0))
    assert rep_unit.trace == pytest.approx(rep_eucl.trace, rel=1e-9)


def test_coth_limit_approaches_unit_bicycle(circle2):
    rep_unit = tl.unit_bicycle_monodromy(circle2)
    h = circle2.reinterpreted(Geometry.HYPERBOLIC)
    rep_far = tl.monodromy(h, tl.BikeParams(ell=10.0, geometry=Geometry.HYPERBOLIC))
    assert abs(rep_far.trace - rep_unit.trace) < 1e-4


# -- concentric rear circles -------------------------------------------------


def test_concentric_rear_radius_euclidean():
    assert tl.concentric_rear_radius(2.0, 1.0, Geometry.EUCLIDEAN) == pytest.approx(SQRT3)
    with pytest.raises(tl.ValidationError):
        tl.concentric_rear_radius(1.0, 2.0, Geometry.EUCLIDEAN)


def test_concentric_rear_radius_spherical_triangle():
    rho, ell = math.pi / 3.0, math.pi / 6.0
    rr = tl.concentric_rear_radius(rho, ell, Geometry.SPHERICAL)
    # right spherical triangle: sin(rear) = sin(rho) cos(alpha*),
    # sin(alpha*) = tan(ell) / tan(rho)
    sin_a = math.tan(ell) / math.tan(rho)
    assert math.sin(rr) == pytest.approx(math.sin(rho) * math.sqrt(1.0 - sin_a**2),
                                         abs=1e-12)
    with pytest.raises(tl.ValidationError):
        tl.concentric_rear_radius(0.2, 0.4, Geometry.SPHERICAL)


def test_concentric_rear_radius_hyperbolic_triangle():
    rho, ell = 1.5, 0.5
    rr = tl.concentric_rear_radius(rho, ell, Geometry.HYPERBOLIC)
    sin_a = math.tanh(ell) / math.tanh(rho)
    assert math.sinh(rr) == pytest.approx(math.sinh(rho) * math.sqrt(1.0 - sin_a**2),
                                          abs=1e-10)


# -- area thresholds ---------------------------------------------------------


def test_hpz_confirmed_on_sphere():
    cap = tl.geodesic_circle(math.pi / 3.0, Geometry.SPHERICAL)
    rep = tl.hpz_verify(cap, Geometry.SPHERICAL, math.pi / 6.0)
    assert rep.status == "confirmed"
    assert rep.area == pytest.approx(math.pi, rel=1e-9)
    assert rep.threshold == pytest.approx(TWO_PI * (1.0 - math.cos(math.pi / 6.0)), rel=1e-12)
    assert rep.area_hypothesis and rep.convexity_ok
    assert rep.map_class == "hyperbolic"


def test_hpz_confirmed_hyperbolic_plane():
    rho = math.atanh(0.5)  # coth rho = 2
    circ = tl.geodesic_circle(rho, Geometry.HYPERBOLIC)
    rep = tl.hpz_verify(circ, Geometry.HYPERBOLIC, 0.3)
    assert rep.status == "confirmed"
    assert rep.convexity_ok  # k = 2 > 1
    assert rep.map_class == "hyperbolic"


def test_hpz_not_applicable_when_area_small():
    cap = tl.geodesic_circle(math.pi / 3.0, Geometry.SPHERICAL)
    rep = tl.hpz_verify(cap, Geometry.SPHERICAL, 1.4)
    # wheelbase disk bigger than the cap: hypothesis empty, not a refutation
    assert not rep.area_hypothesis
    assert rep.status == "not applicable"
    assert not rep.applicable


def test_hpz_rejects_euclidean(ellipse21):
    with pytest.raises(tl.ValidationError):
        tl.hpz_verify(ellipse21, Geometry.EUCLIDEAN, 1.0)
    with pytest.raises(tl.ValidationError):
        tl.hpz_verify(ellipse21, Geometry.SPHERICAL, 1.0)  # geometry mismatch


def test_great_circle_identity_monodromy():
    equator = tl.geodesic_circle(0.5 * math.pi, Geometry.SPHERICAL)
    rep = tl.monodromy(equator, tl.BikeParams(ell=0.5 * math.pi, geometry=Geometry.SPHERICAL))
    assert rep.is_identity


def test_cap_rotation_number_at_quarter_wheelbase():
    # at ell = pi/2 the steering equation degenerates to alpha' = k: the
    # monodromy is the rotation by the total geodesic turning 2 pi - A
    cap = tl.geodesic_circle(math.pi / 3.0, Geometry.SPHERICAL)
    rep = tl.monodromy(cap, tl.BikeParams(ell=0.5 * math.pi, geometry=Geometry.SPHERICAL))
    area = tl.geodesic_area(cap)
    for probe in (0.0, 1.0, 2.5):
        shift = (rep.map.act_angle(probe) - probe) % TWO_PI
        expected = (-area) % TWO_PI
        assert math.sin(0.5 * (shift - expected)) == pytest.approx(0.0, abs=1e-9)
