"""Steering flow, rear tracks, and the configuration-loop area identity."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import tractrix_lab as tl
from tractrix_lab.geom import Geometry

TWO_PI = 2.0 * math.pi
SQRT3 = math.sqrt(3.0)


def _line(length: float) -> "tl.FrontTrack":
    return tl.make_curve({"kind": "line", "start": [0.0, 0.0], "end": [length, 0.0]})


# -- BikeParams --------------------------------------------------------------


def test_steering_coefficient_by_geometry():
    assert tl.BikeParams(ell=2.0).coefficient == pytest.approx(0.5)
    assert tl.BikeParams(ell=0.3, geometry=Geometry.SPHERICAL).coefficient == pytest.approx(
        1.0 / math.tan(0.3))
    assert tl.BikeParams(ell=0.3, geometry=Geometry.HYPERBOLIC).coefficient == pytest.approx(
        1.0 / math.tanh(0.3))
    # the infinite hyperbolic wheelbase is the unit-coefficient limit, exactly
    assert tl.BikeParams(ell=math.inf, geometry=Geometry.HYPERBOLIC).coefficient == 1.0


def test_bike_params_rejects_bad_wheelbase():
    with pytest.raises(tl.ValidationError):
        tl.BikeParams(ell=0.0)
    with pytest.raises(tl.ValidationError):
        tl.BikeParams(ell=-1.0)


# -- straight-line front: the classical tractrix -----------------------------


def test_straight_line_closed_form():
    # along a geodesic, tan(alpha/2) decays exponentially with rate 1/ell
    sol = tl.integrate_steering(_line(1.0), tl.BikeParams(ell=1.0), 0.5 * math.pi)
    exact = 2.0 * math.atan(math.exp(-1.0) * math.tan(0.25 * math.pi))
    assert sol.final_alpha == pytest.approx(exact, abs=1e-12)
    # dense output agrees with the closed form everywhere
    expected = 2.0 * np.arctan(np.exp(-sol.t))
    assert np.max(np.abs(sol.alpha - expected)) < 1e-12


def test_straight_line_monodromy_matrix():
    # constant generator: M = expm(T A), A = [[-c/2, 0], [0, c/2]]
    m = tl.monodromy_matrix(_line(1.0), tl.BikeParams(ell=1.0))
    exact = np.diag([math.exp(-0.5), math.exp(0.5)])
    assert np.allclose(m, exact, atol=1e-10)


def test_tractrix_rear_track_asymptote():
    # from alpha0 = pi/2 the rear wheel starts at (0, -1) and is dragged
    # toward the x-axis; the rod stays length 1
    sol = tl.integrate_steering(_line(8.0), tl.BikeParams(ell=1.0), 0.5 * math.pi)
    rt = tl.rear_track(sol)
    assert np.allclose(rt.points[0], [0.0, 1.0], atol=1e-12)
    front = sol.track.position(sol.t)
    assert np.allclose(np.linalg.norm(front - rt.points, axis=1), 1.0, atol=1e-10)
    assert abs(rt.points[-1, 1]) < 1e-3  # pulled onto the asymptote
    assert not rt.closed


# -- circular front ----------------------------------------------------------


def test_circle_fixed_angle_preserved(circle2):
    params = tl.BikeParams(ell=1.0)
    # sin(alpha*) = k ell: equilibrium at pi/6 for r = 2, ell = 1
    sol = tl.integrate_steering(circle2, params, math.pi / 6.0)
    assert sol.final_alpha == pytest.approx(math.pi / 6.0, abs=1e-10)
    assert np.max(np.abs(sol.alpha - math.pi / 6.0)) < 1e-10


def test_circle_rear_circle_geometry(circle2):
    sol = tl.integrate_steering(circle2, tl.BikeParams(ell=1.0), math.pi / 6.0)
    rt = tl.rear_track(sol)
    # rear wheel rides the concentric circle of radius sqrt(r^2 - ell^2)
    assert np.max(np.abs(np.linalg.norm(rt.points, axis=1) - SQRT3)) < 1e-9
    assert rt.closed
    assert len(rt.cusp_times) == 0
    assert rt.signed_length == pytest.approx(TWO_PI * SQRT3, rel=1e-10)
    assert tl.signed_rear_length(sol) == pytest.approx(TWO_PI * SQRT3, rel=1e-10)


def test_circle_attracts_generic_start():
    relaxed = tl.make_curve({"kind": "circle", "r": 2.0, "traversals": 3})
    sol = tl.integrate_steering(relaxed, tl.BikeParams(ell=1.0), 2.0)
    assert sol.final_alpha == pytest.approx(math.pi / 6.0, abs=1e-6)


def test_steering_endpoints_batch_and_variational(circle2):
    params = tl.BikeParams(ell=1.0)
    starts = [math.pi / 6.0, 5.0 * math.pi / 6.0]
    ends, beta = tl.steering_endpoints(circle2, params, starts, variational=True)
    assert np.allclose(ends, starts, atol=1e-9)
    # variational factor at a fixed angle is the circle-map multiplier
    assert beta[0] == pytest.approx(math.exp(-TWO_PI * SQRT3), rel=1e-6)
    assert beta[1] == pytest.approx(math.exp(TWO_PI * SQRT3), rel=1e-6)


def test_monodromy_matrix_matches_exponential(circle2):
    params = tl.BikeParams(ell=1.0)
    c, k = 1.0, 0.5
    gen = 0.5 * np.array([[-c, k], [-k, c]])
    exact = expm(circle2.total_length * gen)
    m = tl.monodromy_matrix(circle2, params)
    assert np.max(np.abs(m - exact)) / np.max(np.abs(exact)) < 1e-10


def test_tree_and_scan_match_sequential_product():
    # 1000 steps: odd counts appear at several tree levels
    from tractrix_lab.dynamics import _scan, _step_factors, _tree

    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    e = _step_factors(track, [tl.BikeParams(ell=0.3)], 1000)
    seq = np.eye(2)
    for j in range(e.shape[-1]):
        seq = (np.eye(2) + e[:, 0, j].reshape(2, 2)) @ seq
    scale = np.max(np.abs(seq))
    assert scale > 1e3  # strongly hyperbolic: the entries have grown
    tree = np.eye(2) + _tree(e)[:, 0].reshape(2, 2)
    assert np.max(np.abs(tree - seq)) <= 1e-13 * scale
    prefix = np.eye(2) + _scan(e)[:, 0, -1].reshape(2, 2)
    assert np.max(np.abs(prefix - tree)) <= 1e-13 * scale


def _generator_stack(k_nodes, diag):
    off, d = np.broadcast_arrays(0.5 * k_nodes, diag)
    return np.stack((d, off, -off, -d))


@pytest.mark.parametrize("case", ["random", "stiff", "elliptic", "development"])
def test_closed_form_factors_match_rk4(case):
    # the closed-form RK4 step against the generic RK4 polynomial on the
    # same generator stacks, relative to each step's largest entry
    from tractrix_lab.dynamics import _factors, _half_grid_curvature, _rk4

    n = 1000
    if case == "random":
        rng = np.random.default_rng(7)
        k, h = rng.normal(scale=3.0, size=(1, 2 * n + 1)), 0.01
        diag = -0.5 * rng.uniform(0.1, 5.0, size=(3, 1))
    else:
        track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
        k, h = _half_grid_curvature(track, n), track.total_length / n
        c = {"stiff": 1.0 / 0.02, "elliptic": 0.1, "development": 1.0}[case]
        diag = np.array([[-0.5 * c]])
    e = _factors(k, h, diag)
    ref = _rk4(_generator_stack(k[:, 0:-1:2], diag), _generator_stack(k[:, 1::2], diag),
               _generator_stack(k[:, 2::2], diag), h)
    assert e.shape == ref.shape == (4, diag.shape[0], n)
    assert np.all(np.max(np.abs(e - ref), axis=0) <= 1e-15 * np.max(np.abs(ref), axis=0))


def test_too_coarse_stiff_grid_is_refused():
    # h * c = 33 on the smooth unit circle: every refinement overflows
    circle = tl.make_curve({"kind": "circle", "r": 1.0})
    smooth = tl.FrontTrack(circle.period, circle.position, circle.tangent_angle,
                           circle.curvature, closed=True)
    with pytest.raises(tl.ResidualError):
        tl.monodromy(smooth, tl.BikeParams(ell=0.003, steps_per_traversal=64))


@pytest.mark.parametrize("n", [4096, 3001])
def test_blocked_sweep_rows_match_single_rows(n):
    # 100 rows are reduced in blocks of 256 steps, one row in a single block;
    # aligned power-of-two blocks build the same tree, so the rows agree bit for bit
    from tractrix_lab.dynamics import _monodromy_sweep

    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    params = [tl.BikeParams(ell=ell) for ell in np.linspace(0.2, 1.9, 100)]
    maps, errors = _monodromy_sweep(track, params, n)
    for i in range(0, 100, 9):
        one, error = _monodromy_sweep(track, params[i:i + 1], n)
        assert np.array_equal(maps[i], one[0])
        assert errors[i] == error[0]


def test_endpoints_keep_the_continuous_branch():
    # elliptic: alpha' = 2 - sin(alpha) >= 1, so three laps of length pi
    # turn every start by more than 2 pi
    track = tl.make_curve({"kind": "circle", "r": 0.5, "traversals": 3})
    params = tl.BikeParams(ell=1.0)
    starts = [0.3, 2.0]
    ends = tl.steering_endpoints(track, params, starts)
    for a0, end in zip(starts, ends):
        final = tl.integrate_steering(track, params, a0).final_alpha
        assert final - a0 > TWO_PI
        assert end == pytest.approx(final, abs=1e-12)


def test_area_between_tracks_closed(circle2):
    sol = tl.integrate_steering(circle2, tl.BikeParams(ell=1.0), math.pi / 6.0)
    # A_front - A_rear = pi ell^2 when the rod makes one turn
    assert tl.area_between_tracks(sol) == pytest.approx(math.pi, rel=1e-9)


def test_area_between_tracks_tractrix():
    # full tractrix sweep: the rod turns by pi/2, sweeping a quarter disk
    ell = 1.0
    sol = tl.integrate_steering(_line(40.0), tl.BikeParams(ell=ell), 0.5 * math.pi)
    assert tl.area_between_tracks(sol) == pytest.approx(0.25 * math.pi * ell**2, abs=1e-6)


def test_cusps_match_rear_speed_sign_changes():
    thin = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 0.6})
    sol = tl.integrate_steering(thin, tl.BikeParams(ell=0.5), 0.5 * math.pi)
    rt = tl.rear_track(sol)
    flips = np.sum(np.abs(np.diff(np.sign(np.cos(sol.alpha)))) > 0)
    assert len(rt.cusp_times) == flips
    assert len(rt.cusp_times) > 0
    # rear speed vanishes at each cusp
    alpha_at = np.interp(rt.cusp_times, sol.t, np.unwrap(sol.alpha))
    assert np.max(np.abs(np.cos(alpha_at))) < 1e-3


# -- configuration loops -----------------------------------------------------


def test_loop_identity_from_bicycle_motion(circle2):
    sol = tl.integrate_steering(circle2, tl.BikeParams(ell=1.0), math.pi / 6.0)
    loop = tl.ConfigLoop.from_rear_solution(sol)
    check = tl.loop_identity(loop, 1.0)
    assert check.mismatch == pytest.approx(0.0, abs=1e-8)
    # the rolling constraint kills sideways slip pointwise
    assert check.lambda_integral == pytest.approx(0.0, abs=1e-10)
    assert check.dtheta_integral == pytest.approx(TWO_PI, rel=1e-10)
    assert check.area_front == pytest.approx(4.0 * math.pi, rel=1e-9)
    assert check.area_rear == pytest.approx(3.0 * math.pi, rel=1e-9)


def test_loop_identity_pure_rotation():
    # rear pinned at the origin while the rod makes one turn: the front
    # sweeps the full wheelbase disk and nothing else contributes
    ell = 0.7
    loop = tl.ConfigLoop.from_fourier(
        (0.0, [], []), (0.0, [], []), (0.0, [], []), winding=1)
    check = tl.loop_identity(loop, ell)
    assert check.area_rear == pytest.approx(0.0, abs=1e-12)
    assert check.lambda_integral == pytest.approx(0.0, abs=1e-10)
    assert check.area_front == pytest.approx(math.pi * ell**2, rel=1e-9)
    assert check.mismatch == pytest.approx(0.0, abs=1e-10)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       ell=st.floats(min_value=0.1, max_value=3.0))
def test_loop_identity_random(seed, ell):
    rng = np.random.default_rng(seed)
    loop = tl.random_config_loop(rng)
    check = tl.loop_identity(loop, ell)
    scale = max(1.0, abs(check.area_front), abs(check.area_rear), ell**2)
    assert abs(check.mismatch) < 1e-7 * scale


def test_loop_winding_counts_rod_turns():
    rng = np.random.default_rng(3)
    loop = tl.random_config_loop(rng, winding=2)
    assert loop.winding == 2
    check = tl.loop_identity(loop, 0.5)
    assert check.dtheta_integral == pytest.approx(2.0 * TWO_PI, rel=1e-9)


# -- geometry mismatches -----------------------------------------------------


def test_geometry_mismatch_rejected(circle2):
    params = tl.BikeParams(ell=0.5, geometry=Geometry.SPHERICAL)
    with pytest.raises(tl.ValidationError):
        tl.integrate_steering(circle2, params, 1.0)


def test_rear_track_euclidean_only(circle2):
    h = circle2.reinterpreted(Geometry.HYPERBOLIC)
    sol = tl.integrate_steering(h, tl.BikeParams(ell=1.0, geometry=Geometry.HYPERBOLIC), 1.0)
    with pytest.raises(tl.ValidationError):
        tl.rear_track(sol)
