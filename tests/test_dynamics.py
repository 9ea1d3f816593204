"""Steering flow, rear tracks, and the configuration-loop area identity."""

import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

import tractrix_lab as tl
from tractrix_lab.dynamics import SCAN_BASE
from tractrix_lab.geom import Geometry

REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference.json"

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


def _hillis_steele(e):
    """Prefix E-forms by Hillis-Steele doubling, the reference for short scans."""
    from tractrix_lab.dynamics import _combine

    x = np.concatenate((np.zeros(e.shape[:-1] + (1,)), e), axis=-1)
    d = 1
    while d < x.shape[-1]:
        x[..., d:] = _combine(x[..., d:], x[..., :-d])
        d *= 2
    return x


def test_tree_and_scan_match_sequential_product():
    # three wheelbases on the 2x1 ellipse, ell 0.3 strongly hyperbolic; every
    # prefix of every length (odd ones at several levels of the tree and the
    # scan) against the sequential product in long double
    from tractrix_lab.dynamics import _scan, _step_factors, _tree

    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    e_all = _step_factors(track, np.array([[1.0 / 0.3], [1.0], [1.0 / 3.0]]), 5788)
    steps = np.moveaxis(np.eye(2, dtype=np.longdouble).reshape(4, 1, 1) + e_all.astype(np.longdouble), 0, -1)
    q = np.broadcast_to(np.eye(2, dtype=np.longdouble), (3, 2, 2))
    seq = [q]
    for j in range(steps.shape[1]):
        q = steps[:, j].reshape(3, 2, 2) @ q
        seq.append(q)
    seq = np.stack(seq, axis=1)  # (rows, n + 1, 2, 2)
    scale = np.max(np.abs(seq), axis=(2, 3))
    assert scale[0, -1] > 1e6  # strongly hyperbolic: the entries have grown
    for n in (1, 2, 3, SCAN_BASE - 1, SCAN_BASE, SCAN_BASE + 1, 1000, 4097, 5788):
        e = e_all[..., :n]
        x = _scan(e)
        if n <= SCAN_BASE:
            assert np.array_equal(x, _hillis_steele(e))
        prefix = np.moveaxis(np.eye(2).reshape(4, 1, 1) + x, 0, -1).reshape(3, n + 1, 2, 2)
        error = np.max(np.abs(prefix - seq[:, :n + 1]), axis=(2, 3)) / scale[:, :n + 1]
        assert np.max(error) <= 4e-15, n
        tree = np.eye(2) + _tree(e).T.reshape(3, 2, 2)
        assert np.all(np.max(np.abs(tree - seq[:, n]), axis=(1, 2)) <= 1e-14 * scale[:, n])


@pytest.mark.parametrize("n", [SCAN_BASE, 4097])
def test_overflowing_scan_is_refused(n):
    # diag(e^2, e^-2) per step: the prefixes pass e^709 well before the end
    from tractrix_lab.dynamics import _scan

    e = np.zeros((4, 1, n))
    e[0], e[3] = math.expm1(2.0), math.expm1(-2.0)
    with pytest.raises(tl.ResidualError):
        _scan(e)


@pytest.mark.parametrize("n", [4096, 5788])
def test_scan_work_is_linear(n, monkeypatch):
    # Hillis-Steele doubling alone combines 11.0n steps at 4096 and 11.6n at 5788;
    # the odd-even scan 2.75n and 2.35n
    from tractrix_lab import dynamics

    combined = []
    combine = dynamics._combine

    def counted(later, earlier):
        combined.append(later.shape[-1])
        return combine(later, earlier)

    monkeypatch.setattr(dynamics, "_combine", counted)
    dynamics._scan(np.zeros((4, 1, n)))
    assert sum(combined) <= 3 * n


def _generator_stack(sigma_nodes, ksigma_nodes, c):
    off, d = np.broadcast_arrays(0.5 * ksigma_nodes, -0.5 * c * sigma_nodes)
    return np.stack((d, off, -off, -d))


def _steering_case(case, n=1000):
    """Half-grid ``sigma`` and ``k sigma``, step ``h`` and row coefficients ``c`` of a factor test."""
    from tractrix_lab.dynamics import _half_grid

    if case == "random":
        rng = np.random.default_rng(7)
        return 1.0, rng.normal(scale=3.0, size=(1, 2 * n + 1)), 0.01, rng.uniform(0.1, 5.0, size=(3, 1))
    if case == "chart":  # the tangent-angle chart of a support function: k sigma = 1
        track = tl.make_curve({"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.1, 0.03]})
        h, sigma, ksigma = _half_grid(track, n, True)
        return sigma, ksigma, h, np.array([[0.7], [1.0 / 0.3]])
    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    c = {"stiff": 1.0 / 0.02, "elliptic": 0.1, "development": 1.0}[case]
    h, sigma, ksigma = _half_grid(track, n, False)
    return sigma, ksigma, h, np.array([[c]])


def _case_factors(case):
    from tractrix_lab.dynamics import _factors, _terms

    sigma, ksigma, h, c = _steering_case(case)
    return _factors(_terms(sigma, ksigma, h), c)


def _nodes(x):
    return (x, x, x) if np.ndim(x) == 0 else (x[:, 0:-1:2], x[:, 1::2], x[:, 2::2])


@pytest.mark.parametrize("case", ["random", "stiff", "elliptic", "development", "chart"])
def test_closed_form_factors_match_rk4(case):
    # the closed-form RK4 step against the generic RK4 polynomial on the
    # same generator stacks, scaled to determinant one in E-form,
    # (I + E) / s - I = (E - m I) / s with s = sqrt(det(I + E)) and
    # m = (s^2 - 1) / (1 + s), relative to each step's largest entry
    from tractrix_lab.dynamics import _rk4

    sigma, ksigma, h, c = _steering_case(case)
    e = _case_factors(case)
    ref = _rk4(*(_generator_stack(s, k, c) for s, k in zip(_nodes(sigma), _nodes(ksigma))), h)
    g = ref[0] + ref[3] + (ref[0] * ref[3] - ref[1] * ref[2])
    s = np.sqrt(1.0 + g)
    ref = (ref - g / (1.0 + s) * np.array([1.0, 0.0, 0.0, 1.0])[:, None, None]) / s
    assert e.shape == ref.shape == (4, c.shape[0], 1000)
    assert np.all(np.max(np.abs(e - ref), axis=0) <= 1e-15 * np.max(np.abs(ref), axis=0))


@pytest.mark.parametrize("case", ["random", "stiff", "development", "chart"])
def test_factors_have_determinant_one(case):
    e = _case_factors(case)
    assert np.max(np.abs((1.0 + e[0]) * (1.0 + e[3]) - e[1] * e[2] - 1.0)) <= 1e-15


def test_lift_products_are_unimodular(ellipse21):
    # no determinant is carried: the monodromy matrix has determinant one as
    # it comes (on 64 steps a raw RK4 product's is off by about 1e-6), and
    # the endpoint derivative on the kept grid is the raw product's
    # derivative; the fitted map is extrapolated, unscaled, and its
    # determinant is one to second order in the step-doubling estimate
    params = tl.BikeParams(ell=1.0, steps_per_traversal=64)
    m = tl.monodromy_matrix(ellipse21, params)
    assert abs(np.linalg.det(m) - 1.0) <= 1e-12
    rep = tl.monodromy(ellipse21, params)
    assert abs(np.linalg.det(rep.map.matrix) - 1.0) <= rep.residual
    att = rep.fixed_points[0]
    _, beta = tl.steering_endpoints(ellipse21, params, [att.angle], n_steps=rep.n_steps,
                                    variational=True)
    raw = tl.MoebiusMap.from_matrix(tl.monodromy_matrix(ellipse21, params, n_steps=rep.n_steps))
    assert beta[0] == pytest.approx(raw.derivative(att.angle), rel=1e-12)


@pytest.mark.parametrize("spec, ell", [("ellipse21", 0.3), ("ellipse21", 0.8), ("ellipse21", 1.6),
                                       ("menzin-fourier-0", 0.3)])
def test_extrapolated_trace_is_within_its_residual(spec, ell):
    # against 2^16 steps, the extrapolated map's trace is off by 1e-12 to
    # 2.5e-10 of the largest entry at 512 steps, 100 to 10^4 times less than
    # the raw product's; the step-doubling estimate, which is the raw
    # product's error, bounds it
    from tractrix_lab.dynamics import _monodromy_sweep

    if spec == "ellipse21":
        spec = {"kind": "ellipse", "a": 2.0, "b": 1.0}
    else:
        spec = json.loads(REFERENCE.read_text())["menzin_fourier"][0]["spec"]
    track = tl.make_curve(spec)
    params = tl.BikeParams(ell=ell, steps_per_traversal=512)
    maps, errors = _monodromy_sweep(track, [params], 512)
    witness = tl.monodromy_matrix(track, params, n_steps=1 << 16)
    assert abs(np.trace(maps[0]) - np.trace(witness)) <= errors[0] * np.max(np.abs(witness))


def test_extrapolation_on_a_stiff_row_is_no_worse():
    # 128 steps of the 2x1 ellipse at ell 0.05 (h |c| max sigma 1.96): both
    # traces are tens of percent off, the extrapolated one less so
    from tractrix_lab.dynamics import _monodromy_sweep, _sweep_products

    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    params = tl.BikeParams(ell=0.05, steps_per_traversal=128)
    maps, _ = _monodromy_sweep(track, [params], 128)
    fine, _, _ = _sweep_products(track, [params], 128)
    witness = np.trace(tl.monodromy_matrix(track, params, n_steps=1 << 16))
    assert abs(np.trace(maps[0]) - witness) <= abs(2.0 + fine[0, 0] + fine[3, 0] - witness)


def test_too_coarse_stiff_grid_is_refused():
    # h * c = 33 on the smooth unit circle: every refinement overflows
    circle = tl.make_curve({"kind": "circle", "r": 1.0})
    smooth = tl.FrontTrack(circle.period, circle.frame, circle.curvature, closed=True)
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
    area = tl.area_between_tracks(sol)
    assert area == pytest.approx(math.pi, rel=1e-9)
    assert tl.area_between_tracks(sol, tl.rear_track(sol)) == area  # a built rear track is reused as is


def test_area_between_tracks_tractrix():
    # full tractrix sweep: the rod turns by pi/2, sweeping a quarter disk
    ell = 1.0
    sol = tl.integrate_steering(_line(40.0), tl.BikeParams(ell=ell), 0.5 * math.pi)
    area = tl.area_between_tracks(sol)
    assert area == pytest.approx(0.25 * math.pi * ell**2, abs=1e-6)
    assert tl.area_between_tracks(sol, rear=tl.rear_track(sol)) == area


def test_rear_track_inverts_arc_length_once(ellipse21, monkeypatch):
    from tractrix_lab._num import ArcLengthParam

    sol = tl.integrate_steering(ellipse21, tl.BikeParams(ell=0.8, steps_per_traversal=1024), 0.3)
    calls = []
    invert = ArcLengthParam._invert

    def spy(self, t):
        calls.append(len(t))
        return invert(self, t)

    monkeypatch.setattr(ArcLengthParam, "_invert", spy)
    tl.rear_track(sol)
    assert calls == [len(sol.t)]  # front points and headings from one frame


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


def test_loop_identity_refuses_overflow_without_warnings():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        loop = tl.ConfigLoop.from_fourier((0.0, [1e308, 1.0], []), (0.0, [], [0.0, 1.0]),
                                          (0.0, [], []), winding=1)
        with pytest.raises(tl.ResidualError, match="overflow"):
            tl.loop_identity(loop, 1.0)
        with pytest.raises(tl.ResidualError, match="overflow"):
            tl.loop_identity(tl.random_config_loop(np.random.default_rng(3)), 1e200)
    assert [str(w.message) for w in caught] == []


def test_loop_coefficient_lists_may_differ_in_length():
    # x = cos(2 tau), y = sin(2 tau): cos and sin lists of different lengths
    loop = tl.ConfigLoop.from_fourier((0.0, [0.0, 1.0], []), (0.0, [], [0.0, 1.0]),
                                      (0.0, [0.3], []), winding=1)
    assert tl.loop_identity(loop, 2.0).mismatch < 1e-8


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


def _loop_fields(loop):
    return [getattr(loop, f) for f in ("s", "x", "y", "theta", "dx", "dy", "dtheta")]


def _scaled_gap(a, b, ell):
    scale = max(1.0, abs(b.area_front), abs(b.area_rear), ell * ell)
    return max(abs(a.area_front - b.area_front), abs(a.area_rear - b.area_rear),
               ell * abs(a.lambda_integral - b.lambda_integral)) / scale


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31 - 1),
       ell=st.floats(min_value=0.1, max_value=3.0))
def test_default_loop_grid_is_converged(seed, ell):
    loop = tl.random_config_loop(np.random.default_rng(seed))
    n = len(loop.s) - 1
    assert 64 <= n <= tl.dynamics.LOOP_NODES and n & (n - 1) == 0
    fine = tl.random_config_loop(np.random.default_rng(seed), n=65536)
    check = tl.loop_identity(loop, ell)
    assert _scaled_gap(check, tl.loop_identity(fine, ell), ell) < 1e-14
    assert check.quadrature_error < 1e-13 * max(1.0, abs(check.area_front), abs(check.area_rear), ell**2)


def test_unresolved_loop_stops_at_the_cap():
    # exp(i theta) of a 400-radian fourth harmonic needs about 1600 frequencies,
    # more than the top half-band of 4096 nodes leaves below LOOP_TAIL
    coeffs = ((0.1, [1.0, 0.2], [0.0, 0.3]), (0.0, [], [1.0]), (0.0, [0, 0, 0, 400.0], [200.0]))
    loop = tl.ConfigLoop.from_fourier(*coeffs, winding=1)
    explicit = tl.ConfigLoop.from_fourier(*coeffs, winding=1, n=4096)
    assert len(loop.s) == 4097
    for a, b in zip(_loop_fields(loop), _loop_fields(explicit)):
        assert np.array_equal(a, b)
    # the error bar shows what the cap leaves
    assert tl.loop_identity(loop, 1.0).quadrature_error > 1e-12


@pytest.mark.parametrize("n", [1, 3, 7, 64, 100, 4096])
def test_explicit_loop_grid_is_kept(n):
    from tractrix_lab._num import fourier_grid

    x, y, theta = (0.1, [1.0, 0.2], [0.0, 0.3, 0.05]), (0.0, [], [1.0]), (0.2, [0.7, 0.1], [])
    loop = tl.ConfigLoop.from_fourier(x, y, theta, winding=1, n=n)
    assert np.array_equal(loop.s, np.linspace(0.0, 1.0, n + 1))
    # the same values, bit for bit, as one inverse FFT per row on the series' common length
    turn = (0.0, TWO_PI * loop.s)
    for (a0, cos, sin), value, slope, winding in ((x, loop.x, loop.dx, 0), (y, loop.y, loop.dy, 0),
                                                  (theta, loop.theta, loop.dtheta, 1)):
        cos, sin = (np.concatenate((c, np.zeros(3 - len(c)))) for c in (cos, sin))
        grid = fourier_grid(a0, cos, sin, n)
        assert np.array_equal(np.append(grid, grid[0]) + turn[winding], value)
        grid = fourier_grid(a0, cos, sin, n, True)
        assert np.array_equal(np.append(grid, grid[0]) * TWO_PI + TWO_PI * winding, slope)
    assert len(tl.random_config_loop(np.random.default_rng(2), n=n).s) == n + 1


def test_loop_quadrature_error_bounds_a_coarse_grid():
    rng = np.random.default_rng(8)
    coarse = tl.random_config_loop(rng, n=16)
    exact = tl.random_config_loop(np.random.default_rng(8), n=65536)
    check = tl.loop_identity(coarse, 1.2)
    reference = tl.loop_identity(exact, 1.2)
    actual = (abs(check.area_front - reference.area_front) + abs(check.area_rear - reference.area_rear)
              + 1.2 * abs(check.lambda_integral - reference.lambda_integral))
    assert 0.0 < actual <= check.quadrature_error
    # an odd grid's coarse rule ends on one single step: a second-order bar, far above the error
    odd = tl.loop_identity(tl.random_config_loop(np.random.default_rng(8), n=4095), 1.2)
    assert odd.quadrature_error > 1e3 * _scaled_gap(odd, reference, 1.2)
    # on one step both rules are the same
    assert tl.loop_identity(tl.random_config_loop(np.random.default_rng(8), n=1), 1.2).quadrature_error == 0.0


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


# -- the resolution rule -------------------------------------------------------

ROUND = {"kind": "fourier-support", "a0": 1.0}  # the unit circle in its tangent-angle chart
H16 = TWO_PI / 16  # 16 steps around it, in arc length or in the chart: sigma = k sigma = 1


def _round():
    return tl.make_curve(ROUND)


# each case at the rule's value x = h max(|c| max sigma, max |k sigma|): the
# steering term for the bicycle (c = x / H16) and the rod (ell = H16 / x),
# the turning term for a development of curvature 3 (c = 1)
RULE_CASES = {
    "integrate_steering": lambda x: tl.integrate_steering(
        _round(), tl.BikeParams(ell=H16 / x, steps_per_traversal=16), 0.3),
    "steering_endpoints": lambda x: tl.steering_endpoints(
        _round(), tl.BikeParams(ell=H16 / x, steps_per_traversal=16), [0.3]),
    "monodromy_matrix": lambda x: tl.monodromy_matrix(
        _round(), tl.BikeParams(ell=H16 / x, steps_per_traversal=16)),
    "develop_hyperbolic": lambda x: tl.develop_hyperbolic(
        lambda t: np.full_like(t, 3.0), 16.0 * x / 3.0, n_steps=16),
    "rod_flow": lambda x: tl.rod_flow([_round()], H16 / x, 0.3, steps_per_unit=1e-9, n_min=16),
}


@pytest.mark.parametrize("case", list(RULE_CASES))
def test_one_resolution_rule_everywhere(case):
    # every dense or endpoint product on a smooth grid refuses a step just
    # past h max(|c| max sigma, max |k sigma|) = 2, with one message, and
    # takes one just inside it
    with pytest.raises(tl.ResidualError, match="do not resolve the flow"):
        RULE_CASES[case](2.0 * (1.0 + 1e-6))
    RULE_CASES[case](2.0 * (1.0 - 1e-6))


# -- symmetric charts ----------------------------------------------------------

# harmonics 2 and 4 (m = 2); harmonics 1, 3 and 6 (m = 3: the translation drops out)
EVEN_SPEC = {"kind": "fourier-support", "a0": 1.0, "cos": [0.0, 0.03, 0.0, -0.008], "sin": [0.0, 0.02]}
THREEFOLD_SPEC = {"kind": "fourier-support", "a0": 1.0, "cos": [0.05, 0.0, 0.015, 0.0, 0.0, 0.002],
                  "sin": [0.0, 0.0, 0.01]}
SYMMETRIC_CASES = [({"kind": "ellipse", "a": 2.0, "b": 1.0}, 512), (EVEN_SPEC, 512),
                   (THREEFOLD_SPEC, 516), ({"kind": "ellipse", "a": 1.0, "b": 0.7, "traversals": 2}, 512)]


def _symmetric_variants(spec):
    track = tl.make_curve(spec)
    return {"plain": track, "reversed": track.reversed(), "transformed": track.transformed(0.8, (1.0, -3.0)),
            "rebased": track.rebased(0.3 * track.period)}


def _ladder(track, steps):
    r = 1.0 / max(map(abs, track.curvature_range()))  # the reversed tracks turn clockwise
    return [tl.BikeParams(ell=0.5 * r * 1.05 ** i, steps_per_traversal=steps) for i in range(60)]


def _unsymmetric(track):
    """The same track with its chart's symmetry forgotten, so every step is swept."""
    from dataclasses import replace

    return tl.FrontTrack(track.period, track.frame, track.curvature, closed=track.closed,
                         traversals=track.traversals, chart=replace(track.chart, symmetry=1))


@pytest.mark.parametrize("spec, steps", SYMMETRIC_CASES, ids=["ellipse21", "even", "threefold", "two-pass"])
def test_symmetric_sweep_matches_full_pass(spec, steps, monkeypatch):
    # the sweep steps one sub-pass and powers it; monodromy_matrix multiplies
    # every step of the track and witnesses the powered fine product's trace,
    # and the sweep with the symmetry forgotten its step-doubling estimate
    from tractrix_lab import dynamics

    built, factors = [], dynamics._factors

    def counted(terms, c, out=None):
        e = factors(terms, c, out=out)
        built.append(e.shape[-1])
        return e

    monkeypatch.setattr(dynamics, "_factors", counted)
    for name, track in _symmetric_variants(spec).items():
        reps = track.chart.symmetry * track.traversals
        assert reps > 1
        n = steps * track.traversals
        params = _ladder(track, steps)
        built.clear()
        fine, _, _ = dynamics._sweep_products(track, params, n)
        assert sum(built) == 3 * n // (2 * reps), name  # the fine and coarse steps of one sub-pass
        maps = (np.eye(2).reshape(4, 1) + fine).T.reshape(-1, 2, 2)
        _, errors = dynamics._monodromy_sweep(track, params, n)
        _, full_errors = dynamics._monodromy_sweep(_unsymmetric(track), params, n)
        for p, m, error, full_error in zip(params, maps, errors, full_errors):
            witness = tl.monodromy_matrix(track, p)
            scale = np.max(np.abs(witness))  # the sweep's own scale for its estimate
            assert abs(np.trace(m) - np.trace(witness)) <= 1e-14 * scale, (name, p.ell)
            assert error == pytest.approx(full_error, rel=1e-4), (name, p.ell)


def test_sweep_that_does_not_split_runs_every_step():
    # 514 steps do not split into 6 sub-passes of an even count: the sweep is
    # the full pass, bit for bit as with the symmetry forgotten
    from tractrix_lab.dynamics import _monodromy_sweep

    for name, track in _symmetric_variants(THREEFOLD_SPEC).items():
        assert track.chart.symmetry == 3
        params = _ladder(track, 514)
        maps, errors = _monodromy_sweep(track, params, 514)
        full_maps, full_errors = _monodromy_sweep(_unsymmetric(track), params, 514)
        assert np.array_equal(maps, full_maps), name
        assert np.array_equal(errors, full_errors), name


def _unfused_sweep(track, params, n):
    """:func:`_sweep_products` with the fine and coarse products reduced apart, each in one tree.

    One tree over all steps is the blocked tree (see ``_tree``), so this is
    the reduction the fused buffer replaces, step for step.
    """
    from tractrix_lab import dynamics as d

    charted = d._charted(track, n)
    h, top, turn, fine, coarse = d._grid(track, n, charted)
    reps = track.chart.symmetry * track.traversals if charted else 1
    if n % (2 * reps):
        reps = 1
    c = d._coefficients(track, params)
    resolved = d._resolves(h, c[:, 0], top, turn if charted else 0.0)
    c = np.where(resolved[:, None], c, 0.0)
    swept = n // reps
    e = d._factors([d._cut(t, slice(0, swept)) for t in fine], c)
    ec = np.concatenate((d._factors([d._cut(t, slice(0, swept // 2)) for t in coarse], c),
                         e[..., 2 * (swept // 2):]), axis=-1)
    return d._power(d._tree(e), reps), d._power(d._tree(ec), reps), resolved


def _arc_length_ellipse():
    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    return tl.FrontTrack(track.period, track.frame, track.curvature, closed=True)


FUSED_TRACKS = {
    "ellipse21": lambda: tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0}),
    "threefold-reversed": lambda: tl.make_curve(THREEFOLD_SPEC).reversed(),
    "two-pass-reversed": lambda: tl.make_curve({"kind": "ellipse", "a": 1.0, "b": 0.7,
                                                "traversals": 2}).reversed(),
    "arc-length": _arc_length_ellipse,
}


@pytest.mark.parametrize("rows", [1, 7, 200])
@pytest.mark.parametrize("n", [2, 3, 5, 12, 65, 130, 514, 1030, 1500])
@pytest.mark.parametrize("name", list(FUSED_TRACKS))
def test_fused_sweep_matches_separate_trees(name, n, rows):
    # the sweep reduces its fine and coarse steps in one zero-padded buffer
    # (200 rows: blocks of 128 steps); a zero factor is the identity, so both
    # raw products are those of the separate trees, bit for bit, on odd and
    # uneven counts, split and unsplit symmetric charts, reversed tracks and
    # a track with no chart; where a step reverses orientation (3 arc-length
    # steps, unchecked for turning) both refuse it
    from tractrix_lab.dynamics import _sweep_products

    track = FUSED_TRACKS[name]()
    params = [tl.BikeParams(ell=ell) for ell in np.geomspace(0.05, 3.0, rows)]
    try:
        expected = _unfused_sweep(track, params, n)
    except tl.ResidualError:
        with pytest.raises(tl.ResidualError):
            _sweep_products(track, params, n)
        return
    fine, coarse, resolved = _sweep_products(track, params, n)
    assert np.all(np.isfinite(fine)) and np.all(np.isfinite(coarse))
    assert np.array_equal(fine, expected[0])
    assert np.array_equal(coarse, expected[1])
    assert np.array_equal(resolved, expected[2])


def test_single_row_sweep_combines_once_per_level(monkeypatch):
    # 512 steps of the 2x1 ellipse: one sub-pass of 256 steps in a buffer of
    # three chunks of 128, 7 levels, the fine halves joined once, and one
    # squaring for the two sub-passes
    from tractrix_lab import dynamics

    calls, combine = [], dynamics._combine

    def counted(later, earlier):
        calls.append(later.shape)
        return combine(later, earlier)

    monkeypatch.setattr(dynamics, "_combine", counted)
    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    dynamics._monodromy_sweep(track, [tl.BikeParams(ell=0.8)], 512)
    assert len(calls) <= 9
