"""Numerical helpers: arc-length inversion, Simpson quadrature, import footprint."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson as scipy_simpson
from scipy.interpolate import CubicSpline

from tractrix_lab._num import ArcLengthParam, fourier_eval, simpson

TWO_PI = 2.0 * math.pi
SRC = Path(__file__).resolve().parents[1] / "src"


# -- arc-length inversion ----------------------------------------------------


def _near_floor_radius(phi):
    # p + p'' = 1 - 3 c2 cos(2 phi) with c2 = 0.33: minimum radius 0.01
    damp = 1.0 - np.arange(1, 3, dtype=float) ** 2
    return fourier_eval(1.0, damp * np.array([0.0, 0.33]), np.zeros(2), phi)


def _closed_samples_speed():
    ang = np.linspace(0.0, TWO_PI, 41)
    pts = np.stack([np.cos(ang) + 0.3 * np.cos(2.0 * ang), 0.7 * np.sin(ang)], axis=-1)
    pts[-1] = pts[0]
    chord = np.concatenate([[0.0], np.cumsum(np.hypot(*np.diff(pts, axis=0).T))])
    d1 = CubicSpline(chord, pts, axis=0, bc_type="periodic").derivative(1)

    def speed(u):
        v = d1(u)
        return np.hypot(v[..., 0], v[..., 1])

    return speed, chord[-1], 8 * len(pts)


def _param(case):
    if case == "two-plus-cos":
        return ArcLengthParam(lambda u: 2.0 + np.cos(u), 0.0, TWO_PI)
    if case == "ellipse-10x1":
        return ArcLengthParam(lambda u: np.hypot(10.0 * np.sin(u), np.cos(u)), 0.0, TWO_PI)
    if case == "fourier-near-floor":
        return ArcLengthParam(_near_floor_radius, 0.0, TWO_PI)
    speed, u_max, n_pts = _closed_samples_speed()
    return ArcLengthParam(speed, 0.0, u_max, n_seg=max(2048, n_pts))


@pytest.mark.parametrize("case", ["two-plus-cos", "ellipse-10x1", "fourier-near-floor",
                                  "closed-samples"])
def test_arc_length_round_trip(case):
    alp = _param(case)
    rng = np.random.default_rng(3)
    t = np.concatenate([rng.uniform(0.0, alp.total, 4000), alp.cum, [0.0, alp.total]])
    u = alp.u_of_t(t)
    idx = np.clip(np.searchsorted(alp.cum, t, side="right") - 1, 0, len(alp.nodes) - 2)
    back = alp.cum[idx] + alp._partial(alp.nodes[idx], u)
    assert np.max(np.abs(back - t)) <= 4.0 * np.spacing(alp.total)


def test_arc_length_keeps_no_state():
    alp = _param("ellipse-10x1")
    before = dict(vars(alp))
    t = np.linspace(0.0, alp.total, 101)
    first = alp.u_of_t(t)
    again = alp.u_of_t(t)
    assert again is not first
    np.testing.assert_array_equal(again, first)
    assert vars(alp).keys() == before.keys()
    assert all(vars(alp)[key] is value for key, value in before.items())
    half = alp.u_of_t(0.5 * alp.total)  # scalar in, scalar out; symmetry puts it at pi
    assert isinstance(half, float)
    assert half == pytest.approx(math.pi, abs=1e-12)


def _spied(speed):
    calls = []

    def spy(u):
        calls.append(np.array(u, dtype=float).ravel())
        return speed(u)

    return spy, calls


def _five_harmonic_radius(phi):
    # radius of curvature p + p'' of a fourier-support track with harmonics 1..5
    damp = 1.0 - np.arange(1, 6, dtype=float) ** 2
    cos_c = np.array([0.0, 0.02, -0.01, 0.004, 0.002])
    sin_c = np.array([0.0, -0.015, 0.008, 0.003, -0.001])
    return fourier_eval(1.0, damp * cos_c, damp * sin_c, phi)


@pytest.mark.parametrize("speed", [lambda u: np.hypot(2.0 * np.sin(u), np.cos(u)), _five_harmonic_radius],
                         ids=["ellipse-2x1", "fourier-5"])
def test_smooth_track_inverts_without_speed_calls(speed):
    spy, calls = _spied(speed)
    alp = ArcLengthParam(spy, 0.0, TWO_PI)
    calls.clear()
    t = np.linspace(0.0, alp.total, 8193)
    u = alp.u_of_t(t)
    assert calls == []
    assert not alp.rough.any()
    idx = np.clip(np.searchsorted(alp.cum, t, side="right") - 1, 0, len(alp.nodes) - 2)
    assert np.max(np.abs(alp.cum[idx] + alp._partial(alp.nodes[idx], u) - t)) <= 4.0 * np.spacing(alp.total)


def test_only_rough_segments_call_speed():
    speed, u_max, n_pts = _closed_samples_speed()
    spy, calls = _spied(speed)
    alp = ArcLengthParam(spy, 0.0, u_max, n_seg=max(2048, n_pts))
    calls.clear()
    alp.u_of_t(np.linspace(0.0, alp.total, 8193))
    # spline knots inside a segment leave its Legendre series unresolved
    rough = np.flatnonzero(alp.rough)
    assert 0 < rough.size <= n_pts // 8  # at most one per sample point
    u = np.concatenate(calls)
    assert u.size > 0
    inside = (alp.nodes[rough, None] <= u) & (u <= alp.nodes[rough + 1, None])
    assert np.all(inside.any(axis=0))


# -- Simpson quadrature ------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3, 4, 4097, 3002])
def test_simpson_matches_scipy_bit_for_bit(n):
    rng = np.random.default_rng(n)
    y = rng.normal(size=n)
    for dx in (0.1, 1.0 / 3.0, float(rng.uniform(0.0, 2.0))):
        assert simpson(y, dx) == float(scipy_simpson(y, dx=dx))


# -- import footprint --------------------------------------------------------


def test_import_leaves_scipy_out():
    code = "import sys, tractrix_lab; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"
