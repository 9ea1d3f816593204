"""Steering dynamics of the moving rod.

The state is the steering angle ``alpha`` between the rod and the front
velocity; along an arc-length front track it obeys

    alpha'(t) = k(t) - c(ell) * sin(alpha),

where ``k`` is the front curvature and ``c`` is the geodesic curvature of the
circle of radius ``ell`` in the ambient geometry (1/ell, cot(ell), coth(ell)).
A fixed-step vectorized RK4 integrates batches of initial angles in one sweep,
optionally propagating the tangent (variational) factor d(alpha_T)/d(alpha_0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.integrate import simpson

from ._num import fourier_eval, trapezoid, wrap_angle
from .errors import ValidationError
from .geom import TWO_PI, FrontTrack, Geometry, _green_integral


@dataclass(frozen=True)
class BikeParams:
    """Wheelbase, ambient geometry, and integration resolution."""

    ell: float
    geometry: Geometry = Geometry.EUCLIDEAN
    steps_per_traversal: int = 4096

    def __post_init__(self):
        self.geometry.check_wheelbase(self.ell)
        if self.steps_per_traversal < 2:
            raise ValidationError("steps_per_traversal must be at least 2")

    @property
    def coefficient(self) -> float:
        return self.geometry.steering_coefficient(self.ell)


def _rk4_steering(k_half, h, c, alpha0, dense=False, variational=False):
    """RK4 sweep of the steering equation over a batch.

    ``k_half`` holds curvature at half-step resolution, shape ``(B or 1, 2n+1)``;
    ``h`` is the step; ``c`` broadcasts as ``(B, 1)``; ``alpha0`` is ``(B, m)``.
    Returns the final angles ``(B, m)``, the dense history ``(B, m, n+1)`` when
    asked, and the tangent factor when ``variational``.
    """
    alpha = np.array(alpha0, dtype=float, copy=True)
    n = (k_half.shape[1] - 1) // 2
    c = np.asarray(c, dtype=float)
    if c.ndim:
        c = c.reshape(-1, 1)
    # step factors hoisted out of the loop; each product keeps its rounding
    neg_c, half_h, sixth_h = -c, 0.5 * h, h / 6.0
    hist = np.empty(alpha.shape + (n + 1,)) if dense else None
    if dense:
        hist[..., 0] = alpha
    beta = np.ones_like(alpha) if variational else None
    for j in range(n):
        k0 = k_half[:, 2 * j, None]
        km = k_half[:, 2 * j + 1, None]
        k1 = k_half[:, 2 * j + 2, None]
        s1 = k0 - c * np.sin(alpha)
        a2 = alpha + half_h * s1
        s2 = km - c * np.sin(a2)
        a3 = alpha + half_h * s2
        s3 = km - c * np.sin(a3)
        a4 = alpha + h * s3
        s4 = k1 - c * np.sin(a4)
        if variational:
            b1 = neg_c * np.cos(alpha) * beta
            b2 = neg_c * np.cos(a2) * (beta + half_h * b1)
            b3 = neg_c * np.cos(a3) * (beta + half_h * b2)
            b4 = neg_c * np.cos(a4) * (beta + h * b3)
            beta = beta + sixth_h * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        alpha = alpha + sixth_h * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
        if dense:
            hist[..., j + 1] = alpha
    return alpha, hist, beta


def _half_grid_curvature(track, n_steps: int) -> np.ndarray:
    """Read-only curvature at half-step resolution, shape ``(1, 2n+1)``.

    It does not depend on the wheelbase, so the grid of the last ``n_steps``
    asked for is kept on the track and reused by every later sweep.
    """
    if track._k_half is not None and track._k_half[0] == n_steps:
        return track._k_half[1]
    t = np.linspace(0.0, track.total_length, 2 * n_steps + 1)
    k = np.asarray(track.curvature(t), dtype=float)[None, :]
    k.flags.writeable = False
    track._k_half = (n_steps, k)
    return k


def _check_geometry(track, params: BikeParams) -> None:
    if track.geometry is not params.geometry:
        raise ValidationError(
            f"track geometry {track.geometry.value} does not match bike geometry {params.geometry.value}"
        )


@dataclass(frozen=True)
class SteeringSolution:
    """Dense steering-angle history along one front track."""

    track: FrontTrack
    params: BikeParams
    alpha0: float
    t: np.ndarray
    alpha: np.ndarray  # unwrapped, same grid as t

    @property
    def final_alpha(self) -> float:
        return float(self.alpha[-1])

    @property
    def step(self) -> float:
        return float(self.t[1] - self.t[0])

    def tangent_angles(self) -> np.ndarray:
        return self.track.tangent_angle(self.t)

    def rod_angles(self) -> np.ndarray:
        """Direction theta of the rod (from rear to front), unwrapped."""
        return self.tangent_angles() - self.alpha


def integrate_steering(track: FrontTrack, params: BikeParams, alpha0: float) -> SteeringSolution:
    """Integrate the steering equation from ``alpha0`` over the whole track."""
    _check_geometry(track, params)
    n = params.steps_per_traversal * track.traversals
    k_half = _half_grid_curvature(track, n)
    h = track.total_length / n
    _, hist, _ = _rk4_steering(k_half, h, params.coefficient, np.array([[alpha0]]), dense=True)
    t = np.linspace(0.0, track.total_length, n + 1)
    return SteeringSolution(track, params, float(alpha0), t, hist[0, 0])


def _endpoint_sweep(track: FrontTrack, params: Sequence[BikeParams], alpha0: Sequence[float],
                    n_steps: int, variational: bool = False):
    """Final angles ``(B, m)`` for every wheelbase (row) and start (column), in one sweep.

    Each row is computed with the same floating-point operations as a sweep
    of that wheelbase alone, so the rows equal single-wheelbase results bit
    for bit. Returns the tangent factors ``(B, m)`` as well when ``variational``.
    """
    for p in params:
        _check_geometry(track, p)
    k_half = _half_grid_curvature(track, n_steps)
    h = track.total_length / n_steps
    c = np.array([p.coefficient for p in params])
    a0 = np.asarray(alpha0, dtype=float)
    a0 = np.broadcast_to(a0, (len(params),) + a0.shape)
    end, _, beta = _rk4_steering(k_half, h, c, a0, variational=variational)
    return (end, beta) if variational else end


def steering_endpoints(track: FrontTrack, params: BikeParams, alpha0: Sequence[float],
                       n_steps: int | None = None, variational: bool = False):
    """Final angles (and optionally d(alpha_T)/d(alpha_0)) for a batch of starts."""
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    out = _endpoint_sweep(track, [params], alpha0, n, variational=variational)
    if variational:
        end, beta = out
        return end[0], beta[0]
    return out[0]


def signed_rear_length(solution: SteeringSolution) -> float:
    """Signed arc length of the rear path, ``\\int cos(alpha) dt`` by Simpson."""
    return float(simpson(np.cos(solution.alpha), dx=solution.step))


def monodromy_matrix(track: FrontTrack, params: BikeParams,
                     n_steps: int | None = None) -> np.ndarray:
    """Time-ordered product for the homogeneous half-angle lift, by RK4.

    The steering equation is the projectivization of the linear system
    ``z' = A(t) z`` on ``z = (sin(alpha/2), cos(alpha/2))`` with
    ``A = [[-c/2, k/2], [-k/2, c/2]]``; the returned 2x2 matrix is the raw
    fundamental solution over the whole track (determinant 1 up to step
    error). Unlike the three-probe fit this stays well conditioned for
    strongly contracting monodromies, where every probe trajectory lands on
    the attracting angle to machine precision; entries grow only like the
    square root of the multiplier ratio.
    """
    _check_geometry(track, params)
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    k_half = _half_grid_curvature(track, n)[0]
    c = params.coefficient
    h = track.total_length / n

    def gen(k):
        return 0.5 * np.array([[-c, k], [-k, c]])

    m = np.eye(2)
    for j in range(n):
        a0 = gen(k_half[2 * j])
        am = gen(k_half[2 * j + 1])
        a1 = gen(k_half[2 * j + 2])
        s1 = a0 @ m
        s2 = am @ (m + 0.5 * h * s1)
        s3 = am @ (m + 0.5 * h * s2)
        s4 = a1 @ (m + h * s3)
        m = m + (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
    return m


@dataclass(frozen=True)
class RearTrack:
    """Rear path generated by a steering solution on a euclidean track."""

    t: np.ndarray
    points: np.ndarray
    theta: np.ndarray  # rod direction, unwrapped
    cusp_times: np.ndarray
    signed_length: float
    closed: bool


def rear_track(solution: SteeringSolution) -> RearTrack:
    """Rear positions ``R = F - ell * (cos theta, sin theta)`` with cusp times.

    Cusps sit where ``cos alpha`` changes sign (the rear wheel reverses its
    rolling direction); they are located by linear interpolation between grid
    points, which is all the downstream consumers (plots, reports) need.
    """
    if solution.params.geometry is not Geometry.EUCLIDEAN:
        raise ValidationError("rear positions live in the plane only for euclidean geometry")
    theta = solution.rod_angles()
    front = solution.track.position(solution.t)
    ell = solution.params.ell
    points = front - ell * np.stack([np.cos(theta), np.sin(theta)], axis=-1)

    c = np.cos(solution.alpha)
    flips = np.nonzero(np.sign(c[:-1]) * np.sign(c[1:]) < 0)[0]
    frac = c[flips] / (c[flips] - c[flips + 1])
    cusps = solution.t[flips] + frac * solution.step

    closed = bool(
        solution.track.closed
        and np.linalg.norm(points[-1] - points[0]) < 1e-6 * (ell + solution.track.bbox_diameter())
    )
    return RearTrack(solution.t, points, theta, cusps, signed_rear_length(solution), closed)


def area_between_tracks(solution: SteeringSolution) -> float:
    """Signed area of the circuit: front forward, rod, rear backward, rod back.

    For a closed front track with both tracks closed this is ``A_F - A_R``; for
    the straight-line front it is the classical area between the tractrix and
    its asymptote.
    """
    rt = rear_track(solution)
    track = solution.track
    area_front = _green_integral(track, lambda x, y, cph, sph: 0.5 * (x * sph - y * cph))
    x, y = rt.points[:, 0], rt.points[:, 1]
    dx = np.cos(solution.alpha) * np.cos(rt.theta)
    dy = np.cos(solution.alpha) * np.sin(rt.theta)
    area_rear = float(simpson(0.5 * (x * dy - y * dx), dx=solution.step))
    f0, fT = track.position(0.0), track.position(track.total_length)
    r0, rT = rt.points[0], rt.points[-1]
    edge_out = 0.5 * (fT[0] * rT[1] - fT[1] * rT[0])
    edge_back = 0.5 * (r0[0] * f0[1] - r0[1] * f0[0])
    return area_front + edge_out - area_rear + edge_back


# -- configuration-space loops ----------------------------------------------


@dataclass(frozen=True)
class ConfigLoop:
    """Closed path ``s in [0, 1]`` in the configuration space (x, y, theta) of the rod.

    Arrays include both endpoints; ``theta`` is unwrapped, so its endpoint gap
    is the winding ``2*pi*m``. Derivatives are with respect to ``s``.
    """

    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    theta: np.ndarray
    dx: np.ndarray
    dy: np.ndarray
    dtheta: np.ndarray

    def __post_init__(self):
        scale = max(1.0, float(np.max(np.abs(self.x))), float(np.max(np.abs(self.y))))
        if abs(self.x[-1] - self.x[0]) > 1e-8 * scale or abs(self.y[-1] - self.y[0]) > 1e-8 * scale:
            raise ValidationError("configuration loop does not close in position")
        if abs(wrap_angle(self.theta[-1] - self.theta[0])) > 1e-8:
            raise ValidationError("configuration loop does not close in angle modulo 2*pi")

    @property
    def winding(self) -> int:
        return int(round((self.theta[-1] - self.theta[0]) / TWO_PI))

    @classmethod
    def from_fourier(cls, x_coeffs, y_coeffs, theta_coeffs, winding: int = 0, n: int = 4096) -> "ConfigLoop":
        """Trigonometric-polynomial loop; each coefficient set is (a0, cos[], sin[])."""
        s = np.linspace(0.0, 1.0, n + 1)
        phi = TWO_PI * s

        def series(coeffs, deriv):
            a0, cos_c, sin_c = coeffs
            out = fourier_eval(float(a0), np.asarray(cos_c, float), np.asarray(sin_c, float), phi, deriv=deriv)
            return out * TWO_PI**deriv

        x, dx = series(x_coeffs, 0), series(x_coeffs, 1)
        y, dy = series(y_coeffs, 0), series(y_coeffs, 1)
        theta = series(theta_coeffs, 0) + TWO_PI * winding * s
        dtheta = series(theta_coeffs, 1) + TWO_PI * winding
        return cls(s, x, y, theta, dx, dy, dtheta)

    @classmethod
    def from_rear_solution(cls, solution: SteeringSolution) -> "ConfigLoop":
        """Configuration loop traced by an actual bicycle motion (rear chart)."""
        rt = rear_track(solution)
        big_t = solution.track.total_length
        s = solution.t / big_t
        dx = big_t * np.cos(solution.alpha) * np.cos(rt.theta)
        dy = big_t * np.cos(solution.alpha) * np.sin(rt.theta)
        k = solution.track.curvature(solution.t)
        c = solution.params.coefficient
        dtheta = big_t * c * np.sin(solution.alpha)
        # theta' = phi' - alpha' = k - (k - c sin alpha)
        return cls(s, rt.points[:, 0], rt.points[:, 1], rt.theta, dx, dy, dtheta)


@dataclass(frozen=True)
class LoopCheck:
    """Both sides of the rod-area identity for one configuration loop."""

    area_front: float
    area_rear: float
    lambda_integral: float
    dtheta_integral: float
    ell: float

    @property
    def lhs(self) -> float:
        return self.area_front - self.area_rear

    @property
    def rhs(self) -> float:
        return self.ell * self.lambda_integral + 0.5 * self.ell**2 * self.dtheta_integral

    @property
    def mismatch(self) -> float:
        return abs(self.lhs - self.rhs)


def loop_identity(loop: ConfigLoop, ell: float) -> LoopCheck:
    """Evaluate ``A_F - A_R = ell * \\int lambda + (ell^2 / 2) * \\int dtheta``.

    ``lambda = cos(theta) dy - sin(theta) dx`` measures sideways slip of the
    rear point; the identity holds for arbitrary loops, not just motions that
    satisfy the rolling constraint. Periodic trapezoid quadrature makes the
    check spectrally accurate for smooth loops.
    """
    if not ell > 0.0:
        raise ValidationError("rod length must be positive")
    ct, st = np.cos(loop.theta), np.sin(loop.theta)
    fx = loop.x + ell * ct
    fy = loop.y + ell * st
    dfx = loop.dx - ell * st * loop.dtheta
    dfy = loop.dy + ell * ct * loop.dtheta

    def periodic_trapz(values):
        return float(trapezoid(values, loop.s))

    area_rear = periodic_trapz(0.5 * (loop.x * loop.dy - loop.y * loop.dx))
    area_front = periodic_trapz(0.5 * (fx * dfy - fy * dfx))
    lam = periodic_trapz(ct * loop.dy - st * loop.dx)
    dth = float(loop.theta[-1] - loop.theta[0])
    return LoopCheck(area_front, area_rear, lam, dth, float(ell))


def random_config_loop(rng: np.random.Generator, n_harmonics: int = 4,
                       amplitude: float = 1.0, winding: int | None = None,
                       n: int = 4096) -> ConfigLoop:
    """Random smooth loop with decaying Fourier content, for identity sweeps."""
    def coeffs(scale):
        decay = scale / np.arange(1, n_harmonics + 1) ** 2
        return (rng.uniform(-scale, scale),
                rng.uniform(-1.0, 1.0, n_harmonics) * decay,
                rng.uniform(-1.0, 1.0, n_harmonics) * decay)

    if winding is None:
        winding = int(rng.integers(-1, 3))
    return ConfigLoop.from_fourier(coeffs(amplitude), coeffs(amplitude),
                                   coeffs(0.8), winding=winding, n=n)
