"""Steering dynamics of the moving rod, and the package's one lift engine.

The state is the steering angle ``alpha`` between the rod and the front
velocity; along an arc-length front track it obeys

    alpha'(t) = k(t) - c(ell) * sin(alpha),

where ``k`` is the front curvature and ``c`` is the geodesic curvature of the
circle of radius ``ell`` in the ambient geometry (1/ell, cot(ell), coth(ell)).

This is the projectivization of the linear system ``z' = A(t) z`` on the
half-angle lift ``z = (sin(alpha/2), cos(alpha/2))``, with
``A = 1/2 [[-c, k], [-k, c]]``. One engine solves every such system in the
package, fed by three generators: this steering flow, the hatchet
planimeter's rod angle (:func:`.planimeter.rod_flow`, the same equation in
the tangent-angle gauge), and the hyperbolic development
(:func:`.noneuclid.develop_hyperbolic`, whose Frenet frame is the adjoint
image of the unit bicycle's lift, ``c = 1``). Classical RK4 applied to the
linear system makes step ``j`` a 2x2 matrix ``S_j = I + E_j``, a polynomial
in the generator at the step's ends and midpoint (``_rk4``), built for all
steps and all rows at once. A balanced tree multiplies the steps into the
monodromy, and a log-depth (Hillis-Steele) scan into the prefix products of
a dense history. Factors travel as ``E = S - I`` and combine as
``(I + A)(I + B) = I + (A + B + AB)``, so thousands of nearly identical steps
do not round ``I + E`` once each; the determinant travels beside them as
``sum log1p(tr E_j + det E_j)``. A monodromy comes with its step-doubling
error estimate, from the same product taken in steps of twice the length.
Angles are read back from the direction of each lifted vector; summed
``atan2(cross, dot)`` increments between consecutive vectors choose the
continuous branch from the start angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._num import fourier_eval, simpson, trapezoid, wrap_angle
from .errors import ResidualError, ValidationError
from .geom import TWO_PI, FrontTrack, Geometry, _area_density, _green_integral


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


# -- the lift engine -----------------------------------------------------------
#
# A stack of 2x2 matrices is stored entrywise, (m00, m01, m10, m11) along
# axis 0, and every product is spelled out in elementwise operations, so each
# row of a batch is computed exactly as it would be alone.

BLOCK = 1 << 16  # row-steps per block of a batched monodromy sweep


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise 2x2 products ``a @ b`` of two stacks."""
    return np.stack((a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                     a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]))


def _combine(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``(I + later)(I + earlier) - I``, never forming ``I + E``."""
    return later + earlier + _mul(later, earlier)


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ResidualError(
            "lift product overflowed: the monodromy is too strongly hyperbolic for double precision")
    return x


def _coefficients(track: FrontTrack, params: Sequence[BikeParams]) -> np.ndarray:
    """Diagonal ``-c/2`` of ``A`` for each wheelbase row, shape ``(B, 1)``."""
    for p in params:
        _check_geometry(track, p)
    return -0.5 * np.array([[p.coefficient] for p in params])


def _rk4(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, h: float) -> np.ndarray:
    """``E_j = S_j - I`` of the RK4 steps of ``z' = A z``, shape ``(4, B, n)``.

    ``a0``, ``am`` and ``a1`` are the generator ``A`` at each step's start,
    midpoint and end: ``K1 = A0``, ``K2 = Am (I + h/2 K1)``,
    ``K3 = Am (I + h/2 K2)``, ``K4 = A1 (I + h K3)`` and
    ``E = h/6 (K1 + 2 K2 + 2 K3 + K4)``.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by _finite
        k2 = am + (0.5 * h) * _mul(am, a0)
        k3 = am + (0.5 * h) * _mul(am, k2)
        k4 = a1 + h * _mul(a1, k3)
        return (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)


def _factors(k: np.ndarray, h: float, diag: np.ndarray) -> np.ndarray:
    """Steering step factors ``E_j`` for every row of ``diag`` and step ``j``, shape ``(4, B, n)``.

    ``k`` is the curvature at spacing ``h/2``, shape ``(1, 2n+1)``, and the
    generator is ``A = [[d, k/2], [-k/2, -d]]`` with ``d = -c/2`` from ``diag``.
    """
    def gen(k_nodes):
        off, d = np.broadcast_arrays(0.5 * k_nodes, diag)
        return np.stack((d, off, -off, -d))

    return _rk4(gen(k[:, 0:-1:2]), gen(k[:, 1::2]), gen(k[:, 2::2]), h)


def _step_factors(track: FrontTrack, params: Sequence[BikeParams], n_steps: int) -> np.ndarray:
    """Step factors ``E_j`` of ``n_steps`` steps over the whole track, shape ``(4, B, n)``."""
    diag = _coefficients(track, params)
    return _factors(_half_grid_curvature(track, n_steps), track.total_length / n_steps, diag)


def _reduce(x: np.ndarray, op) -> np.ndarray:
    """Balanced-tree reduction of ``x`` along its last axis by ``op(later, earlier)``.

    Level by level, elements ``(0, 1), (2, 3), ...`` are combined and an odd
    last one is carried up. Reducing aligned blocks of a power-of-two length
    first and then the block results builds this same tree, bit for bit.
    """
    while x.shape[-1] > 1:
        even = x.shape[-1] & ~1
        x = np.concatenate((op(x[..., 1:even:2], x[..., 0:even:2]), x[..., even:]), axis=-1)
    return x[..., 0]


def _log_dets(e: np.ndarray) -> np.ndarray:
    """``log det S_j = log1p(tr E_j + det E_j)`` of every step, shape of ``e[0]``."""
    g = e[0] + e[3] + (e[0] * e[3] - e[1] * e[2])
    if not np.all(g > -1.0):
        raise ResidualError(
            "an RK4 step of the lift reverses orientation: the grid is too coarse for this wheelbase")
    return np.log1p(g)


def _tree(e: np.ndarray) -> np.ndarray:
    """E-form of each row's product ``S_{n-1} ... S_0``, shape ``(4, B)``, by a balanced tree."""
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        return _finite(_reduce(e, _combine))


def _scan(e: np.ndarray, reverse: bool = False) -> np.ndarray:
    """E-forms of the prefix products ``Q_j = S_{j-1} ... S_0``, ``j = 0..n``.

    With ``reverse``, of the suffix products ``R_j = S_{n-1} ... S_j``
    instead. Shape ``(4, B, n+1)``; ``Q_0`` and ``R_n`` are the identity.
    Hillis-Steele doubling: ``ceil(log2(n+1))`` rounds, each one vectorized.
    """
    zero = np.zeros(e.shape[:-1] + (1,))
    x = np.concatenate((e, zero) if reverse else (zero, e), axis=-1)
    d = 1
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        while d < x.shape[-1]:
            if reverse:
                x[..., :-d] = _combine(x[..., d:], x[..., :-d])
            else:
                x[..., d:] = _combine(x[..., d:], x[..., :-d])
            d *= 2
    return _finite(x)


def _lifted(f: np.ndarray, alpha0: np.ndarray) -> np.ndarray:
    """Lifted vectors ``(I + F) z0`` of the starts ``alpha0`` (m,), shape ``(2, B, m, N)``.

    ``f`` holds the E-forms ``F`` of ``N`` matrices per row, shape ``(4, B, N)``.
    """
    half = 0.5 * alpha0[:, None]
    s, c = np.sin(half), np.cos(half)
    f = f[:, :, None, :]
    return _finite(np.stack((s + (f[0] * s + f[1] * c), c + (f[2] * s + f[3] * c))))


def _angles(z: np.ndarray, alpha0: np.ndarray) -> np.ndarray:
    """Steering angles along lifted histories ``z``, shape ``(B, m, N)``.

    Each vector's own direction gives its angle modulo ``4 pi`` to rounding.
    Consecutive vectors turn by less than a half turn per step, so the summed
    ``atan2(cross, dot)`` increments pick the continuous branch from ``alpha0``.
    """
    u = z / np.hypot(z[0], z[1])
    cross = u[1, ..., :-1] * u[0, ..., 1:] - u[0, ..., :-1] * u[1, ..., 1:]
    dot = u[0, ..., :-1] * u[0, ..., 1:] + u[1, ..., :-1] * u[1, ..., 1:]
    summed = 2.0 * np.cumsum(np.arctan2(cross, dot), axis=-1)
    half = np.arctan2(z[0], z[1])
    turned = 2.0 * (half - half[..., :1])
    turned[..., 1:] += 2.0 * TWO_PI * np.round((summed - turned[..., 1:]) / (2.0 * TWO_PI))
    return alpha0[:, None] + turned


def _monodromy_sweep(track: FrontTrack, params: Sequence[BikeParams],
                     n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Monodromy of every wheelbase row on one grid, shape ``(B, 2, 2)``, and its error estimate.

    Each product is scaled to determinant one by the carried determinant,
    never by one recomputed from its entries: for a strongly hyperbolic
    product ``ad - bc`` cancels to rounding noise. The error is the
    step-doubling estimate: the same product taken in steps of ``2h``, whose
    midpoint curvature is already on the half grid, differs from it by
    about 15 times its own error (RK4's error falls 16-fold when the step
    halves). It is returned relative to the map's largest entry, shape
    ``(B,)``. Steps are built and reduced in aligned blocks whose length is
    a power of two, at most ``BLOCK`` row-steps each, so memory does not
    grow with rows times steps, and every row comes out as it would alone.
    """
    diag = _coefficients(track, params)
    k = _half_grid_curvature(track, n_steps)
    h = track.total_length / n_steps
    block = 2
    while 2 * block * len(params) <= BLOCK:
        block *= 2
    fine, coarse, log_fine, log_coarse = [], [], [], []
    for start in range(0, n_steps, block):
        kb = k[:, 2 * start: 2 * min(start + block, n_steps) + 1]
        e = _factors(kb, h, diag)
        pairs = e.shape[-1] // 2
        ec = np.concatenate((_factors(kb[:, :4 * pairs + 1:2], 2.0 * h, diag),
                             e[..., 2 * pairs:]), axis=-1)  # an odd last step stays unpaired
        fine.append(_tree(e))
        coarse.append(_tree(ec))
        log_fine.append(_reduce(_log_dets(e), np.add))
        log_coarse.append(_reduce(_log_dets(ec), np.add))

    def normalized(products, logs):
        prod = np.eye(2).reshape(4, 1) + _tree(np.stack(products, axis=-1))
        return prod * np.exp(-0.5 * _reduce(np.stack(logs, axis=-1), np.add))

    m, mc = normalized(fine, log_fine), normalized(coarse, log_coarse)
    error = np.max(np.abs(m - mc), axis=0) / (15.0 * np.max(np.abs(m), axis=0))
    return m.T.reshape(-1, 2, 2), error


def _fixed_angle_rear_length(track: FrontTrack, e: np.ndarray, angle: float,
                             repelling: bool) -> float:
    """Signed rear length ``\\int cos(alpha) dt`` of the closed trajectory from a fixed angle.

    ``e`` are the step factors ``(4, 1, n)`` of the grid the monodromy was accepted on.
    An attracting or parabolic angle is carried forward by the prefix
    products. Forward, a repelling angle is unstable and rounding grows by
    its multiplier; since its lift ``z*`` is fixed by the whole product, its
    trajectory is ``adj(R_j) z*`` with the suffix products
    ``R_j = S_{n-1} ... S_j``, along which it attracts.
    """
    if repelling:
        g = _scan(e, reverse=True)
        f = np.stack((g[3], -g[1], -g[2], g[0]))  # adj(I + G) = I + adj(G)
    else:
        f = _scan(e)
    z = _lifted(f, np.array([angle]))[:, 0, 0]
    z /= np.hypot(z[0], z[1])
    cos_alpha = z[1] ** 2 - z[0] ** 2
    return simpson(cos_alpha, track.total_length / e.shape[-1])


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
    """Integrate the steering equation from ``alpha0`` over the whole track.

    The history is the lift's prefix scan, read back as continuous angles.
    """
    n = params.steps_per_traversal * track.traversals
    start = np.array([float(alpha0)])
    z = _lifted(_scan(_step_factors(track, [params], n)), start)
    t = np.linspace(0.0, track.total_length, n + 1)
    return SteeringSolution(track, params, float(alpha0), t, _angles(z, start)[0, 0])


def steering_endpoints(track: FrontTrack, params: BikeParams, alpha0: Sequence[float],
                       n_steps: int | None = None, variational: bool = False):
    """Final angles (and optionally d(alpha_T)/d(alpha_0)) for a batch of starts.

    Each final angle is on the continuous branch from its start, the same as
    ``integrate_steering(...).final_alpha``. The tangent factor of the lift
    product ``P`` at a unit lift ``z0`` is ``det(P) / |P z0|^2``.
    """
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    starts = np.asarray(alpha0, dtype=float)
    flat = starts.reshape(-1)
    e = _step_factors(track, [params], n)
    z = _lifted(_scan(e), flat)
    end = _angles(z, flat)[0, :, -1].reshape(starts.shape)
    if not variational:
        return end
    last = z[:, 0, :, -1]
    beta = np.exp(_reduce(_log_dets(e), np.add)[0]) / (last[0] ** 2 + last[1] ** 2)
    return end, beta.reshape(starts.shape)


def signed_rear_length(solution: SteeringSolution) -> float:
    """Signed arc length of the rear path, ``\\int cos(alpha) dt`` by Simpson."""
    return simpson(np.cos(solution.alpha), solution.step)


def monodromy_matrix(track: FrontTrack, params: BikeParams,
                     n_steps: int | None = None) -> np.ndarray:
    """Product of the lift's RK4 step matrices over the whole track.

    The steering equation is the projectivization of the linear system
    ``z' = A(t) z`` on ``z = (sin(alpha/2), cos(alpha/2))`` with
    ``A = [[-c/2, k/2], [-k/2, c/2]]``; the returned 2x2 matrix is the raw
    product ``S_{n-1} ... S_0`` from the engine's balanced tree, the
    fundamental solution over the whole track up to step error (so its
    determinant is 1 only to that error). Entries grow only like the square
    root of the multiplier ratio, so the product stays usable for strongly
    contracting monodromies, where every probe trajectory lands on the
    attracting angle to machine precision.
    """
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    return np.eye(2) + _tree(_step_factors(track, [params], n))[:, 0].reshape(2, 2)


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
    area_front = _green_integral(track, _area_density)[0]
    x, y = rt.points[:, 0], rt.points[:, 1]
    dx = np.cos(solution.alpha) * np.cos(rt.theta)
    dy = np.cos(solution.alpha) * np.sin(rt.theta)
    area_rear = simpson(0.5 * (x * dy - y * dx), solution.step)
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
