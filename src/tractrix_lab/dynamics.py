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
image of the unit bicycle's lift, ``c = 1``). On a smooth track, classical
RK4 applied to the linear system makes step ``j`` a 2x2 matrix
``S_j = I + E_j``, a polynomial in the generator at the step's ends and
midpoint, built for all steps and all rows at once. The steering generator
is ``-c/2 diag(1, -1)`` plus ``k/2`` times a rotation generator, and products
of two such generators stay in the span of four fixed matrices, so its
polynomial is written out in closed form as four scalars per step
(``_factors``, which the development shares with ``c = 1``); the rod
generator goes through the generic products of ``_rk4``. On a track
made of pieces of constant curvature (circles, lines, polylines, geodesic
circles) ``A`` is constant on each piece with ``A^2 = lambda^2 I``, so its
factor is the closed form ``cosh(lambda L) I + sinh(lambda L)/lambda A``
(cos and sin when ``k^2 > c^2``, ``_exact``), and a corner turning by
``gamma`` is the rotation by ``gamma/2``: the monodromy is one factor per
piece and per corner, and a dense history is exact at every node. A
balanced tree multiplies the factors into the monodromy, and a log-depth
(Hillis-Steele) scan into the prefix products of a dense history. Factors
travel as ``E = S - I`` and combine as ``(I + A)(I + B) = I + (A + B + AB)``,
so thousands of nearly identical steps do not round ``I + E`` once each.
Every steering factor has determinant one: the exact ones by construction,
the RK4 steps because each is scaled to it where it is built, so no
product needs a determinant carried beside it. A smooth grid resolves a
wheelbase only while ``h |c| <= 2``, and a coarser one gives no result.
A smooth track's monodromy comes with its step-doubling error estimate,
from the same product taken in steps of twice the length.
Angles are read back from the direction of each lifted vector; summed
``atan2(cross, dot)`` increments between consecutive vectors choose the
continuous branch from the start angle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._num import simpson, trapezoid, wrap_angle
from .errors import ResidualError, ValidationError
from .geom import TWO_PI, FrontTrack, Geometry, SupportFunction, _area_density, _green_integral


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
RESOLVED_STEP = 2.0  # largest h |c| of a smooth grid that resolves a wheelbase


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise 2x2 products ``a @ b`` of two stacks."""
    return np.stack((a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                     a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]))


def _combine(later: np.ndarray, earlier: np.ndarray) -> np.ndarray:
    """``(I + later)(I + earlier) - I``, never forming ``I + E``.

    Each entry of the product ``later @ earlier`` is added in place to
    ``later + earlier``, the same additions in the same order as
    ``later + earlier + _mul(later, earlier)`` with no stacked temporary.
    """
    out = later + earlier
    out[0] += later[0] * earlier[0] + later[1] * earlier[2]
    out[1] += later[0] * earlier[1] + later[1] * earlier[3]
    out[2] += later[2] * earlier[0] + later[3] * earlier[2]
    out[3] += later[2] * earlier[1] + later[3] * earlier[3]
    return out


def _finite(x: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(x)):
        raise ResidualError(
            "lift product overflowed: the monodromy is too strongly hyperbolic for double precision")
    return x


def _coefficients(track: FrontTrack, params: Sequence[BikeParams]) -> np.ndarray:
    """Steering coefficient ``c`` of each wheelbase row, shape ``(B, 1)``."""
    for p in params:
        _check_geometry(track, p)
    return np.array([[p.coefficient] for p in params])


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
    generator is ``A = d sz + b J`` with ``d = -c/2`` from ``diag`` and
    ``b = k/2``, where ``sz = diag(1, -1)``, ``J = [[0, 1], [-1, 0]]`` and
    ``sx = [[0, 1], [1, 0]]``. Two such generators multiply to
    ``A_x A_y = (d^2 - b_x b_y) I + d (b_y - b_x) sx`` and
    ``A_m^2 = g I`` with ``g = d^2 - b_m^2``, so the RK4 step of :func:`_rk4`
    is ``E = eI I + ez sz + eJ J + ex sx`` with the four scalars

        ez = h d (1 + h^2 g / 6)
        eJ = h/6 [(b0 + 4 bm + b1) + (h^2 / 2) g (b0 + b1)]
        eI = h^2/6 [3 d^2 - bm (b0 + bm + b1) + (h^2 / 4) g (d^2 - b0 b1)]
        ex = h^2/6 d (b0 - b1) (1 + h^2 g / 4)

    of the generator at each step's start, midpoint and end. The terms that
    depend on the nodes alone are formed once for all rows. Each step is then
    scaled to determinant one: with ``q = det S - 1 = eI (2 + eI) - ez^2 -
    ex^2 + eJ^2`` and ``s = sqrt(1 + q)``, ``S / s`` has ``eI`` replaced by
    ``(eI - q / (1 + s)) / s`` and the other three scalars divided by ``s``.
    The determinant is multiplicative, so every product of steps is the RK4
    product scaled to determinant one, and none is carried beside them.
    """
    b = 0.5 * k
    b0, bm, b1 = b[:, 0:-1:2], b[:, 1::2], b[:, 2::2]
    h2 = h * h
    out = np.empty((4,) + np.broadcast_shapes(diag.shape, bm.shape))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by _finite
        s = b0 + b1
        w = b0 - b1
        # node terms, with the constants of their polynomials folded in
        ej0, ej2 = (h / 6.0) * (s + 4.0 * bm), (h * h2 / 12.0) * s
        ei0, ei2 = (h2 / 6.0) * (bm * (s + bm)), (h2 * h2 / 24.0) * (b0 * b1)
        ex2 = (0.25 * h2) * w
        dd = diag * diag
        g = dd - bm * bm
        ez = g * (h * h2 / 6.0 * diag)
        ez += h * diag
        ej = g * ej2
        ej += ej0
        ei = (h2 * h2 / 24.0 * dd) - ei2
        ei *= g
        ei += (0.5 * h2 * dd) - ei0
        ex = g * ex2
        ex += w
        ex *= h2 / 6.0 * diag
        q = ei * (2.0 + ei) - ez * ez - ex * ex + ej * ej
        if np.any(q <= -1.0):
            raise ResidualError(
                "an RK4 step of the lift reverses orientation: the grid is too coarse for this wheelbase")
        s = np.sqrt(1.0 + q)
        ei -= q / (1.0 + s)
        ei /= s
        ez /= s
        ej /= s
        ex /= s
        np.add(ei, ez, out=out[0])
        np.add(ej, ex, out=out[1])
        np.subtract(ex, ej, out=out[2])
        np.subtract(ei, ez, out=out[3])
    return out


def _exact(c: np.ndarray, k: np.ndarray, length: np.ndarray) -> np.ndarray:
    """E-forms of ``exp(L A)`` for constant generators ``A = 1/2 [[-c, k], [-k, c]]``.

    The arguments broadcast against each other, and so does the result's
    shape after its leading axis of 4. ``A^2 = lambda^2 I`` with
    ``lambda^2 = (c^2 - k^2) / 4``, so with ``x = |lambda| L``
    ``exp(L A) = C I + L S A``, where ``C = cosh x`` and ``S = sinh(x) / x``
    (``cos x`` and ``sin(x) / x`` when ``k^2 > c^2``). ``C - 1`` is taken as
    ``2 sinh^2(x/2)`` (``-2 sin^2(x/2)``), never as a difference with 1, and
    ``sinh`` and ``sin`` keep their relative accuracy down to the smallest
    ``x``, so both stay accurate as ``lambda`` goes to 0 with no series;
    at ``x = 0`` itself ``S`` is its limit 1.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by _finite
        disc = (c - k) * (c + k)
        x = 0.5 * np.sqrt(np.abs(disc)) * length
        hyperbolic = disc > 0.0
        cm1 = np.where(hyperbolic, 2.0 * np.sinh(0.5 * x) ** 2, -2.0 * np.sin(0.5 * x) ** 2)
        s = np.where(x > 0.0, np.where(hyperbolic, np.sinh(x), np.sin(x)) / x, 1.0)
        half = 0.5 * length * s
        return np.stack(np.broadcast_arrays(cm1 - half * c, half * k, -half * k, cm1 + half * c))


def _pieces(track: FrontTrack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lengths, curvatures and corner turns of the pieces of every pass, in order."""
    return tuple(np.tile(track.pieces, (track.traversals, 1)).T)


def _piece_factors(track: FrontTrack, c: np.ndarray) -> np.ndarray:
    """Exact factors of every piece, each followed by its corner, shape ``(4, B, 2m)``.

    A corner turning by ``gamma`` is the half-angle rotation ``R(gamma/2)``:
    a piece of unit length and curvature ``gamma`` with ``c = 0``. A piece
    without a corner is followed by ``E = 0``, the identity.
    """
    length, k, turn = _pieces(track)
    corner = np.tile([False, True], len(length))
    return _exact(np.where(corner, 0.0, c), np.stack((k, turn), axis=1).ravel(),
                  np.stack((length, np.ones_like(length)), axis=1).ravel())


def _step_factors(track: FrontTrack, c: np.ndarray, n_steps: int) -> np.ndarray:
    """Factors ``E_j`` whose product over the whole track is its monodromy, shape ``(4, B, N)``.

    ``c`` holds each row's coefficient, shape ``(B, 1)``. On a smooth track,
    the ``n_steps`` RK4 steps, refused when they do not resolve a row's
    wheelbase; on a piecewise track, the exact factors of its pieces and
    corners, whatever ``n_steps``.
    """
    if track.pieces is not None:
        return _piece_factors(track, c)
    return _resolved_factors(_half_grid_curvature(track, n_steps), track.total_length / n_steps, c)


def _resolved_factors(k: np.ndarray, h: float, c: np.ndarray) -> np.ndarray:
    """:func:`_factors` for coefficients ``c`` (B, 1), refused when ``h |c| > RESOLVED_STEP``."""
    if not np.all(h * np.abs(c) <= RESOLVED_STEP):
        raise ResidualError(
            f"{k.shape[-1] // 2} steps do not resolve the flow: a step times the steering "
            f"coefficient (1 in a development) must be at most {RESOLVED_STEP:g}")
    return _factors(k, h, -0.5 * c)


def _prefix(track: FrontTrack, c: np.ndarray, n_steps: int) -> np.ndarray:
    """E-forms of the lift's propagator from the start to each of ``n_steps + 1`` even nodes.

    ``c`` holds each row's coefficient, shape ``(B, 1)``. On a smooth track
    these are the prefix products of its RK4 steps. On a piecewise
    track they are exact: the factor of the part of a node's piece before
    the node, times the product of all earlier pieces and corners; a corner
    on a node counts there. Shape ``(4, B, n+1)``.
    """
    e = _step_factors(track, c, n_steps)
    if track.pieces is None:
        return _scan(e)
    length, k, _ = _pieces(track)
    starts = np.concatenate(([0.0], np.cumsum(length)))
    t = np.linspace(0.0, track.total_length, n_steps + 1)
    done = np.searchsorted(starts[1:], t, side="right")  # pieces finished at each node
    done[-1] = len(length)  # the last node ends the track, after its last corner
    part = _exact(c, np.append(k, 0.0)[done], np.maximum(t - starts[done], 0.0))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        return _finite(_combine(part, _scan(e)[..., 0::2][..., done]))


def _tree(e: np.ndarray) -> np.ndarray:
    """E-form of each row's product ``S_{n-1} ... S_0``, shape ``(4, B)``, by a balanced tree.

    Level by level, factors ``(0, 1), (2, 3), ...`` are combined and an odd
    last one is carried up. Reducing aligned blocks of a power-of-two length
    first and then the block results builds this same tree, bit for bit.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        while e.shape[-1] > 1:
            even = e.shape[-1] & ~1
            pairs = _combine(e[..., 1:even:2], e[..., 0:even:2])
            e = pairs if even == e.shape[-1] else np.concatenate((pairs, e[..., even:]), axis=-1)
    return _finite(e[..., 0])


def _scan(e: np.ndarray) -> np.ndarray:
    """E-forms of the prefix products ``Q_j = S_{j-1} ... S_0``, ``j = 0..n``, shape ``(4, B, n+1)``.

    ``Q_0`` is the identity. Hillis-Steele doubling: ``ceil(log2(n+1))``
    rounds, each one vectorized.
    """
    x = np.concatenate((np.zeros(e.shape[:-1] + (1,)), e), axis=-1)
    d = 1
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        while d < x.shape[-1]:
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

    On a piecewise track the map is the product of one exact factor per
    piece and per corner, whatever ``n_steps``, and its error is the
    rounding of that many factors, ``eps`` each. On a smooth track the error
    is the step-doubling estimate: the same product taken in steps of
    ``2h``, whose midpoint curvature is already on the half grid, differs
    from it by about 15 times its own error (RK4's error falls 16-fold when
    the step halves). It is returned relative to the map's largest entry,
    shape ``(B,)``. A row whose wheelbase the grid does not resolve
    (``h |c| > RESOLVED_STEP``) is stepped with ``c = 0``, so it cannot
    overflow or reverse and stop the other rows, and reads an infinite error.
    Steps are built and reduced in aligned blocks whose length is a power
    of two, at most ``BLOCK`` row-steps each, so memory does not grow with
    rows times steps, and every row comes out as it would alone.
    """
    c = _coefficients(track, params)
    if track.pieces is not None:
        e = _step_factors(track, c, n_steps)
        m = np.eye(2).reshape(4, 1) + _tree(e)
        return m.T.reshape(-1, 2, 2), np.full(len(params), e.shape[-1] * np.finfo(float).eps)
    k = _half_grid_curvature(track, n_steps)
    h = track.total_length / n_steps
    resolved = h * np.abs(c[:, 0]) <= RESOLVED_STEP
    diag = np.where(resolved[:, None], -0.5 * c, 0.0)
    block = 2
    while 2 * block * len(params) <= BLOCK:
        block *= 2
    fine, coarse = [], []
    for start in range(0, n_steps, block):
        kb = k[:, 2 * start: 2 * min(start + block, n_steps) + 1]
        e = _factors(kb, h, diag)
        pairs = e.shape[-1] // 2
        ec = np.concatenate((_factors(kb[:, :4 * pairs + 1:2], 2.0 * h, diag),
                             e[..., 2 * pairs:]), axis=-1)  # an odd last step stays unpaired
        fine.append(_tree(e))
        coarse.append(_tree(ec))
    m = np.eye(2).reshape(4, 1) + _tree(np.stack(fine, axis=-1))
    mc = np.eye(2).reshape(4, 1) + _tree(np.stack(coarse, axis=-1))
    error = np.max(np.abs(m - mc), axis=0) / (15.0 * np.max(np.abs(m), axis=0))
    return m.T.reshape(-1, 2, 2), np.where(resolved, error, np.inf)


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

    The history is the lift's propagator at every grid node (see ``_prefix``), read
    back as continuous angles.
    """
    n = params.steps_per_traversal * track.traversals
    start = np.array([float(alpha0)])
    z = _lifted(_prefix(track, _coefficients(track, [params]), n), start)
    t = np.linspace(0.0, track.total_length, n + 1)
    return SteeringSolution(track, params, float(alpha0), t, _angles(z, start)[0, 0])


def steering_endpoints(track: FrontTrack, params: BikeParams, alpha0: Sequence[float],
                       n_steps: int | None = None, variational: bool = False):
    """Final angles (and optionally d(alpha_T)/d(alpha_0)) for a batch of starts.

    Each final angle is on the continuous branch from its start, the same as
    ``integrate_steering(...).final_alpha``. The tangent factor of the lift
    product ``P``, of determinant one, at a unit lift ``z0`` is ``1 / |P z0|^2``.
    """
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    starts = np.asarray(alpha0, dtype=float)
    flat = starts.reshape(-1)
    z = _lifted(_prefix(track, _coefficients(track, [params]), n), flat)
    end = _angles(z, flat)[0, :, -1].reshape(starts.shape)
    if not variational:
        return end
    last = z[:, 0, :, -1]
    beta = 1.0 / (last[0] ** 2 + last[1] ** 2)
    return end, beta.reshape(starts.shape)


def signed_rear_length(solution: SteeringSolution) -> float:
    """Signed arc length of the rear path, ``\\int cos(alpha) dt`` by Simpson."""
    return simpson(np.cos(solution.alpha), solution.step)


def monodromy_matrix(track: FrontTrack, params: BikeParams,
                     n_steps: int | None = None) -> np.ndarray:
    """Product of the lift's step matrices over the whole track.

    The steering equation is the projectivization of the linear system
    ``z' = A(t) z`` on ``z = (sin(alpha/2), cos(alpha/2))`` with
    ``A = [[-c/2, k/2], [-k/2, c/2]]``; the returned 2x2 matrix is the raw
    product ``S_{n-1} ... S_0`` from the engine's balanced tree, the
    fundamental solution over the whole track. On a smooth track the steps
    are RK4 steps scaled to determinant one, so it holds up to step error;
    on a piecewise track they are exact, corners included, and it holds to
    rounding. Either way its determinant is one to rounding. Entries grow
    only like the square root of the multiplier ratio, so the product stays
    usable for strongly contracting monodromies, where every probe
    trajectory lands on the attracting angle to machine precision.
    """
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    e = _step_factors(track, _coefficients(track, [params]), n)
    return np.eye(2) + _tree(e)[:, 0].reshape(2, 2)


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

        def series(coeffs):
            # a value and its s-derivative; the support-function form pads cos and sin to one length
            p = SupportFunction.from_coefficients(*coeffs)
            return p.value(phi), p.derivative(phi) * TWO_PI

        with np.errstate(over="ignore", invalid="ignore"):  # loop_identity refuses overflow
            x, dx = series(x_coeffs)
            y, dy = series(y_coeffs)
            theta, dtheta = series(theta_coeffs)
            return cls(s, x, y, theta + TWO_PI * winding * s, dx, dy, dtheta + TWO_PI * winding)

    @classmethod
    def from_rear_solution(cls, solution: SteeringSolution) -> "ConfigLoop":
        """Configuration loop traced by an actual bicycle motion (rear chart).

        The rod turns at ``theta' = k - alpha' = c sin(alpha)``.
        """
        rt = rear_track(solution)
        big_t = solution.track.total_length
        s = solution.t / big_t
        dx = big_t * np.cos(solution.alpha) * np.cos(rt.theta)
        dy = big_t * np.cos(solution.alpha) * np.sin(rt.theta)
        dtheta = big_t * solution.params.coefficient * np.sin(solution.alpha)
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

    def periodic_trapz(values):
        return float(trapezoid(values, loop.s))

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite integrals are refused below
        ct, st = np.cos(loop.theta), np.sin(loop.theta)
        fx = loop.x + ell * ct
        fy = loop.y + ell * st
        dfx = loop.dx - ell * st * loop.dtheta
        dfy = loop.dy + ell * ct * loop.dtheta
        area_rear = periodic_trapz(0.5 * (loop.x * loop.dy - loop.y * loop.dx))
        area_front = periodic_trapz(0.5 * (fx * dfy - fy * dfx))
        lam = periodic_trapz(ct * loop.dy - st * loop.dx)
        dth = float(loop.theta[-1] - loop.theta[0])
    check = LoopCheck(area_front, area_rear, lam, dth, float(ell))
    try:
        finite = bool(np.isfinite(check.lhs - check.rhs))  # both sides, so every integral
    except OverflowError:  # ell**2
        finite = False
    if not finite:
        raise ResidualError("the loop's integrals overflow double precision")
    return check


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
