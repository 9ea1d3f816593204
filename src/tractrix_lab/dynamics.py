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
midpoint, built for all steps and all rows at once. The steps may be taken
in any parameter ``u`` with ``ds = sigma du``, where the generator is
``sigma A = 1/2 [[-c sigma, k sigma], [-k sigma, c sigma]]``: arc length is
the chart with ``sigma = 1``. A support-function track carries its
tangent-angle chart (:class:`.geom.Chart`), with ``sigma`` the radius of
curvature and ``k sigma = 1``, read off one inverse FFT, and an ellipse its
eccentric-anomaly chart, with ``sigma = hypot(a sin psi, b cos psi)`` and
``k sigma = a b / sigma^2``; neither inverts arc length. The monodromy is
the same circle map in every chart, so endpoint products (the monodromy,
and the final angles of :func:`steering_endpoints`) are stepped in the
chart when the track has one, while dense histories, indexed by arc
length, stay in arc length. The steering generator is
``-c sigma/2 diag(1, -1)`` plus ``k sigma/2`` times a rotation generator, so
its RK4 step is written out in closed form, four scalars per step, each a
short polynomial in ``c`` whose coefficients are formed once per grid
(``_terms``, ``_factors``); the rod generator goes through the generic
products of ``_rk4``. On a track made of pieces of constant curvature
(circles, lines, polylines, geodesic circles) every piece and corner has an
exact factor (``_exact``, ``_piece_factors``), so the monodromy is one
factor per piece and per corner, and a dense history is exact at every
node. A balanced tree (``_tree``) multiplies the factors into the
monodromy, and a work-efficient scan (``_scan``) into the prefix products
of a dense history. Factors travel as ``E = S - I`` and combine as
``(I + A)(I + B) = I + (A + B + AB)``, so thousands of nearly identical
steps do not round ``I + E`` once each; every steering factor has
determinant one, so no product carries a determinant beside it. Every
smooth grid obeys one resolution rule (``_resolves``),
``h max(|c| max sigma, max |k sigma|) <= 2``, or gives no result; the
turning term counts wherever no step doubling catches a turn that falls
into a few steps (an ellipse's tips): in dense histories, developments,
the rod flow and a monodromy stepped in a chart. A smooth track's
monodromy comes with its step-doubling error estimate and is the global
Richardson extrapolation of its two products (``_monodromy_sweep``).
Angles are read back from the direction of each lifted vector
(``_angles``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._num import simpson, trapezoid, wrap_angle
from .errors import ResidualError, ValidationError
from .geom import TWO_PI, FrontTrack, Geometry, _path_area, enclosed_area


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


def _charted(track: FrontTrack, n_steps: int) -> bool:
    """Whether ``n_steps`` over all passes tile the track's chart with whole passes of half steps."""
    return track.chart is not None and (2 * n_steps) % track.traversals == 0


def _arc_grid(curvature, length: float, n_steps: int):
    """``(h, 1.0, k)`` at the ``2n + 1`` half-step nodes of ``n`` arc-length steps over ``[0, length]``."""
    t = np.linspace(0.0, length, 2 * n_steps + 1)
    return length / n_steps, 1.0, np.broadcast_to(np.asarray(curvature(t), dtype=float), t.shape)[None, :]


def _half_grid(track: FrontTrack, n_steps: int, chart: bool):
    """Step ``h`` and ``(sigma, k sigma)`` at the ``2n + 1`` half-step nodes.

    In the track's chart when ``chart`` is true (its grid of one pass tiled
    over the passes), else in arc length (:func:`_arc_grid`). An array has
    shape ``(1, 2n+1)``.
    """
    if not chart:
        return _arc_grid(track.curvature, track.total_length, n_steps)
    passes = track.traversals
    grid = [x if np.ndim(x) == 0 else np.concatenate((np.tile(x[:-1], passes), x[-1:]))[None, :]
            for x in track.chart.half_grid(2 * n_steps // passes)]
    return track.chart.span * passes / n_steps, *grid


def _grid(track: FrontTrack, n_steps: int, chart: bool):
    """``(h, max sigma, max |k sigma|, fine, coarse)`` of a smooth track's grid (see :func:`_half_grid`).

    ``fine`` holds the node terms (:func:`_terms`) of its ``n`` steps and
    ``coarse`` those of its ``n // 2`` steps of twice the length, whose
    nodes are the even half-grid nodes. They do not depend on the
    wheelbase, so each grid asked for is kept on the track, read-only, and
    every later sweep costs only its rows.
    """
    key = (n_steps, chart)
    cached = track._grid.get(key)
    if cached is not None:
        return cached
    h, sigma, ksigma = _half_grid(track, n_steps, chart)
    even = slice(0, 4 * (n_steps // 2) + 1, 2)
    fine = _terms(sigma, ksigma, h)
    coarse = _terms(_cut(sigma, even), _cut(ksigma, even), 2.0 * h)
    for x in fine + coarse:
        if np.ndim(x):
            x.flags.writeable = False
    out = track._grid[key] = (h, float(np.max(sigma)), float(np.max(np.abs(ksigma))), fine, coarse)
    return out


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
SCAN_BASE = 512  # longest prefix scan taken by Hillis-Steele doubling (see _scan)
RESOLVED_STEP = 2.0  # largest h max(|c| max sigma, max |k sigma|) of a smooth grid that resolves the flow


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


def _cut(x, part: slice):
    """Entries ``part`` along the grid of ``x``, shape ``(1, m)``; a constant stays as it is."""
    return x if np.ndim(x) == 0 else x[:, part]


def _terms(sigma, ksigma, h: float) -> tuple:
    """Node terms ``(P1, P3, Q0, Q2, R0, R2, R4, X1, X3)`` of the RK4 steps of a grid, each ``(1, n)`` or a float.

    ``sigma`` and ``ksigma`` are ``sigma`` and ``k sigma`` of a chart with
    ``ds = sigma du`` at spacing ``h/2`` in ``u``, each of shape ``(1, 2n+1)``
    or a float where constant (arc length: ``sigma = 1``). The generator is
    ``sigma A = d sz + b J`` with ``d = -c sigma/2`` and ``b = k sigma/2``,
    where ``sz = diag(1, -1)``, ``J = [[0, 1], [-1, 0]]`` and
    ``sx = [[0, 1], [1, 0]]``. Two such generators multiply to
    ``A_x A_y = (d_x d_y - b_x b_y) I + (d_x b_y - b_x d_y) sx``, so the RK4
    step of :func:`_rk4` is ``E = eI I + ez sz + eJ J + ex sx``, and with
    ``g = d_m^2 - b_m^2`` and nodes 0, m, 1 at each step's start, midpoint
    and end its four scalars are

        ez = h/6 [(d0 + 4 dm + d1) + (h^2 / 2) g (d0 + d1)]
        eJ = h/6 [(b0 + 4 bm + b1) + (h^2 / 2) g (b0 + b1)]
        eI = h^2/6 [dm (d0 + d1) - bm (b0 + b1) + g] + (h^4 / 24) g (d0 d1 - b0 b1)
        ex = h^2/6 [dm (b0 - b1) + bm (d1 - d0)] + (h^4 / 24) g (d1 b0 - b1 d0)

    that is ``ez = c (P1 + c^2 P3)``, ``eJ = Q0 + c^2 Q2``,
    ``eI = R0 + c^2 (R2 + c^2 R4)`` and ``ex = c (X1 + c^2 X3)``, whose
    coefficients depend on the nodes alone. A constant stays a float
    through them, so arc length pays for no ``sigma`` and a chart with
    ``k sigma = 1`` for no ``k sigma``.
    """
    def nodes(x):
        return (x, x, x) if np.ndim(x) == 0 else (x[:, 0:-1:2], x[:, 1::2], x[:, 2::2])

    s0, sm, s1 = nodes(sigma)
    k0, km, k1 = nodes(ksigma)
    h2 = h * h
    a1, a2, a3, a4 = h / 12.0, h2 / 24.0, h * h2 / 96.0, h2 * h2 / 384.0
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by _finite
        ss, kk = sm * sm, km * km
        s_sum, k_sum = s0 + s1, k0 + k1
        ds, dk = s1 - s0, k1 - k0
        cross = s0 * dk - k0 * ds  # s0 k1 - k0 s1, exact where either is constant
        s_prod, k_prod = s0 * s1, k0 * k1
        kk4 = a4 * kk
        return (a3 * s_sum * kk - a1 * (s_sum + 4.0 * sm),
                -a3 * ss * s_sum,
                a1 * (k_sum + 4.0 * km) - a3 * kk * k_sum,
                a3 * ss * k_sum,
                kk4 * k_prod - a2 * km * (k_sum + km),
                a2 * sm * (s_sum + sm) - (a4 * ss * k_prod + kk4 * s_prod),
                a4 * ss * s_prod,
                a2 * (sm * dk - km * ds) - kk4 * cross,
                a4 * ss * cross)


def _factors(terms: tuple, c: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Steering step factors ``E_j`` for every row of ``c`` and step ``j``, shape ``(4, B, n)``.

    ``terms`` are a grid's node terms (:func:`_terms`) and ``c`` holds each
    row's coefficient, shape ``(B, 1)``; each row costs a few
    multiply-adds. Each step is then scaled to determinant one: with
    ``q = det S - 1 = eI (2 + eI) - ez^2 - ex^2 + eJ^2`` and
    ``s = sqrt(1 + q)``, ``S / s`` has ``eI`` replaced by
    ``(eI - q / (1 + s)) / s`` and the other three scalars divided by ``s``.
    The determinant is multiplicative, so every product of steps is the RK4
    product scaled to determinant one, and none is carried beside them.
    The factors are written into ``out`` when it is given (a view of that
    shape, such as part of a sweep's buffer), else into a new array.
    """
    p1, p3, q0, q2, r0, r2, r4, x1, x3 = terms
    shape = np.broadcast_shapes(c.shape, *(np.shape(t) for t in terms))
    c2 = c * c
    out = np.empty((4,) + shape) if out is None else out
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused by _finite
        # each polynomial starts from its top term in a buffer of the full shape
        ez = np.multiply(p3, c2, out=np.empty(shape))
        ez += p1
        ez *= c
        ej = np.multiply(q2, c2, out=np.empty(shape))
        ej += q0
        ei = np.multiply(r4, c2, out=np.empty(shape))
        ei += r2
        ei *= c2
        ei += r0
        ex = np.multiply(x3, c2, out=np.empty(shape))
        ex += x1
        ex *= c
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


def _step_factors(track: FrontTrack, c: np.ndarray, n_steps: int, chart: bool = False) -> np.ndarray:
    """Factors ``E_j`` whose product over the whole track is its monodromy, shape ``(4, B, N)``.

    ``c`` holds each row's coefficient, shape ``(B, 1)``. On a smooth track,
    the ``n_steps`` RK4 steps, in the track's chart if ``chart`` and it has
    one (else in arc length), refused when they do not resolve the flow; on
    a piecewise track, the exact factors of its pieces and corners,
    whatever ``n_steps``.
    """
    if track.pieces is not None:
        return _piece_factors(track, c)
    h, top, turn, fine, _ = _grid(track, n_steps, chart and _charted(track, n_steps))
    _require_resolved(h, c, top, turn)
    return _factors(fine, c)


def _resolves(h: float, c, top: float, turn: float) -> np.ndarray:
    """The resolution rule ``h max(|c| max sigma, max |k sigma|) <= RESOLVED_STEP``, per coefficient in ``c``.

    ``top`` is the grid's largest ``sigma`` and ``turn`` its largest
    ``|k sigma|``, or 0 where step doubling checks the turning.
    """
    return h * np.maximum(np.abs(c) * top, turn) <= RESOLVED_STEP


def _require_resolved(h: float, c, top: float, turn: float) -> None:
    """Refuse a grid that breaks :func:`_resolves` for any coefficient in ``c``."""
    if not np.all(_resolves(h, c, top, turn)):
        raise ResidualError(
            f"the steps do not resolve the flow: step x max(|c| max sigma, max |k sigma|) must be at most "
            f"{RESOLVED_STEP:g} (c = 1/ell for the rod, 1 in a development; k sigma is the turning)")


def _arc_prefix(curvature, length: float, n_steps: int, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The curvature at the ``n + 1`` nodes of :func:`_arc_grid`, and :func:`_prefix`'s E-forms there."""
    h, sigma, k = _arc_grid(curvature, length, n_steps)
    _require_resolved(h, c, sigma, float(np.max(np.abs(k))))
    return k[0, ::2].copy(), _scan(_factors(_terms(sigma, k, h), c))


def _prefix(track: FrontTrack, c: np.ndarray, n_steps: int, chart: bool = False) -> np.ndarray:
    """E-forms of the lift's propagator from the start to each of ``n_steps + 1`` even nodes.

    ``c`` holds each row's coefficient, shape ``(B, 1)``. On a smooth track
    these are the prefix products of its RK4 steps, uniform in the track's
    chart if ``chart`` and it has one, else in arc length. On a piecewise
    track they are exact: the factor of the part of a node's piece before
    the node, times the product of all earlier pieces and corners; a corner
    on a node counts there. Shape ``(4, B, n+1)``.
    """
    e = _step_factors(track, c, n_steps, chart)
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
    """E-form of each row's product ``S_{n-1} ... S_0`` over the last axis, by a balanced tree.

    Level by level, factors ``(0, 1), (2, 3), ...`` are combined and an odd
    last one is carried up. Reducing aligned blocks of a power-of-two length
    first and then the block results builds this same tree, bit for bit.
    So does padding the factors with zeros, the identity's E-form, to a
    power of two: ``_combine`` of ``E`` with a zero operand returns ``E``
    exactly, as carrying it up does. Axes between the first and the last
    are kept (``(4, B, n)`` gives ``(4, B)``), so several stacks of one
    length reduce in one tree.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # callers refuse overflow
        while e.shape[-1] > 1:
            even = e.shape[-1] & ~1
            pairs = _combine(e[..., 1:even:2], e[..., 0:even:2])
            e = pairs if even == e.shape[-1] else np.concatenate((pairs, e[..., even:]), axis=-1)
    return e[..., 0]


def _power(e: np.ndarray, reps: int) -> np.ndarray:
    """E-form of ``(I + e)^reps`` for ``reps >= 1``, by square-and-multiply over the bits of ``reps``."""
    with np.errstate(over="ignore", invalid="ignore"):  # callers refuse overflow
        out = e
        for bit in bin(reps)[3:]:
            out = _combine(out, out)
            if bit == "1":
                out = _combine(e, out)
    return out


def _scan(e: np.ndarray) -> np.ndarray:
    """E-forms of the prefix products ``Q_j = S_{j-1} ... S_0``, ``j = 0..n``, shape ``(4, B, n+1)``.

    ``Q_0`` is the identity. Odd-even recursion (Ladner & Fischer 1980;
    Brent & Kung 1982): the pairs ``S_{2i+1} S_{2i}`` are combined, their
    half-length scan gives the even prefixes ``Q_{2i}``, and one more
    :func:`_combine` gives the odd ones, ``Q_{2i+1} = S_{2i} Q_{2i}``. Each
    halving costs ``n`` combines in two vectorized rounds. A scan of at most
    ``SCAN_BASE`` steps is Hillis-Steele doubling instead, ``ceil(log2(n+1))``
    rounds over the whole length, about ``n log2(n)`` combines: at these
    lengths per-round overhead rules and the two cost about the same
    (measured), and short scans keep their rounding. The halvings take
    about ``2n`` combines and the base case at most about ``8 SCAN_BASE``,
    so from ``n = 8 SCAN_BASE`` on a scan takes under ``3n`` (``2.75n`` at
    ``n = 4096``, against ``11n`` by doubling alone), in about
    ``2 log2(n / SCAN_BASE) + log2(SCAN_BASE)`` rounds.
    """
    n = e.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        if n <= SCAN_BASE:
            x = np.concatenate((np.zeros(e.shape[:-1] + (1,)), e), axis=-1)
            d = 1
            while d < x.shape[-1]:
                x[..., d:] = _combine(x[..., d:], x[..., :-d])
                d *= 2
        else:
            x = np.empty(e.shape[:-1] + (n + 1,))
            x[..., 0::2] = _scan(_combine(e[..., 1::2], e[..., 0:n - 1:2]))
            x[..., 1::2] = _combine(e[..., 0::2], x[..., 0:n:2])
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
    rounding of that many factors, ``eps`` each. On a smooth track the
    fine product ``M = I + F`` (``n_steps`` steps) and the coarse product
    ``Mc = I + C`` (steps of ``2h``) come from :func:`_sweep_products`.
    RK4's global error is ``K h^4`` to leading order, so ``M - Mc`` is
    about 15 times the fine product's error, and the map returned is the
    global Richardson extrapolation ``R = I + F + (F - C) / 15``, which
    cancels that term at no extra step. The error returned is the fine
    product's step-doubling estimate ``max |M - Mc| / (15 max |M|)``,
    shape ``(B,)``: it bounds ``R``'s error conservatively, and it is the
    estimate the grid is refined on. ``R`` is not rescaled: its
    determinant is one to second order in ``M - Mc``. A row the grid does
    not resolve reads an infinite error. A row whose product overflows
    double precision comes out with non-finite entries and a nan error,
    and does not stop the others; its callers refuse it.
    """
    if track.pieces is not None:
        e = _piece_factors(track, _coefficients(track, params))
        m = np.eye(2).reshape(4, 1) + _tree(e)
        return _flagged(m, np.full(len(params), e.shape[-1] * np.finfo(float).eps))
    f, fc, resolved = _sweep_products(track, params, n_steps)
    eye = np.eye(2).reshape(4, 1)
    m = eye + f
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed row reads nan
        error = np.max(np.abs(m - (eye + fc)), axis=0) / (15.0 * np.max(np.abs(m), axis=0))
        r = eye + (f + (f - fc) / 15.0)
    return _flagged(r, np.where(resolved, error, np.inf))


def _sweep_products(track: FrontTrack, params: Sequence[BikeParams],
                    n_steps: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Raw fine and coarse products of a smooth track, E-forms ``F``, ``C`` (4, B), and the resolved rows.

    The steps are taken in the track's chart when it has one (they are
    uniform in the chart's parameter ``u``), else in arc length. The
    coarse product takes steps of ``2h``, whose midpoint nodes are already
    on the half grid. A row whose wheelbase the grid does not resolve
    (:func:`_resolves`) is stepped with ``c = 0``, so it cannot overflow
    or reverse and stop the other rows, and is flagged unresolved. The
    turning term counts in a chart only: an ellipse turns through its tips
    in ``min/max`` of its eccentric anomaly, and a grid that steps over
    them passes step doubling with a wrong map.
    Steps are built and reduced in aligned blocks whose length is a power
    of two, at most ``BLOCK`` row-steps each, so memory does not grow with
    rows times steps, and every row comes out as it would alone. The fine
    and coarse products of a block share one buffer of three chunks of
    ``half`` steps, the least power of two with ``2 half`` at least the
    block's length: the fine steps fill chunks 0 and 1, the coarse pairs
    chunk 2 followed by an odd last fine step, and zeros pad the rest. One
    :func:`_tree` reduces all three chunks, the fine product joins its two
    halves, and one more tree over the blocks and one :func:`_power` take
    both products on. Zero factors are the identity, so each product is
    the one its own tree would give, bit for bit; only a row that
    overflowed may read nan where it read inf.
    In a chart whose ``(sigma, k sigma)`` repeat ``reps`` times over the
    track (its ``symmetry`` times the passes), the steps repeat too, so
    when ``n_steps`` splits into ``reps`` sub-passes of an even number of
    steps only the first sub-pass is swept, and its fine and coarse
    products are raised to the power ``reps``; ``n_steps`` still counts
    the whole track. Otherwise ``reps`` is 1 and every step is swept.
    """
    c = _coefficients(track, params)
    charted = _charted(track, n_steps)
    h, top, turn, fine, coarse = _grid(track, n_steps, charted)
    reps = track.chart.symmetry * track.traversals if charted else 1
    if n_steps % (2 * reps):
        reps = 1
    resolved = _resolves(h, c[:, 0], top, turn if charted else 0.0)
    c = np.where(resolved[:, None], c, 0.0)
    block = 2
    while 2 * block * len(params) <= BLOCK:
        block *= 2
    products = []
    swept = n_steps // reps
    for start in range(0, swept, block):
        steps = min(block, swept - start)
        pairs = steps // 2
        half = 1
        while 2 * half < steps:
            half *= 2
        # chunks 0-1: the fine steps; chunk 2: the coarse pairs, then an odd last fine step
        e = (np.empty if 2 * half == steps else np.zeros)((4, len(params), 3, half))
        e_fine = _factors([_cut(t, slice(start, start + steps)) for t in fine],
                          c, out=e.reshape(4, len(params), 3 * half)[..., :steps])
        _factors([_cut(t, slice(start // 2, start // 2 + pairs)) for t in coarse], c, out=e[:, :, 2, :pairs])
        e[:, :, 2, pairs:steps - pairs] = e_fine[..., 2 * pairs:]
        t = _tree(e)
        with np.errstate(over="ignore", invalid="ignore"):  # callers refuse overflow
            products.append(np.stack((_combine(t[..., 1], t[..., 0]), t[..., 2]), axis=-1))
    both = _power(_tree(np.stack(products, axis=-1)), reps)
    return both[..., 0], both[..., 1], resolved


def _flagged(m: np.ndarray, error: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Maps ``(B, 2, 2)`` of the E-form products ``m`` (4, B), with ``error`` nan where ``m`` overflowed."""
    return m.T.reshape(-1, 2, 2), np.where(np.all(np.isfinite(m), axis=0), error, np.nan)


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
    ``integrate_steering(...).final_alpha`` up to step error. Only the end
    of each history is read, so the steps are taken in the track's chart
    when it has one, as for :func:`monodromy_matrix`: the final angle does
    not depend on the parameter the steps are uniform in. The tangent factor
    of the lift product ``P``, of determinant one, at a unit lift ``z0`` is
    ``1 / |P z0|^2``.
    """
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    starts = np.asarray(alpha0, dtype=float)
    flat = starts.reshape(-1)
    z = _lifted(_prefix(track, _coefficients(track, [params]), n, chart=True), flat)
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
    are RK4 steps scaled to determinant one, uniform in the track's chart
    when it has one (see :func:`_monodromy_sweep`), so it holds up to step error;
    on a piecewise track they are exact, corners included, and it holds to
    rounding. Either way its determinant is one to rounding. Entries grow
    only like the square root of the multiplier ratio, so the product stays
    usable for strongly contracting monodromies, where every probe
    trajectory lands on the attracting angle to machine precision.
    """
    n = n_steps if n_steps is not None else params.steps_per_traversal * track.traversals
    e = _step_factors(track, _coefficients(track, [params]), n, chart=True)
    return np.eye(2) + _finite(_tree(e))[:, 0].reshape(2, 2)


def _rear_path(front: np.ndarray, theta: np.ndarray, rate, ell: float,
               h: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Points ``front - ell u``, velocity ``rate u`` and Simpson area of a rod's rear end.

    ``u = (cos theta, sin theta)`` is the rod's direction, ``rate`` the rear
    speed per unit of the parameter (``cos alpha`` times the front's) and
    ``h`` the node spacing; with ``ell = 0`` ``front`` is the rear path itself.
    """
    u = np.stack((np.cos(theta), np.sin(theta)), axis=-1)
    points = front - ell * u
    velocity = rate[..., None] * u
    area = simpson(0.5 * (points[:, 0] * velocity[:, 1] - points[:, 1] * velocity[:, 0]), h)
    return points, velocity, area


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

    The front points ``F`` and their headings ``Phi``, which give the rod
    direction ``theta = Phi - alpha``, come from one evaluation of the track
    at the solution's nodes; the same points scale the closure tolerance.
    Cusps sit where ``cos alpha`` changes sign (the rear wheel reverses its
    rolling direction); they are located by linear interpolation between grid
    points, which is all the downstream consumers (plots, reports) need.
    """
    if solution.params.geometry is not Geometry.EUCLIDEAN:
        raise ValidationError("rear positions live in the plane only for euclidean geometry")
    front, phi = solution.track.frame(solution.t)
    theta = phi - solution.alpha
    ell = solution.params.ell
    c = np.cos(solution.alpha)
    points, _, _ = _rear_path(front, theta, c, ell, solution.step)

    flips = np.nonzero(np.sign(c[:-1]) * np.sign(c[1:]) < 0)[0]
    frac = c[flips] / (c[flips] - c[flips + 1])
    cusps = solution.t[flips] + frac * solution.step

    closed = bool(
        solution.track.closed
        and np.linalg.norm(points[-1] - points[0]) < 1e-6 * (ell + np.hypot(*np.ptp(front, axis=0)))
    )
    return RearTrack(solution.t, points, theta, cusps, signed_rear_length(solution), closed)


def area_between_tracks(solution: SteeringSolution, rear: RearTrack | None = None) -> float:
    """Signed area of the circuit: front forward, rod, rear backward, rod back.

    For a closed front track with both tracks closed this is ``A_F - A_R``; for
    the straight-line front it is the classical area between the tractrix and
    its asymptote. A closed front's area is :func:`.geom.enclosed_area`
    (closed form on a track with a chart or made of pieces); an open
    front's is the same integral along its path (closed form on pieces,
    such as the tractrix's line; Green quadrature otherwise). ``rear`` is
    the solution's :func:`rear_track` when the caller has built it already;
    by default it is built here.
    """
    rt = rear_track(solution) if rear is None else rear
    track = solution.track
    area_front = enclosed_area(track) if track.closed else _path_area(track)
    _, _, area_rear = _rear_path(rt.points, rt.theta, np.cos(solution.alpha), 0.0, solution.step)
    f0, fT = track.position(0.0), track.position(track.total_length)
    r0, rT = rt.points[0], rt.points[-1]
    edge_out = 0.5 * (fT[0] * rT[1] - fT[1] * rT[0])
    edge_back = 0.5 * (r0[0] * f0[1] - r0[1] * f0[0])
    return area_front + edge_out - area_rear + edge_back


# -- configuration-space loops ----------------------------------------------

LOOP_NODES = 4096  # most steps a loop takes when it chooses its own grid
LOOP_TAIL = 1e-15  # top half-band of exp(i theta)'s spectrum, relative to its peak, on a resolved grid


def _loop_spectrum(*series) -> np.ndarray:
    """Rows ``(a0, a_1 - i b_1, ..., a_H - i b_H)`` of (a0, cos[], sin[]) sets, padded to one ``H``."""
    parts = [(float(a0), np.asarray(cos, dtype=float), np.asarray(sin, dtype=float))
             for a0, cos, sin in series]
    harmonics = max(max(len(cos), len(sin)) for _, cos, sin in parts)
    cos_sin = np.zeros((2, len(parts), harmonics))
    for i, (_, cos, sin) in enumerate(parts):
        cos_sin[0, i, :len(cos)], cos_sin[1, i, :len(sin)] = cos, sin
    return np.concatenate(([[a0] for a0, _, _ in parts], cos_sin[0] - 1j * cos_sin[1]), axis=1)


def _loop_rows(spectrum: np.ndarray, winding: int, n: int) -> np.ndarray:
    """Rows s, x, y, theta, dx, dy, dtheta at ``s = j / n``, ``j = 0 .. n``, of a Fourier loop.

    Values and ``s``-derivatives of all three series are one inverse real
    FFT of a (6, ·) spectrum, taken on the first power-of-two multiple of
    ``n`` above twice the harmonic count, so no harmonic aliases, and read
    back at every ``n``-th point; the endpoint repeats the first node.
    """
    harmonics = spectrum.shape[1] - 1
    size = n
    while size <= 2 * harmonics:
        size *= 2
    full = np.zeros((6, size // 2 + 1), dtype=complex)
    full[:3, 0] = size * spectrum[:, 0].real
    # a cos + b sin is the real part of (a - ib) e^{i phi}, whose derivative is i times it
    full[:3, 1:harmonics + 1] = (0.5 * size) * spectrum[:, 1:]
    full[3:, 1:harmonics + 1] = full[:3, 1:harmonics + 1] * (1j * np.arange(1, harmonics + 1))
    grid = np.fft.irfft(full, size)[:, ::size // n]
    s = np.linspace(0.0, 1.0, n + 1)
    rows = np.concatenate((s[None], np.concatenate((grid, grid[:, :1]), axis=1)))
    rows[4:] *= TWO_PI
    rows[3] += TWO_PI * winding * s
    rows[6] += TWO_PI * winding
    return rows


def _resolved(theta: np.ndarray) -> bool:
    """Whether ``exp(i theta)`` on these ``n`` periodic nodes is resolved to ``LOOP_TAIL``.

    Its spectrum at frequencies ``|f| >= n/4`` (the top half of the band
    the nodes carry) must be at most ``LOOP_TAIL`` of its peak.
    """
    n = len(theta)
    spectrum = np.abs(np.fft.fft(np.exp(1j * theta)))
    return bool(np.max(spectrum[n // 4:n - n // 4 + 1]) <= LOOP_TAIL * np.max(spectrum))


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
    def from_fourier(cls, x_coeffs, y_coeffs, theta_coeffs, winding: int = 0,
                     n: int | None = None) -> "ConfigLoop":
        """Trigonometric-polynomial loop on ``n`` steps; each coefficient set is (a0, cos[], sin[]).

        All six rows (x, y, theta and their ``s``-derivatives) are one
        batched inverse real FFT (see :func:`_loop_rows`), closed by the
        periodic endpoint. An explicit ``n`` is used as given. By default the
        loop chooses it: from the smallest power of two that is at least 64
        and at least ``8 (harmonics + |winding|)``, ``n`` doubles while the
        top half-band (frequencies ``>= n/4``) of the spectrum of
        ``exp(i theta)`` on ``n`` nodes is above ``LOOP_TAIL`` of its peak,
        up to ``LOOP_NODES``. Every integrand of :func:`loop_identity` is
        ``exp(i theta)`` times polynomials of at most ``2 harmonics <= n/4``,
        so the periodic trapezoid rule then takes them to rounding.
        """
        if n is not None and n < 1:
            raise ValidationError(f"a loop needs at least one step, got {n}")
        spectrum = _loop_spectrum(x_coeffs, y_coeffs, theta_coeffs)
        with np.errstate(over="ignore", invalid="ignore"):  # loop_identity refuses overflow
            if n is not None:
                rows = _loop_rows(spectrum, winding, n)
            else:
                n = 64
                while n < min(8 * (spectrum.shape[1] - 1 + abs(winding)), LOOP_NODES):
                    n *= 2
                rows = _loop_rows(spectrum, winding, n)
                while n < LOOP_NODES and not _resolved(rows[3, :-1]):
                    n *= 2
                    rows = _loop_rows(spectrum, winding, n)
            return cls(*rows)

    @classmethod
    def from_rear_solution(cls, solution: SteeringSolution) -> "ConfigLoop":
        """Configuration loop traced by an actual bicycle motion (rear chart).

        The rod turns at ``theta' = k - alpha' = c sin(alpha)``.
        """
        rt = rear_track(solution)
        big_t = solution.track.total_length
        s = solution.t / big_t
        _, velocity, _ = _rear_path(rt.points, rt.theta, big_t * np.cos(solution.alpha), 0.0, solution.step)
        dtheta = big_t * solution.params.coefficient * np.sin(solution.alpha)
        return cls(s, rt.points[:, 0], rt.points[:, 1], rt.theta, velocity[:, 0], velocity[:, 1], dtheta)


@dataclass(frozen=True)
class LoopCheck:
    """Both sides of the rod-area identity for one configuration loop.

    ``quadrature_error`` is the error bar of the trapezoid sums: how far
    ``area_front``, ``area_rear`` and ``ell * lambda_integral`` each move,
    summed, when taken on every second node (see :func:`loop_identity`).
    """

    area_front: float
    area_rear: float
    lambda_integral: float
    dtheta_integral: float
    ell: float
    quadrature_error: float

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
    check spectrally accurate for smooth loops. The same sums taken on every
    second node give the error bar ``quadrature_error`` with no new
    evaluation: on an even ``n`` that is the periodic rule on ``n/2`` steps,
    so the bar is the coarse rule's error and overstates the fine one's; on
    an odd ``n`` the coarse nodes end with one single step, an ordinary
    second-order trapezoid rule, so the bar reads its ``O(1/n^2)`` error and
    not the spectral one (0 on one step, where both rules are the same).
    """
    if not ell > 0.0:
        raise ValidationError("rod length must be positive")
    n = len(loop.s) - 1
    coarse = np.arange(0, n + 2, 2)
    coarse[-1] = n

    with np.errstate(over="ignore", invalid="ignore"):  # non-finite integrals are refused below
        ct, st = np.cos(loop.theta), np.sin(loop.theta)
        fx = loop.x + ell * ct
        fy = loop.y + ell * st
        dfx = loop.dx - ell * st * loop.dtheta
        dfy = loop.dy + ell * ct * loop.dtheta
        integrands = np.stack((0.5 * (fx * dfy - fy * dfx), 0.5 * (loop.x * loop.dy - loop.y * loop.dx),
                               ct * loop.dy - st * loop.dx))
        area_front, area_rear, lam = (float(v) for v in trapezoid(integrands, loop.s))
        moved = np.abs(trapezoid(integrands[:, coarse], loop.s[coarse]) - (area_front, area_rear, lam))
        dth = float(loop.theta[-1] - loop.theta[0])
        error = float(moved[0] + moved[1] + ell * moved[2])
    check = LoopCheck(area_front, area_rear, lam, dth, float(ell), error)
    try:
        finite = bool(np.isfinite(check.lhs - check.rhs))  # both sides, so every integral
    except OverflowError:  # ell**2
        finite = False
    if not finite:
        raise ResidualError("the loop's integrals overflow double precision")
    return check


def random_config_loop(rng: np.random.Generator, n_harmonics: int = 4,
                       amplitude: float = 1.0, winding: int | None = None,
                       n: int | None = None) -> ConfigLoop:
    """Random smooth loop with decaying Fourier content, for identity sweeps.

    ``n`` is passed to :meth:`ConfigLoop.from_fourier`: by default the loop
    chooses its own grid, at most ``LOOP_NODES`` steps.
    """
    def coeffs(scale):
        decay = scale / np.arange(1, n_harmonics + 1) ** 2
        return (rng.uniform(-scale, scale),
                rng.uniform(-1.0, 1.0, n_harmonics) * decay,
                rng.uniform(-1.0, 1.0, n_harmonics) * decay)

    if winding is None:
        winding = int(rng.integers(-1, 3))
    return ConfigLoop.from_fourier(coeffs(amplitude), coeffs(amplitude),
                                   coeffs(0.8), winding=winding, n=n)
