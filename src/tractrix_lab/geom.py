"""Planar track models: curve constructions, curvature data, areas, support functions.

Every track is parameterized by arc length, so the tangent angle and the
curvature returned here can be fed straight into the steering dynamics.
Closed tracks extend periodically in the parameter: positions repeat, while
the tangent angle keeps winding by one turning number per pass. That makes
re-based and multi-pass evaluations continuous without any unwrap bookkeeping
at call sites.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, asdict
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from ._num import PAIRABLE, ArcLengthParam, fit_fourier, fourier_eval, panel_nodes, wrap_angle
from .errors import InvalidCurveError, ValidationError

TWO_PI = 2.0 * math.pi


class Geometry(Enum):
    """Constant-curvature ambient plane for the steering dynamics."""

    EUCLIDEAN = "euclidean"
    SPHERICAL = "spherical"
    HYPERBOLIC = "hyperbolic"

    def steering_coefficient(self, ell: float) -> float:
        """Geodesic curvature of the circle of radius ``ell``: 1/ell, cot(ell), coth(ell)."""
        self.check_wheelbase(ell)
        if self is Geometry.EUCLIDEAN:
            return 1.0 / ell
        if self is Geometry.SPHERICAL:
            return 1.0 / math.tan(ell)
        return 1.0 / math.tanh(ell)

    def check_wheelbase(self, ell: float) -> None:
        if not ell > 0.0:
            raise ValidationError(f"wheelbase must be positive, got {ell}")
        if self is Geometry.SPHERICAL and not ell < math.pi:
            raise ValidationError(f"spherical wheelbase must lie in (0, pi), got {ell}")


_KINDS = ("circle", "ellipse", "fourier-support", "polyline", "samples", "line")
_SCALAR_FIELDS = ("r", "a", "b", "angle", "a0", "fillet_radius")


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _point(value) -> tuple[float, float]:
    x, y = value
    return float(x), float(y)


def _numeric(key: str, value, convert, shape: str = ""):
    """``convert(value)``, reporting a non-numeric or non-finite curve-spec field as invalid input."""
    try:
        out = convert(value)
    except (TypeError, ValueError):
        raise InvalidCurveError(f"curve-spec field {key!r} must be numeric{shape}, got {value!r}") from None
    if not np.all(np.isfinite(out)):
        raise InvalidCurveError(f"curve-spec field {key!r} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class CurveSpec:
    """Declarative description of a front track, mirrored one-to-one in JSON.

    Only the fields relevant to ``kind`` are consulted; see FORMATS.md for the
    wire format. ``orientation`` is +1 for counterclockwise traversal of the
    canonical construction, -1 for the reverse.
    """

    kind: str
    r: float | None = None
    a: float | None = None
    b: float | None = None
    center: tuple[float, float] = (0.0, 0.0)
    angle: float = 0.0
    a0: float | None = None
    cos: tuple[float, ...] = ()
    sin: tuple[float, ...] = ()
    vertices: tuple[tuple[float, float], ...] = ()
    fillet_radius: float | None = None
    points: tuple[tuple[float, float], ...] = ()
    closed: bool = True
    start: tuple[float, float] | None = None
    end: tuple[float, float] | None = None
    traversals: int = 1
    orientation: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidCurveError(f"unknown curve kind {self.kind!r}, expected one of {_KINDS}")
        if self.orientation not in (1, -1):
            raise InvalidCurveError(f"orientation must be +1 or -1, got {self.orientation}")
        if not (isinstance(self.traversals, int) and self.traversals >= 1):
            raise InvalidCurveError(f"traversals must be a positive integer, got {self.traversals}")

    @classmethod
    def from_dict(cls, data: dict) -> "CurveSpec":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise InvalidCurveError(f"unknown curve-spec fields: {sorted(unknown)}")
        if "kind" not in data:
            raise InvalidCurveError("curve spec is missing 'kind'")
        clean = dict(data)
        for key in _SCALAR_FIELDS:
            if clean.get(key) is not None:
                clean[key] = _numeric(key, clean[key], float)
        for key in ("center", "start", "end"):
            if clean.get(key) is not None:
                clean[key] = _numeric(key, clean[key], _point, " [x, y]")
        for key in ("cos", "sin"):
            if key in clean:
                clean[key] = _numeric(key, clean[key], _floats)
        for key in ("vertices", "points"):
            if key in clean:
                clean[key] = _numeric(key, clean[key], lambda ps: tuple(_point(p) for p in ps),
                                      " [x, y] pairs")
        return cls(**clean)

    @classmethod
    def from_json(cls, text: str) -> "CurveSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidCurveError(f"curve spec is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise InvalidCurveError("curve spec JSON must be an object")
        return cls.from_dict(data)

    def to_dict(self) -> dict:
        out = {"kind": self.kind}
        defaults = {f.name: f.default for f in self.__dataclass_fields__.values()}
        for name, value in asdict(self).items():
            if name == "kind":
                continue
            if value != defaults.get(name):
                out[name] = value
        out["traversals"] = self.traversals
        out["orientation"] = self.orientation
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict())


class FrontTrack:
    """Unit-speed plane curve with position, tangent-angle, and curvature accessors.

    Parameters
    ----------
    period : float
        Arc length of a single pass.
    position_fn, tangent_fn, curvature_fn : callable
        Vectorized maps from canonical arc length in ``[0, period]`` to
        positions ``(n, 2)``, unwrapped tangent angles, and signed curvatures.
    closed : bool
        Closed tracks are evaluated periodically; the tangent angle gains
        ``2*pi*turning`` per pass.
    traversals : int
        Number of passes; ``total_length = period * traversals``.
    pieces : array of shape (m, 3), optional
        For a track made of arcs of constant curvature (circles, lines,
        polylines, geodesic circles): one row ``(length, curvature, turn)``
        per arc of a single pass, in order, where ``turn`` is the exterior
        angle of the corner at the arc's end. The dynamics propagate such a
        track in closed form, and its ``breakpoints`` (where the curvature
        jumps or the track turns) are read from the pieces. ``None`` for
        smooth tracks.
    """

    def __init__(
        self,
        period: float,
        position_fn: Callable[[np.ndarray], np.ndarray],
        tangent_fn: Callable[[np.ndarray], np.ndarray],
        curvature_fn: Callable[[np.ndarray], np.ndarray],
        *,
        closed: bool,
        traversals: int = 1,
        geometry: Geometry = Geometry.EUCLIDEAN,
        pieces: np.ndarray | None = None,
        spec: CurveSpec | None = None,
        label: str = "",
    ):
        if not (period > 0.0 and math.isfinite(period * traversals)):
            raise InvalidCurveError(f"track must have positive finite length, got {period!r}")
        # lengths and coordinates past sqrt(max double) overflow once squared
        if not period * traversals <= PAIRABLE:
            raise InvalidCurveError(
                f"track length {period * traversals:.3e} exceeds {PAIRABLE:.3e}")
        start = position_fn(np.array([0.0]))[0]
        if not math.hypot(*start) <= PAIRABLE:
            raise InvalidCurveError(f"track coordinates exceed {PAIRABLE:.3e}")
        self.period = float(period)
        self.traversals = int(traversals)
        self.total_length = self.period * self.traversals
        self.closed = bool(closed)
        self.geometry = geometry
        self.pieces = None
        self.breakpoints = np.empty(0)
        if pieces is not None:
            self.pieces = np.array(pieces, dtype=float).reshape(-1, 3)
            self.pieces.flags.writeable = False
            length, k, turn = self.pieces.T
            self.breakpoints = np.cumsum(length[:-1])[(turn[:-1] != 0.0) | (k[:-1] != k[1:])]
        self.spec = spec
        self.label = label
        self._pos_c = position_fn
        self._tan_c = tangent_fn
        self._k_c = curvature_fn
        self._k_range: tuple[float, float] | None = None
        self._k_half: tuple[int, np.ndarray] | None = None  # (steps, half-grid curvature)
        if self.closed:
            gap = math.hypot(*(position_fn(np.array([period]))[0] - start))
            if gap > 1e-8 * max(1.0, period):
                raise InvalidCurveError(f"closed track does not return to its start (gap {gap:.3e})")
            span = float(tangent_fn(np.array([period]))[0] - tangent_fn(np.array([0.0]))[0])
            self.turning_single = int(round(span / TWO_PI))
            if abs(span - TWO_PI * self.turning_single) > 1e-6:
                raise InvalidCurveError("closed track tangent does not return modulo 2*pi")
        else:
            if self.traversals != 1:
                raise InvalidCurveError("open tracks cannot be traversed more than once")
            self.turning_single = 0

    # -- evaluation ---------------------------------------------------------

    def _split(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self.closed:
            laps = np.floor(t / self.period)
            tc = np.clip(t - laps * self.period, 0.0, self.period)
            return tc, laps
        return np.clip(t, 0.0, self.total_length), np.zeros_like(t)

    def position(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tc, _ = self._split(np.atleast_1d(t).ravel())
        out = np.asarray(self._pos_c(tc), dtype=float)
        return out.reshape(t.shape + (2,))

    def tangent_angle(self, t) -> np.ndarray:
        """Unwrapped direction of motion; continuous across passes and re-basings."""
        t = np.asarray(t, dtype=float)
        tc, laps = self._split(np.atleast_1d(t).ravel())
        out = np.asarray(self._tan_c(tc), dtype=float) + TWO_PI * self.turning_single * laps
        return out.reshape(t.shape) if t.shape else float(out[0])

    def curvature(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tc, _ = self._split(np.atleast_1d(t).ravel())
        out = np.asarray(self._k_c(tc), dtype=float)
        return out.reshape(t.shape) if t.shape else float(out[0])

    # -- derived quantities -------------------------------------------------

    @property
    def turning_number(self) -> int:
        return self.turning_single * self.traversals

    def curvature_range(self, n: int = 4096) -> tuple[float, float]:
        """Min and max signed curvature over a dense canonical grid."""
        if self._k_range is None:
            t = np.linspace(0.0, self.period, n, endpoint=False)
            if len(self.breakpoints):
                eps = 1e-9 * self.period
                t = np.sort(np.concatenate([t, self.breakpoints + eps, self.breakpoints - eps]))
                t = t[(t >= 0.0) & (t <= self.period)]
            k = self.curvature(t)
            self._k_range = (float(np.min(k)), float(np.max(k)))
        return self._k_range

    @property
    def convex(self) -> bool:
        """Closed with strictly positive curvature throughout (counterclockwise)."""
        return self.closed and self.curvature_range()[0] > 0.0

    def bbox_diameter(self, n: int = 1024) -> float:
        xy = self.position(np.linspace(0.0, self.period, n))
        lo, hi = xy.min(axis=0), xy.max(axis=0)
        return float(np.hypot(*(hi - lo)))

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform parameter grid over the full path with positions, endpoint included."""
        t = np.linspace(0.0, self.total_length, n + 1)
        return t, self.position(t)

    def path_breakpoints(self) -> np.ndarray:
        """Breakpoints replicated over all passes, for piecewise-aware quadrature."""
        if not len(self.breakpoints):
            return self.breakpoints
        reps = [self.breakpoints + k * self.period for k in range(self.traversals)]
        return np.concatenate(reps)

    # -- combinators --------------------------------------------------------

    def reversed(self) -> "FrontTrack":
        """Same point set traced the other way; curvature and corner turns change sign.

        Pieces run in the opposite order, and each corner moves to the end
        of the piece that now precedes it. The reflected tangent angle would
        take each corner's turn one point early (at ``t = 0`` it would
        already include the turn at the start vertex), so a track with
        corners reads its tangent from the reversed pieces: at a corner it
        is the angle after the turn, as on the forward track.
        """
        period = self.period

        def pos(t):
            return self._pos_c(period - t)

        def tan(t):
            return self._tan_c(period - t) + math.pi

        def cur(t):
            return -self._k_c(period - t)

        pieces = None
        if self.pieces is not None:
            length, k, turn = self.pieces.T
            pieces = np.stack((length, -k, -np.roll(turn, 1)), axis=1)[::-1]
            if np.any(turn):
                tan = _heading(pieces, float(tan(np.array([0.0]))[0]) - turn[-1], period)
        return FrontTrack(
            period, pos, tan, cur,
            closed=self.closed, traversals=self.traversals, geometry=self.geometry,
            pieces=pieces, spec=self.spec, label=self.label,
        )

    def reinterpreted(self, geometry: Geometry) -> "FrontTrack":
        """Same chart and curvature function, read in a different geometry.

        The steering equation consumes only arc length and curvature, so a
        curvature profile built in one geometry can be fed to the dynamics
        of another (e.g. a euclidean convex track played through the
        hyperbolic unit-bicycle equation). Positions keep their chart role.
        """
        return FrontTrack(
            self.period, self._pos_c, self._tan_c, self._k_c,
            closed=self.closed, traversals=self.traversals, geometry=geometry,
            pieces=self.pieces, spec=self.spec, label=self.label,
        )

    def transformed(self, rotation: float = 0.0, translation: Sequence[float] = (0.0, 0.0)) -> "FrontTrack":
        """Apply a rigid motion of the plane (euclidean tracks only)."""
        if self.geometry is not Geometry.EUCLIDEAN:
            raise ValidationError("rigid motions are only defined for euclidean tracks")
        c, s = math.cos(rotation), math.sin(rotation)
        rot = np.array([[c, -s], [s, c]])
        shift = np.asarray(translation, dtype=float)

        def pos(t):
            return self._pos_c(t) @ rot.T + shift

        def tan(t):
            return self._tan_c(t) + rotation

        return FrontTrack(
            self.period, pos, tan, self._k_c,
            closed=self.closed, traversals=self.traversals, geometry=self.geometry,
            pieces=self.pieces, spec=None, label=self.label,
        )

    def rebased(self, t0: float) -> "FrontTrack":
        """Closed track re-parameterized to start at parameter ``t0``.

        The piece holding ``t0`` is split in two: its part after ``t0``
        comes first, with the piece's corner, and its part before ``t0``
        comes last, with none. A corner at ``t0`` itself ends the new pass.
        """
        if not self.closed:
            raise ValidationError("only closed tracks can be re-based")

        def pos(t):
            return self.position(t0 + t)

        def tan(t):
            return self.tangent_angle(t0 + t)

        def cur(t):
            return self.curvature(t0 + t)

        pieces = None
        if self.pieces is not None:
            start = t0 % self.period % self.period  # the second % maps a rounded-up period to 0
            starts = np.concatenate(([0.0], np.cumsum(self.pieces[:-1, 0])))
            i = int(np.searchsorted(starts, start, side="right")) - 1
            length, k, turn = self.pieces[i]
            into = start - starts[i]
            pieces = np.concatenate(([[length - into, k, turn]], self.pieces[i + 1:],
                                     self.pieces[:i], [[into, k, 0.0]] if into > 0.0 else np.empty((0, 3))))
        return FrontTrack(
            self.period, pos, tan, cur,
            closed=True, traversals=self.traversals, geometry=self.geometry,
            pieces=pieces, spec=None, label=self.label,
        )

    def split_at_corners(self) -> list["FrontTrack"]:
        """One pass cut at its corners into open tracks, in order; ``[self]`` if it has none.

        Each stretch's tangent runs up to the corner that ends it, not past
        it, so an integrator that samples the stretches one by one never
        steps across a turn.
        """
        if self.pieces is None or not np.any(self.pieces[:, 2]):
            return [self]
        length, k, turn = self.pieces.T
        starts = np.concatenate(([0.0], np.cumsum(length)))
        heading = float(self._tan_c(np.array([0.0]))[0]) + np.concatenate(
            ([0.0], np.cumsum(k * length + turn)))
        cuts = [0, *(np.flatnonzero(turn[:-1]) + 1), len(length)]
        out = []
        for i, j in zip(cuts[:-1], cuts[1:]):
            a, span = starts[i], starts[j] - starts[i]
            pieces = np.stack((length[i:j], k[i:j], np.zeros(j - i)), axis=1)
            out.append(FrontTrack(
                span, lambda t, a=a: self._pos_c(a + t), _heading(pieces, heading[i], span),
                lambda t, a=a: self._k_c(a + t), closed=False, geometry=self.geometry,
                pieces=pieces, label=self.label))
        return out


def _heading(pieces: np.ndarray, theta0: float, period: float) -> Callable[[np.ndarray], np.ndarray]:
    """Tangent angle along ``pieces`` of one pass of length ``period``, from ``theta0``.

    A corner's turn counts from its piece's end on, so the angle at a corner
    is the one after it, and the angle at ``period`` includes the last
    corner (the closure check reads it there).
    """
    length, k, turn = pieces.T
    starts = np.concatenate(([0.0], np.cumsum(length[:-1])))
    at_start = theta0 + np.concatenate(([0.0], np.cumsum(k * length + turn)[:-1]))

    def tan(t):
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        return at_start[idx] + k[idx] * (t - starts[idx]) + np.where(t >= period, turn[-1], 0.0)

    return tan


# -- constructions ----------------------------------------------------------


def _build_circle(spec: CurveSpec) -> FrontTrack:
    if spec.r is None or not spec.r > 0.0:
        raise InvalidCurveError(f"circle needs a positive radius, got {spec.r}")
    r = float(spec.r)
    center = np.asarray(spec.center, dtype=float)

    def pos(t):
        ang = t / r
        return center + r * np.stack([np.cos(ang), np.sin(ang)], axis=-1)

    return FrontTrack(
        TWO_PI * r,
        pos,
        lambda t: t / r + 0.5 * math.pi,
        lambda t: np.full_like(t, 1.0 / r),
        closed=True, traversals=spec.traversals, pieces=[(TWO_PI * r, 1.0 / r, 0.0)],
        label=f"circle r={r:g}",
    )


def _build_ellipse(spec: CurveSpec) -> FrontTrack:
    if spec.a is None or spec.b is None or not (spec.a > 0.0 and spec.b > 0.0):
        raise InvalidCurveError("ellipse needs positive semi-axes a and b")
    a, b = float(spec.a), float(spec.b)
    rot = float(spec.angle)
    center = np.asarray(spec.center, dtype=float)
    crot, srot = math.cos(rot), math.sin(rot)
    rmat = np.array([[crot, -srot], [srot, crot]])

    def speed(psi):
        return np.hypot(a * np.sin(psi), b * np.cos(psi))

    alp = ArcLengthParam(speed, 0.0, TWO_PI)

    def pos(t):
        psi = alp.u_of_t(t)
        xy = np.stack([a * np.cos(psi), b * np.sin(psi)], axis=-1)
        return xy @ rmat.T + center

    def tan(t):
        psi = alp.u_of_t(t)
        base = psi + 0.5 * math.pi
        # deviation from the circular reference stays below pi/2, so a single
        # wrap recovers the unwrapped angle
        return base + wrap_angle(np.arctan2(b * np.cos(psi), -a * np.sin(psi)) - base) + rot

    def cur(t):
        return a * b / speed(alp.u_of_t(t)) ** 3

    return FrontTrack(alp.total, pos, tan, cur, closed=True, traversals=spec.traversals,
                      label=f"ellipse {a:g}x{b:g}")


def _build_fourier_support(spec: CurveSpec) -> FrontTrack:
    if spec.a0 is None:
        raise InvalidCurveError("fourier-support needs the mean radius a0")
    a0 = float(spec.a0)
    cos_c = np.asarray(spec.cos, dtype=float)
    sin_c = np.asarray(spec.sin, dtype=float)
    n = max(len(cos_c), len(sin_c))
    cos_c = np.pad(cos_c, (0, n - len(cos_c)))
    sin_c = np.pad(sin_c, (0, n - len(sin_c)))

    # p + p'' is one trigonometric polynomial, with harmonics scaled by 1 - m^2
    damp = 1.0 - np.arange(1, n + 1, dtype=float) ** 2
    rc_cos, rc_sin = damp * cos_c, damp * sin_c

    def rad_curv(phi):
        return fourier_eval(a0, rc_cos, rc_sin, phi)

    probe = rad_curv(np.linspace(0.0, TWO_PI, 8192, endpoint=False))
    if np.min(probe) <= 1e-9 * max(abs(a0), 1.0):
        raise InvalidCurveError(
            f"support function is not strictly convex (min radius of curvature {np.min(probe):.3e})"
        )
    alp = ArcLengthParam(rad_curv, 0.0, TWO_PI)

    def pos(t):
        phi = alp.u_of_t(t)
        p = fourier_eval(a0, cos_c, sin_c, phi)
        dp = fourier_eval(a0, cos_c, sin_c, phi, deriv=1)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        uperp = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        return p[..., None] * u + dp[..., None] * uperp

    def tan(t):
        return alp.u_of_t(t) + 0.5 * math.pi

    def cur(t):
        return 1.0 / rad_curv(alp.u_of_t(t))

    return FrontTrack(alp.total, pos, tan, cur, closed=True, traversals=spec.traversals,
                      label="fourier-support")


def _check_coordinates(points: np.ndarray, what: str) -> None:
    """Refuse points whose edges and their running lengths could overflow."""
    if not np.all(np.abs(points) <= PAIRABLE):
        raise InvalidCurveError(f"{what} coordinates exceed {PAIRABLE:.3e}")


def _build_polyline(spec: CurveSpec) -> FrontTrack:
    verts = np.asarray(spec.vertices, dtype=float)
    if verts.ndim != 2 or verts.shape[0] < 3 or verts.shape[1] != 2:
        raise InvalidCurveError("polyline needs at least 3 plane vertices")
    _check_coordinates(verts, "polyline")
    m = verts.shape[0]
    edges = np.roll(verts, -1, axis=0) - verts
    lengths = np.hypot(edges[:, 0], edges[:, 1])
    if np.any(lengths < 1e-12):
        raise InvalidCurveError("polyline has a zero-length edge")
    dirs = edges / lengths[:, None]
    # corner i sits at vertex i, between edges i-1 and i
    prev = np.roll(dirs, 1, axis=0)
    cross = prev[:, 0] * dirs[:, 1] - prev[:, 1] * dirs[:, 0]
    dot = np.sum(prev * dirs, axis=1)
    gamma = np.arctan2(cross, dot)
    if np.any(np.abs(np.abs(gamma) - math.pi) < 1e-9):
        raise InvalidCurveError("polyline doubles back on itself at a vertex")
    if np.all(np.abs(gamma) < 1e-12):
        raise InvalidCurveError("polyline vertices are collinear")

    rf = 0.0  # without a fillet radius the corners are exact
    if spec.fillet_radius is not None:
        rf = float(spec.fillet_radius)
        if not rf > 0.0:
            raise InvalidCurveError("fillet radius must be positive")
    setback = rf * np.tan(0.5 * np.abs(gamma))
    for i in range(m):
        if setback[i] + setback[(i + 1) % m] >= lengths[i] - 1e-12:
            raise InvalidCurveError("fillet radius too large for an edge of the polyline")

    # pieces: straight along edge i, then the fillet arc at vertex i+1 or its corner
    rows, is_arc, anchor, aux = [], [], [], []
    for i in range(m):
        j = (i + 1) % m
        g = gamma[j]
        rows.append((lengths[i] - setback[i] - setback[j], 0.0, 0.0 if rf else g))
        is_arc.append(False); anchor.append(verts[i] + setback[i] * dirs[i]); aux.append(dirs[i])
        if rf:
            b_pt = verts[j] - setback[j] * dirs[i]
            sgn = 1.0 if g >= 0.0 else -1.0
            center = b_pt + rf * sgn * np.array([-dirs[i, 1], dirs[i, 0]])
            start_ang = math.atan2(b_pt[1] - center[1], b_pt[0] - center[0])
            rows.append((rf * abs(g), sgn / rf, 0.0))
            is_arc.append(True); anchor.append(center); aux.append(np.array([start_ang, sgn / rf]))

    pieces = np.array(rows)
    starts = np.concatenate(([0.0], np.cumsum(pieces[:-1, 0])))
    total = starts[-1] + pieces[-1, 0]
    is_arc = np.asarray(is_arc)
    anchor = np.asarray(anchor)
    aux = np.asarray(aux)
    rate = pieces[:, 1]

    def locate(t):
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(starts) - 1)
        return idx, t - starts[idx]

    def pos(t):
        idx, s = locate(t)
        arc = is_arc[idx]
        out = np.empty((len(t), 2))
        st = ~arc
        out[st] = anchor[idx[st]] + s[st, None] * aux[idx[st]]
        ia = idx[arc]
        ang = aux[ia, 0] + aux[ia, 1] * s[arc]
        out[arc] = anchor[ia] + rf * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
        return out

    def cur(t):
        return rate[locate(t)[0]]

    return FrontTrack(
        total, pos, _heading(pieces, math.atan2(dirs[0, 1], dirs[0, 0]), total), cur,
        closed=True, traversals=spec.traversals, pieces=pieces, label=f"polyline[{m}]",
    )


def _build_samples(spec: CurveSpec) -> FrontTrack:
    from scipy.interpolate import CubicSpline  # the only scipy use; keeps it out of the import

    pts = np.asarray(spec.points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2 or pts.shape[1] != 2:
        raise InvalidCurveError("samples needs at least 2 plane points")
    _check_coordinates(pts, "sample")
    closed = bool(spec.closed)
    if closed:
        if math.hypot(*(pts[0] - pts[-1])) > 1e-9:
            pts = np.vstack([pts, pts[0]])
        else:
            pts = pts.copy()
            pts[-1] = pts[0]  # periodic spline wants exact closure
        if pts.shape[0] < 4:
            raise InvalidCurveError("a closed sample curve needs at least 3 distinct points")
    steps = np.diff(pts, axis=0)
    chord = np.concatenate([[0.0], np.cumsum(np.hypot(steps[:, 0], steps[:, 1]))])
    if np.any(np.diff(chord) < 1e-12):
        raise InvalidCurveError("sample points contain duplicates")
    spline = CubicSpline(chord, pts, axis=0, bc_type="periodic" if closed else "natural")
    d1 = spline.derivative(1)
    d2 = spline.derivative(2)
    u_max = chord[-1]

    def speed(u):
        v = d1(u)
        return np.hypot(v[..., 0], v[..., 1])

    alp = ArcLengthParam(speed, 0.0, u_max, n_seg=max(2048, 8 * len(pts)))
    u_dense = np.linspace(0.0, u_max, 16384)
    v_dense = d1(u_dense)
    phi_dense = np.unwrap(np.arctan2(v_dense[:, 1], v_dense[:, 0]))

    def pos(t):
        return spline(alp.u_of_t(t))

    def tan(t):
        return np.interp(alp.u_of_t(t), u_dense, phi_dense)

    def cur(t):
        u = alp.u_of_t(t)
        v, w = d1(u), d2(u)
        sp = np.hypot(v[..., 0], v[..., 1])
        return (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]) / sp**3

    return FrontTrack(alp.total, pos, tan, cur, closed=closed, traversals=spec.traversals,
                      label=f"samples[{len(spec.points)}]")


def _build_line(spec: CurveSpec) -> FrontTrack:
    if spec.start is None or spec.end is None:
        raise InvalidCurveError("line needs 'start' and 'end' points")
    p0 = np.asarray(spec.start, dtype=float)
    p1 = np.asarray(spec.end, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):  # FrontTrack refuses an overflowed length
        length = float(np.linalg.norm(p1 - p0))
        direction = (p1 - p0) / length
    if length < 1e-12:
        raise InvalidCurveError("line endpoints coincide")
    theta = math.atan2(direction[1], direction[0])

    def pos(t):
        return p0 + t[:, None] * direction

    return FrontTrack(
        length, pos,
        lambda t: np.full_like(t, theta),
        lambda t: np.zeros_like(t),
        closed=False, pieces=[(length, 0.0, 0.0)], label="line",
    )


_BUILDERS = {
    "circle": _build_circle,
    "ellipse": _build_ellipse,
    "fourier-support": _build_fourier_support,
    "polyline": _build_polyline,
    "samples": _build_samples,
    "line": _build_line,
}


def make_curve(spec: CurveSpec | dict | str) -> FrontTrack:
    """Build a :class:`FrontTrack` from a spec, a dict, or a JSON string."""
    if isinstance(spec, str):
        spec = CurveSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = CurveSpec.from_dict(spec)
    track = _BUILDERS[spec.kind](spec)
    if spec.orientation == -1:
        track = track.reversed()
    track.spec = spec
    return track


# -- integral quantities ----------------------------------------------------


def _green_integral(track: FrontTrack, *densities) -> list[float]:
    """Line integrals of each ``density(x, y, cos_phi, sin_phi)`` over the full path.

    The path is evaluated once, on the quadrature nodes, for all densities.
    """
    t, weights = panel_nodes(0.0, track.total_length, track.path_breakpoints(),
                             min_panels=512 * track.traversals)
    xy = track.position(t.ravel())
    phi = track.tangent_angle(t.ravel())
    args = (xy[..., 0], xy[..., 1], np.cos(phi), np.sin(phi))
    return [float(np.sum(weights * density(*args).reshape(t.shape))) for density in densities]


def _area_density(x, y, c, s):
    return 0.5 * (x * s - y * c)


def enclosed_area(track: FrontTrack) -> float:
    """Green's-theorem signed area ``(1/2) \\oint (x dy - y dx)`` of the full path."""
    if not track.closed:
        raise ValidationError("enclosed area needs a closed track")
    return _green_integral(track, _area_density)[0]


def _region_moments(track: FrontTrack) -> tuple[float, np.ndarray, float]:
    """Area, centroid and mean squared distance from the centroid of the enclosed region.

    Area, both first moments and the polar moment come from one evaluation
    of the boundary.
    """
    if not track.closed:
        raise ValidationError("centroid needs a closed track")
    area, mx, my, polar = _green_integral(
        track, _area_density,
        lambda x, y, c, s: 0.5 * x * x * s,
        lambda x, y, c, s: -0.5 * y * y * c,
        lambda x, y, c, s: (x**3 * s - y**3 * c) / 3.0)
    if abs(area) < 1e-12:
        raise ValidationError("centroid is undefined for a zero-area track")
    centroid = np.array([mx / area, my / area])
    return area, centroid, polar / area - float(centroid @ centroid)


def area_centroid(track: FrontTrack) -> np.ndarray:
    """Centroid of the enclosed region, by boundary moments."""
    return _region_moments(track)[1]


def mean_square_radius(track: FrontTrack) -> float:
    """Mean squared distance from the centroid over the enclosed region."""
    return _region_moments(track)[2]


# -- support functions ------------------------------------------------------


@dataclass(frozen=True)
class SupportFunction:
    """Support function of a convex region in truncated Fourier form.

    ``p(phi)`` is the signed distance from ``anchor`` to the tangent line with
    outward normal ``(cos phi, sin phi)``. The boundary is recovered as the
    envelope ``x = p*u + p'*u_perp``.
    """

    a0: float
    cos_coeffs: np.ndarray
    sin_coeffs: np.ndarray
    anchor: np.ndarray = field(default_factory=lambda: np.zeros(2))

    @classmethod
    def from_coefficients(cls, a0, cos_coeffs=(), sin_coeffs=(), anchor=(0.0, 0.0)) -> "SupportFunction":
        cos_c = np.asarray(cos_coeffs, dtype=float)
        sin_c = np.asarray(sin_coeffs, dtype=float)
        n = max(len(cos_c), len(sin_c))
        return cls(float(a0), np.pad(cos_c, (0, n - len(cos_c))), np.pad(sin_c, (0, n - len(sin_c))),
                   np.asarray(anchor, dtype=float))

    def value(self, phi) -> np.ndarray:
        return fourier_eval(self.a0, self.cos_coeffs, self.sin_coeffs, phi)

    __call__ = value

    def derivative(self, phi, order: int = 1) -> np.ndarray:
        return fourier_eval(self.a0, self.cos_coeffs, self.sin_coeffs, phi, deriv=order)

    def radius_of_curvature(self, phi) -> np.ndarray:
        """p + p'', the radius of curvature of the envelope at normal angle phi."""
        return self.value(phi) + self.derivative(phi, order=2)

    def envelope(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        p = self.value(phi)
        dp = self.derivative(phi)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        uperp = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        return self.anchor + p[..., None] * u + dp[..., None] * uperp

    def shifted(self, t: float) -> "SupportFunction":
        """Inward wavefront at distance ``t``: subtract ``t`` from the mean radius."""
        return SupportFunction(self.a0 - t, self.cos_coeffs.copy(), self.sin_coeffs.copy(),
                               self.anchor.copy())


def support_function(track: FrontTrack, origin: Sequence[float] | None = None,
                     n_grid: int = 4096, n_harmonics: int = 64) -> SupportFunction:
    """Support function of a closed convex track, anchored at ``origin``.

    The anchor defaults to the area centroid, which suppresses the first
    harmonic and keeps the truncated series well conditioned. Pass an explicit
    origin to reproduce the classical translation rule
    ``p(phi) -> p(phi) + c_x cos(phi) + c_y sin(phi)``.
    """
    if track.geometry is not Geometry.EUCLIDEAN:
        raise ValidationError("support functions are euclidean-only")
    if not track.convex:
        raise ValidationError("support functions need a closed, strictly convex, counterclockwise track")
    if track.traversals != 1:
        raise ValidationError("support functions are defined for a single traversal")
    anchor = np.asarray(origin, dtype=float) if origin is not None else area_centroid(track)

    t_dense = np.linspace(0.0, track.period, 8 * n_grid + 1)
    phi_dense = track.tangent_angle(t_dense)
    phi0 = phi_dense[0]
    normals = np.linspace(0.0, TWO_PI, n_grid, endpoint=False)
    # lift each target tangent angle into the monotone branch [phi0, phi0 + 2*pi)
    targets = phi0 + np.mod(normals + 0.5 * math.pi - phi0, TWO_PI)
    t = np.interp(targets, phi_dense, t_dense)
    for _ in range(3):
        t -= (track.tangent_angle(t) - targets) / track.curvature(t)
        t = np.clip(t, 0.0, track.period)
    xy = track.position(t) - anchor
    p = xy[:, 0] * np.cos(normals) + xy[:, 1] * np.sin(normals)
    a0, cos_c, sin_c = fit_fourier(p, n_harmonics)
    return SupportFunction(a0, cos_c, sin_c, anchor)


def support_length_area(p: SupportFunction) -> tuple[float, float]:
    """Perimeter and signed area of the envelope, by spectral quadrature.

    ``L = \\int p`` and ``A = (1/2) \\int (p^2 - p'^2)`` collapse to Parseval
    sums over the Fourier coefficients, so truncation is the only error.
    """
    n = np.arange(1, len(p.cos_coeffs) + 1, dtype=float)
    power = p.cos_coeffs**2 + p.sin_coeffs**2
    length = TWO_PI * p.a0
    area = math.pi * p.a0**2 + 0.5 * math.pi * float(np.sum((1.0 - n**2) * power))
    return length, area


def wavefront(p: SupportFunction, t: float) -> SupportFunction:
    """Front of the envelope propagated inward by ``t``."""
    return p.shifted(t)


def isoperimetric_defect(p: SupportFunction) -> float:
    """L^2 - 4*pi*A of the envelope; zero exactly for circles."""
    length, area = support_length_area(p)
    return length**2 - 4.0 * math.pi * area
