"""Planar track models: curve constructions, curvature data, areas, support functions.

Every track is parameterized by arc length, so the tangent angle and the
curvature returned here can be fed straight into the steering dynamics.
A track may also carry a :class:`Chart`, a second parameter of one pass in
which the dynamics can step its monodromy without inverting arc length (the
tangent angle of a support-function track, the eccentric anomaly of an
ellipse), and from which its curvature range and area are read.
Closed tracks extend periodically in the parameter: positions repeat, while
the tangent angle keeps winding by one turning number per pass. That makes
re-based and multi-pass evaluations continuous without any unwrap bookkeeping
at call sites.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Sequence

import numpy as np

from ._num import PAIRABLE, ArcLengthParam, fit_fourier, fourier_eval, fourier_grid, panel_nodes, wrap_angle
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


_PROBE = 8192  # normal angles on which a support function's convexity is checked
_K_GRID = 4096  # points of one pass on which a smooth track's curvature range is read
ZERO_AREA = 1e-12  # area, relative to the squared perimeter, below which a region has no centroid
_KINDS = ("circle", "ellipse", "fourier-support", "polyline", "samples", "line", "geodesic-circle")
_SCALAR_FIELDS = ("r", "a", "b", "angle", "a0", "fillet_radius", "rho")
_GEODESIC_FIELDS = {"kind", "rho", "geometry", "traversals", "orientation"}


def _floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _point(value) -> tuple[float, float]:
    x, y = value
    return float(x), float(y)


def _numeric(key: str, value, convert, shape: str = ""):
    """``convert(value)``, reporting a non-numeric or non-finite spec field as invalid input."""
    try:
        out = convert(value)
        finite = np.all(np.isfinite(np.asarray(out, dtype=float)))
    except OverflowError:  # an integer beyond double range
        finite = False
    except (TypeError, ValueError):
        raise InvalidCurveError(f"spec field {key!r} must be numeric{shape}, got {value!r}") from None
    if not finite:
        raise InvalidCurveError(f"spec field {key!r} must be finite, got {value!r}")
    return out


@dataclass(frozen=True)
class CurveSpec:
    """Declarative description of a front track, mirrored one-to-one in JSON.

    Only the fields relevant to ``kind`` are consulted; see FORMATS.md for the
    wire format. ``orientation`` is +1 for counterclockwise traversal of the
    canonical construction, -1 for the reverse. A ``geodesic-circle`` of
    radius ``rho`` is built in ``geometry`` (spherical when it is None);
    a planar kind that names a ``geometry`` is built in the plane and then
    read in that geometry (:meth:`FrontTrack.reinterpreted`).
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
    rho: float | None = None
    geometry: Geometry | None = None

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
        if data["kind"] == "geodesic-circle" and set(data) - _GEODESIC_FIELDS:
            raise InvalidCurveError(
                f"fields a geodesic-circle does not take: {sorted(set(data) - _GEODESIC_FIELDS)}")
        clean = dict(data)
        if clean.get("geometry") is not None:
            try:
                clean["geometry"] = Geometry(clean["geometry"])
            except (TypeError, ValueError):
                raise InvalidCurveError(f"unknown geometry {clean['geometry']!r}") from None
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


def _flip(x):
    """``x`` read backwards along the grid; a constant stays as it is."""
    return x if np.ndim(x) == 0 else x[::-1]


@dataclass(frozen=True)
class Chart:
    """A parameter ``u`` of one pass, with ``ds = sigma(u) du``, for stepping the lift.

    In ``u`` the lift's generator is ``sigma A = 1/2 [[-c sigma, k sigma],
    [-k sigma, c sigma]]``, so the monodromy needs only ``sigma`` and
    ``k sigma = dtheta/du``. ``half_grid(m)`` returns both at the ``m + 1``
    points ``u = span * j / m``, each as an array or, where it is constant,
    a float. ``frame(u)``, at any real ``u`` (an array), returns the
    positions ``(n, 2)``, the tangent angles (continuous in ``u`` over every
    pass), ``sigma`` and ``k sigma``, from one evaluation of the curve.
    ``points`` holds the positions ``(2, 2)`` and ``headings`` the tangent
    angles at ``u = 0`` and ``u = span``: all a track reads of its curve to
    check its closure. ``u_of_t(t)`` is the ``u`` at arc length ``t`` of
    ``[0, length]`` from ``u = 0``, a scalar Newton solve on the spectral
    antiderivative of ``sigma`` (built on its first call), so no arc-length
    table is needed. ``length`` is the arc length and ``area`` the signed
    area of one pass, in closed form (``pi a b`` for an ellipse, the
    Parseval sum for a support function). The positions are trigonometric
    polynomials of degree ``degree`` in ``u`` (span ``2 pi``), so a boundary
    moment, of degree at most ``4 degree``, is exact in the periodic
    trapezoid rule on ``4 degree + 1`` nodes. ``symmetry`` is the order
    ``m`` with which ``(sigma, k sigma)`` repeat with period ``span / m``:
    2 for an ellipse (period pi in its eccentric anomaly), and for a
    support function the gcd of the harmonics ``n >= 2`` it holds (``n = 1``
    is a translation and drops out of ``sigma = p + p''``), 1 if it holds
    none. The lift's generator repeats with them, so a monodromy is the
    ``m``-th power of the product over ``span / m``. Shifting and flipping
    ``u`` keep the period, so every combinator keeps ``symmetry``.
    """

    span: float
    half_grid: Callable[[int], tuple]
    frame: Callable[[np.ndarray], tuple]
    u_of_t: Callable[[float], float]
    points: np.ndarray
    headings: np.ndarray
    length: float
    area: float
    degree: int
    symmetry: int

    def reversed(self) -> "Chart":
        """The chart of the reversed track: ``u -> span - u``, headings plus pi, ``-k sigma`` and ``-area``."""
        span, length = self.span, self.length

        def half(m):
            sigma, ksigma = self.half_grid(m)
            return _flip(sigma), -_flip(ksigma)

        def frame(u):
            xy, phi, sigma, ksigma = self.frame(span - u)
            return xy, phi + math.pi, sigma, -ksigma

        return Chart(span, half, frame, lambda t: span - self.u_of_t(length - t), self.points[::-1],
                     self.headings[::-1] + math.pi, length, -self.area, self.degree, self.symmetry)

    def moved(self, rotation: float, rot: np.ndarray, shift: np.ndarray) -> "Chart":
        """The chart of the track moved by the rigid motion ``x -> rot x + shift``."""
        def frame(u):
            xy, phi, sigma, ksigma = self.frame(u)
            return xy @ rot.T + shift, phi + rotation, sigma, ksigma

        return Chart(self.span, self.half_grid, frame, self.u_of_t, self.points @ rot.T + shift,
                     self.headings + rotation, self.length, self.area, self.degree, self.symmetry)

    def rebased(self, start: float) -> "Chart":
        """The chart of the track re-based to arc length ``start`` of this pass: ``u -> u0 + u``.

        ``u0 = u_of_t(start)``. The new ``u_of_t`` runs over one whole pass
        from there: past the end of this chart's pass it reads the next pass,
        one ``span`` on, so the end of the new pass (``t = length``) maps to
        ``u = span``, not back to 0.
        """
        span, length = self.span, self.length
        u0 = self.u_of_t(start)

        def u_of_t(t):
            end = start + t
            if end <= length:
                return self.u_of_t(end) - u0
            return self.u_of_t(end - length) - u0 + span

        def frame(u):
            return self.frame(u0 + u)

        ends, headings, _, _ = frame(np.array([0.0, span]))
        return Chart(span, lambda m: frame(np.linspace(0.0, span, m + 1))[2:], frame, u_of_t,
                     ends, headings, length, self.area, self.degree, self.symmetry)


def _series_inverse(a0: float, cos_c: np.ndarray, sin_c: np.ndarray) -> Callable[[float], float]:
    """``u(t)`` on ``[0, 2 pi]`` where ``t = s(u)``, for ``sigma = ds/du`` the given positive series.

    ``s(u) = a0 u + sum_n (a_n sin(n u) - b_n (cos(n u) - 1)) / n`` is the
    exact antiderivative. Newton steps with slope ``sigma`` start from
    ``t / a0`` and are kept inside the bracket that ``s`` being increasing
    gives, bisecting where a step would leave it.
    """
    n = np.arange(1, len(cos_c) + 1, dtype=float)
    top = TWO_PI * a0

    def u_of_t(t):
        lo, hi = 0.0, TWO_PI
        u = min(max(t, 0.0), top) / a0
        for _ in range(100):
            c, s = np.cos(n * u), np.sin(n * u)
            residual = a0 * u + float(cos_c @ (s / n) - sin_c @ ((c - 1.0) / n)) - t
            if residual < 0.0:
                lo = u
            else:
                hi = u
            new = u - residual / (a0 + float(cos_c @ c + sin_c @ s))
            if not lo <= new <= hi:
                new = 0.5 * (lo + hi)
            if abs(new - u) <= 1e-15 * TWO_PI or hi - lo <= 1e-15 * TWO_PI:
                return new
            u = new
        return u

    return u_of_t


class FrontTrack:
    """Unit-speed plane curve with position, tangent-angle, and curvature accessors.

    Parameters
    ----------
    period : float
        Arc length of a single pass.
    frame_fn, curvature_fn : callable
        Vectorized maps from canonical arc length in ``[0, period]``, shape
        ``(n,)``: ``frame_fn`` to the pair of positions ``(n, 2)`` and
        unwrapped tangent angles, from one evaluation of the curve (one
        arc-length inversion where it needs one); ``curvature_fn`` to signed
        curvatures.
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
        jumps or the track turns) are read from the pieces. A line, a
        polyline and every track with corners derived from one (reversed,
        re-based, its corner legs) also draw their positions, tangent
        angles and curvature from the pieces (:func:`_piece_frame`), each
        read where it starts, so at every corner the angle is the one after
        the turn; a circle keeps its closed form, and a geodesic circle in a
        curved geometry is drawn as a flat circle whose curvature is not its
        pieces'. ``None`` for smooth tracks.
    chart : Chart, optional
        A second parameter of one pass (see :class:`Chart`), in which the
        dynamics step the monodromy. A track with a chart reads its start
        and closure from the chart's ends, and its curvature range and area
        from the chart, so building it and checking it convex evaluate none
        of the arc-length accessors.

    The combinators (:meth:`reversed`, :meth:`reinterpreted`,
    :meth:`transformed`, :meth:`rebased`) derive tracks of the same period
    that carry these options over unless they change them (see
    :meth:`_derived`). A track keeps no record of how it was built.
    """

    def __init__(
        self,
        period: float,
        frame_fn: Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]],
        curvature_fn: Callable[[np.ndarray], np.ndarray],
        *,
        closed: bool,
        traversals: int = 1,
        geometry: Geometry = Geometry.EUCLIDEAN,
        pieces: np.ndarray | None = None,
        chart: Chart | None = None,
    ):
        if not 1 <= traversals <= PAIRABLE:  # compared exactly, however large the integer
            raise InvalidCurveError(
                f"traversals must lie in [1, {PAIRABLE:.3e}], got {traversals!r}")
        if not (period > 0.0 and math.isfinite(period * traversals)):
            raise InvalidCurveError(f"track must have positive finite length, got {period!r}")
        # lengths and coordinates past sqrt(max double) overflow once squared
        if not period * traversals <= PAIRABLE:
            raise InvalidCurveError(
                f"track length {period * traversals:.3e} exceeds {PAIRABLE:.3e}")
        ends, headings = frame_fn(np.array([0.0, period])) if chart is None else (chart.points, chart.headings)
        if not math.hypot(*ends[0]) <= PAIRABLE:
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
        self.chart = chart
        self._frame_c = frame_fn
        self._k_c = curvature_fn
        self._grid: dict = {}  # one-pass step grids of the dynamics, (steps, in chart) -> see dynamics._grid
        if self.closed:
            span = float(headings[1] - headings[0])
            gap = math.hypot(*(ends[1] - ends[0]))
            if gap > 1e-8 * max(1.0, period):
                raise InvalidCurveError(f"closed track does not return to its start (gap {gap:.3e})")
            self.turning_single = int(round(span / TWO_PI))
            if abs(span - TWO_PI * self.turning_single) > 1e-6:
                raise InvalidCurveError("closed track tangent does not return modulo 2*pi")
        else:
            if self.traversals != 1:
                raise InvalidCurveError("open tracks cannot be traversed more than once")
            self.turning_single = 0

    # -- evaluation ---------------------------------------------------------

    def _split(self, t) -> tuple[np.ndarray, np.ndarray]:
        """``t`` as an exact remainder in one pass and the count of whole passes before it.

        A closed track's remainder lies in ``[0, period)``; one rounded up to
        ``period`` is 0 of the next pass. An open track is clamped, with no passes.
        """
        if not self.closed:
            return np.clip(t, 0.0, self.total_length), np.zeros_like(t)
        laps, rest = np.divmod(t, self.period)
        wrap = rest == self.period
        return np.where(wrap, 0.0, rest), laps + wrap

    def frame(self, t) -> tuple[np.ndarray, np.ndarray | float]:
        """Positions and tangent angles (see :meth:`tangent_angle`) at ``t``, from one evaluation."""
        t = np.asarray(t, dtype=float)
        tc, laps = self._split(np.atleast_1d(t).ravel())
        xy, phi = self._frame_c(tc)
        phi = np.asarray(phi, dtype=float) + TWO_PI * self.turning_single * laps
        return (np.asarray(xy, dtype=float).reshape(t.shape + (2,)),
                phi.reshape(t.shape) if t.shape else float(phi[0]))

    def position(self, t) -> np.ndarray:
        return self.frame(t)[0]

    def tangent_angle(self, t) -> np.ndarray:
        """Unwrapped direction of motion; continuous across passes and re-basings."""
        return self.frame(t)[1]

    def curvature(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        tc, _ = self._split(np.atleast_1d(t).ravel())
        out = np.asarray(self._k_c(tc), dtype=float)
        return out.reshape(t.shape) if t.shape else float(out[0])

    # -- derived quantities -------------------------------------------------

    @property
    def turning_number(self) -> int:
        return self.turning_single * self.traversals

    def curvature_range(self) -> tuple[float, float]:
        """Min and max signed curvature over one pass.

        Exact from the pieces of positive length on a track made of pieces;
        else ``k = (k sigma) / sigma`` on the chart's ``_K_GRID + 1`` points,
        or ``_K_GRID`` points uniform in arc length on a track with no chart.
        """
        if self.pieces is not None:
            k = self.pieces[self.pieces[:, 0] > 0.0, 1]
        elif self.chart is not None:
            sigma, ksigma = self.chart.half_grid(_K_GRID)
            k = ksigma / sigma
        else:
            k = self.curvature(np.linspace(0.0, self.period, _K_GRID, endpoint=False))
        return float(np.min(k)), float(np.max(k))

    @property
    def convex(self) -> bool:
        """Closed with strictly positive curvature throughout (counterclockwise)."""
        return self.closed and self.curvature_range()[0] > 0.0

    def sample(self, n: int) -> tuple[np.ndarray, np.ndarray]:
        """Uniform parameter grid over the full path with positions, endpoint included."""
        t = np.linspace(0.0, self.total_length, n + 1)
        return t, self.position(t)

    # -- combinators --------------------------------------------------------

    def _derived(self, frame_fn, curvature_fn, **changes) -> "FrontTrack":
        """A track of the same period on new accessors, for the combinators below.

        It inherits ``closed``, ``traversals``, ``geometry``, ``pieces`` and
        ``chart`` from this track, except those that ``changes`` names.
        """
        kept = dict(closed=self.closed, traversals=self.traversals, geometry=self.geometry,
                    pieces=self.pieces, chart=self.chart)
        return FrontTrack(self.period, frame_fn, curvature_fn, **(kept | changes))

    def reversed(self) -> "FrontTrack":
        """Same point set traced the other way; curvature and corner turns change sign.

        Pieces run in the opposite order, and each corner moves to the end
        of the piece that now precedes it. The reflected tangent angle would
        take each corner's turn one point early (at ``t = 0`` it would
        already include the turn at the start vertex), so a track with
        corners is drawn from the reversed pieces (:func:`_piece_frame`):
        each starts where its forward piece ends, heading back along that
        piece's end before its corner, both read from one evaluation of
        this track at the piece ends, so at a corner the angle is the one
        after the turn, as on the forward track. A chart is reversed with
        the track.
        """
        period = self.period

        def frame(t):
            xy, phi = self._frame_c(period - t)
            return xy, phi + math.pi

        def cur(t):
            return -self._k_c(period - t)

        pieces = None
        if self.pieces is not None:
            length, k, turn = self.pieces.T
            pieces = np.stack((length, -k, -np.roll(turn, 1)), axis=1)[::-1]
            if np.any(turn):
                # the reversed pieces start where these end (the first at the period), heading back
                ends, phi = self._frame_c(np.append(np.cumsum(length[:-1]), period))
                frame, cur = _piece_frame(pieces, ends[::-1], (phi - turn + math.pi)[::-1], period)

        return self._derived(frame, cur, pieces=pieces, chart=self.chart and self.chart.reversed())

    def reinterpreted(self, geometry: Geometry) -> "FrontTrack":
        """Same chart and curvature function, read in a different geometry.

        The steering equation consumes only arc length and curvature, so a
        curvature profile built in one geometry can be fed to the dynamics
        of another (e.g. a euclidean convex track played through the
        hyperbolic unit-bicycle equation). Positions keep their chart role.
        """
        return self._derived(self._frame_c, self._k_c, geometry=geometry)

    def transformed(self, rotation: float = 0.0, translation: Sequence[float] = (0.0, 0.0)) -> "FrontTrack":
        """Apply a rigid motion of the plane (euclidean tracks only)."""
        if self.geometry is not Geometry.EUCLIDEAN:
            raise ValidationError("rigid motions are only defined for euclidean tracks")
        c, s = math.cos(rotation), math.sin(rotation)
        rot = np.array([[c, -s], [s, c]])
        shift = np.asarray(translation, dtype=float)

        def frame(t):
            xy, phi = self._frame_c(t)
            return xy @ rot.T + shift, phi + rotation

        return self._derived(frame, self._k_c, chart=self.chart and self.chart.moved(rotation, rot, shift))

    def rebased(self, t0: float) -> "FrontTrack":
        """Closed track re-parameterized to start at parameter ``t0``.

        The start is ``t0``'s remainder in one pass (:meth:`_split`), and the
        re-based track depends on it alone, not on the passes before it. The
        piece holding the start is split in two: its part after the start comes
        first, with the piece's corner, and its part before it comes last,
        with none. A corner at the start itself ends the new pass. A track
        with corners is drawn from the new pieces (:func:`_piece_frame`),
        each read on this track where it starts (one pass on past the end
        of this pass), so every corner reads the angle after its turn, even
        one ulp from the start, and it keeps none of this track's
        accessors; any other track is read on this one from the start. A
        chart is kept, shifted to the start (see :meth:`Chart.rebased`), so
        the re-based track is still stepped and read in its chart.
        """
        if not self.closed:
            raise ValidationError("only closed tracks can be re-based")
        if not math.isfinite(t0):
            raise ValidationError(f"re-basing parameter must be finite, got {t0!r}")
        start = float(self._split(t0)[0])

        pieces, frame, cur = None, (lambda t: self.frame(start + t)), (lambda t: self.curvature(start + t))
        if self.pieces is not None:
            length, k, turn = self.pieces.T
            starts = np.concatenate(([0.0], np.cumsum(length[:-1])))
            i = int(np.searchsorted(starts, start, side="right")) - 1
            into = start - starts[i]
            pieces = np.concatenate(([[length[i] - into, k[i], turn[i]]], self.pieces[i + 1:],
                                     self.pieces[:i], [[into, k[i], 0.0]] if into > 0.0 else np.empty((0, 3))))
            if np.any(turn):  # read each piece where it starts, the last i and the tail one pass on
                origins, phi = self._frame_c(np.concatenate(([start], starts[i + 1:], starts[:i + (into > 0)])))
                phi[len(length) - i:] += TWO_PI * self.turning_single
                frame, cur = _piece_frame(pieces, origins, phi, self.period)

        return self._derived(frame, cur, pieces=pieces, chart=self.chart and self.chart.rebased(start))

    def split_at_corners(self) -> list["FrontTrack"]:
        """One pass cut at its corners into open tracks, in order; ``[self]`` if it has none.

        Each stretch is drawn from its pieces (:func:`_piece_frame`), with
        the positions and tangent angles of one evaluation of this track at
        its piece starts, so it keeps none of this track's accessors. Its
        tangent runs up to the corner that ends it, not past it, so an
        integrator that samples the stretches one by one never steps across
        a turn.
        """
        if self.pieces is None or not np.any(self.pieces[:, 2]):
            return [self]
        length, k, turn = self.pieces.T
        starts = np.concatenate(([0.0], np.cumsum(length)))
        origins, headings = self._frame_c(starts[:-1])
        cuts = [0, *(np.flatnonzero(turn[:-1]) + 1), len(length)]
        out = []
        for i, j in zip(cuts[:-1], cuts[1:]):
            span = starts[j] - starts[i]
            pieces = np.stack((length[i:j], k[i:j], np.zeros(j - i)), axis=1)
            out.append(FrontTrack(span, *_piece_frame(pieces, origins[i:j], headings[i:j], span),
                                  closed=False, geometry=self.geometry, pieces=pieces))
        return out


def _piece_frame(pieces, origins, headings, period: float) -> tuple[Callable, Callable]:
    """Frame and curvature functions of one pass, of length ``period``, of planar ``pieces``.

    Piece ``i`` starts at ``origins[i]`` with tangent angle ``headings[i]``.
    A point ``s`` into a piece of curvature ``k`` lies on the chord of its
    arc, ``p + s sinc(k s / 2) (cos, sin)(theta + k s / 2)``, which on a
    straight piece is the segment itself, with no trigonometric call per
    point; it heads along ``theta + k s`` and its curvature is ``k``. A
    corner's turn counts from its piece's end on, so the angle at a corner
    is the one after it, and the angle at ``period`` includes the last
    corner (the closure check reads it there).
    """
    length, k, turn = np.asarray(pieces, dtype=float).T
    origins = np.asarray(origins, dtype=float)
    headings = np.asarray(headings, dtype=float)
    inner = np.cumsum(length[:-1])  # the starts of all pieces but the first
    starts = np.concatenate(([0.0], inner))
    unit = np.stack((np.cos(headings), np.sin(headings)), axis=-1)

    def frame(t):
        i = np.searchsorted(inner, t, side="right")
        s, ki = t - starts[i], k[i]
        xy = np.take(origins, i, axis=0) + s[:, None] * np.take(unit, i, axis=0)
        half = 0.5 * ki * s
        bent = np.flatnonzero(half)
        if len(bent):
            ib, h = i[bent], half[bent]
            chord = s[bent] * np.sin(h) / h
            xy[bent] = origins[ib] + chord[:, None] * np.stack(
                (np.cos(headings[ib] + h), np.sin(headings[ib] + h)), axis=-1)
        return xy, headings[i] + ki * s + np.where(t >= period, turn[-1], 0.0)

    return frame, lambda t: k[np.searchsorted(inner, t, side="right")]


# -- constructions ----------------------------------------------------------


def geodesic_circle(rho: float, geometry: Geometry, traversals: int = 1) -> FrontTrack:
    """Circle of intrinsic radius ``rho`` as a front track in ``geometry``.

    The geodesic curvature (1/rho in the plane, cot rho on the sphere, coth
    rho in the hyperbolic plane) is what the dynamics consumes; the stored
    positions are a flat chart circle of matching circumference, which in
    the plane is the circle itself and in a curved geometry is for drawing
    only.
    """
    if geometry is Geometry.SPHERICAL:
        if not 0.0 < rho < math.pi:
            raise InvalidCurveError(f"spherical radius must lie in (0, pi), got {rho}")
        k, chart_r = 1.0 / math.tan(rho), math.sin(rho)
    elif geometry is Geometry.HYPERBOLIC:
        if not rho > 0.0:
            raise InvalidCurveError(f"hyperbolic radius must be positive, got {rho}")
        if rho > math.asinh(PAIRABLE / TWO_PI):
            raise InvalidCurveError(
                f"hyperbolic radius {rho:g} gives a circumference beyond {PAIRABLE:.3e}")
        k, chart_r = 1.0 / math.tanh(rho), math.sinh(rho)
    else:
        if not rho > 0.0:
            raise InvalidCurveError(f"radius must be positive, got {rho}")
        k, chart_r = 1.0 / rho, rho
    period = TWO_PI * chart_r

    def frame(t):
        ang = t / chart_r
        return chart_r * np.stack([np.cos(ang), np.sin(ang)], axis=-1), ang + 0.5 * math.pi

    return FrontTrack(period, frame, lambda t: np.full_like(t, k), closed=True,
                      traversals=traversals, geometry=geometry, pieces=[(period, k, 0.0)])


def _build_circle(spec: CurveSpec) -> FrontTrack:
    if spec.r is None:
        raise InvalidCurveError("circle needs a radius 'r'")
    return geodesic_circle(spec.r, Geometry.EUCLIDEAN, spec.traversals)


def _build_geodesic_circle(spec: CurveSpec) -> FrontTrack:
    if spec.rho is None:
        raise InvalidCurveError("geodesic-circle needs a radius 'rho'")
    return geodesic_circle(spec.rho, spec.geometry or Geometry.SPHERICAL, spec.traversals)


def _ellipse_perimeter(a: float, b: float) -> float:
    """Perimeter of the ellipse with semi-axes ``a`` and ``b``, by the arithmetic-geometric mean.

    With ``x0 = max(a, b)``, ``g0 = min(a, b)``, ``c_n = (x_{n-1} - g_{n-1}) / 2``
    and ``S = (x0^2 - g0^2) / 2 + sum_n 2^(n-1) c_n^2``, the perimeter is
    ``2 pi (x0^2 - S) / AGM(a, b)``. The sums are taken on the axes scaled
    by ``x0``, so no square overflows. Convergence is quadratic once the
    means are close, so a fixed number of rounds suffices (a stop test on
    ``x - g`` can cycle in rounding); later rounds add zero.
    """
    scale = max(a, b)
    x, g = 1.0, min(a, b) / scale
    total, weight = 0.5 * (1.0 - g * g), 1.0
    for _ in range(40):
        c = 0.5 * (x - g)
        x, g = 0.5 * (x + g), math.sqrt(x * g)
        total += weight * c * c
        weight *= 2.0
    return TWO_PI * (1.0 - total) / x * scale


def _build_ellipse(spec: CurveSpec) -> FrontTrack:
    """Ellipse ``(a cos psi, b sin psi)``, charted by its eccentric anomaly ``psi``.

    In ``psi`` the ellipse has ``sigma = hypot(a sin psi, b cos psi)`` and
    ``k sigma = a b / sigma^2``, and its perimeter and area are closed forms,
    so the chart needs no arc-length table. The table behind the arc-length
    accessors is built on their first call.
    """
    if spec.a is None or spec.b is None or not (spec.a > 0.0 and spec.b > 0.0):
        raise InvalidCurveError("ellipse needs positive semi-axes a and b")
    a, b = float(spec.a), float(spec.b)
    if not max(a, b) / min(a, b) / min(a, b) <= PAIRABLE:
        raise InvalidCurveError(f"ellipse curvature max(a, b) / min(a, b)^2 exceeds {PAIRABLE:.3e}")

    def speed(psi):
        return np.hypot(a * np.sin(psi), b * np.cos(psi))

    arc = functools.cache(lambda: ArcLengthParam(speed, 0.0, TWO_PI))

    def chart_frame(psi):
        cos, sin = np.cos(psi), np.sin(psi)
        sigma = np.hypot(a * sin, b * cos)
        base = psi + 0.5 * math.pi
        # deviation from the circular reference stays below pi/2, so a single
        # wrap recovers the unwrapped angle
        return (np.stack([a * cos, b * sin], axis=-1),
                base + wrap_angle(np.arctan2(b * cos, -a * sin) - base),
                sigma, (a / sigma) * (b / sigma))  # a b / sigma^2, with no square to underflow

    def frame(t):
        return chart_frame(arc().u_of_t(t))[:2]

    def cur(t):
        sigma = speed(arc().u_of_t(t))
        return (a / sigma) * (b / sigma) / sigma  # a b / sigma^3, with no cube to overflow

    def half(m):
        sigma = speed(np.linspace(0.0, TWO_PI, m + 1))
        return sigma, (a / sigma) * (b / sigma)

    @functools.cache
    def inverse():
        # sigma's series on m points, doubled until its top eighth is below rounding
        m = 64
        while m <= 2**20:
            a0, cos_c, sin_c = fit_fourier(speed(np.arange(m) * (TWO_PI / m)), m // 2 - 1)
            if np.max(np.hypot(cos_c, sin_c)[-(m // 16):]) < 1e-16 * a0:
                return _series_inverse(a0, cos_c, sin_c)
            m *= 2
        return arc().u_of_t

    perimeter = _ellipse_perimeter(a, b)
    chart = Chart(TWO_PI, half, chart_frame, lambda t: inverse()(t), np.array([[a, 0.0], [a, 0.0]]),
                  np.array([0.0, TWO_PI]) + 0.5 * math.pi, perimeter, math.pi * a * b, 1, 2)
    return FrontTrack(perimeter, frame, cur, closed=True, traversals=spec.traversals, chart=chart)


def _build_fourier_support(spec: CurveSpec) -> FrontTrack:
    """Envelope of a support function, charted by its normal angle ``theta``.

    In ``theta`` the envelope has ``sigma = rho = p + p''`` and ``k sigma = 1``,
    and ``rho`` on a uniform grid is one inverse FFT, so the chart needs no
    arc-length table. The perimeter is ``2 pi a0``. The table behind the
    arc-length accessors is built on their first call.
    """
    if spec.a0 is None:
        raise InvalidCurveError("fourier-support needs the mean radius a0")
    support = SupportFunction.from_coefficients(spec.a0, spec.cos, spec.sin)
    if not (abs(support.a0) <= PAIRABLE and np.all(np.abs(support.cos_coeffs) <= PAIRABLE)
            and np.all(np.abs(support.sin_coeffs) <= PAIRABLE)):
        raise InvalidCurveError(f"fourier-support coefficients exceed {PAIRABLE:.3e}")
    rad_curv = support.radius_of_curvature

    probe = support.radius_on_grid(_PROBE)
    if np.min(probe) <= 1e-9 * max(abs(support.a0), 1.0):
        raise InvalidCurveError(
            f"support function is not strictly convex (min radius of curvature {np.min(probe):.3e})"
        )
    arc = functools.cache(lambda: ArcLengthParam(rad_curv, 0.0, TWO_PI))

    def frame(t):
        theta = arc().u_of_t(t)
        return support.envelope(theta), theta + 0.5 * math.pi

    def cur(t):
        return 1.0 / rad_curv(arc().u_of_t(t))

    def half(m):
        rho = probe[::_PROBE // m] if _PROBE % m == 0 else support.radius_on_grid(m)
        return np.append(rho, rho[0]), 1.0

    def chart_frame(theta):
        return support.envelope(theta), theta + 0.5 * math.pi, rad_curv(theta), 1.0

    inverse = functools.cache(lambda: _series_inverse(*support.radius_series()))
    length, area = support_length_area(support)
    ends = np.array([0.0, TWO_PI])
    # rho = p + p'' repeats with the gcd of its harmonics n >= 2 (0 when it has none)
    held = np.flatnonzero((support.cos_coeffs[1:] != 0.0) | (support.sin_coeffs[1:] != 0.0)) + 2
    chart = Chart(TWO_PI, half, chart_frame, lambda t: inverse()(t), support.envelope(ends),
                  ends + 0.5 * math.pi, length, area, len(support.cos_coeffs) + 1,
                  int(np.gcd.reduce(held)) or 1)
    return FrontTrack(length, frame, cur, closed=True, traversals=spec.traversals, chart=chart)


def _check_coordinates(points: np.ndarray, what: str) -> None:
    """Refuse points whose edges and their running lengths could overflow."""
    if not np.all(np.abs(points) <= PAIRABLE):
        raise InvalidCurveError(f"{what} coordinates exceed {PAIRABLE:.3e}")


def _build_polyline(spec: CurveSpec) -> FrontTrack:
    verts = np.asarray(spec.vertices, dtype=float)
    if verts.ndim == 2 and len(verts) > 1 and math.hypot(*(verts[-1] - verts[0])) <= 1e-9:
        verts = verts[:-1]  # a last vertex on the first closes the polygon, as on samples
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

    # pieces: straight along edge i, then the fillet arc at vertex i+1 or its corner,
    # both leaving along edge i
    rows, origins = [], []
    for i in range(m):
        j = (i + 1) % m
        g = gamma[j]
        rows.append((lengths[i] - setback[i] - setback[j], 0.0, 0.0 if rf else g))
        origins.append(verts[i] + setback[i] * dirs[i])
        if rf:
            rows.append((rf * abs(g), (1.0 if g >= 0.0 else -1.0) / rf, 0.0))
            origins.append(verts[j] - setback[j] * dirs[i])
    pieces = np.array(rows)
    headings = np.repeat(np.unwrap(np.arctan2(dirs[:, 1], dirs[:, 0])), 2 if rf else 1)
    total = float(np.cumsum(pieces[:, 0])[-1])
    return FrontTrack(total, *_piece_frame(pieces, origins, headings, total), closed=True,
                      traversals=spec.traversals, pieces=pieces)


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

    def frame(t):
        # the table only picks the branch; the angle itself comes from the spline
        u = alp.u_of_t(t)
        near = np.interp(u, u_dense, phi_dense)
        v = d1(u)
        return spline(u), near + wrap_angle(np.arctan2(v[..., 1], v[..., 0]) - near)

    def cur(t):
        u = alp.u_of_t(t)
        v, w = d1(u), d2(u)
        sp = np.hypot(v[..., 0], v[..., 1])
        with np.errstate(divide="ignore", invalid="ignore"):  # a cusp of the spline: refused downstream
            return (v[..., 0] * w[..., 1] - v[..., 1] * w[..., 0]) / sp**3

    return FrontTrack(alp.total, frame, cur, closed=closed, traversals=spec.traversals)


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
    pieces = [(length, 0.0, 0.0)]
    frame, cur = _piece_frame(pieces, [p0], [math.atan2(direction[1], direction[0])], length)
    return FrontTrack(length, frame, cur, closed=False, pieces=pieces)


_BUILDERS = {
    "circle": _build_circle,
    "ellipse": _build_ellipse,
    "fourier-support": _build_fourier_support,
    "polyline": _build_polyline,
    "samples": _build_samples,
    "line": _build_line,
    "geodesic-circle": _build_geodesic_circle,
}


def make_curve(spec: CurveSpec | dict | str) -> FrontTrack:
    """Build a :class:`FrontTrack` from a spec, a dict, or a JSON string.

    Each kind is built about the origin. A circle, ellipse or fourier-support
    curve is then placed by :meth:`FrontTrack.transformed`, a planar kind
    that names a curved ``geometry`` is then read in it
    (:meth:`FrontTrack.reinterpreted`), and an orientation of -1 then
    reverses it. The track does not keep the spec.
    """
    if isinstance(spec, str):
        spec = CurveSpec.from_json(spec)
    elif isinstance(spec, dict):
        spec = CurveSpec.from_dict(spec)
    track = _BUILDERS[spec.kind](spec)
    if spec.kind in ("circle", "ellipse", "fourier-support"):  # the kinds with center and angle
        track = track.transformed(spec.angle, spec.center)
    if spec.geometry not in (None, track.geometry):
        track = track.reinterpreted(spec.geometry)
    return track.reversed() if spec.orientation == -1 else track


# -- integral quantities ----------------------------------------------------


def _boundary_nodes(track: FrontTrack) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gauss weights, positions ``(N, 2)`` and tangent angles on panels of one pass.

    The weights count each node once per pass. No panel straddles a
    breakpoint, and the pass is evaluated once, for positions and angles
    together.
    """
    t, weights = panel_nodes(0.0, track.period, track.breakpoints)
    xy, phi = track.frame(t.ravel())
    return weights.ravel() * track.traversals, xy, phi


def _area_density(x, y, c, s):
    return 0.5 * (x * s - y * c)


# 6 (theta - sin theta) / theta^3 = sum_j 6 (-1)^j theta^(2j) / (2j + 3)!, highest power
# first; below |theta| = 1 the first omitted term is under 2e-19 of the sum
_SEGMENT_SERIES = [6.0 * (-1) ** j / math.factorial(2 * j + 3) for j in range(8, -1, -1)]


def _path_area(track: FrontTrack) -> float:
    """``(1/2) \\int (x dy - y dx)`` along the full path of a closed or open track.

    A euclidean track made of pieces takes it in closed form. The chords
    between the piece starts ``p_0 .. p_{m-1}`` (and ``p_m``, the end of an
    open track; ``p_m = p_0`` on a closed one) give
    ``(1/2) sum (p_i - p_0) x (p_{i+1} - p_0) + (1/2) p_0 x p_m``, and each
    piece of length ``L``, whose tangent turns by ``theta = k L``, adds the
    circular segment between its arc and its chord, ``L^2 (theta - sin theta) / (2 theta^2)``,
    which is ``(theta - sin theta) / (2 k^2)`` and 0 on a straight piece.
    Below ``|theta| = 1``, where that difference cancels, the segment is
    summed as a series. The starts come from one evaluation of the track,
    the terms are summed exactly rounded (``math.fsum``) and multiplied by
    the passes. Any other track takes the integral by Green quadrature: a
    geodesic circle in a curved geometry carries geodesic curvature but
    flat chart positions, which the planar sum would not describe.
    """
    if track.pieces is None or track.geometry is not Geometry.EUCLIDEAN:
        weights, xy, phi = _boundary_nodes(track)
        return float(np.sum(weights * _area_density(xy[..., 0], xy[..., 1], np.cos(phi), np.sin(phi))))
    length, k, _ = track.pieces.T
    starts = np.concatenate(([0.0], np.cumsum(length[:-1])))
    p = track.frame(starts if track.closed else np.append(starts, track.period))[0]
    d = p - p[0]
    later = np.roll(d, -1, axis=0) if track.closed else d[1:]
    earlier = d[:len(later)]
    chords = 0.5 * (earlier[:, 0] * later[:, 1] - earlier[:, 1] * later[:, 0])
    theta = k * length
    segments = length**2 * theta / 12.0 * np.polyval(_SEGMENT_SERIES, theta**2)
    big = np.abs(theta) >= 1.0
    segments[big] = length[big]**2 * (theta[big] - np.sin(theta[big])) / (2.0 * theta[big]**2)
    ends = 0.0 if track.closed else 0.5 * (p[0, 0] * p[-1, 1] - p[0, 1] * p[-1, 0])
    return math.fsum([*chords, *segments, ends]) * track.traversals


def enclosed_area(track: FrontTrack) -> float:
    """Signed area ``(1/2) \\oint (x dy - y dx)`` of the full path.

    A track with a chart reads its closed-form area, times its passes;
    any other track takes :func:`_path_area`, in closed form on a euclidean
    track made of pieces and by Green's-theorem quadrature otherwise.
    """
    if not track.closed:
        raise ValidationError("enclosed area needs a closed track")
    if track.chart is not None:
        return track.chart.area * track.traversals
    return _path_area(track)


def _region_moments(track: FrontTrack) -> tuple[float, np.ndarray, float]:
    """Area, centroid and mean squared distance from the centroid of the enclosed region.

    Area, both first moments and the polar moment come from one evaluation
    of the boundary. On a track with a chart that is the periodic trapezoid
    rule in ``u`` on ``4 degree + 1`` nodes of one pass (see :class:`Chart`),
    weighted by ``sigma`` and the number of passes, which is exact for these
    integrands; any other track takes them by Green quadrature in arc length
    on one pass (:func:`_boundary_nodes`). The moments are taken about the
    first node, a point of the track, and the centroid is shifted back by it,
    so the polar moment minus the squared centroid cancels only the region's
    own size, not its distance from the origin. They are summed on lengths
    and weights scaled to order one by powers of two, exactly, and scaled
    back, so no cube of a coordinate leaves double range, and a region
    scaled by a power of two has its moments scaled exactly. A region is
    refused as having no area when ``|area| < ZERO_AREA perimeter^2``
    (the perimeter counts every pass), a bound that does not depend on
    its scale.
    """
    if not track.closed:
        raise ValidationError("centroid needs a closed track")
    chart = track.chart
    if chart is None:
        weights, xy, phi = _boundary_nodes(track)
    else:
        m = 4 * chart.degree + 1
        xy, phi, sigma, _ = chart.frame(np.arange(m) * (chart.span / m))
        weights = (chart.span / m * track.traversals) * sigma
    origin = xy[0]
    xy = xy - origin
    e, f = (math.frexp(float(np.max(np.abs(v))))[1] for v in (xy, weights))
    (x, y), weights = np.ldexp(xy, -e).T, np.ldexp(weights, -f)
    c, s = np.cos(phi), np.sin(phi)
    area, mx, my, polar = (float(np.sum(weights * density))
                           for density in (_area_density(x, y, c, s), 0.5 * x * x * s, -0.5 * y * y * c,
                                           (x**3 * s - y**3 * c) / 3.0))
    perimeter = float(np.sum(weights))
    if abs(area) < math.ldexp(ZERO_AREA * perimeter * perimeter, f - e):  # |area| < ZERO_AREA perimeter^2
        raise ValidationError("centroid is undefined for a zero-area track")
    centroid = np.array([mx / area, my / area])
    return (math.ldexp(area, e + f), origin + np.ldexp(centroid, e),
            math.ldexp(polar / area - float(centroid @ centroid), 2 * e))


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
        # zeros appended by concatenate: np.pad costs ten times as much on short series
        return cls(float(a0), np.concatenate((cos_c, np.zeros(n - len(cos_c)))),
                   np.concatenate((sin_c, np.zeros(n - len(sin_c)))),
                   np.asarray(anchor, dtype=float))

    def value(self, phi) -> np.ndarray:
        return fourier_eval(self.a0, self.cos_coeffs, self.sin_coeffs, phi)

    __call__ = value

    def derivative(self, phi, order: int = 1) -> np.ndarray:
        return fourier_eval(self.a0, self.cos_coeffs, self.sin_coeffs, phi, deriv=order)

    def radius_series(self) -> tuple[float, np.ndarray, np.ndarray]:
        """p + p'' as one trigonometric series: the harmonics of ``p`` scaled by ``1 - m^2``."""
        damp = 1.0 - np.arange(1, len(self.cos_coeffs) + 1, dtype=float) ** 2
        return self.a0, damp * self.cos_coeffs, damp * self.sin_coeffs

    def radius_of_curvature(self, phi) -> np.ndarray:
        """p + p'', the radius of curvature of the envelope at normal angle phi."""
        return fourier_eval(*self.radius_series(), phi)

    def radius_on_grid(self, m: int) -> np.ndarray:
        """:meth:`radius_of_curvature` at the ``m`` angles ``2 pi j / m``, by one inverse real FFT."""
        return fourier_grid(*self.radius_series(), m)

    def envelope(self, phi) -> np.ndarray:
        phi = np.asarray(phi, dtype=float)
        p = self.value(phi)
        dp = self.derivative(phi)
        u = np.stack([np.cos(phi), np.sin(phi)], axis=-1)
        uperp = np.stack([-np.sin(phi), np.cos(phi)], axis=-1)
        return self.anchor + p[..., None] * u + dp[..., None] * uperp


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
    """Front of the envelope propagated inward by ``t``: ``t`` less on the mean radius."""
    return SupportFunction(p.a0 - t, p.cos_coeffs.copy(), p.sin_coeffs.copy(), p.anchor.copy())


def isoperimetric_defect(p: SupportFunction) -> float:
    """L^2 - 4*pi*A of the envelope; zero exactly for circles."""
    length, area = support_length_area(p)
    return length**2 - 4.0 * math.pi * area
