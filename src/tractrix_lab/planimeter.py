"""Hatchet-planimeter simulation and its error law.

The device is a rod whose tracer end follows the boundary of a region while
the chisel end drags behind under the rolling constraint. The rod direction
``theta`` obeys ``theta'(t) = sin(Phi(t) - theta) / ell`` along any traced
front path with tangent angle ``Phi``. The measurement closes the chisel path
by an analytic rotation arc about the resting tracer, which turns the area
identity ``estimate = A_F - A_R`` into an exact check, not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ._io import fmt17
from ._num import PAIRABLE
from .dynamics import _angles, _lifted, _rear_path, _require_resolved, _rk4, _scan
from .errors import ValidationError
from .geom import CurveSpec, FrontTrack, Geometry, _region_moments, make_curve

NORMAL = "normal"
CENTROID = "centroid"


@dataclass(frozen=True)
class RodLeg:
    """Rod history along one leg of a traced front path.

    ``t`` holds the leg's grid nodes in the parameter the leg was stepped
    in: its chart parameter ``u`` when it has a chart, else its arc length.
    ``theta`` is the rod direction there, ``front`` and ``phi`` the front
    points and tangent angles at the same nodes, and ``speed`` the arc
    length per unit of ``t`` (the chart's ``sigma``, or the float 1.0 on an
    arc-length leg), all kept from the rod flow's own evaluation of the leg.
    """

    track: FrontTrack
    t: np.ndarray
    theta: np.ndarray
    front: np.ndarray
    phi: np.ndarray
    speed: np.ndarray | float


def _leg_nodes(leg: FrontTrack, n: int, ell: float):
    """Step, nodes, positions, headings and ``sigma`` of ``n`` rod steps along ``leg``.

    A leg with a chart is stepped in its chart parameter ``u`` over all its
    passes, any other in arc length (``sigma`` is 1.0, and ``max |k|`` is
    over one pass, exact from its pieces); the grid is refused unless it
    resolves the flow with ``c = 1/ell`` (:func:`.dynamics._resolves`).
    """
    chart = leg.chart
    span = leg.total_length if chart is None else chart.span * leg.traversals
    h = span / n
    t = np.linspace(0.0, span, 2 * n + 1)
    if chart is None:
        front, phi = leg.frame(t)
        sigma, top, turn = 1.0, 1.0, max(map(abs, leg.curvature_range()))
    else:
        front, phi, sigma, ksigma = chart.frame(t)
        top, turn = np.max(sigma), np.max(np.abs(ksigma))
    _require_resolved(h, 1.0 / ell, top, turn)
    return h, t, front, phi, sigma


def rod_flow(legs: Sequence[FrontTrack], ell: float, theta0: float,
             steps_per_unit: float = 0.0, n_min: int = 64) -> list[RodLeg]:
    """Integrate the rod direction along consecutive front-path legs.

    Each leg is any :class:`FrontTrack`; corners between legs need no special
    treatment because only the front tangent angle enters the equation, not
    its derivative. ``steps_per_unit`` fixes the RK4 resolution (steps per
    unit of arc length); 0 picks 4096 steps per closed pass of the longest leg.

    The rod equation ``theta' = sin(Phi - theta) / ell`` is the steering
    engine's flow in another generator: on the lift
    ``z = (sin(theta/2), cos(theta/2))`` it is the linear system ``z' = B z``
    with ``B = 1/(2 ell) [[-cos Phi, sin Phi], [sin Phi, cos Phi]]``, here
    shifted by ``-I/(2 ell)``: that rescales ``z`` but not its direction, and
    the lift contracts, so it cannot overflow however short the rod. All
    legs' RK4 factors go through one prefix scan. Each leg takes ``n`` steps
    (its length times ``steps_per_unit``, at least ``n_min``) and is
    evaluated once, on its ``2n + 1`` half-step nodes, where its generator is
    formed once for RK4's start, midpoint and end nodes; the even ones are
    the nodes of its :class:`RodLeg`. A leg with a chart (an ellipse or a
    support function) is stepped uniformly in its chart parameter ``u``,
    with generator ``sigma(u) B(Phi(u))``, so no arc length is inverted;
    any other leg is stepped in arc length. A leg's grid that breaks the
    engine's one resolution rule, ``h max(max sigma / ell, max |k sigma|)
    <= 2``, is refused with :class:`ResidualError`.
    """
    if not ell > 0.0:
        raise ValidationError("rod length must be positive")
    if steps_per_unit <= 0.0:
        steps_per_unit = 4096.0 / max(leg.total_length for leg in legs)

    ns = [max(n_min, int(math.ceil(leg.total_length * steps_per_unit))) for leg in legs]
    factors, nodes = [], []
    for leg, n in zip(legs, ns):
        h, t, front, phi, sigma = _leg_nodes(leg, n, ell)
        cos, sin = np.cos(phi), np.sin(phi)
        gen = ((0.5 / ell) * sigma) * np.stack((-cos - 1.0, sin, sin, cos - 1.0))[:, None]
        factors.append(_rk4(gen[..., 0:-1:2], gen[..., 1::2], gen[..., 2::2], h))
        nodes.append((t[::2], front[::2], phi[::2], sigma if np.ndim(sigma) == 0 else sigma[::2]))
    start = np.array([float(theta0)])
    theta = _angles(_lifted(_scan(np.concatenate(factors, axis=-1)), start), start)[0, 0]
    return [RodLeg(leg, t, theta[end - n: end + 1], front, phi, speed)
            for leg, n, end, (t, front, phi, speed) in zip(legs, ns, np.cumsum(ns), nodes)]


def _chisel_zigzag_area(legs: Sequence[RodLeg], ell: float) -> float:
    """Signed Green area swept along the open chisel path, leg by leg, by Simpson in each leg's parameter."""
    # the chisel's speed is cos(alpha) ds/dt
    return sum(_rear_path(leg.front, leg.theta, np.cos(leg.phi - leg.theta) * leg.speed, ell,
                          leg.t[1] - leg.t[0])[2] for leg in legs)


def _closing_arc_area(pivot: np.ndarray, ell: float, theta_end: float, theta_start: float) -> float:
    """Green area of the chisel arc as the rod rotates about the resting tracer."""
    psi1 = theta_end + math.pi  # direction from tracer to chisel
    psi0 = theta_start + math.pi
    term = pivot[0] * (math.sin(psi0) - math.sin(psi1)) - pivot[1] * (math.cos(psi0) - math.cos(psi1))
    return 0.5 * (ell * term + ell**2 * (psi0 - psi1))


def _segment(p0: np.ndarray, p1: np.ndarray) -> FrontTrack:
    return make_curve(CurveSpec(kind="line", start=tuple(p0), end=tuple(p1)))


@dataclass(frozen=True)
class PlanimeterReading:
    """One simulated measurement of a region's area."""

    deflection: float  # net rod rotation alpha
    estimate: float  # alpha * ell^2
    exact_area: float
    correction_estimate: float  # A_F * (1 + R^2 / (2 ell^2))
    residual_error: float  # estimate - correction_estimate
    base_param: float
    base_point: tuple[float, float]
    ell: float
    placement: str
    mean_square_radius: float
    rear_area: float  # signed area of the closed-up chisel path
    closure_defect: float  # estimate - (A_F - A_R); zero up to quadrature

    def csv_row(self, centroid_start: bool) -> str:
        cells = [
            fmt17(self.ell), fmt17(self.base_param), self.placement,
            "1" if centroid_start else "0",
            fmt17(self.deflection), fmt17(self.estimate), fmt17(self.exact_area),
            fmt17(self.correction_estimate), fmt17(self.residual_error),
        ]
        return ",".join(cells)


CSV_HEADER = ("ell,base_param,placement,centroid_start,deflection,estimate,"
              "exact_area,correction_estimate,residual_error")


def _validate_track(track: FrontTrack) -> None:
    if track.geometry is not Geometry.EUCLIDEAN:
        raise ValidationError("the planimeter lives in the euclidean plane")
    if not track.closed:
        raise ValidationError("planimeter measurement needs a closed boundary")
    if abs(track.turning_number) != 1:
        raise ValidationError(
            f"boundary must be simple (turning number +-1, got {track.turning_number})"
        )


def measure(track: FrontTrack, ell: float, base: float = 0.0,
            placement: str | float = NORMAL, steps_per_traversal: int = 4096) -> PlanimeterReading:
    """Simulate one measurement: trace the boundary, read off the deflection.

    Parameters
    ----------
    base : float
        Arc-length parameter of the base point where the boundary tracing
        starts and stops.
    placement : "normal", "centroid", or float
        Initial rod attitude. ``"normal"`` sets the rod perpendicular to the
        boundary, chisel inside the region. ``"centroid"`` reproduces the
        classical accuracy procedure: the tracer starts and stops at the
        centroid, walking straight to the base point, around the boundary,
        and straight back, the rod starting aligned with the outbound leg.
        A float fixes the initial rod direction ``theta`` absolutely.
    steps_per_traversal : int
        Rod-flow steps per boundary pass, at least 2; :func:`rod_flow`
        refuses a grid that breaks the resolution rule. A boundary with a
        chart (an ellipse or a support function) is stepped in its chart
        parameter, any other in arc length, each stretch between corners on
        the step it takes.

    The loop is the track re-based at ``base`` (:meth:`.FrontTrack.rebased`),
    which keeps a chart, so on a charted boundary the base point and start
    heading are read from the shifted chart's start, the region moments from
    the chart (:func:`.geom._region_moments`), and no arc length is inverted.
    The chisel's closing arc turns about the last front point of the rod
    flow. A boundary with exact corners is traced as one leg per stretch
    between corners (:meth:`.FrontTrack.split_at_corners`), so no step spans
    a turn.
    """
    _validate_track(track)
    if not 0.0 < ell <= PAIRABLE:  # the reading is the deflection times ell^2
        raise ValidationError(
            f"rod length must be positive and at most {PAIRABLE:.3e}, got {ell!r}")
    if not steps_per_traversal >= 2:
        raise ValidationError(f"steps_per_traversal must be at least 2, got {steps_per_traversal!r}")
    loop = track.rebased(base)
    chart = loop.chart
    base_point, phi0 = loop.frame(0.0) if chart is None else (chart.points[0], float(chart.headings[0]))
    steps_per_unit = steps_per_traversal / track.period
    area, c, msr = _region_moments(track)
    legs = loop.split_at_corners()

    if placement == CENTROID:
        out_dir = base_point - c
        dist = float(np.hypot(*out_dir))
        if dist < 1e-9 * math.sqrt(abs(area)):
            raise ValidationError("base point coincides with the centroid")
        theta0 = math.atan2(out_dir[1], out_dir[0])
        legs = [_segment(c, base_point), *legs, _segment(base_point, c)]
        placement_label = CENTROID
    elif placement == NORMAL:
        sign = 1.0 if track.turning_number > 0 else -1.0
        theta0 = phi0 - sign * 0.5 * math.pi
        placement_label = NORMAL
    else:
        try:
            theta0 = float(placement)
        except (TypeError, ValueError):
            raise ValidationError(
                f"placement must be 'normal', 'centroid', or a rod angle, got {placement!r}"
            ) from None
        placement_label = fmt17(theta0)

    rod = rod_flow(legs, ell, theta0, steps_per_unit=steps_per_unit)
    theta_end = float(rod[-1].theta[-1])
    deflection = theta_end - theta0
    estimate = deflection * ell**2

    corrected = area * (1.0 + msr / (2.0 * ell**2))

    rear_area = _chisel_zigzag_area(rod, ell) + _closing_arc_area(rod[-1].front[-1], ell, theta_end, theta0)
    return PlanimeterReading(
        deflection=deflection,
        estimate=estimate,
        exact_area=area,
        correction_estimate=corrected,
        residual_error=estimate - corrected,
        base_param=float(base),
        base_point=(float(base_point[0]), float(base_point[1])),
        ell=float(ell),
        placement=placement_label,
        mean_square_radius=msr,
        rear_area=rear_area,
        closure_defect=estimate - (area - rear_area),
    )


@dataclass(frozen=True)
class ScanTable:
    """Grid of readings over wheelbases and base points, plus the centroid column."""

    lengths: tuple[float, ...]
    bases: tuple[float, ...]
    readings: tuple[tuple[PlanimeterReading, ...], ...]  # [i_length][j_base]
    centroid_readings: tuple[PlanimeterReading, ...]  # one per length

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for row, extra in zip(self.readings, self.centroid_readings):
            for reading in row:
                lines.append(reading.csv_row(centroid_start=False))
            lines.append(extra.csv_row(centroid_start=True))
        return "\n".join(lines) + "\n"


def error_scan(track: FrontTrack, lengths: Sequence[float], bases: Sequence[float],
               placement: str | float = NORMAL, steps_per_traversal: int = 4096) -> ScanTable:
    """Measure at every (wheelbase, base point) cell and append centroid starts.

    The centroid column uses the first base point of ``bases`` for its
    boundary leg; by construction its residual is one order better in
    ``1/ell`` than any fixed-attitude start.
    """
    if not lengths or not len(list(bases)):
        raise ValidationError("error_scan needs at least one wheelbase and one base point")
    grid = []
    extras = []
    for ell in lengths:
        row = tuple(
            measure(track, ell, base=b, placement=placement, steps_per_traversal=steps_per_traversal)
            for b in bases
        )
        grid.append(row)
        extras.append(measure(track, ell, base=list(bases)[0], placement=CENTROID,
                              steps_per_traversal=steps_per_traversal))
    return ScanTable(tuple(float(v) for v in lengths), tuple(float(b) for b in bases),
                     tuple(grid), tuple(extras))
