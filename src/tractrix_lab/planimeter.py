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
from scipy.integrate import simpson

from ._io import fmt17
from .errors import ValidationError
from .geom import (
    TWO_PI,
    CurveSpec,
    FrontTrack,
    Geometry,
    area_centroid,
    enclosed_area,
    make_curve,
    mean_square_radius,
)

NORMAL = "normal"
CENTROID = "centroid"


@dataclass(frozen=True)
class RodLeg:
    """Rod history along one leg of a traced front path."""

    track: FrontTrack
    t: np.ndarray
    theta: np.ndarray


def rod_flow(legs: Sequence[FrontTrack], ell: float, theta0: float,
             steps_per_unit: float = 0.0, n_min: int = 64) -> list[RodLeg]:
    """Integrate the rod direction along consecutive front-path legs.

    Each leg is any :class:`FrontTrack`; corners between legs need no special
    treatment because only the front tangent angle enters the equation, not
    its derivative. ``steps_per_unit`` fixes the RK4 resolution (steps per
    unit of arc length); 0 picks 4096 steps per closed pass of the longest leg.
    """
    if not ell > 0.0:
        raise ValidationError("rod length must be positive")
    if steps_per_unit <= 0.0:
        steps_per_unit = 4096.0 / max(leg.total_length for leg in legs)
    out = []
    theta = float(theta0)
    for leg in legs:
        n = max(n_min, int(math.ceil(leg.total_length * steps_per_unit)))
        h = leg.total_length / n
        phi = leg.tangent_angle(np.linspace(0.0, leg.total_length, 2 * n + 1))
        hist = np.empty(n + 1)
        hist[0] = theta
        for j in range(n):
            p0, pm, p1 = phi[2 * j], phi[2 * j + 1], phi[2 * j + 2]
            s1 = math.sin(p0 - theta) / ell
            s2 = math.sin(pm - (theta + 0.5 * h * s1)) / ell
            s3 = math.sin(pm - (theta + 0.5 * h * s2)) / ell
            s4 = math.sin(p1 - (theta + h * s3)) / ell
            theta += (h / 6.0) * (s1 + 2.0 * s2 + 2.0 * s3 + s4)
            hist[j + 1] = theta
        out.append(RodLeg(leg, np.linspace(0.0, leg.total_length, n + 1), hist))
    return out


def _chisel_zigzag_area(legs: Sequence[RodLeg], ell: float) -> float:
    """Signed Green area swept along the open chisel path, leg by leg."""
    total = 0.0
    for leg in legs:
        front = leg.track.position(leg.t)
        phi = leg.track.tangent_angle(leg.t)
        u = np.stack([np.cos(leg.theta), np.sin(leg.theta)], axis=-1)
        rear = front - ell * u
        speed = np.cos(phi - leg.theta)  # chisel speed = cos(alpha)
        dx = speed * u[:, 0]
        dy = speed * u[:, 1]
        h = leg.t[1] - leg.t[0]
        total += float(simpson(0.5 * (rear[:, 0] * dy - rear[:, 1] * dx), dx=h))
    return total


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
    """
    _validate_track(track)
    if not ell > 0.0:
        raise ValidationError("rod length must be positive")
    loop = track.rebased(base)
    base_point = loop.position(0.0)
    steps_per_unit = steps_per_traversal / track.period

    if placement == CENTROID:
        c = area_centroid(track)
        out_dir = base_point - c
        dist = float(np.hypot(*out_dir))
        if dist < 1e-9 * track.bbox_diameter():
            raise ValidationError("base point coincides with the centroid")
        theta0 = math.atan2(out_dir[1], out_dir[0])
        legs = [_segment(c, base_point), loop, _segment(base_point, c)]
        placement_label = CENTROID
    elif placement == NORMAL:
        sign = 1.0 if track.turning_number > 0 else -1.0
        theta0 = float(loop.tangent_angle(0.0)) - sign * 0.5 * math.pi
        legs = [loop]
        placement_label = NORMAL
    else:
        try:
            theta0 = float(placement)
        except (TypeError, ValueError):
            raise ValidationError(
                f"placement must be 'normal', 'centroid', or a rod angle, got {placement!r}"
            ) from None
        legs = [loop]
        placement_label = fmt17(theta0)

    rod = rod_flow(legs, ell, theta0, steps_per_unit=steps_per_unit)
    theta_end = float(rod[-1].theta[-1])
    deflection = theta_end - theta0
    estimate = deflection * ell**2

    area = enclosed_area(track)
    msr = mean_square_radius(track)
    corrected = area * (1.0 + msr / (2.0 * ell**2))

    pivot = rod[-1].track.position(rod[-1].track.total_length)
    rear_area = _chisel_zigzag_area(rod, ell) + _closing_arc_area(pivot, ell, theta_end, theta0)
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
