"""Moebius circle maps and the steering monodromy.

The steering equation is a Riccati equation in ``x = tan(alpha/2)``, so the
time-T map of the flow acts on steering angles as a fractional-linear map.
The map is recovered numerically from three probe trajectories, validated on
a held-out probe, and classified by its normalized trace.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Sequence

import numpy as np

from ._num import det2x2, wrap_angle
from .errors import ResidualError, ValidationError
from .geom import TWO_PI, FrontTrack
from .dynamics import (
    BikeParams,
    _endpoint_sweep,
    integrate_steering,
    monodromy_matrix,
    signed_rear_length,
    steering_endpoints,
)

DEFAULT_PROBES = (0.0, 2.0 * math.pi / 3.0, 4.0 * math.pi / 3.0)
DEFAULT_VALIDATOR = 0.5 * math.pi
RESIDUAL_CAP = 1e-6  # default held-out residual cap of a monodromy fit
IDENTITY_TOL = 1e-6  # default distance below which a fitted map counts as the identity


class MapClass(str, Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    HYPERBOLIC = "hyperbolic"


def _homogeneous(angles) -> np.ndarray:
    """Lift circle angles to the projective line: alpha -> [sin(a/2) : cos(a/2)]."""
    half = 0.5 * np.asarray(angles, dtype=float)
    return np.stack([np.sin(half), np.cos(half)], axis=0)


@dataclass(frozen=True, eq=False)
class MoebiusMap:
    """Element of PSL(2, R) acting on the circle of steering angles.

    The stored matrix has determinant one and canonical sign (nonnegative
    trace, ties broken deterministically), so equal maps have equal matrices.
    """

    matrix: np.ndarray

    @classmethod
    def from_matrix(cls, matrix) -> "MoebiusMap":
        m = np.array(matrix, dtype=float)
        if m.shape != (2, 2):
            raise ValidationError(f"Moebius matrix must be 2x2, got shape {m.shape}")
        det = det2x2(m[0, 0], m[0, 1], m[1, 0], m[1, 1])
        if not det > 0.0:
            raise ValidationError(
                f"Moebius matrix needs positive determinant (orientation-preserving), got {det:.3e}"
            )
        m /= math.sqrt(det)
        tr = m[0, 0] + m[1, 1]
        if tr < 0.0 or (tr == 0.0 and (m[0, 1] < 0.0 or (m[0, 1] == 0.0 and m[0, 0] < 0.0))):
            m = -m
        m.flags.writeable = False
        return cls(m)

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls.from_matrix(np.eye(2))

    # -- algebra ------------------------------------------------------------

    @property
    def trace(self) -> float:
        return float(self.matrix[0, 0] + self.matrix[1, 1])

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """The map applying ``other`` first, then ``self``."""
        return MoebiusMap.from_matrix(self.matrix @ other.matrix)

    __matmul__ = compose

    def inverse(self) -> "MoebiusMap":
        a, b, c, d = self.matrix.ravel()
        return MoebiusMap.from_matrix([[d, -b], [-c, a]])

    def distance(self, other: "MoebiusMap") -> float:
        """Projective Frobenius distance, insensitive to the overall sign."""
        return float(min(np.linalg.norm(self.matrix - other.matrix),
                         np.linalg.norm(self.matrix + other.matrix)))

    def distance_to_identity(self) -> float:
        return self.distance(MoebiusMap.identity())

    # -- action -------------------------------------------------------------

    def act_angle(self, angles):
        """Image angles in [0, 2*pi)."""
        z = self.matrix @ _homogeneous(angles)
        out = np.mod(2.0 * np.arctan2(z[0], z[1]), TWO_PI)
        return float(out) if np.ndim(angles) == 0 else out

    def act_x(self, x):
        """Action on the stereographic coordinate ``x = tan(alpha/2)``."""
        a, b, c, d = self.matrix.ravel()
        x = np.asarray(x, dtype=float)
        num, den = a * x + b, c * x + d
        with np.errstate(divide="ignore"):
            return np.where(den == 0.0, np.inf, num / den)

    def derivative(self, angles):
        """Circle-map derivative d(alpha_out)/d(alpha_in); equals 1/|M z|^2."""
        z = self.matrix @ _homogeneous(angles)
        out = 1.0 / (z[0] ** 2 + z[1] ** 2)
        return float(out) if np.ndim(angles) == 0 else out

    # -- classification -----------------------------------------------------

    def classify(self, eps_parabolic: float = 1e-7) -> MapClass:
        tr = abs(self.trace)
        if tr > 2.0 + eps_parabolic:
            return MapClass.HYPERBOLIC
        if tr < 2.0 - eps_parabolic:
            return MapClass.ELLIPTIC
        return MapClass.PARABOLIC

    def fixed_points(self, eps_parabolic: float = 1e-7) -> tuple["FixedPoint", ...]:
        """Fixed angles with circle-map multipliers, attracting first.

        Elliptic maps have none; a map within ``eps_parabolic`` of the
        identity also returns none (every point is fixed).
        """
        if self.distance_to_identity() < eps_parabolic:
            return ()
        cls = self.classify(eps_parabolic)
        if cls is MapClass.ELLIPTIC:
            return ()
        if cls is MapClass.PARABOLIC:
            # kernel direction of M -+ I via the smallest singular vector
            sign = 1.0 if self.trace >= 0.0 else -1.0
            _, _, vt = np.linalg.svd(self.matrix - sign * np.eye(2))
            v = vt[-1]
            angle = math.atan2(v[0], v[1]) * 2.0 % TWO_PI
            return (FixedPoint(angle, 1.0),)
        tr = self.trace
        root = math.sqrt(tr * tr - 4.0)
        # det 1 makes the eigenvalues reciprocal; the subtractive formula for
        # the small one cancels to zero once |tr| > ~1e8, so divide instead.
        sign = 1.0 if tr >= 0.0 else -1.0
        lam_big = sign * 0.5 * (abs(tr) + root)
        out = []
        for lam in (lam_big, 1.0 / lam_big):  # attracting first: |lam| > 1
            a, b, c, d = self.matrix.ravel()
            v1 = np.array([b, lam - a])
            v2 = np.array([lam - d, c])
            v = v1 if np.linalg.norm(v1) >= np.linalg.norm(v2) else v2
            angle = math.atan2(v[0], v[1]) * 2.0 % TWO_PI
            out.append(FixedPoint(angle, 1.0 / (lam * lam)))
        return tuple(out)


@dataclass(frozen=True)
class FixedPoint:
    angle: float
    multiplier: float

    @property
    def attracting(self) -> bool:
        return self.multiplier < 1.0


def from_three_pairs(pairs: Sequence[tuple[float, float]]) -> MoebiusMap:
    """Moebius map sending three input angles to three output angles.

    Raises if any two of the inputs (or outputs) are projectively coincident,
    or if the correspondence reverses orientation.
    """
    pairs = list(pairs)
    if len(pairs) != 3:
        raise ValidationError("exactly three angle pairs are required")

    def frame(angles):
        z = _homogeneous(angles)
        det = z[0, 0] * z[1, 1] - z[1, 0] * z[0, 1]
        if abs(det) < 1e-12:
            raise ValidationError("two of the three angles are projectively coincident")
        rhs = z[:, 2]
        lam = (rhs[0] * z[1, 1] - rhs[1] * z[0, 1]) / det
        mu = (z[0, 0] * rhs[1] - z[1, 0] * rhs[0]) / det
        if min(abs(lam), abs(mu)) < 1e-12:
            raise ValidationError("the third angle coincides with one of the first two")
        return z[:, :2] * np.array([lam, mu])[None, :]

    p_in = frame([p[0] for p in pairs])
    p_out = frame([p[1] for p in pairs])
    det_in = p_in[0, 0] * p_in[1, 1] - p_in[0, 1] * p_in[1, 0]
    inv_in = np.array([[p_in[1, 1], -p_in[0, 1]], [-p_in[1, 0], p_in[0, 0]]]) / det_in
    return MoebiusMap.from_matrix(p_out @ inv_in)


@dataclass(frozen=True, eq=False)
class MonodromyReport:
    """Fitted monodromy of a front track with classification data."""

    map: MoebiusMap
    trace: float
    map_class: MapClass
    is_identity: bool
    fixed_points: tuple[FixedPoint, ...]
    rear_lengths: tuple[float, ...]  # signed rear length along each fixed-angle trajectory
    residual: float
    eps_parabolic: float
    n_steps: int
    ell: float
    geometry: str

    def to_dict(self) -> dict:
        return {
            "matrix": [[float(v) for v in row] for row in self.map.matrix],
            "trace": self.trace,
            "class": self.map_class.value,
            "is_identity": self.is_identity,
            "fixed_angles": [fp.angle for fp in self.fixed_points],
            "multipliers": [fp.multiplier for fp in self.fixed_points],
            "rear_lengths": list(self.rear_lengths),
            "residual": self.residual,
            "eps_parabolic": self.eps_parabolic,
            "steps": self.n_steps,
            "ell": self.ell,
            "geometry": self.geometry,
        }

    def to_json(self, indent: int | None = None) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "MonodromyReport":
        fps = tuple(FixedPoint(a, m) for a, m in zip(data["fixed_angles"], data["multipliers"]))
        return cls(
            map=MoebiusMap.from_matrix(data["matrix"]),
            trace=float(data["trace"]),
            map_class=MapClass(data["class"]),
            is_identity=bool(data["is_identity"]),
            fixed_points=fps,
            rear_lengths=tuple(float(v) for v in data["rear_lengths"]),
            residual=float(data["residual"]),
            eps_parabolic=float(data["eps_parabolic"]),
            n_steps=int(data["steps"]),
            ell=float(data["ell"]),
            geometry=str(data["geometry"]),
        )

    @classmethod
    def from_json(cls, text: str) -> "MonodromyReport":
        return cls.from_dict(json.loads(text))


def _fit(ends, starts, track: FrontTrack, params: BikeParams,
         n_steps: int) -> tuple[MoebiusMap, float]:
    """Map through the three probe pairs ``(starts[i], ends[i])``, and its held-out residual.

    ``starts[3]`` is the validator angle and ``ends[3]`` its endpoint.
    """
    # A strongly contracting monodromy drops all probe endpoints onto the
    # attracting angle, starving the three-point fit of information no
    # matter how fine the grid; integrate the linear lift directly then.
    sep = min(abs(math.sin(0.5 * (ends[i] - ends[j])))
              for i in range(3) for j in range(i + 1, 3))
    if sep < 1e-3:
        fitted = MoebiusMap.from_matrix(monodromy_matrix(track, params, n_steps=n_steps))
    else:
        fitted = from_three_pairs(list(zip(starts[:3], ends[:3])))
    predicted = fitted.act_angle(starts[3])
    return fitted, abs(float(wrap_angle(predicted - ends[3])))


def _parabolic_band(residual: float) -> float:
    """Half-width of the parabolic trace band around 2 for a fit with this residual."""
    return max(1e-7, 10.0 * residual)


def _sweep_fits(track: FrontTrack, ells: Sequence[float], steps_per_traversal: int):
    """Monodromy fits of one track at many wheelbases from a single RK4 sweep.

    Returns ``fit(i) -> (map, eps_parabolic)`` for wheelbase ``ells[i]``,
    computed on first use: the scan reads only the trace and the class, so
    no fixed points or rear lengths are made. A row is fitted exactly as
    :func:`monodromy` fits its first grid; a row whose residual exceeds the
    cap is handed to :func:`monodromy`, which refines the grid.
    """
    params = [BikeParams(ell=ell, steps_per_traversal=steps_per_traversal) for ell in ells]
    starts = np.array(list(DEFAULT_PROBES) + [DEFAULT_VALIDATOR])
    n = steps_per_traversal * track.traversals
    ends = _endpoint_sweep(track, params, starts, n)

    @functools.cache
    def fit(i: int) -> tuple[MoebiusMap, float]:
        fitted, residual = _fit(ends[i], starts, track, params[i], n)
        if not residual <= RESIDUAL_CAP:
            rep = monodromy(track, params[i])
            fitted, residual = rep.map, rep.residual
        return fitted, _parabolic_band(residual)

    return fit


def monodromy(
    track: FrontTrack,
    params: BikeParams,
    probes: Sequence[float] = DEFAULT_PROBES,
    validator: float = DEFAULT_VALIDATOR,
    residual_cap: float = RESIDUAL_CAP,
    max_refinements: int = 6,
    identity_tol: float = IDENTITY_TOL,
) -> MonodromyReport:
    """Fit, validate, and classify the steering monodromy of ``track``.

    Three probe angles pin the Moebius map; a held-out validator angle
    measures the fit residual. If the residual exceeds ``residual_cap`` the
    step count is doubled, up to ``max_refinements`` times, after which a
    :class:`ResidualError` is raised. The parabolic trace band is widened to
    ``10 *`` the measured residual when the fit is the accuracy bottleneck.
    """
    probes = [float(p) for p in probes]
    if len(probes) != 3:
        raise ValidationError("monodromy fitting needs exactly three probe angles")
    starts = np.array(probes + [float(validator)])

    n = params.steps_per_traversal * track.traversals
    for _ in range(max_refinements + 1):
        ends = steering_endpoints(track, params, starts, n_steps=n)
        fitted, residual = _fit(ends, starts, track, params, n)
        if residual <= residual_cap:
            break
        n *= 2
    else:
        raise ResidualError(
            f"monodromy validation residual {residual:.3e} exceeds cap {residual_cap:.3e} "
            f"after {max_refinements} refinements (final steps {n // 2})"
        )

    eps_par = _parabolic_band(residual)
    is_identity = fitted.distance_to_identity() < identity_tol
    fps = () if is_identity else fitted.fixed_points(eps_par)

    # signed rear length \int cos(alpha) dt is meaningful in every geometry
    rear = []
    fine = replace(params, steps_per_traversal=max(params.steps_per_traversal, n // track.traversals))
    for fp in fps:
        sol = integrate_steering(track, fine, fp.angle)
        rear.append(signed_rear_length(sol))

    return MonodromyReport(
        map=fitted,
        trace=fitted.trace,
        map_class=fitted.classify(eps_par),
        is_identity=is_identity,
        fixed_points=fps,
        rear_lengths=tuple(rear),
        residual=residual,
        eps_parabolic=eps_par,
        n_steps=n,
        ell=params.ell,
        geometry=params.geometry.value,
    )
