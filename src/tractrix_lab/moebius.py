"""Moebius circle maps and the steering monodromy.

The steering equation is a Riccati equation in ``x = tan(alpha/2)``, the
projectivization of a linear SL(2) system, so the time-T map of the flow acts
on steering angles as a fractional-linear map. The monodromy is the product
of the lift's factors from the engine in :mod:`.dynamics`, each of
determinant one: RK4 steps on a smooth track, and exact factors of its
pieces and corners on a piecewise one. Its error bar is the estimate that
comes with it, step doubling on a smooth track and rounding on a piecewise
one: the grid is refined until that estimate is under a cap, and the
parabolic trace band is widened with it; the same estimate is reported as
the map's ``residual``. The map is classified by its normalized trace. The
rear length along a fixed angle's closed trajectory is read from the map
itself, ``-ln(multiplier)/c``. :func:`from_three_pairs` fits a map to three
angle pairs, for maps known only by their action.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from ._num import det2x2
from .errors import ResidualError, ValidationError
from .geom import TWO_PI, FrontTrack
from .dynamics import BikeParams, _monodromy_sweep

ERROR_CAP = 1e-6  # default cap on the step-doubling (relative) error of a monodromy
MAX_REFINEMENTS = 6  # step doublings a monodromy may take to get under its error cap
IDENTITY_TOL = 1e-6  # distance below which a fitted map counts as the identity


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
        return cls._canonical(m / math.sqrt(det))

    @classmethod
    def _canonical(cls, m: np.ndarray) -> "MoebiusMap":
        """Map of a 2x2 array already scaled to determinant one; only the sign is canonicalized."""
        m = np.array(m, dtype=float)
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
        """Projective Frobenius distance, insensitive to the overall sign.

        Both matrices are first scaled by the power of two of their largest
        entry, exactly, so the squares inside the norm cannot overflow.
        """
        _, e = math.frexp(float(max(np.max(np.abs(self.matrix)), np.max(np.abs(other.matrix)))))
        a, b = np.ldexp(self.matrix, -e), np.ldexp(other.matrix, -e)
        with np.errstate(over="ignore"):  # a distance past double range reads inf
            return float(np.ldexp(min(np.linalg.norm(a - b), np.linalg.norm(a + b)), e))

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
        tr = self.trace
        sign = 1.0 if tr >= 0.0 else -1.0
        if cls is MapClass.PARABOLIC:
            lams = (sign,)  # the double eigenvalue; its multiplier is exactly 1
        else:
            if not math.isfinite(tr * tr):
                raise ResidualError(f"trace {tr:.3e}: the fixed-point multipliers exceed double range")
            # det 1 makes the eigenvalues reciprocal; the subtractive formula for
            # the small one cancels to zero once |tr| > ~1e8, so divide instead.
            lam_big = sign * 0.5 * (abs(tr) + math.sqrt(tr * tr - 4.0))
            lams = (lam_big, 1.0 / lam_big)  # attracting first: |lam| > 1
        a, b, c, d = self.matrix.ravel()
        out = []
        for lam in lams:
            # the kernel of M - lam I, orthogonal to its longer row
            v = max((b, lam - a), (lam - d, c), key=np.linalg.norm)
            out.append(FixedPoint(math.atan2(*v) * 2.0 % TWO_PI, 1.0 / (lam * lam)))
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
    residual: float  # step-doubling error of the kept grid, relative to its largest entry
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
        matrix = np.array(data["matrix"], dtype=float)
        if matrix.shape != (2, 2) or not np.all(np.isfinite(matrix)):
            raise ValidationError(f"report matrix must be a finite 2x2 array, got {data['matrix']!r}")
        return cls(
            # stored already scaled to determinant one; for a strongly
            # hyperbolic map ad - bc of the stored entries is rounding noise
            map=MoebiusMap._canonical(matrix),
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


def _rear_length(trace: float, fixed: FixedPoint, c: float) -> float:
    """Signed rear length ``\\int cos(alpha) dt`` of the closed trajectory from a fixed angle.

    On the lift, ``d|z|^2/dt = c |z|^2 cos(alpha)``, and the fixed angle's
    lift ``z*`` returns as ``M z* = mu z*`` with circle-map multiplier
    ``1/mu^2``. So the rear length is ``-ln(multiplier) / c``, that is
    ``+-(2/c) acosh(trace/2)``: plus at the attracting angle, minus at the
    repelling one, and 0 at a parabolic one, in every geometry.
    """
    if fixed.multiplier == 1.0:
        return 0.0
    return (2.0 if fixed.attracting else -2.0) * math.acosh(0.5 * trace) / c


def _fit(matrix: np.ndarray, error: float) -> tuple[MoebiusMap, float]:
    """The map of a lift product of determinant one, and the half-width of its parabolic band.

    ``error`` is the step-doubling error relative to the largest entry of
    the map; the trace's error is at most twice the entries' error, and the
    band around 2 is ten entry errors, at least 1e-7.
    """
    fitted = MoebiusMap._canonical(matrix)
    return fitted, max(1e-7, 10.0 * error * float(np.max(np.abs(fitted.matrix))))


def _refine(track: FrontTrack, params: BikeParams, n: int, matrix: np.ndarray,
            error: float) -> tuple[int, np.ndarray, float]:
    """The grid to keep, from ``n`` steps already swept to ``matrix`` with ``error``.

    While the step-doubling error estimate (relative to the map's largest
    entry) exceeds ``ERROR_CAP``, the step count is doubled, at most
    ``MAX_REFINEMENTS`` times. A smooth grid that does not resolve the
    wheelbase, or in a chart the turning (see
    :func:`.dynamics._monodromy_sweep`), is never kept, and
    :class:`ResidualError` is raised when no grid within those doublings
    resolves it. Refinement also stops when two doublings in a row of a
    resolved grid do not reduce the smallest estimate yet (the grid does not
    resolve the track, as with a curvature spike shorter than a step; one
    such doubling alone may only be short of RK4's asymptotic range); the
    grid with the smallest estimate is kept. On a piecewise track the map
    is exact, its estimate is rounding that no doubling reduces, and the
    requested grid is kept. A product that overflows double precision (its
    error reads nan) ends the refinement: it is kept unless a resolved grid
    came before it. Returns ``(steps, matrix, error)`` of the kept grid.
    """
    kept, misses = (n, matrix, error), 0
    for _ in range(MAX_REFINEMENTS):
        if kept[2] <= ERROR_CAP or math.isnan(kept[2]) or misses == 2:
            break
        n *= 2
        mats, errors = _monodromy_sweep(track, [params], n)
        if kept[2] < math.inf and not errors[0] < kept[2]:
            misses = 2 if math.isnan(errors[0]) else misses + 1  # an overflow ends the refinement
        else:
            kept, misses = (n, mats[0], float(errors[0])), 0
    if kept[2] == math.inf:
        raise ResidualError(f"no grid of up to {kept[0]} steps resolves the wheelbase: the "
                            "steering coefficient is too large for the track's length, or "
                            "its curvature for its chart")
    return kept


def _swept(track: FrontTrack, params: Sequence[BikeParams]) -> list[tuple[int, np.ndarray, float]]:
    """The kept grid ``(steps, matrix, error)`` of each row: one batched sweep, then :func:`_refine` per row.

    The rows share one ``steps_per_traversal``; each comes out as it would alone.
    """
    n = params[0].steps_per_traversal * track.traversals
    mats, errors = _monodromy_sweep(track, params, n)
    return [_refine(track, p, n, m, float(e)) for p, m, e in zip(params, mats, errors)]


def _fits(track: FrontTrack, ells: Sequence[float],
          steps_per_traversal: int) -> list[tuple[MoebiusMap, float] | None]:
    """``(map, eps_parabolic)`` of one track at many wheelbases, from one batched sweep (:func:`_swept`).

    Only the map and its parabolic band are made: no fixed points or rear
    lengths. A row whose product overflows double precision (its trace is
    past double range) is ``None``, and the other rows are made as they
    would be alone.
    """
    params = [BikeParams(ell=ell, steps_per_traversal=steps_per_traversal) for ell in ells]
    return [None if math.isnan(e) else _fit(m, e) for _, m, e in _swept(track, params)]


def monodromy(track: FrontTrack, params: BikeParams) -> MonodromyReport:
    """Propagate and classify the steering monodromy of ``track``.

    The map is the lift's step product over the track. Its grid is doubled
    while the step-doubling error estimate exceeds ``ERROR_CAP``, and one
    that does not resolve the wheelbase is never kept (see :func:`_refine`);
    the kept grid's estimate is the reported ``residual``. The parabolic
    trace band is ten times that estimate in the entries, and at least
    1e-7. Rear lengths at the fixed angles come from the trace (see
    :func:`_rear_length`).
    """
    (n, matrix, error), = _swept(track, [params])
    if math.isnan(error):
        raise ResidualError(
            "lift product overflowed: the monodromy is too strongly hyperbolic for double precision")
    fitted, eps_par = _fit(matrix, error)
    is_identity = fitted.distance_to_identity() < IDENTITY_TOL
    fps = () if is_identity else fitted.fixed_points(eps_par)

    rear = tuple(_rear_length(fitted.trace, fp, params.coefficient) for fp in fps)

    return MonodromyReport(
        map=fitted,
        trace=fitted.trace,
        map_class=fitted.classify(eps_par),
        is_identity=is_identity,
        fixed_points=fps,
        rear_lengths=rear,
        residual=error,
        eps_parabolic=eps_par,
        n_steps=n,
        ell=params.ell,
        geometry=params.geometry.value,
    )
