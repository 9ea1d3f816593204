"""Bicycle dynamics on the sphere and the hyperbolic plane.

The steering equation keeps its form in every constant-curvature plane; only
the coefficient in front of ``sin(alpha)`` changes (1/ell, cot ell, coth ell).
This module supplies Gauss-Bonnet areas, the development of a curvature
profile into the hyperboloid model of the hyperbolic plane, the stargazing
angle along a developed curve, and the area-threshold hyperbolicity check in
both curved geometries. Curved front tracks come from :mod:`.geom`, like
planar ones: ``make_curve`` builds a ``geodesic-circle`` spec, and
:func:`geodesic_circle` (defined there, re-exported here) builds one
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import fmt17
from ._num import PAIRABLE, panel_quad
from .dynamics import BikeParams, _prefix, _resolved_factors, _scan, _terms
from .errors import ResidualError, ValidationError
from .geom import TWO_PI, FrontTrack, Geometry, geodesic_circle  # re-exported
from .moebius import MapClass, MonodromyReport, monodromy

# the hyperbolic unit bicycle: coth(ell) -> 1 as ell -> infinity, and the
# steering equation degenerates to alpha' = k - sin(alpha)
UNIT_WHEELBASE = math.inf
# relative |ad - bc - 1| of a developed lift past which its frame has lost
# its digits; the frame defect is about twice this
UNIMODULAR_TOL = 1e-8


def geodesic_area(track: FrontTrack) -> float:
    """Enclosed area by Gauss-Bonnet: ``2*pi - \\oint k`` on the sphere,
    ``\\oint k - 2*pi`` in the hyperbolic plane.

    Convention: the region on the left of the positively-oriented curve;
    simple curves only (single turning). Corners count with their turns.
    On a track made of pieces ``\\oint k`` is the exact sum of each piece's
    ``length * k`` and turn; a smooth track takes it by panel quadrature.
    """
    if track.geometry is Geometry.EUCLIDEAN:
        raise ValidationError("Gauss-Bonnet area is for curved geometries; "
                              "use enclosed_area in the plane")
    if not track.closed or track.turning_single != 1:
        raise ValidationError("Gauss-Bonnet area needs a simple positively-oriented curve")
    if track.pieces is None:
        total_k = panel_quad(track.curvature, 0.0, track.period)
    else:
        length, k, turn = track.pieces.T
        total_k = float(np.sum(length * k + turn))
    if track.geometry is Geometry.SPHERICAL:
        return TWO_PI - total_k
    return total_k - TWO_PI


# -- hyperboloid-model development ------------------------------------------


def mink(u, v):
    """Minkowski pairing with signature (+, -, -) on index 0,1,2."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    return u[..., 0] * v[..., 0] - u[..., 1] * v[..., 1] - u[..., 2] * v[..., 2]


@dataclass(frozen=True)
class HCurve:
    """Arc-length curve on the upper hyperboloid sheet with its Frenet frame."""

    t: np.ndarray
    points: np.ndarray  # (n+1, 3), <P,P> = 1, x0 > 0
    tangents: np.ndarray  # <T,T> = -1
    normals: np.ndarray  # <N,N> = -1
    curvature: np.ndarray  # geodesic curvature samples at t

    def frame_defect(self) -> float:
        """Worst relative deviation of the Minkowski Gram matrix from diag(1,-1,-1).

        Each entry's deviation is divided by the euclidean norms of the two
        vectors paired, the scale of its rounding error, so the defect does
        not grow with the coordinates (like e^(2t)) along the development.
        """
        p, t, n = self.points, self.tangents, self.normals
        sp, st, sn = (np.hypot(np.hypot(v[..., 0], v[..., 1]), v[..., 2]) for v in (p, t, n))
        devs = [
            np.abs(mink(p, p) - 1.0) / sp / sp,
            np.abs(mink(t, t) + 1.0) / st / st,
            np.abs(mink(n, n) + 1.0) / sn / sn,
            np.abs(mink(p, t)) / sp / st,
            np.abs(mink(p, n)) / sp / sn,
            np.abs(mink(t, n)) / st / sn,
        ]
        return float(max(d.max() for d in devs))

    def closure_gap(self) -> tuple[float, float]:
        """(hyperbolic endpoint distance, frame mismatch) between the two ends."""
        # near closure acosh(<P0, P1>) turns one ulp into sqrt(2 eps); the chord
        # <dP, dP> = -4 sinh^2(d/2) does not, but it cancels for far points
        c = float(mink(self.points[0], self.points[-1]))
        gap = self.points[-1] - self.points[0]
        chord = math.sqrt(max(0.0, -float(mink(gap, gap))))
        dist = math.acosh(c) if c > 2.0 else 2.0 * math.asinh(0.5 * chord)
        frame = max(float(np.abs(self.tangents[-1] - self.tangents[0]).max()),
                    float(np.abs(self.normals[-1] - self.normals[0]).max()))
        return dist, frame

    def poincare(self) -> np.ndarray:
        """Projection to the Poincare disk, (x1, x2) / (1 + x0)."""
        return self.points[:, 1:] / (1.0 + self.points[:, :1])

    def to_csv(self) -> str:
        lines = ["t,x0,x1,x2"]
        for ti, p in zip(self.t, self.points):
            lines.append(",".join(fmt17(v) for v in (ti, p[0], p[1], p[2])))
        return "\n".join(lines) + "\n"


def _frame(q: np.ndarray) -> np.ndarray:
    """Frenet frames, shape ``(N, 3, 3)`` with rows ``P, T, N``, of unimodular lifts ``q`` (4, N).

    ``Q = [[a, b], [c, d]]`` in SL(2) acts on the hyperboloid as the SO(2,1)
    matrix whose rows are the frame developed from the standard basis.
    """
    a, b, c, d = q
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        aa, bb, cc, dd = a * a, b * b, c * c, d * d
        frame = np.stack(((aa + bb + cc + dd) / 2, (bb + dd - aa - cc) / 2, -(a * b + c * d),
                          (cc + dd - aa - bb) / 2, (aa + dd - bb - cc) / 2, a * b - c * d,
                          -(a * c + b * d), a * c - b * d, a * d + b * c), axis=-1)
    if not np.all(np.abs(frame) < PAIRABLE):
        raise ResidualError("development leaves double range: hyperboloid coordinates "
                            "grow like e^t and their Minkowski pairings like e^(2t)")
    return frame.reshape(-1, 3, 3)


def _check_unimodular(q: np.ndarray) -> None:
    """Refuse lifts ``q`` (4, N) whose determinant has drifted from one.

    The prefix products travel as ``E = Q - I``, accurate to rounding
    relative to their largest entry. Along a geodesic the contracting entry
    of ``Q`` shrinks like ``e^(-t/2)`` while ``1 + E`` rounds it to an
    absolute ``eps``, so ``ad - bc`` leaves 1 and the frame built from it
    stops being Minkowski-orthonormal.
    """
    a, b, c, d = q
    ad, bc = a * d, b * c
    defect = np.abs(ad - bc - 1.0) / np.maximum(np.maximum(np.abs(ad), np.abs(bc)), 1.0)
    worst = float(np.max(defect))
    if not worst <= UNIMODULAR_TOL:
        raise ResidualError(
            f"development lost its frame: a lift is unimodular only to {worst:.1e} "
            "(a contracting entry fell below the rounding of 1 + E)")


def develop_hyperbolic(k, length: float | None = None, *, n_steps: int | None = None) -> HCurve:
    """Develop a curvature profile into the hyperboloid model of the hyperbolic plane.

    ``k`` is a vectorized curvature function of arc length, or any front
    track (its curvature function and total length are used). The Frenet
    frame obeys ``P' = T, T' = P + k N, N' = -k T`` from the standard basis.
    That system is the adjoint image of the unit bicycle's lift
    ``z' = A z``, ``A = 1/2 [[-1, k], [-k, 1]]``, so the steering engine
    propagates it: RK4 step factors of determinant one, a prefix scan, and
    the frame read off in closed form. The RK4 steps come from the
    closed-form kernel of :func:`.dynamics._factors` with ``c = 1``. A track
    made of pieces of constant curvature is developed over its whole length
    from the exact factors of its pieces and corners, so a polyline turns at
    its vertices. The frame stays Minkowski-orthonormal to rounding without
    any re-orthonormalization while the lifts stay unimodular. Three things raise
    :class:`ResidualError`: a smooth grid whose step, or whose step times
    the largest ``|k|``, is longer than ``RESOLVED_STEP`` (as for the
    steering engine with ``c = 1``; no step doubling would catch it), a lift
    whose determinant drifts from one by more than ``UNIMODULAR_TOL``
    relative (a geodesic stretch longer than about 35, where the contracting
    entry ``e^(-t/2)`` falls below the rounding of ``1 + E``), and
    coordinates too large for their Minkowski pairings in double precision
    (lengths past about 350 where the lifts stay accurate).
    """
    if hasattr(k, "curvature"):
        if length is None:
            length = k.total_length
        k_fn = k.curvature
    else:
        if length is None:
            raise ValidationError("develop_hyperbolic needs a length when k is a bare function")
        k_fn = k
    if not length > 0.0:
        raise ValidationError("development length must be positive")
    n = n_steps if n_steps is not None else max(4096, int(math.ceil(256.0 * length)))
    if n < 1:
        raise ValidationError(f"development needs at least one step, got {n}")
    t = np.linspace(0.0, float(length), n + 1)
    if getattr(k, "pieces", None) is not None:
        if length != k.total_length:
            raise ValidationError("a track of constant-curvature pieces develops over its whole length")
        q = np.eye(2).reshape(4, 1) + _prefix(k, np.ones((1, 1)), n)[:, 0]
        k_nodes = np.asarray(k_fn(t), dtype=float)
    else:
        grid = np.linspace(0.0, float(length), 2 * n + 1)
        k_half = np.broadcast_to(np.asarray(k_fn(grid), dtype=float), grid.shape)
        h = float(length) / n
        e = _resolved_factors(h, 1.0, float(np.max(np.abs(k_half))), _terms(1.0, k_half[None], h),
                              np.ones((1, 1)))
        q = np.eye(2).reshape(4, 1) + _scan(e)[:, 0]
        k_nodes = k_half[::2].copy()
    frame = _frame(q)
    _check_unimodular(q)
    return HCurve(t, frame[:, 0], frame[:, 1], frame[:, 2], k_nodes)


def star_direction(psi: float) -> np.ndarray:
    """Null direction (1, cos psi, sin psi) for the ideal point at angle psi."""
    return np.array([1.0, math.cos(psi), math.sin(psi)])


def stargazing_angle(curve: HCurve, star) -> np.ndarray:
    """Angle between the curve's tangent and the geodesic ray from a fixed star.

    ``star`` is an ideal point: a nonzero Minkowski-null 3-vector, or a
    bare angle ``psi`` meaning ``(1, cos psi, sin psi)``. ``alpha = 0``
    when the curve recedes straight from the star, and the samples satisfy
    the unit-bicycle equation ``alpha' = k - sin(alpha)``; the returned
    branch is unwrapped so it can be differenced.
    """
    s = star_direction(float(star)) if np.isscalar(star) else np.asarray(star, dtype=float)
    norm2 = float(s[0] ** 2 + s[1] ** 2 + s[2] ** 2)
    if norm2 == 0.0 or abs(float(mink(s, s))) > 1e-9 * norm2:
        raise ValidationError("star must be a nonzero Minkowski-null direction")
    s = s / s[0]  # normalize to x0 = 1 (upper light cone)
    a = mink(curve.points, s)  # always positive on the upper sheet
    # alpha = 0 means the tangent points straight away from the star: the
    # star is the rear wheel pushed to infinity, the geodesic from it the rod
    cos_a = mink(curve.tangents, s) / a
    sin_a = -mink(curve.normals, s) / a
    return np.unwrap(np.arctan2(sin_a, cos_a))


def stargazing_residual(curve: HCurve, star) -> float:
    """Worst central-difference violation of ``alpha' = k - sin(alpha)``."""
    alpha = stargazing_angle(curve, star)
    h = curve.t[1] - curve.t[0]
    lhs = (alpha[2:] - alpha[:-2]) / (2.0 * h)
    rhs = curve.curvature[1:-1] - np.sin(alpha[1:-1])
    return float(np.abs(lhs - rhs).max())


def concentric_rear_radius(rho: float, ell: float, geometry: Geometry) -> float:
    """Radius of the invariant rear circle behind a front geodesic circle.

    At the attracting steering angle the rod stays tangent to a concentric
    circle, and the right-triangle relation of the geometry gives its
    radius: ``sqrt(rho^2 - ell^2)``, ``acos(cos rho / cos ell)``,
    ``acosh(cosh rho / cosh ell)``. No real solution means the monodromy is
    not hyperbolic at this wheelbase.
    """
    geometry.check_wheelbase(ell)
    if geometry is Geometry.EUCLIDEAN:
        if ell >= rho:
            raise ValidationError("no invariant rear circle: wheelbase reaches the center")
        return math.sqrt(rho**2 - ell**2)
    if geometry is Geometry.SPHERICAL:
        c = math.cos(rho) / math.cos(ell)
        if not -1.0 < c < 1.0 or ell >= 0.5 * math.pi:
            raise ValidationError("no invariant rear circle at this spherical wheelbase")
        return math.acos(c)
    c = math.cosh(rho) / math.cosh(ell)
    if c < 1.0:
        raise ValidationError("no invariant rear circle: wheelbase exceeds the front radius")
    return math.acosh(c)


# -- area-threshold hyperbolicity -------------------------------------------


def unit_bicycle_monodromy(track: FrontTrack, steps_per_traversal: int = 4096) -> MonodromyReport:
    """Monodromy of ``alpha' = k - sin(alpha)``, the infinite-wheelbase
    hyperbolic bicycle, for any closed curvature profile."""
    ht = track if track.geometry is Geometry.HYPERBOLIC else track.reinterpreted(Geometry.HYPERBOLIC)
    params = BikeParams(ell=UNIT_WHEELBASE, geometry=Geometry.HYPERBOLIC,
                        steps_per_traversal=steps_per_traversal)
    return monodromy(ht, params)


@dataclass(frozen=True)
class HPZReport:
    """Outcome of the curved-plane area-threshold check at one wheelbase."""

    geometry: str
    ell: float
    area: float
    threshold: float  # 2*pi*(1 - cos ell) or 2*pi*(cosh ell - 1)
    area_hypothesis: bool  # area > threshold
    convexity_ok: bool
    map_class: str
    trace: float
    distance_to_identity: float
    status: str  # "confirmed" | "not applicable" | "refuted"

    @property
    def applicable(self) -> bool:
        return self.area_hypothesis and self.convexity_ok

    @property
    def ok(self) -> bool:
        return self.status != "refuted"

    def to_dict(self) -> dict:
        out = {f: getattr(self, f) for f in (
            "geometry", "ell", "area", "threshold", "area_hypothesis",
            "convexity_ok", "map_class", "trace", "distance_to_identity", "status")}
        out["applicable"] = self.applicable
        return out


def hpz_verify(track: FrontTrack, geometry: Geometry, ell: float,
               steps_per_traversal: int = 4096) -> HPZReport:
    """Check the curved-plane hyperbolicity criterion at wheelbase ``ell``.

    When the enclosed area exceeds the area of the wheelbase disk
    (2*pi*(1 - cos ell) on the sphere, 2*pi*(cosh ell - 1) in the
    hyperbolic plane) and the track satisfies the convexity hypothesis
    (geodesically convex / geodesic curvature > 1), the monodromy must be
    hyperbolic. A violated hypothesis is reported as not applicable, never
    as a failure; the monodromy is computed and reported either way.
    """
    if geometry is Geometry.EUCLIDEAN:
        raise ValidationError("the area-threshold criterion concerns curved geometries")
    if track.geometry is not geometry:
        raise ValidationError(
            f"track geometry {track.geometry.value} does not match requested {geometry.value}"
        )
    area = geodesic_area(track)
    k_min = track.curvature_range()[0]
    if geometry is Geometry.SPHERICAL:
        threshold = TWO_PI * (1.0 - math.cos(ell))
        convex_ok = k_min > 0.0
    else:
        threshold = TWO_PI * (math.cosh(ell) - 1.0)
        convex_ok = k_min > 1.0
    rep = monodromy(track, BikeParams(ell=ell, geometry=geometry,
                                      steps_per_traversal=steps_per_traversal))
    hypothesis = area > threshold
    if not (hypothesis and convex_ok):
        status = "not applicable"
    elif rep.map_class is MapClass.HYPERBOLIC:
        status = "confirmed"
    else:
        status = "refuted"
    return HPZReport(
        geometry=geometry.value,
        ell=float(ell),
        area=area,
        threshold=threshold,
        area_hypothesis=hypothesis,
        convexity_ok=convex_ok,
        map_class=rep.map_class.value,
        trace=rep.trace,
        distance_to_identity=rep.map.distance_to_identity(),
        status=status,
    )
