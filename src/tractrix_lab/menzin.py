"""Critical wheelbase search and isoperimetric bounds for convex front tracks.

For a convex closed front path of area ``A`` the monodromy is hyperbolic for
every wheelbase below the smallest osculating radius and elliptic for large
wheelbases, so somewhere in between a first parabolic transition ``ell0``
occurs, and the claim under test is ``A <= pi * ell0**2``. The scan walks a
multiplicative ladder of wheelbases, brackets every crossing of trace = 2,
and sharpens the first one by a safeguarded Illinois (regula falsi) search
on ``trace - 2``. The whole ladder is integrated in one batched RK4 sweep,
the bracket ends keep the traces the ladder read for them, and each search
step is one single-row sweep. On a track whose chart repeats within a pass
(an ellipse, period pi in its eccentric anomaly, or a support function whose
harmonics share a factor) each sweep steps one sub-pass and raises its
product to the power of the sub-passes (see
:func:`.dynamics._monodromy_sweep`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ._io import fmt17
from ._num import wrap_angle
from .dynamics import BikeParams, steering_endpoints
from .errors import ResidualError, ScanError, ValidationError
from .geom import FrontTrack, Geometry, enclosed_area
from .moebius import IDENTITY_TOL, MapClass, _fits, monodromy

CLASSIFICATION_CSV_HEADER = "ell,trace,class"
DEFAULT_TOL = 1e-10  # default ell0 tolerance, relative to sqrt(A/pi)
LADDER_RATIO = 1.05  # ratio of consecutive wheelbases on the scan ladder
CAP_FACTOR = 10.0  # the scan stops at CAP_FACTOR * sqrt(A/pi)


def _require_convex(track: FrontTrack) -> float:
    """Enforce the convexity precondition, k > 0 on the grid of ``curvature_range``; return max k."""
    if track.geometry is not Geometry.EUCLIDEAN:
        raise ValidationError("critical-length analysis is a euclidean-plane operation")
    if not track.closed:
        raise ValidationError("front track must be closed")
    k_min, k_max = track.curvature_range()
    if not (math.isfinite(k_min) and math.isfinite(k_max)) or k_min <= 0.0:
        raise ValidationError(
            f"front track must be strictly convex with positive orientation "
            f"(min curvature on grid: {k_min:.3g})"
        )
    return k_max


def min_osculating_radius(track: FrontTrack) -> float:
    """Radius of the smallest osculating circle, 1/max k over the grid."""
    return 1.0 / _require_convex(track)


@dataclass(frozen=True)
class ScanSample:
    """One ladder point of the trace-versus-wheelbase curve."""

    ell: float
    trace: float
    map_class: str

    def csv_row(self) -> str:
        return f"{fmt17(self.ell)},{fmt17(self.trace)},{self.map_class}"


@dataclass(frozen=True)
class StageCheck:
    """Outcome of one stage of the verification, with the wheelbase it ran at."""

    name: str
    ell: float
    passed: bool
    detail: str


def _locate_transition(track: FrontTrack, lo: tuple[float, float], hi: tuple[float, float],
                       tol: float, steps: int) -> float:
    """Wheelbase, to within ``tol``, where the trace crosses 2 between ``lo`` and ``hi``.

    ``lo`` and ``hi`` are ``(ell, trace)`` with trace >= 2 at ``lo`` and
    trace < 2 at ``hi``; a trial point with trace 2 becomes the new ``hi``.
    Illinois steps on ``trace - 2``: the regula falsi point, with the value
    at a bracket end halved whenever that end is kept twice running. The
    point is kept ``tol / 2`` inside the bracket, so a root next to a
    bracket end cannot stall the search, and it is the midpoint when the
    bracket has not halved over the last three steps (a row over the error
    cap is refined, so the trace can jump).
    """
    (a, fa), (b, fb) = (lo[0], lo[1] - 2.0), (hi[0], hi[1] - 2.0)
    tol = max(tol, 8.0 * math.ulp(b))  # the bracket cannot close below a few ulps
    widths = [b - a]
    kept = 0  # +1 when the last step kept ``a``, -1 when it kept ``b``
    while b - a > tol:
        if len(widths) > 3 and widths[-1] > 0.5 * widths[-4]:
            x = 0.5 * (a + b)
        else:
            x = a + fa / (fa - fb) * (b - a)
        x = min(max(x, a + 0.5 * tol), b - 0.5 * tol)
        f = _trace(track, x, steps) - 2.0
        if f > 0.0:
            a, fa = x, f
            if kept == -1:
                fb *= 0.5
            kept = -1
        else:
            b, fb = x, f
            if kept == 1:
                fa *= 0.5
            kept = 1
        widths.append(b - a)
    return 0.5 * (a + b)


def _overflow(ell: float) -> ResidualError:
    return ResidualError(f"lift product overflowed at ell = {ell:.6g}: the monodromy is too "
                         "strongly hyperbolic for double precision")


def _trace(track: FrontTrack, ell: float, steps: int) -> float:
    """Trace of the fitted monodromy at one wheelbase; an overflowed product is refused."""
    fit = _fits(track, [ell], steps)[0]
    if fit is None:
        raise _overflow(ell)
    return fit[0].trace


def _ladder(r: float, cap: float) -> list[float]:
    if not cap > r:
        raise ScanError(
            f"scan cap {cap:.6g} does not exceed the min osculating radius {r:.6g}"
        )
    out = [r]
    while out[-1] < cap:
        out.append(min(out[-1] * LADDER_RATIO, cap))
    return out


Bracket = tuple[tuple[float, float] | None, tuple[float, float]]  # (lo, hi) as (ell, trace)


def _scan(ladder: list[float], fits) -> tuple[list[ScanSample], list[Bracket]]:
    """Walk the wheelbase ladder; bracket every sign change of trace - 2.

    ``fits[i]`` is the fitted monodromy of ``ladder[i]`` (see ``moebius._fits``);
    a row whose product overflowed is refused. A bracket ``(lo, hi)`` holds
    the ``(ell, trace)`` of its ends, with trace >= 2 at ``lo`` and
    trace < 2 at ``hi``; ``lo`` is None when already the first ladder point
    is non-hyperbolic (the transition then sits at the osculating radius
    itself).
    """
    samples: list[ScanSample] = []
    brackets: list[Bracket] = []
    prev: tuple[float, float] | None = None
    for ell, fit in zip(ladder, fits):
        if fit is None:
            raise _overflow(ell)
        fitted, eps_par = fit
        samples.append(ScanSample(ell, fitted.trace, fitted.classify(eps_par).value))
        below = fitted.trace < 2.0
        if below and (prev is None or prev[1] >= 2.0):
            brackets.append((prev, (ell, fitted.trace)))
        prev = (ell, fitted.trace)
    return samples, brackets


def _tolerance(tol: float | None, scale: float) -> float:
    """The ell0 tolerance: ``DEFAULT_TOL * scale`` by default, else a positive finite ``tol``."""
    if tol is None:
        return DEFAULT_TOL * scale
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"ell0 tolerance must be positive and finite, got {tol!r}")
    return tol


def _resolve_first(track: FrontTrack, bracket: Bracket, r: float, tol: float,
                   steps: int) -> float:
    lo, hi = bracket
    if lo is None:
        # the ladder started non-hyperbolic; wheelbases below the osculating
        # radius are guaranteed hyperbolic, so bracket just beneath it
        lo = (r / LADDER_RATIO, _trace(track, r / LADDER_RATIO, steps))
        if not lo[1] > 2.0:
            raise ScanError(
                f"trace <= 2 at ell = {lo[0]:.6g}, below the min osculating radius {r:.6g}"
            )
    return _locate_transition(track, lo, hi, tol, steps)


def critical_length(track: FrontTrack, tol: float | None = None, *,
                    steps_per_traversal: int = 4096) -> float:
    """Smallest wheelbase at which the monodromy stops being hyperbolic.

    Scans upward from the min osculating radius by steps of ``LADDER_RATIO``,
    then closes in on the first trace = 2 crossing to within ``tol``
    (default ``1e-10 * sqrt(A/pi)``). Raises :class:`ScanError` if no transition shows
    up below ``CAP_FACTOR * sqrt(A/pi)``.
    """
    r = min_osculating_radius(track)  # enforces convexity first
    area = enclosed_area(track)
    scale = math.sqrt(area / math.pi)
    tol = _tolerance(tol, scale)
    ladder = _ladder(r, CAP_FACTOR * scale)
    _, brackets = _scan(ladder, _fits(track, ladder, steps_per_traversal))
    if not brackets:
        raise ScanError(
            f"no parabolic transition found up to ell = {CAP_FACTOR * scale:.6g}; "
            "large-wheelbase monodromy should be elliptic"
        )
    return _resolve_first(track, brackets[0], r, tol, steps_per_traversal)


def defect_bound(track: FrontTrack, ell: float, *,
                 steps_per_traversal: int = 4096) -> tuple[float, float]:
    """Isoperimetric defect of the front track and its rear-area lower bound.

    Requires a non-elliptic monodromy so a closed rear track exists at the
    attracting (or parabolic) fixed angle. Its signed area comes from the
    exact area identity ``A0 = A_F - pi * ell**2`` (turning number one), and
    the pair ``(L_F**2 - 4 pi A_F, -4 pi A0)`` is returned after asserting
    the defect really does sit above the bound.
    """
    _require_convex(track)
    return _defect_bound(track, ell, steps_per_traversal, enclosed_area(track))


def _defect_bound(track: FrontTrack, ell: float, steps: int, area: float) -> tuple[float, float]:
    """:func:`defect_bound` on a track already checked convex, with its area."""
    params = BikeParams(ell=ell, steps_per_traversal=steps)
    rep = monodromy(track, params)
    if rep.is_identity or rep.map_class is MapClass.ELLIPTIC:
        raise ValidationError(
            f"monodromy at ell = {ell:.6g} is {rep.map_class.value}: no closed rear track"
        )
    fixed = rep.fixed_points[0]  # attracting first
    final = steering_endpoints(track, params, [fixed.angle])[0]
    gap = abs(wrap_angle(final - fixed.angle))
    if gap > 1e-5:
        raise ResidualError(
            f"rear track failed to close at the fixed angle (gap {gap:.3g} rad)"
        )
    perimeter = track.period
    a0 = area - math.pi * ell**2 * track.turning_number
    defect = perimeter**2 - 4.0 * math.pi * area
    bound = -4.0 * math.pi * a0
    if defect < bound - 1e-6 * max(area, perimeter**2):
        raise ResidualError(
            f"isoperimetric defect {defect:.6g} fell below the rear-area bound {bound:.6g}"
        )
    return defect, bound


@dataclass(frozen=True)
class MenzinReport:
    """Full verification record for one convex front track."""

    area: float
    min_osculating_radius: float
    ell0: float | None
    bound_check: bool
    bound_margin: float | None  # pi * ell0**2 - area
    classification_curve: tuple[ScanSample, ...]
    transitions: tuple[float, ...]
    defect: float
    defect_bound: float | None
    defect_ell: float | None
    checks: tuple[StageCheck, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def classification_csv(self) -> str:
        lines = [CLASSIFICATION_CSV_HEADER]
        lines += [s.csv_row() for s in self.classification_curve]
        return "\n".join(lines) + "\n"

    def to_dict(self) -> dict:
        return {
            "area": self.area,
            "min_osculating_radius": self.min_osculating_radius,
            "ell0": self.ell0,
            "bound_check": self.bound_check,
            "bound_margin": self.bound_margin,
            "classification_curve": [[s.ell, s.trace, s.map_class]
                                     for s in self.classification_curve],
            "transitions": list(self.transitions),
            "defect": self.defect,
            "defect_bound": self.defect_bound,
            "defect_ell": self.defect_ell,
            "checks": [{"name": c.name, "ell": c.ell, "passed": c.passed,
                        "detail": c.detail} for c in self.checks],
            "ok": self.ok,
        }

    def to_json(self, indent: int | None = 2) -> str:
        import json

        return json.dumps(self.to_dict(), indent=indent)


def menzin_verify(track: FrontTrack, tol: float | None = None, *,
                  steps_per_traversal: int = 4096) -> MenzinReport:
    """Run the three-stage verification and assemble the report.

    Stages: hyperbolicity at half the min osculating radius, ellipticity at
    the scan cap, location of the first parabolic transition, and the area
    inequality ``A <= pi * ell0**2`` with a 1e-4 relative margin. Failures
    are recorded per stage (with the offending wheelbase) rather than
    raised, so a counterexample would produce a readable report.
    """
    r = min_osculating_radius(track)  # enforces convexity first
    area = enclosed_area(track)
    scale = math.sqrt(area / math.pi)
    tol = _tolerance(tol, scale)
    cap = CAP_FACTOR * scale
    steps = steps_per_traversal
    checks: list[StageCheck] = []

    # one sweep for the ladder, whose last point is the cap, and for 0.5 * r
    ladder = _ladder(r, cap)
    fits = _fits(track, ladder + [0.5 * r], steps)
    samples, brackets = _scan(ladder, fits)

    if fits[-1] is None:  # a trace past double range is hyperbolic
        checks.append(StageCheck("hyperbolic_below_osculating_radius", 0.5 * r, True,
                                 "trace exceeds double range"))
    else:
        small, eps_small = fits[-1]
        checks.append(StageCheck(
            "hyperbolic_below_osculating_radius", 0.5 * r,
            small.classify(eps_small) is MapClass.HYPERBOLIC,
            f"trace = {small.trace:.9g}"))

    at_cap, eps_cap = fits[-2]
    checks.append(StageCheck(
        "elliptic_at_cap", cap,
        at_cap.classify(eps_cap) is MapClass.ELLIPTIC
        and not at_cap.distance_to_identity() < IDENTITY_TOL,
        f"trace = {at_cap.trace:.9g}"))

    ell0: float | None = None
    transitions: list[float] = []
    if brackets:
        ell0 = _resolve_first(track, brackets[0], r, tol, steps)
        transitions.append(ell0)
        # later crossings (either direction) are logged coarsely: the scan
        # never assumes the first transition is the only one
        for s0, s1 in zip(samples, samples[1:]):
            if (s0.trace - 2.0) * (s1.trace - 2.0) < 0.0 and s1.ell > brackets[0][1][0]:
                transitions.append(0.5 * (s0.ell + s1.ell))
    checks.append(StageCheck(
        "parabolic_transition_found", ell0 if ell0 is not None else cap,
        ell0 is not None,
        f"{len(transitions)} transition(s) in scan" if transitions else "none below cap"))

    if ell0 is not None:
        margin = math.pi * ell0**2 - area
        bound_check = area <= math.pi * ell0**2 * (1.0 + 1e-4)
        below = [s for s in samples if s.ell < ell0 - tol]
        checks.append(StageCheck(
            "area_bound", ell0, bound_check,
            f"A = {area:.9g}, pi*ell0^2 = {math.pi * ell0**2:.9g}"))
        checks.append(StageCheck(
            "hyperbolic_below_transition", ell0,
            all(s.trace > 2.0 for s in below),
            f"{len(below)} sampled wheelbase(s) below ell0"))
    else:
        margin = None
        bound_check = False

    defect = track.period**2 - 4.0 * math.pi * area
    bound_val: float | None = None
    defect_ell: float | None = None
    if ell0 is not None and ell0 > scale * (1.0 + 1e-6):
        # any wheelbase between sqrt(A/pi) and ell0 has a closed rear track
        # of negative signed area, making the defect bound informative
        cand = 0.5 * (scale + ell0)
        try:
            _, bound_val = _defect_bound(track, cand, steps, area)
            defect_ell = cand
        except (ValidationError, ResidualError):
            bound_val = None

    return MenzinReport(
        area=area,
        min_osculating_radius=r,
        ell0=ell0,
        bound_check=bound_check,
        bound_margin=margin,
        classification_curve=tuple(samples),
        transitions=tuple(transitions),
        defect=defect,
        defect_bound=bound_val,
        defect_ell=defect_ell,
        checks=tuple(checks),
    )
