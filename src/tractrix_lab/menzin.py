"""Critical wheelbase search and isoperimetric bounds for convex front tracks.

For a convex closed front path of area ``A`` the monodromy is hyperbolic for
every wheelbase below the smallest osculating radius and elliptic for large
wheelbases, so somewhere in between a first parabolic transition ``ell0``
occurs, and the claim under test is ``A <= pi * ell0**2``. The scan walks a
multiplicative ladder of wheelbases, finds the first crossing of trace = 2,
and sharpens it by a safeguarded search on ``trace - 2``
(:func:`_locate_transition`): inverse polynomial interpolation of ``ell``
in ``trace - 2``, seeded by the ladder rows around the crossing, with up
to four trial wheelbases per sweep around each estimate. The whole ladder
is integrated in one batched RK4 sweep and each search step in one sweep
of at most four rows; on the ellipses and support functions tested two search
sweeps reach the default tolerance at 512 steps. Every trace is read off
the extrapolated map (see :func:`.dynamics._monodromy_sweep`), so at 512
steps ``ell0`` is within that tolerance of the converged root on ellipses
down to an aspect ratio of 5. On a track whose chart repeats within a pass
(an ellipse, period pi in its eccentric anomaly, or a support function whose
harmonics share a factor) each sweep steps one sub-pass and raises its
product to the power of the sub-passes (see
:func:`.dynamics._monodromy_sweep`).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

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


def _require_single_pass(track: FrontTrack) -> None:
    """Refuse a track of several passes: its area counts them all, and its ``ell0`` is one pass's."""
    if track.traversals != 1:
        raise ValidationError("the area bound and the defect bound are defined for a single traversal")


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


def _inverse_estimates(known: list[tuple[float, float]]) -> tuple[float, float]:
    """Where ``trace - 2`` vanishes, by inverse interpolation, and a coarser estimate of the same.

    ``known`` holds ``(ell, trace - 2)``. Neville's tableau interpolates
    ``ell`` as a polynomial in ``trace - 2`` at 0 through the (at most 6)
    points with the smallest ``|trace - 2|``, nearest first, so the same
    tableau gives the estimate through the nearest two points fewer (4 of
    6), which is the coarser one. Two points with equal ``trace - 2`` make
    both nan.
    """
    pts = sorted(known, key=lambda p: abs(p[1]))[:6]
    f = [p[1] for p in pts]
    if len(set(f)) < len(f):
        return math.nan, math.nan
    col = [p[0] for p in pts]
    estimates = [col[0]]
    for j in range(1, len(pts)):
        col = [(f[i] * col[i + 1] - f[i + j] * col[i]) / (f[i] - f[i + j]) for i in range(len(col) - 1)]
        estimates.append(col[0])
    return estimates[-1], estimates[max(len(pts) - 3, 0)]


def _locate_transition(traces: Callable[[list[float]], list[float]],
                       known: list[tuple[float, float]], lo: float, hi: float,
                       tol: float) -> float:
    """Wheelbase, to within ``tol``, where the trace crosses 2 between ``lo`` and ``hi``.

    ``traces`` maps a list of wheelbases to their traces in one sweep.
    ``known`` holds ``(ell, trace)`` of wheelbases already evaluated, the
    bracket ends among them, with trace >= 2 at ``lo`` and trace < 2 at
    ``hi``. Each sweep interpolates ``ell`` inversely in ``trace - 2``
    (:func:`_inverse_estimates`) to ``x``, through the 6 points nearest the
    root, and takes the gap ``s`` to the 4-point estimate as its error
    bar. It evaluates ``x +- s / 10`` and ``x +- 2 s``, or only
    ``x +- tol / 4`` once ``s`` is within ``tol / 4``. Every trial point is
    kept ``tol / 2`` inside the bracket, so a root next to a bracket end
    cannot stall the search, and each one in turn, from the lowest,
    narrows the bracket on its sign; a trace of exactly 2 becomes the new
    ``hi``. A sweep that does not halve the bracket (the estimate missed,
    or a row over the error cap was refined and the trace jumped) is
    followed by one that splits the bracket into 5 equal parts. Returns
    the final bracket's midpoint.
    """
    a, b = lo, hi
    known = [(ell, trace - 2.0) for ell, trace in known]
    tol = max(tol, 8.0 * math.ulp(b))  # the bracket cannot close below a few ulps
    split = False
    while b - a > tol:
        width = b - a
        x, coarse = _inverse_estimates(known)
        s = abs(x - coarse)
        if split or not math.isfinite(s):
            trials = [a + width * i / 5 for i in range(1, 5)]
        elif s <= 0.25 * tol:
            trials = [x - 0.25 * tol, x + 0.25 * tol]
        else:
            trials = [x - 2.0 * s, x - 0.1 * s, x + 0.1 * s, x + 2.0 * s]
        trials = sorted({min(max(t, a + 0.5 * tol), b - 0.5 * tol) for t in trials})
        for t, trace in zip(trials, traces(trials)):
            known.append((t, trace - 2.0))
            if a < t < b:
                if trace > 2.0:
                    a = t
                else:
                    b = t
        split = b - a > 0.5 * width
    return 0.5 * (a + b)


def _traces(track: FrontTrack, steps: int, ells: list[float]) -> list[float]:
    """Traces of the fitted monodromies at ``ells``, from one sweep; an overflowed product is refused."""
    return [s.trace for s in _scan(ells, _fits(track, ells, steps))[0]]


def _ladder(r: float, cap: float) -> list[float]:
    if not cap > r:
        raise ScanError(
            f"scan cap {cap:.6g} does not exceed the min osculating radius {r:.6g}"
        )
    out = [r]
    while out[-1] < cap:
        out.append(min(out[-1] * LADDER_RATIO, cap))
    return out


def _scan(ladder: list[float], fits) -> tuple[list[ScanSample], int | None]:
    """Walk the wheelbase ladder; find the first crossing of trace = 2.

    ``fits[i]`` is the fitted monodromy of ``ladder[i]`` (see ``moebius._fits``);
    a row whose product overflowed is refused. Returns the samples and the
    index of the first one with trace < 2, None if there is none. The
    rows before it all have trace >= 2; there are none when already the
    first ladder point is non-hyperbolic (the transition then sits at the
    osculating radius itself).
    """
    samples: list[ScanSample] = []
    for ell, fit in zip(ladder, fits):
        if fit is None:
            raise ResidualError(f"lift product overflowed at ell = {ell:.6g}: the monodromy is too "
                                "strongly hyperbolic for double precision")
        fitted, eps_par = fit
        samples.append(ScanSample(ell, fitted.trace, fitted.classify(eps_par).value))
    first = next((i for i, s in enumerate(samples) if s.trace < 2.0), None)
    return samples, first


def _tolerance(tol: float | None, scale: float) -> float:
    """The ell0 tolerance: ``DEFAULT_TOL * scale`` by default, else a positive finite ``tol``."""
    if tol is None:
        return DEFAULT_TOL * scale
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValidationError(f"ell0 tolerance must be positive and finite, got {tol!r}")
    return tol


def _resolve_first(traces: Callable[[list[float]], list[float]], samples: list[ScanSample],
                   first: int, r: float, tol: float) -> float:
    """``ell0`` from the ladder rows around the first crossing, ``samples[first - 1:first + 1]``.

    ``traces`` evaluates wheelbases in one sweep (see :func:`_locate_transition`).
    Up to 3 rows on each side seed the search: those below the crossing,
    and those above it while their trace stays below 2.
    """
    below = [(s.ell, s.trace) for s in samples[max(first - 3, 0):first]]
    above = list(itertools.takewhile(lambda p: p[1] < 2.0,
                                     ((s.ell, s.trace) for s in samples[first:first + 3])))
    if not below:
        # the ladder started non-hyperbolic; wheelbases below the osculating
        # radius are guaranteed hyperbolic, so bracket just beneath it
        ell = r / LADDER_RATIO
        below = [(ell, traces([ell])[0])]
        if not below[0][1] > 2.0:
            raise ScanError(f"trace <= 2 at ell = {ell:.6g}, below the min osculating radius {r:.6g}")
    return _locate_transition(traces, below + above, below[-1][0], above[0][0], tol)


def _ladder_scan(track: FrontTrack, tol: float | None, steps: int, probes: tuple[float, ...]):
    """``(r, area, tol, samples, first, fits, ell0)`` of the ladder scan of a convex track.

    The ladder (see :func:`_ladder`) and the wheelbases ``probes`` times
    ``r`` are fitted in one sweep; ``fits`` are the cap's and the probes'.
    ``first`` and ``ell0`` are None when no ladder row crosses trace = 2.
    """
    r = min_osculating_radius(track)  # enforces convexity first
    area = enclosed_area(track)
    scale = math.sqrt(area / math.pi)
    tol = _tolerance(tol, scale)
    ladder = _ladder(r, CAP_FACTOR * scale)
    fits = _fits(track, ladder + [p * r for p in probes], steps)
    samples, first = _scan(ladder, fits)
    ell0 = None if first is None else _resolve_first(partial(_traces, track, steps), samples, first, r, tol)
    return r, area, tol, samples, first, fits[len(ladder) - 1:], ell0


def critical_length(track: FrontTrack, tol: float | None = None, *,
                    steps_per_traversal: int = 4096) -> float:
    """Smallest wheelbase at which the monodromy stops being hyperbolic.

    Scans upward from the min osculating radius by steps of ``LADDER_RATIO``,
    then closes in on the first trace = 2 crossing to within ``tol``
    (default ``1e-10 * sqrt(A/pi)``), as :func:`menzin_verify` does. Raises
    :class:`ScanError` if no transition shows up below
    ``CAP_FACTOR * sqrt(A/pi)``.
    """
    _, _, _, samples, _, _, ell0 = _ladder_scan(track, tol, steps_per_traversal, ())
    if ell0 is None:  # the ladder ends at the cap
        raise ScanError(f"no parabolic transition found up to ell = {samples[-1].ell:.6g}; "
                        "large-wheelbase monodromy should be elliptic")
    return ell0


def defect_bound(track: FrontTrack, ell: float, *,
                 steps_per_traversal: int = 4096) -> tuple[float, float]:
    """Isoperimetric defect of the front track and its rear-area lower bound.

    Requires a track of one pass and a non-elliptic monodromy, so a closed
    rear track exists at the attracting (or parabolic) fixed angle. Its
    signed area comes from the exact area identity ``A0 = A_F - pi * ell**2``
    (turning number one), and the pair ``(L_F**2 - 4 pi A_F, -4 pi A0)`` is
    returned after asserting the defect really does sit above the bound.
    """
    _require_single_pass(track)
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
    raised, so a counterexample would produce a readable report. A track
    of several passes is refused; :func:`critical_length` accepts it.
    """
    _require_single_pass(track)
    # one sweep for the ladder, whose last point is the cap, and for 0.5 * r
    r, area, tol, samples, first, (cap_fit, small_fit), ell0 = _ladder_scan(
        track, tol, steps_per_traversal, (0.5,))
    scale = math.sqrt(area / math.pi)
    cap = CAP_FACTOR * scale
    checks: list[StageCheck] = []

    if small_fit is None:  # a trace past double range is hyperbolic
        checks.append(StageCheck("hyperbolic_below_osculating_radius", 0.5 * r, True,
                                 "trace exceeds double range"))
    else:
        small, eps_small = small_fit
        checks.append(StageCheck(
            "hyperbolic_below_osculating_radius", 0.5 * r,
            small.classify(eps_small) is MapClass.HYPERBOLIC,
            f"trace = {small.trace:.9g}"))

    at_cap, eps_cap = cap_fit
    checks.append(StageCheck(
        "elliptic_at_cap", cap,
        at_cap.classify(eps_cap) is MapClass.ELLIPTIC
        and not at_cap.distance_to_identity() < IDENTITY_TOL,
        f"trace = {at_cap.trace:.9g}"))

    transitions: list[float] = []
    if ell0 is not None:
        transitions.append(ell0)
        # later crossings (either direction) are logged coarsely: the scan
        # never assumes the first transition is the only one
        for s0, s1 in zip(samples, samples[1:]):
            if (s0.trace - 2.0) * (s1.trace - 2.0) < 0.0 and s1.ell > samples[first].ell:
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
            _, bound_val = _defect_bound(track, cand, steps_per_traversal, area)
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
