"""Critical wheelbase search and isoperimetric bounds for convex front tracks.

For a convex closed front path of area ``A`` the monodromy is hyperbolic for
every wheelbase below the smallest osculating radius and elliptic for large
wheelbases, so somewhere in between a first parabolic transition ``ell0``
occurs, and the claim under test is ``A <= pi * ell0**2``. The scan walks a
multiplicative ladder of wheelbases, brackets every crossing of trace = 2,
and sharpens the first one by bisection.

The whole ladder is integrated in one batched RK4 sweep. Bisection runs
speculatively in batches of depth ``BISECT_DEPTH``: one sweep integrates
every midpoint the next ``BISECT_DEPTH`` steps could visit, and the walk
down that tree visits the same midpoints, computed the same way, as plain
bisection would, so ``ell0`` keeps its exact bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._io import fmt17
from ._num import wrap_angle
from .dynamics import BikeParams, steering_endpoints
from .errors import ResidualError, ScanError, ValidationError
from .geom import FrontTrack, Geometry, enclosed_area
from .moebius import IDENTITY_TOL, MapClass, _sweep_fits
# The scan no longer calls ``monodromy`` itself; the name stays bound here
# because the benchmark's span tracer (perfbench/spans.py) wraps it here.
from .moebius import monodromy  # noqa: F401

CLASSIFICATION_CSV_HEADER = "ell,trace,class"
BISECT_DEPTH = 4  # bisection steps resolved by one batched sweep


def _require_convex(track: FrontTrack, n_grid: int = 4096) -> np.ndarray:
    """Enforce the convexity precondition: k > 0 on a dense grid."""
    if track.geometry is not Geometry.EUCLIDEAN:
        raise ValidationError("critical-length analysis is a euclidean-plane operation")
    if not track.closed:
        raise ValidationError("front track must be closed")
    t = np.linspace(0.0, track.period, n_grid, endpoint=False)
    k = np.asarray(track.curvature(t), dtype=float)
    if not np.all(np.isfinite(k)) or float(k.min()) <= 0.0:
        raise ValidationError(
            f"front track must be strictly convex with positive orientation "
            f"(min curvature on grid: {float(k.min()):.3g})"
        )
    return k


def min_osculating_radius(track: FrontTrack, n_grid: int = 4096) -> float:
    """Radius of the smallest osculating circle, 1/max k over the grid."""
    k = _require_convex(track, n_grid)
    return 1.0 / float(k.max())


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


def _midpoint_tree(lo: float, hi: float) -> list[float]:
    """Midpoints the next ``BISECT_DEPTH`` bisection steps from ``(lo, hi)`` can visit.

    Heap order: node ``i`` halves its interval at ``mids[i]``; node ``2i+1``
    holds the lower half and node ``2i+2`` the upper half.
    """
    mids: list[float] = []
    intervals = [(lo, hi)]
    for _ in range(BISECT_DEPTH):
        level = [0.5 * (a + b) for a, b in intervals]
        mids += level
        intervals = [half for (a, b), m in zip(intervals, level) for half in ((a, m), (m, b))]
    return mids


def _bisect_transition(track: FrontTrack, lo: float, hi: float, tol: float, steps: int) -> float:
    # invariant: trace(lo) > 2 >= trace(hi); the crossing is transversal for
    # every family observed, so plain bisection on trace - 2 suffices
    while hi - lo > tol:
        mids = _midpoint_tree(lo, hi)
        fit = _sweep_fits(track, mids, steps)
        node = 0
        while node < len(mids) and hi - lo > tol:
            if fit(node)[0].trace > 2.0:
                lo, node = mids[node], 2 * node + 2
            else:
                hi, node = mids[node], 2 * node + 1
    return 0.5 * (lo + hi)


def _ladder(r: float, cap: float, ratio: float) -> list[float]:
    if not cap > r:
        raise ScanError(
            f"scan cap {cap:.6g} does not exceed the min osculating radius {r:.6g}"
        )
    out = [r]
    while out[-1] < cap:
        out.append(min(out[-1] * ratio, cap))
    return out


def _scan(ladder: list[float], fit, stop_at_first: bool
          ) -> tuple[list[ScanSample], list[tuple[float | None, float]]]:
    """Walk the wheelbase ladder; bracket every sign change of trace - 2.

    ``fit(i)`` is the fitted monodromy of ``ladder[i]`` (see ``_sweep_fits``).
    A bracket ``(lo, hi)`` has trace > 2 at ``lo`` and trace < 2 at ``hi``;
    ``lo`` is None when already the first ladder point is non-hyperbolic
    (the transition then sits at the osculating radius itself).
    """
    samples: list[ScanSample] = []
    brackets: list[tuple[float | None, float]] = []
    prev: tuple[float, float] | None = None
    for i, ell in enumerate(ladder):
        fitted, eps_par = fit(i)
        samples.append(ScanSample(ell, fitted.trace, fitted.classify(eps_par).value))
        below = fitted.trace < 2.0
        if below and (prev is None or prev[1] >= 2.0):
            brackets.append((None if prev is None else prev[0], ell))
            if stop_at_first:
                return samples, brackets
        prev = (ell, fitted.trace)
    return samples, brackets


def _resolve_first(track: FrontTrack, bracket: tuple[float | None, float], r: float,
                   ratio: float, tol: float, steps: int) -> float:
    lo, hi = bracket
    if lo is None:
        # the ladder started non-hyperbolic; wheelbases below the osculating
        # radius are guaranteed hyperbolic, so bracket just beneath it
        lo = r / ratio
        if not _sweep_fits(track, [lo], steps)(0)[0].trace > 2.0:
            raise ScanError(
                f"trace <= 2 at ell = {lo:.6g}, below the min osculating radius {r:.6g}"
            )
    return _bisect_transition(track, lo, hi, tol, steps)


def critical_length(track: FrontTrack, tol: float | None = None, *, ratio: float = 1.05,
                    cap_factor: float = 10.0, steps_per_traversal: int = 4096) -> float:
    """Smallest wheelbase at which the monodromy stops being hyperbolic.

    Scans upward from the min osculating radius by multiplicative steps,
    then bisects the first trace = 2 crossing down to ``tol`` (default
    ``1e-6 * sqrt(A/pi)``). Raises :class:`ScanError` if no transition shows
    up below ``cap_factor * sqrt(A/pi)``.
    """
    r = min_osculating_radius(track)  # enforces convexity first
    area = enclosed_area(track)
    scale = math.sqrt(area / math.pi)
    if tol is None:
        tol = 1e-6 * scale
    ladder = _ladder(r, cap_factor * scale, ratio)
    _, brackets = _scan(ladder, _sweep_fits(track, ladder, steps_per_traversal),
                        stop_at_first=True)
    if not brackets:
        raise ScanError(
            f"no parabolic transition found up to ell = {cap_factor * scale:.6g}; "
            "large-wheelbase monodromy should be elliptic"
        )
    return _resolve_first(track, brackets[0], r, ratio, tol, steps_per_traversal)


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
    fitted, eps_par = _sweep_fits(track, [ell], steps)(0)
    map_class = fitted.classify(eps_par)
    if fitted.distance_to_identity() < IDENTITY_TOL or map_class is MapClass.ELLIPTIC:
        raise ValidationError(
            f"monodromy at ell = {ell:.6g} is {map_class.value}: no closed rear track"
        )
    fixed = fitted.fixed_points(eps_par)[0]  # attracting first
    params = BikeParams(ell=ell, steps_per_traversal=steps)
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


def menzin_verify(track: FrontTrack, tol: float | None = None, *, ratio: float = 1.05,
                  cap_factor: float = 10.0, steps_per_traversal: int = 4096) -> MenzinReport:
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
    if tol is None:
        tol = 1e-6 * scale
    cap = cap_factor * scale
    steps = steps_per_traversal
    checks: list[StageCheck] = []

    # one sweep for the ladder, whose last point is the cap, and for 0.5 * r
    ladder = _ladder(r, cap, ratio)
    fit = _sweep_fits(track, ladder + [0.5 * r], steps)

    small, eps_small = fit(len(ladder))
    checks.append(StageCheck(
        "hyperbolic_below_osculating_radius", 0.5 * r,
        small.classify(eps_small) is MapClass.HYPERBOLIC,
        f"trace = {small.trace:.9g}"))

    at_cap, eps_cap = fit(len(ladder) - 1)
    checks.append(StageCheck(
        "elliptic_at_cap", cap,
        at_cap.classify(eps_cap) is MapClass.ELLIPTIC
        and not at_cap.distance_to_identity() < IDENTITY_TOL,
        f"trace = {at_cap.trace:.9g}"))

    samples, brackets = _scan(ladder, fit, stop_at_first=False)
    ell0: float | None = None
    transitions: list[float] = []
    if brackets:
        ell0 = _resolve_first(track, brackets[0], r, ratio, tol, steps)
        transitions.append(ell0)
        # later crossings (either direction) are logged coarsely: the scan
        # never assumes the first transition is the only one
        for s0, s1 in zip(samples, samples[1:]):
            if (s0.trace - 2.0) * (s1.trace - 2.0) < 0.0 and s1.ell > brackets[0][1]:
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
