"""Benchmark workloads: seeded job generators, job runners and oracle checks.

A workload is an endless sequence of *cycles*; a cycle holds one job of each
kind the workload mixes, so every run sees the kinds in the same proportion
whatever its seed. Each cycle has an odd number of kinds, so the median job
falls inside the middle kind's group, not on the gap between two groups of
different cost, for any number of cycles. The seed only draws the free parameters (radii, wheelbases,
translations, rotations, which reference shapes are used). Only the generated
inputs reach the library, through its public API.

Each job is timed around ``run`` alone; ``score`` compares the output with its
oracle afterwards and returns a relative error plus any failed side condition.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import tractrix_lab as tl

import oracles as orc

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"
MENZIN_STEPS = 512  # steps_per_traversal of every menzin_verify job
TRACE_FLOOR = 1.0  # traces are compared on the scale of max(|trace|, 1)
LOOP_HARMONICS = 4  # Fourier harmonics of each loop_identity configuration loop


@dataclass(frozen=True)
class KnownDefect:
    """A seed failure kept in the mix, with the signature its failure must have.

    A job whose outcome leaves the signature (another error band, another
    exception or another place) is an unexpected failure, not this defect.
    """

    cause: str
    error_band: tuple[float, float] = (0.0, 0.0)  # relative error the defect gives
    raises: tuple[str, str, str] | None = None  # exception type, file, function

    def matches(self, error: float, raised: tuple[str, str, str] | None) -> bool:
        if self.raises is not None:
            return raised == self.raises
        return raised is None and self.error_band[0] <= error <= self.error_band[1]

    def signature(self) -> str:
        if self.raises is not None:
            kind, filename, function = self.raises
            return f"raises {kind} in {filename}:{function}"
        return f"relative error in [{self.error_band[0]:.2e}, {self.error_band[1]:.2e}]"


# seed failures: known defects kept in the mix, counted in failed_ratio
KNOWN_SQUARE = KnownDefect(
    "square trace 0.6233 against exact-corner 0.5451: "
    "the default 1e-3 fillet and the fixed grid miss the corners", error_band=(0.075, 0.081))
KNOWN_STIFF_RAISE = KnownDefect(
    "unit circle at ell = 0.1 raises: MoebiusMap.from_matrix rejects the negative "
    "determinant recomputed from an ill-conditioned product",
    raises=("ValidationError", "moebius.py", "from_matrix"))
KNOWN_STIFF_OFF = KnownDefect(
    "unit circle at ell = 0.2 is off by 7.6e-5 (relative) against 2 cosh(pi sqrt(24))",
    error_band=(7.0e-5, 8.3e-5))


@dataclass(frozen=True)
class Job:
    """One library call chain with its inputs and the oracle it is held to."""

    kind: str
    inputs: dict
    oracle: str  # oracle function in oracles.py, or "reference"
    oracle_args: tuple
    tol: float
    known_defect: KnownDefect | None = None

    def expected(self) -> float:
        if self.oracle == "reference":
            return float(self.oracle_args[0])
        return getattr(orc, self.oracle)(*self.oracle_args)


# -- job runners: the timed part, public API only ---------------------------


def _track(spec: dict):
    if spec["kind"] == "geodesic-circle":
        return tl.geodesic_circle(spec["rho"], tl.Geometry(spec["geometry"]))
    return tl.make_curve(spec)


def _params(inputs: dict):
    return tl.BikeParams(ell=inputs["ell"], geometry=tl.Geometry(inputs.get("geometry", "euclidean")))


def run_monodromy(inputs):
    return tl.monodromy(_track(inputs["track"]), _params(inputs))


def run_hpz(inputs):
    geometry = tl.Geometry(inputs["geometry"])
    return tl.hpz_verify(_track(inputs["track"]), geometry, inputs["ell"])


def run_menzin(inputs):
    return tl.menzin_verify(_track(inputs["track"]), steps_per_traversal=MENZIN_STEPS)


def run_rear(inputs):
    sol = tl.integrate_steering(_track(inputs["track"]), _params(inputs), inputs["alpha0"])
    return tl.rear_track(sol), tl.area_between_tracks(sol)


def run_measure(inputs):
    return tl.measure(_track(inputs["track"]), inputs["ell"], base=inputs["base"],
                      placement=inputs["placement"])


def run_develop(inputs):
    k = inputs["k"]
    curve = tl.develop_hyperbolic(lambda t: np.full_like(t, k), inputs["length"])
    residual = None
    if "star" in inputs:
        residual = tl.stargazing_residual(curve, inputs["star"])
    return curve, residual


def run_loops(inputs):
    return [tl.loop_identity(tl.ConfigLoop.from_fourier(lp["x"], lp["y"], lp["theta"],
                                                         winding=lp["winding"]), inputs["ell"])
            for lp in inputs["loops"]]


# -- scores: relative error against the oracle, plus side conditions --------


def score_trace(job, rep):
    problems = []
    if job.inputs.get("identity") and not rep.is_identity:
        problems.append("map is not reported as the identity")
    if getattr(rep, "status", None) == "refuted":
        problems.append("area-threshold criterion refuted")
    return orc.relative_error(rep.trace, job.expected(), TRACE_FLOOR), problems


def score_menzin(job, rep):
    if rep.ell0 is None:
        return math.inf, ["no parabolic transition found"]
    failed = [c.name for c in rep.checks if not c.passed]
    return orc.relative_error(rep.ell0, job.expected()), [f"stage {n} failed" for n in failed]


def score_rear(job, out):
    rt, area = out
    center = np.asarray(job.inputs["track"]["center"])
    radius = job.expected()
    dev = float(np.max(np.abs(np.linalg.norm(rt.points - center, axis=1) - radius))) / radius
    return max(dev, orc.relative_error(area, orc.rear_circle_area(job.inputs["ell"]))), []


def score_tractrix(job, out):
    _, area = out
    return orc.relative_error(area, job.expected()), []


def score_measure(job, reading):
    closure = abs(reading.closure_defect) / abs(reading.exact_area)
    if job.oracle == "reference":  # the frozen centroid reading
        problems = [] if closure <= orc.PLANIMETER_TOL else [f"closure defect {closure:.3e}"]
        return orc.relative_error(reading.residual_error, job.expected()), problems
    return max(closure, orc.relative_error(reading.exact_area, job.expected())), []


def score_develop(job, out):
    curve, residual = out
    dist, frame = curve.closure_gap()
    closure = max(dist, frame)
    if residual is None:
        return closure, []
    problems = [] if closure <= orc.DEVELOP_TOL else [f"development closure gap {closure:.3e}"]
    return residual / job.inputs["k"], problems


def score_loops(job, checks):
    ell = job.inputs["ell"]
    worst = 0.0
    for chk in checks:
        scale2 = max(1.0, abs(chk.area_front), abs(chk.area_rear), ell * ell)
        worst = max(worst, chk.mismatch / scale2)
    return worst, []


KINDS: dict[str, tuple[Callable, Callable]] = {
    "monodromy": (run_monodromy, score_trace),
    "hpz": (run_hpz, score_trace),
    "menzin": (run_menzin, score_menzin),
    "rear-circle": (run_rear, score_rear),
    "tractrix": (run_rear, score_tractrix),
    "planimeter": (run_measure, score_measure),
    "develop": (run_develop, score_develop),
    "loop-identity": (run_loops, score_loops),
}


# -- generators --------------------------------------------------------------


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def _center(rng: random.Random) -> list[float]:
    return [rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)]


def _rotated_support(spec: dict, angle: float) -> dict:
    # p(phi) -> p(phi - angle): a rigid rotation, so traces and ell0 are unchanged
    cos_c, sin_c = [], []
    for n, (a, b) in enumerate(zip(spec["cos"], spec["sin"]), start=1):
        c, s = math.cos(n * angle), math.sin(n * angle)
        cos_c.append(a * c - b * s)
        sin_c.append(a * s + b * c)
    return {"kind": "fourier-support", "a0": spec["a0"], "cos": cos_c, "sin": sin_c}


def _circle_job(r, ell, center, known=None):
    return Job("monodromy", {"track": {"kind": "circle", "r": r, "center": center}, "ell": ell},
               "circle_trace", (r, ell), orc.TRACE_TOL, known)


def monodromy_mix(rng: random.Random, ref: dict) -> Iterator[list[Job]]:
    """Single monodromy / hpz_verify jobs; every track is new (translated or rotated)."""
    shapes = ref["monodromy_fourier"]
    order = list(range(len(shapes)))
    rng.shuffle(order)
    pick = 0
    while True:
        cycle = []
        r = rng.uniform(0.5, 3.0)
        cycle.append(_circle_job(r, r * rng.uniform(0.3, 0.9), _center(rng)))
        r = rng.uniform(0.5, 3.0)
        cycle.append(_circle_job(r, r * rng.uniform(1.1, 3.0), _center(rng)))
        cycle.append(_circle_job(1.0, 0.2, _center(rng), known=KNOWN_STIFF_OFF))
        cycle.append(_circle_job(1.0, 0.1, _center(rng), known=KNOWN_STIFF_RAISE))
        cycle.append(Job("monodromy", {
            "track": {"kind": "circle", "r": math.sqrt(3.0) / 2.0, "center": _center(rng),
                      "traversals": 2},
            "ell": 1.0, "identity": True}, "identity_circle_trace", (), orc.TRACE_TOL))
        angle = rng.uniform(0.0, 2.0 * math.pi)
        start = _center(rng)
        end = [start[0] + math.cos(angle), start[1] + math.sin(angle)]
        cycle.append(Job("monodromy", {"track": {"kind": "line", "start": start, "end": end},
                                       "ell": 1.0}, "segment_trace", (1.0, 1.0), orc.TRACE_TOL))
        # offsets on a 1/64 grid keep every edge length exactly 1
        dx, dy = rng.randint(-320, 320) / 64.0, rng.randint(-320, 320) / 64.0
        square = [[dx, dy], [dx + 1.0, dy], [dx + 1.0, dy + 1.0], [dx, dy + 1.0]]
        cycle.append(Job("monodromy", {"track": {"kind": "polyline", "vertices": square},
                                       "ell": 0.7}, "square_trace", (1.0, 0.7), orc.TRACE_TOL,
                         KNOWN_SQUARE))
        rho = rng.uniform(0.6, 1.3)
        ell = rho * rng.uniform(0.35, 0.9)
        cycle.append(Job("monodromy", {
            "track": {"kind": "geodesic-circle", "rho": rho, "geometry": "spherical"},
            "ell": ell, "geometry": "spherical"}, "spherical_circle_trace", (rho, ell),
            orc.TRACE_TOL))
        rho = rng.uniform(0.4, 1.2)
        ell = rho * rng.uniform(0.35, 0.9)
        cycle.append(Job("hpz", {
            "track": {"kind": "geodesic-circle", "rho": rho, "geometry": "hyperbolic"},
            "ell": ell, "geometry": "hyperbolic"}, "hyperbolic_circle_trace", (rho, ell),
            orc.TRACE_TOL))
        for ell in ("0.4", "1.2"):
            shape = shapes[order[pick % len(order)]]
            pick += 1
            spec = _rotated_support(shape["spec"], rng.uniform(0.0, 2.0 * math.pi))
            cycle.append(Job("monodromy", {"track": spec, "ell": float(ell)}, "reference",
                             (shape["trace"][ell],), orc.TRACE_TOL))
        yield cycle


def menzin_scan(rng: random.Random, ref: dict) -> Iterator[list[Job]]:
    """One menzin_verify per job: unit circle, three family ellipses, one seeded shape."""
    shapes = ref["menzin_fourier"]
    order = list(range(len(shapes)))
    rng.shuffle(order)
    for pick in itertools.count():
        cycle = [Job("menzin", {"track": {"kind": "circle", "r": 1.0, "center": _center(rng)}},
                     "unit_circle_ell0", (1.0,), orc.ELL0_TOL)]
        for ell_ref in ref["menzin_ellipse"]:
            spec = dict(ell_ref["spec"], angle=rng.uniform(0.0, math.pi))
            cycle.append(Job("menzin", {"track": spec}, "reference", (ell_ref["ell0"],),
                             orc.ELL0_TOL))
        shape = shapes[order[pick % len(order)]]
        spec = _rotated_support(shape["spec"], rng.uniform(0.0, 2.0 * math.pi))
        cycle.append(Job("menzin", {"track": spec}, "reference", (shape["ell0"],), orc.ELL0_TOL))
        yield cycle


def _loop_coeffs(rng: random.Random, scale: float) -> list:
    decay = [scale / n**2 for n in range(1, LOOP_HARMONICS + 1)]
    return [rng.uniform(-scale, scale),
            [rng.uniform(-1.0, 1.0) * d for d in decay],
            [rng.uniform(-1.0, 1.0) * d for d in decay]]


def dense_paths(rng: random.Random, ref: dict) -> Iterator[list[Job]]:
    """Jobs that keep every step: rear tracks, planimeter readings, developments, loops."""
    while True:
        cycle = []
        r = rng.uniform(1.0, 3.0)
        ell = 0.5 * r  # sin(alpha) = k / c = 1/2: alpha0 = pi/6 is the invariant start
        cycle.append(Job("rear-circle", {
            "track": {"kind": "circle", "r": r, "center": _center(rng)},
            "ell": ell, "alpha0": math.pi / 6.0}, "rear_circle_radius", (r, ell), orc.REAR_TOL))
        ell = rng.uniform(0.5, 2.0)
        cycle.append(Job("tractrix", {
            "track": {"kind": "line", "start": [0.0, 0.0], "end": [40.0 * ell, 0.0]},
            "ell": ell, "alpha0": math.pi - 1e-7}, "tractrix_area", (ell,), orc.TRACTRIX_TOL))
        # two centroid readings put p75 inside the slowest third of the cycle
        for placement in ("normal", "centroid", "centroid"):
            a = rng.uniform(1.0, 2.5)
            b = a * rng.uniform(0.4, 0.9)
            spec = {"kind": "ellipse", "a": a, "b": b, "angle": rng.uniform(0.0, math.pi),
                    "center": _center(rng)}
            cycle.append(Job("planimeter", {
                "track": spec, "ell": rng.uniform(5.0, 20.0), "base": rng.uniform(0.0, 6.0),
                "placement": placement}, "ellipse_area", (a, b), orc.PLANIMETER_TOL))
        frozen = orc.FROZEN_CENTROID_RESIDUAL
        cycle.append(Job("planimeter", {
            "track": {"kind": "ellipse", "a": 2.0, "b": 1.0}, "ell": 10.0, "base": 0.0,
            "placement": "centroid"}, "reference", (frozen,),
            orc.FROZEN_ABS_TOL / abs(frozen)))
        k = rng.uniform(1.1, 2.5)
        cycle.append(Job("develop", {"k": k, "length": orc.hyperbolic_circle_length(k)},
                         "hyperbolic_circle_length", (k,), orc.DEVELOP_TOL))
        k = 2.0 / math.sqrt(3.0)
        cycle.append(Job("develop", {"k": k, "length": orc.hyperbolic_circle_length(k),
                                     "star": rng.uniform(0.0, 2.0 * math.pi)},
                         "hyperbolic_circle_length", (k,), orc.STARGAZE_TOL))
        loops = [{"x": _loop_coeffs(rng, 1.0), "y": _loop_coeffs(rng, 1.0),
                  "theta": _loop_coeffs(rng, 0.8), "winding": rng.randint(-1, 2)}
                 for _ in range(10)]
        cycle.append(Job("loop-identity", {"loops": loops, "ell": rng.uniform(0.5, 2.0)},
                         "zero_mismatch", (), orc.LOOP_TOL))
        yield cycle


@dataclass(frozen=True)
class Workload:
    name: str
    cycles: Callable[[random.Random, dict], Iterator[list[Job]]]
    # fixed per workload so that commits are compared at the same percentile:
    # the highest of p50/p75/p90/p95/p99 with >= 10 samples beyond it at the
    # seed commit, or the maximum when no percentile has that many
    tail_percentile: float


WORKLOADS = {w.name: w for w in (
    Workload("monodromy-mix", monodromy_mix, 75.0),
    Workload("menzin-scan", menzin_scan, 100.0),
    Workload("dense-paths", dense_paths, 75.0),
)}


def job_stream(workload: str, seed: int, ref: dict) -> Iterator[list[Job]]:
    """Deterministic cycles for ``workload`` under ``seed``."""
    return WORKLOADS[workload].cycles(random.Random(f"{workload}/{seed}"), ref)
