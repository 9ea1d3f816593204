"""In-memory span tracing of the library's layers, installed from outside.

``install`` wraps the public functions and methods listed in ``TARGETS``
wherever a ``tractrix_lab`` module binds them (``menzin.monodromy``,
``moebius.integrate_steering``, ``tractrix_lab.measure``, ...), so calls
between layers are caught at the name the calling module looks up. Methods
are wrapped on their class. Every call records a span ``[name, start, end,
parent, job, count]``; nothing is written out until the run ends.

A span's self time is its duration minus the durations of its direct
children, so the self times of one job's spans add up to the job's root span.
"""

from __future__ import annotations

import inspect
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

NAME, START, END, PARENT, JOB, COUNT = range(6)
ROOT = "bench.job"
PACKAGE = "tractrix_lab"

EVAL = {"geom.position", "geom.tangent_angle", "geom.curvature"}
PROPAGATORS = {"dynamics.integrate_steering", "dynamics.steering_endpoints",
               "dynamics.monodromy_matrix"}
FITS = {"moebius.from_three_pairs", "dynamics.monodromy_matrix"}
REAR_LENGTH = {"dynamics.integrate_steering", "dynamics.signed_rear_length"}
DEVELOP = {"noneuclid.develop_hyperbolic"}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job, 0])
        self._stack.append(idx)
        self.spans[idx][START] = perf_counter()
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                self.spans[idx][COUNT] = count(args, kwargs, result)
            return result

        return traced


# -- work counters, from call arguments or results ---------------------------


def _points(args, kwargs, result):
    return int(np.size(args[1] if len(args) > 1 else kwargs["t"]))


def _steps(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        track, params = bound.arguments["track"], bound.arguments["params"]
        n = bound.arguments.get("n_steps") or params.steps_per_traversal * track.traversals
        return int(n) * int(np.size(bound.arguments.get("alpha0", 1)))

    return count


def _rod_steps(args, kwargs, result):
    return sum(len(leg.theta) - 1 for leg in result)


def _develop_steps(args, kwargs, result):
    return len(result.t) - 1


# (owner, attribute, span name, counter); owners are modules or classes
TARGETS = [
    ("geom", "FrontTrack.position", "geom.position", _points),
    ("geom", "FrontTrack.tangent_angle", "geom.tangent_angle", _points),
    ("geom", "FrontTrack.curvature", "geom.curvature", _points),
    ("_num", "ArcLengthParam.u_of_t", "geom.arclength", _points),
    ("_num", "panel_quad", "geom.quad", None),
    ("geom", "make_curve", "geom.make_curve", None),
    ("geom", "enclosed_area", "geom.enclosed_area", None),
    ("geom", "area_centroid", "geom.area_centroid", None),
    ("geom", "mean_square_radius", "geom.mean_square_radius", None),
    ("dynamics", "integrate_steering", "dynamics.integrate_steering", "steps"),
    ("dynamics", "steering_endpoints", "dynamics.steering_endpoints", "steps"),
    ("dynamics", "monodromy_matrix", "dynamics.monodromy_matrix", "steps"),
    ("dynamics", "signed_rear_length", "dynamics.signed_rear_length", None),
    ("dynamics", "rear_track", "dynamics.rear_track", None),
    ("dynamics", "area_between_tracks", "dynamics.area_between_tracks", None),
    ("dynamics", "loop_identity", "dynamics.loop_identity", None),
    ("dynamics", "ConfigLoop.from_fourier", "dynamics.config_loop", None),
    ("moebius", "monodromy", "moebius.monodromy", None),
    ("moebius", "from_three_pairs", "moebius.from_three_pairs", None),
    ("menzin", "menzin_verify", "menzin.menzin_verify", None),
    ("menzin", "critical_length", "menzin.critical_length", None),
    ("menzin", "defect_bound", "menzin.defect_bound", None),
    ("menzin", "min_osculating_radius", "menzin.min_osculating_radius", None),
    ("planimeter", "measure", "planimeter.measure", None),
    ("planimeter", "rod_flow", "planimeter.rod_flow", _rod_steps),
    ("noneuclid", "geodesic_circle", "noneuclid.geodesic_circle", None),
    ("noneuclid", "geodesic_area", "noneuclid.geodesic_area", None),
    ("noneuclid", "develop_hyperbolic", "noneuclid.develop_hyperbolic", _develop_steps),
    ("noneuclid", "stargazing_angle", "noneuclid.stargazing_angle", None),
    ("noneuclid", "stargazing_residual", "noneuclid.stargazing_residual", None),
    ("noneuclid", "hpz_verify", "noneuclid.hpz_verify", None),
]


def install(tracer: Tracer) -> list[tuple]:
    """Wrap every target; returns the undo list for :func:`uninstall`."""
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    undo: list[tuple] = []
    for owner, attr, span, counter in TARGETS:
        module = sys.modules[f"{PACKAGE}.{owner}"]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            if isinstance(original, classmethod):
                func = original.__func__
                wrapped = classmethod(tracer.wrap(span, func, _resolve(counter, func)))
            else:
                wrapped = tracer.wrap(span, original, _resolve(counter, original))
            undo.append((cls, meth, original))
            setattr(cls, meth, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = tracer.wrap(span, original, _resolve(counter, original))
        for mod in modules:
            for name, value in list(vars(mod).items()):
                if value is original:
                    undo.append((mod, name, value))
                    setattr(mod, name, wrapped)
    return undo


def _resolve(counter, fn):
    return _steps(fn) if counter == "steps" else counter


def uninstall(undo: list[tuple]) -> None:
    for owner, name, value in reversed(undo):
        setattr(owner, name, value)


# -- analysis ------------------------------------------------------------------


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def job_breakdown(spans: list[list]) -> dict[int, dict[str, float]]:
    """Per job: the root span's duration and the self time of every layer."""
    own = self_times(spans)
    out: dict[int, dict[str, float]] = {}
    for s, t in zip(spans, own):
        row = out.setdefault(s[JOB], {"traced_s": 0.0})
        if s[NAME] == ROOT:
            row["traced_s"] += s[END] - s[START]
        layer = s[NAME].split(".")[0]
        row[layer] = row.get(layer, 0.0) + t
    return out


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and self times over all traced jobs."""
    own = self_times(spans)
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    work: dict[str, int] = defaultdict(int)
    layer_s: dict[str, float] = defaultdict(float)
    fits = lifts = menzin_monodromies = eval_points = 0
    rear_length_s = 0.0
    menzin_jobs = set()
    for s, t in zip(spans, own):
        name = s[NAME]
        parent = spans[s[PARENT]][NAME] if s[PARENT] >= 0 else ""
        calls[name] += 1
        seconds[name] += t
        work[name] += s[COUNT]
        layer_s[name.split(".")[0]] += t
        if parent == "moebius.monodromy":
            fits += name in FITS
            lifts += name == "dynamics.monodromy_matrix"
            if name in REAR_LENGTH:  # rear lengths a scan never reads
                rear_length_s += s[END] - s[START]
        if name.startswith("menzin."):
            menzin_jobs.add(s[JOB])
        if name == "moebius.monodromy" and parent.startswith("menzin."):
            menzin_monodromies += 1
        if name in EVAL and parent not in EVAL:  # points asked for, not re-based lookups
            eval_points += s[COUNT]

    def total(table, names):
        return float(sum(table[n] for n in names))

    steps = total(work, PROPAGATORS)
    return {
        "geom.eval_points": float(eval_points),
        "geom.eval_s": total(seconds, EVAL),
        "geom.arclength_points": total(work, ["geom.arclength"]),
        "geom.arclength_s": total(seconds, ["geom.arclength"]),
        "geom.quad_calls": total(calls, ["geom.quad"]),
        "geom.quad_s": total(seconds, ["geom.quad"]),
        "geom.s": layer_s["geom"],
        "dynamics.calls": total(calls, PROPAGATORS),
        "dynamics.steps": steps,
        "dynamics.s": layer_s["dynamics"],
        "dynamics.ns_per_step": 1e9 * total(seconds, PROPAGATORS) / steps if steps else 0.0,
        "moebius.fits": float(fits),
        "moebius.refinements": float(fits - calls["moebius.monodromy"]),
        "moebius.lift_ratio": lifts / fits if fits else 0.0,
        "moebius.rear_length_s": rear_length_s,
        "moebius.s": layer_s["moebius"],
        "menzin.monodromy_per_job": menzin_monodromies / len(menzin_jobs) if menzin_jobs else 0.0,
        "menzin.s": layer_s["menzin"],
        "planimeter.rod_steps": total(work, ["planimeter.rod_flow"]),
        "planimeter.rod_flow_s": total(seconds, ["planimeter.rod_flow"]),
        "planimeter.s": layer_s["planimeter"],
        "noneuclid.develop_steps": total(work, DEVELOP),
        "noneuclid.develop_s": total(seconds, DEVELOP),
        "noneuclid.s": layer_s["noneuclid"],
        "bench.s": layer_s["bench"],
    }
