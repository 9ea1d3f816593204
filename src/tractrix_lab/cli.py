"""Command-line surface: curve specs in, CSV/JSON reports and SVG figures out.

Exit codes: 0 success, 2 validation failure (bad flags, bad curve, violated
precondition), 3 numerical failure (fit or scan did not converge, no grid
resolves the wheelbase, or a propagated product overflowed double precision).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys

import numpy as np

from . import __version__
from ._io import atomic_write_text, fmt17
from .dynamics import (
    BikeParams,
    ConfigLoop,
    integrate_steering,
    loop_identity,
    random_config_loop,
    rear_track,
    area_between_tracks,
)
from .errors import ResidualError, ValidationError
from .geom import FrontTrack, Geometry, _floats, _numeric, make_curve
from .menzin import menzin_verify
from .moebius import monodromy
from .noneuclid import develop_hyperbolic, stargazing_residual
from .planimeter import error_scan, measure
from .svg import Dots, Polyline, RefCircle, render

MAX_GRID = 2**20  # most integration steps a command may ask for over a whole track


def _emit(text: str, path: str | None) -> None:
    if path:
        atomic_write_text(path, text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _load_json_object(path: str, what: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{what} must be a JSON object")
    return data


def _finite(text: str) -> float:
    """Argparse type of a float flag: a finite number, else a usage error (exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _natural(text: str) -> int:
    """Argparse type of a count or seed: an integer of at least 0, else a usage error (exit 2)."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text!r}")
    return value


def _finite_list(text: str) -> list[float]:
    """Argparse type of a comma list of finite numbers."""
    return [_finite(v) for v in text.split(",")]


def _rod_placement(text: str) -> str | float:
    """Argparse type of ``--placement``: 'normal', 'centroid', or a finite rod angle."""
    return text if text in ("normal", "centroid") else _finite(text)


def _load_curve(path: str, geometry: str | None = None) -> FrontTrack:
    """The track of the curve spec at ``path``, in ``geometry`` when the spec names none."""
    data = _load_json_object(path, "curve spec")
    if geometry:
        data.setdefault("geometry", geometry)
    return make_curve(data)


def _grid(steps: int, traversals: int = 1) -> int:
    """``steps`` per traversal, refused when the whole grid would exceed ``MAX_GRID``."""
    if steps * traversals > MAX_GRID:
        raise ValidationError(f"{steps} steps x {traversals} traversal(s) exceed the "
                              f"{MAX_GRID}-step grid limit")
    return steps


def _params(track: FrontTrack, ell: float, steps: int) -> BikeParams:
    return BikeParams(ell=ell, geometry=track.geometry,
                      steps_per_traversal=_grid(steps, track.traversals))


# -- subcommands -------------------------------------------------------------


def _cmd_trace(args) -> int:
    track = _load_curve(args.input)
    if track.geometry is not Geometry.EUCLIDEAN:
        raise ValidationError("trace reconstructs the planar rear path; "
                              "curved geometries report through monodromy/develop")
    sol = integrate_steering(track, _params(track, args.ell, args.steps), args.alpha0)
    rt = rear_track(sol)
    area = area_between_tracks(sol, rt)
    summary = {
        "final_alpha": sol.final_alpha,
        "signed_rear_length": rt.signed_length,
        "cusps": len(rt.cusp_times),
        "area_between_tracks": area,
        "rear_closed": rt.closed,
    }
    print(json.dumps(summary, indent=2))
    if args.csv:
        lines = ["t,x,y,alpha,cos_alpha"]
        for ti, (x, y), al in zip(sol.t, rt.points, sol.alpha):
            lines.append(",".join(fmt17(v) for v in (ti, x, y, al, math.cos(al))))
        _emit("\n".join(lines) + "\n", args.csv)
    if args.svg:
        _, front = track.sample(2048)
        if len(rt.cusp_times):
            idx = np.clip(np.searchsorted(sol.t, rt.cusp_times), 0, len(sol.t) - 1)
            cusp_pts = rt.points[idx]
        else:
            cusp_pts = np.empty((0, 2))
        doc = render([
            Polyline(front, color="#1f6fb4", label="front"),
            Polyline(rt.points, color="#d0443a", label="rear"),
            Dots(cusp_pts, color="#222222"),
        ], title=f"rear track at ell={args.ell:g}")
        _emit(doc, args.svg)
    return 0


def _cmd_monodromy(args) -> int:
    track = _load_curve(args.input, args.geometry)
    rep = monodromy(track, _params(track, args.ell, args.steps))
    _emit(rep.to_json(indent=2), args.out)
    return 0


def _cmd_planimeter(args) -> int:
    track = _load_curve(args.input)
    if args.ells:
        table = error_scan(track, args.ells, args.bases or [0.0], placement=args.placement,
                           steps_per_traversal=_grid(args.steps, track.traversals))
        _emit(table.to_csv(), args.out)
        return 0
    if args.ell is None:
        raise ValidationError("planimeter needs --ell (single reading) or --ells (scan)")
    reading = measure(track, args.ell, base=args.base, placement=args.placement,
                      steps_per_traversal=_grid(args.steps, track.traversals))
    _emit(json.dumps(dataclasses.asdict(reading), indent=2), args.out)
    return 0


def _cmd_menzin(args) -> int:
    track = _load_curve(args.input)
    rep = menzin_verify(track, tol=args.tol,
                        steps_per_traversal=_grid(args.steps, track.traversals))
    _emit(rep.to_json(indent=2), args.out)
    if args.csv:
        _emit(rep.classification_csv(), args.csv)
    if args.svg:
        _, front = track.sample(2048)
        elements = [Polyline(front, color="#1f6fb4", width=1.4, label="front")]
        if rep.ell0 is not None:
            r = rep.min_osculating_radius
            ells = np.linspace(0.35 * r, 0.98 * rep.ell0, args.nested)
            for i, ell in enumerate(ells):
                mrep = monodromy(track, _params(track, float(ell), args.steps))
                if not mrep.fixed_points:
                    continue
                sol = integrate_steering(track, _params(track, float(ell), args.steps),
                                         mrep.fixed_points[0].angle)
                rt = rear_track(sol)
                elements.append(Polyline(
                    rt.points, color="#d0443a", width=0.7 + 0.5 * i / max(1, len(ells) - 1),
                    label=f"rear ell={ell:.3g}"))
        _emit(render(elements, title="nested rear tracks"), args.svg)
    return 0 if rep.ok else 3


def _cmd_develop(args) -> int:
    if args.input:
        track = _load_curve(args.input)
        curve = develop_hyperbolic(track, n_steps=_grid(args.steps))
    elif args.constant_k is not None:
        if args.length is None:
            raise ValidationError("--constant-k needs --length")
        kk = args.constant_k
        curve = develop_hyperbolic(lambda t: np.full_like(np.asarray(t, float), kk),
                                   args.length, n_steps=_grid(args.steps))
    else:
        raise ValidationError("develop needs --input or --constant-k")
    dist, frame = curve.closure_gap()
    summary = {
        "length": float(curve.t[-1]),
        "closure_distance": dist,
        "frame_gap": frame,
        "frame_defect": curve.frame_defect(),
    }
    if args.star is not None:
        summary["stargazing_residual"] = stargazing_residual(curve, args.star)
    print(json.dumps(summary, indent=2))
    if args.csv:
        _emit(curve.to_csv(), args.csv)
    if args.svg:
        doc = render([
            RefCircle((0.0, 0.0), 1.0),
            Polyline(curve.poincare(), color="#8a63c9", label="development"),
        ], title="Poincare disk")
        _emit(doc, args.svg)
    return 0


def _cmd_loopcheck(args) -> int:
    if args.input:
        data = _load_json_object(args.input, "loop spec")

        def coeffs(key):
            part = data.get(key)
            if not isinstance(part, dict):
                raise ValidationError(f"loop spec needs a {key!r} object of a0/cos/sin coefficients")
            return (_numeric(f"{key}.a0", part.get("a0", 0.0), float),
                    _numeric(f"{key}.cos", part.get("cos", []), _floats),
                    _numeric(f"{key}.sin", part.get("sin", []), _floats))

        winding = _numeric("winding", data.get("winding", 0), int)
        loop = ConfigLoop.from_fourier(coeffs("x"), coeffs("y"), coeffs("theta"),
                                       winding=winding, n=_grid(args.steps))
    else:
        rng = np.random.default_rng(args.seed)
        loop = random_config_loop(rng, n=_grid(args.steps))
    check = loop_identity(loop, args.ell)
    payload = {
        "ell": check.ell,
        "area_front": check.area_front,
        "area_rear": check.area_rear,
        "lambda_integral": check.lambda_integral,
        "dtheta_integral": check.dtheta_integral,
        "lhs": check.lhs,
        "rhs": check.rhs,
        "residual": check.lhs - check.rhs,
        "quadrature_error": check.quadrature_error,
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tractrix-lab",
        description="Bicycle kinematics: rear tracks, monodromy, planimeter, "
                    "critical wheelbase, curved-plane analogues.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, ell_required=True):
        p.add_argument("--input", required=True, help="curve spec JSON path")
        if ell_required:
            p.add_argument("--ell", type=_finite, required=True, help="wheelbase")
        p.add_argument("--steps", type=int, default=4096,
                       help="integration steps per traversal (default 4096)")

    p = sub.add_parser("trace", help="integrate the rear track, emit CSV/SVG")
    common(p)
    p.add_argument("--alpha0", type=_finite, default=0.5 * math.pi,
                   help="initial steering angle (default pi/2)")
    p.add_argument("--csv", help="rear-track CSV output path")
    p.add_argument("--svg", help="figure output path")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("monodromy", help="fit and classify the monodromy")
    common(p)
    p.add_argument("--geometry", choices=[g.value for g in Geometry], default=None,
                   help="geometry of a spec that names none (a planar curve's "
                        "curvature profile is read in it)")
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.set_defaults(func=_cmd_monodromy)

    p = sub.add_parser("planimeter", help="simulate hatchet-planimeter readings")
    p.add_argument("--input", required=True)
    p.add_argument("--ell", type=_finite, help="rod length for a single reading")
    p.add_argument("--base", type=_finite, default=0.0, help="base point arc length")
    p.add_argument("--placement", type=_rod_placement, default="normal",
                   help="'normal', 'centroid', or an absolute rod angle")
    p.add_argument("--ells", type=_finite_list,
                   help="comma list of rod lengths: emit an error-scan CSV")
    p.add_argument("--bases", type=_finite_list, help="comma list of base points for the scan")
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--out", help="output path (default stdout)")
    p.set_defaults(func=_cmd_planimeter)

    p = sub.add_parser("menzin", help="critical wheelbase + area bound report")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=None,
                   help="tolerance on the critical wheelbase ell0 (default 1e-10 * sqrt(area/pi))")
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.add_argument("--csv", help="classification-curve CSV path")
    p.add_argument("--svg", help="nested rear-track figure path")
    p.add_argument("--nested", type=_natural, default=5, help="rear tracks in the figure")
    p.set_defaults(func=_cmd_menzin)

    p = sub.add_parser("develop", help="develop a curvature profile into the hyperbolic plane")
    p.add_argument("--input", help="curve spec JSON (its curvature is developed)")
    p.add_argument("--constant-k", type=_finite, help="constant curvature value")
    p.add_argument("--length", type=_finite, help="development length for --constant-k")
    p.add_argument("--star", type=_finite, help="ideal-point angle: report stargazing residual")
    p.add_argument("--steps", type=int, default=8192)
    p.add_argument("--csv", help="hyperboloid-coordinates CSV path")
    p.add_argument("--svg", help="Poincare-disk figure path")
    p.set_defaults(func=_cmd_develop)

    p = sub.add_parser("loopcheck", help="rod-area identity on a configuration loop")
    p.add_argument("--input", help="loop JSON (x/y/theta Fourier blocks)")
    p.add_argument("--ell", type=_finite, required=True)
    p.add_argument("--seed", type=_natural, default=0, help="seed for a random loop (no --input)")
    p.add_argument("--steps", type=int, default=4096)
    p.add_argument("--out", help="JSON output path (default stdout)")
    p.set_defaults(func=_cmd_loopcheck)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResidualError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
