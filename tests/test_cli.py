"""End-to-end command-line checks, run in-process via ``main``."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tractrix_lab as tl
from tractrix_lab.cli import MAX_GRID, main

from conftest import strict_json

SQRT3 = math.sqrt(3.0)
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def circle_spec(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "circle", "r": 2.0}))
    return str(path)


@pytest.fixture
def unit_circle_spec(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps({"kind": "circle", "r": 1.0}))
    return str(path)


def run(capsys, argv):
    rc = main(argv)
    return rc, capsys.readouterr()


# -- trace -------------------------------------------------------------------


def test_trace_summary_and_files(capsys, tmp_path, unit_circle_spec):
    csv = tmp_path / "trace.csv"
    svg = tmp_path / "trace.svg"
    rc, cap = run(capsys, ["trace", "--input", unit_circle_spec, "--ell", "1",
                           "--steps", "1024", "--csv", str(csv), "--svg", str(svg)])
    assert rc == 0
    summary = strict_json(cap.out)
    assert summary["area_between_tracks"] == pytest.approx(math.pi, rel=1e-6)
    assert summary["rear_closed"] is True
    header, first = csv.read_text().splitlines()[:2]
    assert header == "t,x,y,alpha,cos_alpha"
    assert len(first.split(",")) == 5
    ET.fromstring(svg.read_text())  # well-formed


def test_trace_rejects_curved_geometry(capsys, tmp_path):
    spec = tmp_path / "cap.json"
    spec.write_text(json.dumps(
        {"kind": "geodesic-circle", "rho": 1.0, "geometry": "spherical"}))
    rc, cap = run(capsys, ["trace", "--input", str(spec), "--ell", "0.5"])
    assert rc == 2
    assert "error:" in cap.err


# -- monodromy ---------------------------------------------------------------


def test_monodromy_stdout_trace(capsys, circle_spec):
    rc, cap = run(capsys, ["monodromy", "--input", circle_spec, "--ell", "1",
                           "--steps", "4096"])
    assert rc == 0
    rep = strict_json(cap.out)
    assert rep["class"] == "hyperbolic"
    assert rep["trace"] == pytest.approx(2.0 * math.cosh(math.pi * SQRT3), rel=1e-6)
    assert rep["fixed_angles"][0] == pytest.approx(math.pi / 6.0, abs=1e-6)


def test_monodromy_out_file(capsys, tmp_path, circle_spec):
    out = tmp_path / "rep.json"
    rc, cap = run(capsys, ["monodromy", "--input", circle_spec, "--ell", "1",
                           "--steps", "512", "--out", str(out)])
    assert rc == 0
    assert cap.out == ""
    assert strict_json(out.read_text())["ell"] == 1.0


def test_monodromy_geometry_flag(capsys, tmp_path):
    spec = tmp_path / "cap.json"
    spec.write_text(json.dumps(
        {"kind": "geodesic-circle", "rho": math.pi / 3.0, "geometry": "spherical"}))
    rc, cap = run(capsys, ["monodromy", "--input", str(spec), "--ell", "0.5",
                           "--geometry", "spherical", "--steps", "1024"])
    assert rc == 0
    assert strict_json(cap.out)["geometry"] == "spherical"


def test_monodromy_requires_ell(capsys, circle_spec):
    with pytest.raises(SystemExit) as exc:
        main(["monodromy", "--input", circle_spec])
    assert exc.value.code == 2


# -- planimeter --------------------------------------------------------------


def test_planimeter_single_reading(capsys, unit_circle_spec):
    rc, cap = run(capsys, ["planimeter", "--input", unit_circle_spec,
                           "--ell", "8", "--placement", "centroid", "--steps", "1024"])
    assert rc == 0
    reading = strict_json(cap.out)
    assert reading["exact_area"] == pytest.approx(math.pi, rel=1e-9)
    assert reading["estimate"] == pytest.approx(math.pi, rel=1e-2)
    assert reading["closure_defect"] == pytest.approx(0.0, abs=1e-8)


def test_planimeter_far_base_reads_its_first_pass_base(capsys, tmp_path):
    # a base of 1e300 is 1e300 mod the perimeter, not a reading of 0
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    track = tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})
    rc, cap = run(capsys, ["planimeter", "--input", str(path), "--ell", "10", "--base", "1e300"])
    assert rc == 0
    reading = strict_json(cap.out)
    near = tl.measure(track, ell=10.0, base=1e300 % track.period)
    assert reading["base_param"] == 1e300
    assert reading["estimate"] == near.estimate and reading["deflection"] == near.deflection
    assert reading["base_point"] == list(near.base_point)


def test_planimeter_scan_csv(capsys, unit_circle_spec):
    rc, cap = run(capsys, ["planimeter", "--input", unit_circle_spec,
                           "--ells", "5,10", "--bases", "0,2", "--steps", "512"])
    assert rc == 0
    lines = cap.out.strip().splitlines()
    assert lines[0].startswith("ell,base_param,placement")
    assert len(lines) == 1 + 2 * 3  # 2 ells x (2 bases + centroid row)


def test_planimeter_coarse_rod_grid_exits_3(capsys, tmp_path):
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    rc, cap = run(capsys, ["planimeter", "--input", str(path), "--ell", "0.05", "--steps", "64"])
    assert rc == 3
    assert cap.err.startswith("error:") and cap.out == ""


@pytest.mark.parametrize("steps", ["0", "-5"])
@pytest.mark.parametrize("ell", [["--ell", "3"], ["--ells", "3,5"]], ids=["ell", "ells"])
def test_planimeter_fewer_than_two_steps_exit_2(capsys, tmp_path, ell, steps):
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    rc, cap = run(capsys, ["planimeter", "--input", str(path), *ell, f"--steps={steps}"])
    assert rc == 2 and cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_planimeter_unresolved_turning_exits_3(capsys, tmp_path):
    # 64 steps of the 1x0.02 ellipse turn h max |k sigma| = 4.91 > 2 at its tips,
    # in the eccentric anomaly the reading is stepped in
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 1.0, "b": 0.02}))
    rc, cap = run(capsys, ["planimeter", "--input", str(path), "--ell", "1", "--steps", "64"])
    assert rc == 3 and cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_planimeter_needs_some_ell(capsys, unit_circle_spec):
    rc, cap = run(capsys, ["planimeter", "--input", unit_circle_spec])
    assert rc == 2
    assert "error:" in cap.err


# -- menzin ------------------------------------------------------------------


def test_menzin_unit_circle(capsys, tmp_path, unit_circle_spec):
    csv = tmp_path / "classes.csv"
    rc, cap = run(capsys, ["menzin", "--input", unit_circle_spec,
                           "--steps", "1024", "--tol", "1e-4", "--csv", str(csv)])
    assert rc == 0
    rep = strict_json(cap.out)
    assert rep["ok"] is True
    assert rep["ell0"] == pytest.approx(1.0, abs=1e-3)
    assert csv.read_text().splitlines()[0] == "ell,trace,class"


def test_menzin_strongly_hyperbolic_rows_exit_0(capsys, tmp_path):
    # the 12x1 ellipse's smallest ladder row has trace ~1e253; the scan reads
    # only its trace and class, so its multipliers never need to exist
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 12.0, "b": 1.0}))
    rc, cap = run(capsys, ["menzin", "--input", str(path), "--steps", "512"])
    assert rc == 0
    rep = strict_json(cap.out)
    assert rep["ok"] is True
    # the converged transition (16384 steps: 4.53518963543); 512 steps in the
    # eccentric-anomaly chart read it to 2.6e-7
    assert rep["ell0"] == pytest.approx(4.5351896354, rel=1e-6)


def test_menzin_reports_past_an_overflowing_row(capsys, tmp_path):
    # the 15x1 ellipse's row at half the osculating radius overflows: the scan
    # reports it instead of refusing, and a lone monodromy there exits 3
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 15.0, "b": 1.0}))
    rc, cap = run(capsys, ["menzin", "--input", str(path), "--steps", "512"])
    rep = strict_json(cap.out)
    assert rc == 0 and rep["ok"] is True
    assert rep["ell0"] == pytest.approx(5.3135034676, rel=2e-7)  # converged, 16384 steps
    assert rep["checks"][0] == {"name": "hyperbolic_below_osculating_radius",
                                "ell": 0.5 / 15.0, "passed": True,
                                "detail": "trace exceeds double range"}
    rc, cap = run(capsys, ["monodromy", "--input", str(path), "--steps", "512",
                           "--ell", repr(0.5 / 15.0)])
    assert rc == 3
    assert cap.err.startswith("error:") and cap.out == ""


# -- develop -----------------------------------------------------------------


def test_develop_constant_curvature_closes(capsys, tmp_path):
    csv = tmp_path / "dev.csv"
    svg = tmp_path / "dev.svg"
    k = 2.0 / SQRT3
    rc, cap = run(capsys, ["develop", "--constant-k", str(k),
                           "--length", str(2.0 * math.pi * SQRT3),
                           "--csv", str(csv), "--svg", str(svg)])
    assert rc == 0
    summary = strict_json(cap.out)
    assert summary["closure_distance"] < 1e-9
    assert csv.read_text().splitlines()[0] == "t,x0,x1,x2"
    ET.fromstring(svg.read_text())


def test_develop_star_residual(capsys):
    rc, cap = run(capsys, ["develop", "--constant-k", "1.2", "--length", "6",
                           "--star", "0.7"])
    assert rc == 0
    summary = strict_json(cap.out)
    assert summary["stargazing_residual"] < 1e-10  # 4.9e-12 by the seven-point stencil


def test_develop_star_needs_six_steps(capsys):
    rc, cap = run(capsys, ["develop", "--constant-k", "1.2", "--length", "2", "--steps", "5",
                           "--star", "0.7"])
    assert rc == 2
    assert cap.err.startswith("error:") and "at least 6 steps" in cap.err and cap.out == ""


def test_develop_coarse_curved_grid_exits_3(capsys):
    # h = 2 resolves c = 1 but not k = 1.5: the development would end far off
    rc, cap = run(capsys, ["develop", "--constant-k", "1.5", "--length", "20", "--steps", "10"])
    assert rc == 3
    assert cap.err.startswith("error:") and "do not resolve" in cap.err and cap.out == ""


def test_develop_beyond_double_range_exits_3(capsys):
    rc, cap = run(capsys, ["develop", "--constant-k", "0", "--length", "800"])
    assert rc == 3
    assert cap.err.startswith("error:") and cap.out == ""


@pytest.mark.parametrize("argv", [
    ["--constant-k", "0", "--length", "300"],
    ["--constant-k", "0", "--length", "60", "--star", "0.7"],
    ["--constant-k", "0.5", "--length", "420"],
    ["--constant-k", "0.5", "--length", "300", "--star", "0.7"],
    ["--constant-k", "0", "--length", "30", "--star", "0.7"],
], ids=["geodesic-300", "geodesic-60-star", "hypercycle-420", "hypercycle-300-star",
        "geodesic-30-star"])
def test_long_development_output_is_strict_json(capsys, argv):
    # a long development is either refused with exit 3 or reported with finite numbers
    rc, cap = run(capsys, ["develop", *argv])
    if rc == 3:
        assert cap.err.startswith("error:") and cap.out == ""
        return
    assert rc == 0

    summary = strict_json(cap.out)
    assert all(math.isfinite(v) for v in summary.values())


def test_develop_unresolved_grid_exits_3(capsys, tmp_path):
    # 4 steps along the 2x1 ellipse are 2.4 long, past the engine's resolved step of 2
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    rc, cap = run(capsys, ["develop", "--input", str(path), "--steps", "4"])
    assert rc == 3
    assert cap.err.startswith("error:") and cap.out == ""


def test_develop_needs_a_source(capsys):
    rc, cap = run(capsys, ["develop", "--length", "5"])
    assert rc == 2


# -- loopcheck ---------------------------------------------------------------


def test_loopcheck_random_seed(capsys):
    rc, cap = run(capsys, ["loopcheck", "--seed", "3", "--ell", "1.5"])
    assert rc == 0
    out = strict_json(cap.out)
    assert abs(out["residual"]) < 1e-6 * max(1.0, abs(out["area_front"]))
    assert list(out)[-2:] == ["residual", "quadrature_error"] and 0.0 < out["quadrature_error"] < 1e-12
    winding = out["dtheta_integral"] / (2.0 * math.pi)
    assert winding == pytest.approx(round(winding), abs=1e-9) and round(winding) != 0


def test_loopcheck_reports_its_error_bar_on_a_coarse_grid(capsys):
    # two steps miss the identity by about 1.1; the bar says so
    rc, cap = run(capsys, ["loopcheck", "--ell", "1", "--steps", "2"])
    assert rc == 0
    out = strict_json(cap.out)
    assert abs(out["residual"]) > 0.5 and out["quadrature_error"] > abs(out["residual"])


def test_loopcheck_from_file(capsys, tmp_path):
    loop = {
        "x": {"a0": 0.0, "cos": [0.0, 1.0], "sin": [0.0, 0.0]},
        "y": {"a0": 0.0, "cos": [0.0, 0.0], "sin": [0.0, 1.0]},
        "theta": {"a0": 0.0, "cos": [0.0, 0.3], "sin": [0.0, 0.0]},
        "winding": 1,
    }
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    rc, cap = run(capsys, ["loopcheck", "--input", str(path), "--ell", "2"])
    assert rc == 0
    assert abs(strict_json(cap.out)["residual"]) < 1e-6


# -- error handling and plumbing ---------------------------------------------


def test_unknown_kind_exits_2(capsys, tmp_path):
    spec = tmp_path / "bad.json"
    spec.write_text(json.dumps({"kind": "superellipse", "r": 1.0}))
    rc, cap = run(capsys, ["monodromy", "--input", str(spec), "--ell", "1"])
    assert rc == 2
    assert "error:" in cap.err


def test_malformed_json_exits_2(capsys, tmp_path):
    spec = tmp_path / "broken.json"
    spec.write_text("{not json")
    rc, cap = run(capsys, ["monodromy", "--input", str(spec), "--ell", "1"])
    assert rc == 2


@pytest.mark.parametrize("command", [["monodromy", "--ell", "1"], ["menzin"]])
@pytest.mark.parametrize("field", [{"r": "x"}, {"center": ["x", 0]}])
def test_non_numeric_field_exits_2(capsys, tmp_path, command, field):
    spec = tmp_path / "text.json"
    spec.write_text(json.dumps({"kind": "circle", "r": 1.0, **field}))
    rc, cap = run(capsys, [command[0], "--input", str(spec), *command[1:]])
    assert rc == 2
    assert "must be numeric" in cap.err


@pytest.mark.parametrize("argv, spec", [
    (["monodromy", "--ell", "0.5"], {"kind": "geodesic-circle", "rho": "x", "geometry": "spherical"}),
    (["monodromy", "--ell", "0.5"], {"kind": "geodesic-circle", "geometry": "spherical"}),
    (["loopcheck", "--ell", "1"], {"x": [0.0]}),
    (["monodromy", "--ell", "1"], {"kind": "circle", "r": 1e308}),
    (["monodromy", "--ell", "1"], {"kind": "polyline", "vertices": [[0, 0], [1, 0], [1]]}),
    (["monodromy", "--ell", "1"], {"kind": "samples", "points": [[0, 0], [math.inf, 0], [1, 1], [0, 0]]}),
    (["monodromy", "--ell", "1"], {"kind": "circle", "r": 1.0, "traversals": 10**330}),
    (["monodromy", "--ell", "1"], {"kind": "geodesic-circle", "rho": 1.0, "traversals": 0}),
    (["monodromy", "--ell", "1"], {"kind": "geodesic-circle", "rho": 1.0, "traversals": -1}),
    (["monodromy", "--ell", "1"], {"kind": "geodesic-circle", "rho": 1.0, "traversals": 1.5}),
    (["monodromy", "--ell", "1"], {"kind": "geodesic-circle", "rho": 1.0, "r": 1.0}),
    (["monodromy", "--ell", "1"], {"kind": "geodesic-circle", "rho": 1.0, "center": [0, 0]}),
    (["monodromy", "--ell", "1"], {"kind": "circle", "r": 1.0, "geometry": "flat"}),
    # the area of both passes against one pass's ell0 read as a counterexample (exit 3)
    (["menzin", "--steps", "512"], {"kind": "ellipse", "a": 2, "b": 1, "traversals": 2}),
], ids=["rho-not-numeric", "rho-missing", "loop-block-not-object", "length-overflows",
        "vertex-not-a-pair", "point-not-finite", "traversals-past-double-range",
        "geodesic-traversals-0", "geodesic-traversals-negative", "geodesic-traversals-fraction",
        "geodesic-with-r", "geodesic-with-center", "unknown-geometry", "menzin-two-passes"])
def test_malformed_spec_exits_2(capsys, tmp_path, argv, spec):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    rc, cap = run(capsys, [argv[0], "--input", str(path), *argv[1:]])
    assert rc == 2
    assert cap.err.startswith("error:")


@pytest.mark.parametrize("command", [["monodromy", "--ell", "1"], ["trace", "--ell", "1"],
                                     ["menzin"]], ids=["monodromy", "trace", "menzin"])
@pytest.mark.parametrize("spec", [
    {"kind": "circle", "r": 1e155},
    {"kind": "line", "start": [0, 0], "end": [1e308, -1e308]},
    {"kind": "circle", "r": 1e300, "traversals": 3},
    {"kind": "polyline", "vertices": [[0, 0], [1e308, 0], [0, 1e308]]},
    {"kind": "samples", "closed": True, "points": [[0, 0], [1e308, 0], [0, 1e308]]},
], ids=["circle-1e155", "line-1e308", "circle-1e300-thrice", "polyline-1e308", "samples-1e308"])
def test_huge_spec_is_refused_without_warnings(tmp_path, command, spec):
    # run in a fresh interpreter: numpy's overflow warnings go to its stderr
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(spec))
    proc = subprocess.run(
        [sys.executable, "-m", "tractrix_lab.cli", command[0], "--input", str(path), *command[1:]],
        env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True)
    assert proc.returncode in (2, 3)
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["monodromy", "trace"])
@pytest.mark.parametrize("r", [2e153, 1e-300], ids=["circle-2e153", "circle-1e-300"])
def test_overflowing_lift_is_refused_without_warnings(capsys, tmp_path, command, r):
    # the track passes the size check, but its lift leaves double range at this wheelbase
    path = tmp_path / "circle.json"
    path.write_text(json.dumps({"kind": "circle", "r": r}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, cap = run(capsys, [command, "--input", str(path), "--ell", "1"])
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", ["monodromy", "trace"])
def test_tiny_wheelbase_on_a_smooth_track_is_refused_without_warnings(capsys, tmp_path, command):
    # c = 1e300: no grid resolves the wheelbase
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, cap = run(capsys, [command, "--input", str(path), "--ell", "1e-300"])
    assert rc == 3
    assert [str(w.message) for w in caught] == []
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("command", [["monodromy", "--ell", "1"], ["trace", "--ell", "1"],
                                     ["menzin"]], ids=["monodromy", "trace", "menzin"])
@pytest.mark.parametrize("rho", [800.0, 1e6])
def test_huge_hyperbolic_radius_exits_2(capsys, tmp_path, command, rho):
    # sinh(rho) leaves double range near rho = 710; the circumference 2 pi sinh(rho)
    # passes the track-length limit already near rho = 354
    path = tmp_path / "geo.json"
    path.write_text(json.dumps({"kind": "geodesic-circle", "rho": rho, "geometry": "hyperbolic"}))
    rc, cap = run(capsys, [command[0], "--input", str(path), *command[1:]])
    assert rc == 2
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")


def test_develop_zero_steps_exits_2(capsys):
    rc, cap = run(capsys, ["develop", "--constant-k", "1.2", "--length", "6", "--steps", "0"])
    assert rc == 2
    assert cap.err.startswith("error:")


@pytest.mark.parametrize("argv, spec", [
    (["monodromy", "--ell", "0.5"], {"kind": "circle", "r": 1, "traversals": 1000000}),
    (["menzin"], {"kind": "circle", "r": 1, "traversals": 1000}),
    (["trace", "--ell", "0.5", "--steps", str(MAX_GRID + 1)], {"kind": "circle", "r": 1}),
    (["monodromy", "--ell", "0.5", "--steps", str(MAX_GRID // 2 + 1)],
     {"kind": "circle", "r": 1, "traversals": 2}),
    (["planimeter", "--ell", "2", "--steps", str(MAX_GRID + 1)], {"kind": "circle", "r": 1}),
    (["develop", "--steps", str(MAX_GRID + 1)], {"kind": "circle", "r": 1}),
    (["loopcheck", "--ell", "1", "--steps", str(MAX_GRID + 1)], None),
], ids=["monodromy-traversals", "menzin-traversals", "trace-steps", "monodromy-steps-x2",
        "planimeter-steps", "develop-steps", "loopcheck-steps"])
def test_oversized_grid_exits_2(capsys, tmp_path, argv, spec):
    # refused before any grid is allocated
    if spec is not None:
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        argv = [argv[0], "--input", str(path), *argv[1:]]
    rc, cap = run(capsys, argv)
    assert rc == 2
    assert cap.err.startswith("error:") and "grid limit" in cap.err


@pytest.mark.parametrize("spec", [
    {"a0": 1e200},
    {"a0": 1.3407807929942597e154},  # one ulp past sqrt(max double)
    {"a0": 1.0, "cos": [1e200]},
    {"a0": 1.0, "sin": [0.0, -1e300]},
], ids=["a0", "a0-just-past", "cos", "sin"])
def test_fourier_support_past_pairable_exits_2(capsys, tmp_path, spec):
    path = tmp_path / "support.json"
    path.write_text(json.dumps({"kind": "fourier-support", **spec}))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, cap = run(capsys, ["monodromy", "--input", str(path), "--ell", "1"])
    assert rc == 2
    assert [str(w.message) for w in caught] == []
    assert cap.err.startswith("error:") and "exceed" in cap.err and cap.out == ""


@pytest.mark.parametrize("tol", ["0", "-1e-9", "nan", "inf"])
def test_menzin_bad_tolerance_exits_2(capsys, unit_circle_spec, tol):
    rc, cap = run(capsys, ["menzin", "--input", unit_circle_spec, f"--tol={tol}"])
    assert rc == 2
    assert cap.err.startswith("error:")


_NUMBERS = st.one_of(st.integers(-10**6, 10**6), st.floats(allow_nan=True, allow_infinity=True))
_JSON = st.recursive(
    st.none() | st.booleans() | _NUMBERS | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=4),
    max_leaves=10)
_POINT = st.lists(_NUMBERS, min_size=2, max_size=2)
_SPEC = st.fixed_dictionaries(
    {"kind": st.sampled_from(["circle", "ellipse", "fourier-support", "polyline", "samples",
                              "line", "geodesic-circle"])},
    optional={"r": _NUMBERS, "a": _NUMBERS, "b": _NUMBERS, "a0": _NUMBERS, "rho": _NUMBERS,
              "angle": _NUMBERS, "fillet_radius": _NUMBERS, "center": _POINT, "start": _POINT,
              "end": _POINT, "cos": st.lists(_NUMBERS, max_size=4),
              "sin": st.lists(_NUMBERS, max_size=4), "vertices": st.lists(_POINT, max_size=5),
              "points": st.lists(_POINT, max_size=6), "closed": _JSON,
              "traversals": st.integers(-2, 10**7), "orientation": st.integers(-2, 2),
              "geometry": st.sampled_from(["euclidean", "spherical", "hyperbolic"]) | _JSON})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(command=st.sampled_from([["monodromy", "--ell", "0.5"], ["trace", "--ell", "0.5"],
                                ["menzin"]]),
       spec=_SPEC | _JSON)
def test_any_input_json_exits_cleanly(command, spec):
    # whatever JSON --input holds, the run succeeds or is refused with 2 or 3;
    # an uncaught exception (a traceback) fails the test
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            rc = main([command[0], "--input", str(path), *command[1:], "--steps", "64"])
    assert rc in (0, 2, 3)


@pytest.mark.parametrize("argv", [
    ["planimeter", "--ells", "5,x"],
    ["planimeter", "--ell", "inf"],
    ["planimeter", "--ells", "5,nan"],
    ["planimeter", "--ell", "3", "--bases", "0,inf"],
    ["planimeter", "--ell", "3", "--placement", "nan"],
    ["planimeter", "--ell", "3", "--base", "inf"],
    ["monodromy", "--ell", "inf"],
    ["trace", "--ell", "1", "--alpha0", "nan"],
    ["loopcheck", "--ell", "inf"],
    ["develop", "--constant-k", "inf", "--length", "5"],
    ["develop", "--constant-k", "1", "--length", "nan"],
    ["develop", "--constant-k", "1", "--length", "5", "--star", "inf"],
    ["menzin", "--nested", "-1"],
    ["loopcheck", "--ell", "1", "--seed", "-1"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_non_finite_flag_exits_2(capsys, unit_circle_spec, argv):
    # a negative --nested or --seed is refused like a non-finite float
    if argv[0] in ("planimeter", "monodromy", "trace", "menzin"):
        argv = [argv[0], "--input", unit_circle_spec, *argv[1:]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    cap = capsys.readouterr()
    assert cap.out == "" and "error: argument" in cap.err


@pytest.mark.parametrize("coefficient, code", [(1e308, 3), (math.inf, 2)],
                         ids=["overflows", "infinite"])
def test_loop_spec_numbers_are_checked(capsys, tmp_path, coefficient, code):
    loop = {"x": {"cos": [coefficient, 1.0]}, "y": {"sin": [0.0, 1.0]}, "theta": {}, "winding": 1}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc, cap = run(capsys, ["loopcheck", "--input", str(path), "--ell", "1"])
    assert rc == code
    assert [str(w.message) for w in caught] == []
    assert cap.err.startswith("error:") and cap.out == ""


@pytest.mark.parametrize("steps", ["0", "-5"])
def test_loopcheck_needs_a_step(capsys, steps):
    rc, cap = run(capsys, ["loopcheck", "--ell", "1", "--steps", steps])
    assert rc == 2
    assert cap.err.startswith("error:") and cap.out == ""


def test_loop_spec_blocks_of_unequal_length(capsys, tmp_path):
    # a block's cos and sin lists need not be equally long
    loop = {"x": {"cos": [0.0, 1.0]}, "y": {"sin": [0.0, 1.0]}, "theta": {"cos": [0.0, 0.3]},
            "winding": 1}
    path = tmp_path / "loop.json"
    path.write_text(json.dumps(loop))
    rc, cap = run(capsys, ["loopcheck", "--input", str(path), "--ell", "2"])
    assert rc == 0
    assert abs(strict_json(cap.out)["residual"]) < 1e-6


def test_geodesic_circle_spec_fields(capsys, tmp_path):
    from tractrix_lab.cli import _load_curve

    spec = {"kind": "geodesic-circle", "rho": 1.0, "geometry": "hyperbolic"}
    path = tmp_path / "geo.json"
    path.write_text(json.dumps({**spec, "orientation": -1}))
    reversed_track = _load_curve(str(path))
    assert reversed_track.curvature(0.5) == pytest.approx(-1.0 / math.tanh(1.0), rel=1e-15)
    for extra in ({"bogus": 3}, {"orientation": 2}, {"orientation": "x"}):
        path.write_text(json.dumps({**spec, **extra}))
        rc, cap = run(capsys, ["monodromy", "--input", str(path), "--ell", "0.5"])
        assert rc == 2
        assert cap.err.startswith("error:") and cap.out == ""


@pytest.mark.parametrize("spec, flag, geometry", [
    ({"kind": "geodesic-circle", "rho": 0.8, "geometry": "hyperbolic"}, "spherical", "hyperbolic"),
    ({"kind": "geodesic-circle", "rho": 0.8}, "hyperbolic", "hyperbolic"),
    ({"kind": "geodesic-circle", "rho": 0.8}, None, "spherical"),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0, "geometry": "hyperbolic"}, "spherical", "hyperbolic"),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, "spherical", "spherical"),
    ({"kind": "ellipse", "a": 2.0, "b": 1.0}, "euclidean", "euclidean"),
], ids=["geodesic-own-wins", "geodesic-flag-fills-in", "geodesic-default", "planar-own-wins",
        "planar-flag-fills-in", "planar-euclidean-flag"])
def test_geometry_flag_fills_in_a_missing_geometry(tmp_path, spec, flag, geometry):
    from tractrix_lab import Geometry, make_curve
    from tractrix_lab.cli import _load_curve

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    track = _load_curve(str(path), flag)
    assert track.geometry is Geometry(geometry)
    # a planar curve keeps its plane track, read in the geometry
    built = make_curve({**spec, "geometry": geometry})
    t = [0.0, 0.4, 2.5, 7.0]
    assert track.position(t).tolist() == built.position(t).tolist()
    assert track.curvature(t).tolist() == built.curvature(t).tolist()
    if spec["kind"] == "ellipse":
        plane = make_curve({k: v for k, v in spec.items() if k != "geometry"})
        assert track.curvature(t).tolist() == plane.curvature(t).tolist()
        assert (track.chart is None) == (plane.chart is None)


_FLAG = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.integers(-10**6, 10**6).map(str), st.text(max_size=6))
_BLOCK = st.fixed_dictionaries({}, optional={"a0": _NUMBERS, "cos": st.lists(_NUMBERS, max_size=3),
                                             "sin": st.lists(_NUMBERS, max_size=3)})
_LOOP = st.fixed_dictionaries({"x": _BLOCK, "y": _BLOCK, "theta": _BLOCK},
                              optional={"winding": _NUMBERS | _JSON})


@settings(max_examples=100, deadline=None, derandomize=True)
@given(flags=st.sampled_from([("monodromy", "--ell"), ("trace", "--alpha0"),
                              ("planimeter", "--ell"), ("planimeter", "--base"),
                              ("planimeter", "--placement"), ("planimeter", "--ells"),
                              ("planimeter", "--bases"), ("develop", "--constant-k"),
                              ("develop", "--length"), ("develop", "--star"),
                              ("loopcheck", "--ell")]),
       values=st.lists(_FLAG, min_size=1, max_size=2), loop=_LOOP | _JSON)
def test_any_numeric_flag_or_loop_spec_exits_cleanly(flags, values, loop):
    # every numeric flag, and loopcheck's --input, either runs with strict JSON
    # out or is refused with 2 or 3; a traceback fails the test
    command, flag = flags
    value = ",".join(values) if flag in ("--ells", "--bases") else values[0]
    argv = {
        "monodromy": ["--ell=0.5"], "trace": ["--ell=0.5"], "planimeter": ["--ell=2"],
        "develop": ["--constant-k=1", "--length=2"], "loopcheck": ["--ell=1"],
    }[command] + [f"{flag}={value}", "--steps", "64"]
    with tempfile.TemporaryDirectory() as tmp:
        spec = Path(tmp) / "spec.json"
        if command == "loopcheck":
            spec.write_text(json.dumps(loop))
        else:
            spec.write_text(json.dumps({"kind": "circle", "r": 1.0}))
        if command != "develop":
            argv += ["--input", str(spec)]
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = main([command, *argv])
            except SystemExit as exc:
                rc = exc.code
    assert rc in (0, 2, 3)
    if rc == 0 and flag != "--ells":  # a scan writes CSV
        strict_json(out.getvalue())


def test_monodromy_stiff_circle_exits_0(capsys, unit_circle_spec):
    rc, cap = run(capsys, ["monodromy", "--input", unit_circle_spec, "--ell", "0.1"])
    assert rc == 0
    assert strict_json(cap.out)["trace"] == pytest.approx(
        2.0 * math.cosh(math.pi * math.sqrt(99.0)), rel=1e-6)


@pytest.mark.parametrize("ell, steps", [("0.005", "4096"), ("0.001", "4096"), ("0.003", "64")],
                         ids=["multipliers", "product", "coarse-grid"])
def test_overflow_is_refused_with_exit_3(capsys, unit_circle_spec, ell, steps):
    # trace ~ exp(pi / ell): at 0.005 the multipliers leave double range,
    # at 0.001 the lift product itself does; at 0.003 with 64 steps
    # (h * c ~ 33) the grid is refined until the product overflows
    rc, cap = run(capsys, ["monodromy", "--input", unit_circle_spec, "--ell", ell,
                           "--steps", steps])
    assert rc == 3
    assert "error:" in cap.err and cap.out == ""


@pytest.mark.parametrize("command", ["monodromy", "trace"])
def test_unresolved_stiff_grid_exits_3(capsys, tmp_path, command):
    # h * c is about 61 on 16 steps of the 2x1 ellipse at ell 0.01: the
    # monodromy is refined to resolved grids, whose multipliers leave double
    # range as at 4096 steps; a dense history is refused on the grid it got
    path = tmp_path / "ellipse.json"
    path.write_text(json.dumps({"kind": "ellipse", "a": 2.0, "b": 1.0}))
    rc, cap = run(capsys, [command, "--input", str(path), "--ell", "0.01", "--steps", "16"])
    assert rc == 3
    assert "error:" in cap.err and cap.out == ""


def test_deterministic_output(capsys, circle_spec):
    argv = ["monodromy", "--input", circle_spec, "--ell", "1", "--steps", "512"]
    _, cap1 = run(capsys, argv)
    _, cap2 = run(capsys, argv)
    assert cap1.out == cap2.out


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
