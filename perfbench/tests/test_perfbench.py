"""Tests of the benchmark itself: input generation, oracles, span arithmetic.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import calibration  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _inputs(workload, seed, n_cycles=3):
    stream = workloads.job_stream(workload, seed, workloads.load_reference())
    return [dataclasses.asdict(job) for cycle in itertools.islice(stream, n_cycles) for job in cycle]


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_cycles_keep_the_kind_mix(workload):
    stream = workloads.job_stream(workload, 3, workloads.load_reference())
    first, second = next(stream), next(stream)
    assert [j.kind for j in first] == [j.kind for j in second]
    assert [j.oracle for j in first] == [j.oracle for j in second]


def test_monodromy_mix_never_repeats_a_track():
    tracks = [str(r["inputs"]["track"]) for r in _inputs("monodromy-mix", 11, n_cycles=8)]
    assert len(tracks) == len(set(tracks))


def test_oracles_match_acceptance_values():
    # tests/test_acceptance.py criteria 02 and 13
    assert oracles.segment_trace(1.0, 1.0) == 2.0 * math.cosh(0.5)
    assert oracles.circle_trace(2.0, 1.0) == pytest.approx(2.0 * math.cosh(math.pi * math.sqrt(3.0)),
                                                           rel=1e-15)
    assert oracles.rear_circle_radius(2.0, 1.0) == pytest.approx(math.sqrt(3.0), rel=1e-15)
    assert oracles.tractrix_area(1.0) == 0.5 * math.pi
    assert oracles.hyperbolic_circle_length(2.0 / math.sqrt(3.0)) == pytest.approx(
        2.0 * math.pi * math.sqrt(3.0), rel=1e-14)


def test_oracle_limits_agree():
    # the exact-corner square at ell = 0.7 is the ROADMAP's 0.5451
    assert oracles.square_trace(1.0, 0.7) == pytest.approx(0.5451, abs=1e-4)
    # both constant-curvature branches meet at the parabolic trace 2
    assert oracles.circle_trace(1.0, 1.0 - 1e-12) == pytest.approx(2.0, abs=1e-5)
    assert oracles.circle_trace(1.0, 1.0 + 1e-12) == pytest.approx(2.0, abs=1e-5)
    # small geodesic circles approach the euclidean one
    r, ell = 1e-3, 0.5e-3
    assert oracles.spherical_circle_trace(r, ell) == pytest.approx(oracles.circle_trace(r, ell), rel=1e-5)
    assert oracles.hyperbolic_circle_trace(r, ell) == pytest.approx(oracles.circle_trace(r, ell), rel=1e-5)


def test_known_defects_hold_to_their_signature():
    square = workloads.KNOWN_SQUARE
    assert square.matches(0.0782, None)
    assert not square.matches(1e-2, None)
    assert not square.matches(math.inf, ("ValidationError", "moebius.py", "from_matrix"))
    stiff = workloads.KNOWN_STIFF_RAISE
    assert stiff.matches(math.inf, ("ValidationError", "moebius.py", "from_matrix"))
    assert not stiff.matches(math.inf, ("ValueError", "dynamics.py", "integrate_steering"))
    assert not stiff.matches(7.6e-5, None)


def test_known_defect_outcomes():
    import worker

    jobs = [job for job in next(workloads.job_stream("monodromy-mix", 1, workloads.load_reference()))
            if job.known_defect is not None]
    assert [j.known_defect for j in jobs] == [workloads.KNOWN_STIFF_OFF, workloads.KNOWN_STIFF_RAISE,
                                             workloads.KNOWN_SQUARE]
    for job in jobs:  # the seed failures, each inside its signature
        record = worker.run_job(job, 0)
        assert not record["ok"] and record["known_defect"] == job.known_defect.cause
    # the same failure held to another signature is an unexpected one
    moved = dataclasses.replace(jobs[0], known_defect=dataclasses.replace(
        workloads.KNOWN_STIFF_OFF, error_band=(1e-3, 1e-2)))
    record = worker.run_job(moved, 0)
    assert not record["ok"] and not record["known_defect"]
    assert "outside the known defect's signature" in record["problems"][-1]


def test_sampler_takes_the_samples_inside_an_interval():
    sampler = calibration.SpeedSampler()
    sampler.samples = [(1.0, 1.5), (2.0, 2.25), (3.0, 3.5)]
    assert sampler.within(0.9, 2.5) == [0.5, 0.25]
    assert sampler.within(1.2, 3.2) == [0.25]


def test_digits():
    assert oracles.digits(1e-6) == pytest.approx(6.0)
    assert oracles.digits(0.0) == oracles.DIGITS_CAP
    assert oracles.digits(math.inf) == -oracles.DIGITS_CAP


def _span(name, start, end, parent, job=0):
    return [name, start, end, parent, job, 0]


def test_self_times_on_a_synthetic_tree():
    tree = [
        _span("bench.job", 0.0, 10.0, -1),
        _span("moebius.monodromy", 1.0, 9.0, 0),
        _span("dynamics.steering_endpoints", 2.0, 5.0, 1),
        _span("geom.curvature", 2.5, 3.0, 2),
        _span("dynamics.integrate_steering", 6.0, 8.0, 1),
        _span("bench.job", 10.0, 12.0, -1, job=1),
        _span("geom.make_curve", 10.5, 11.0, 5, job=1),
    ]
    assert spans.self_times(tree) == pytest.approx([2.0, 3.0, 2.5, 0.5, 2.0, 1.5, 0.5])
    rows = spans.job_breakdown(tree)
    assert rows[0] == pytest.approx({"traced_s": 10.0, "bench": 2.0, "moebius": 3.0,
                                     "dynamics": 4.5, "geom": 0.5})
    assert rows[1] == pytest.approx({"traced_s": 2.0, "bench": 1.5, "geom": 0.5})
    for row in rows.values():
        assert sum(v for k, v in row.items() if k != "traced_s") == pytest.approx(row["traced_s"])


def test_layer_metrics_on_a_synthetic_tree():
    tree = [
        _span("bench.job", 0.0, 10.0, -1),
        _span("menzin.menzin_verify", 0.0, 10.0, 0),
        _span("moebius.monodromy", 1.0, 4.0, 1),
        _span("moebius.from_three_pairs", 1.5, 2.0, 2),
        _span("dynamics.monodromy_matrix", 2.0, 3.0, 2),
        _span("dynamics.integrate_steering", 3.0, 3.5, 2),
        _span("moebius.monodromy", 5.0, 6.0, 1),
        _span("moebius.from_three_pairs", 5.0, 5.5, 6),
    ]
    tree[4][spans.COUNT] = 100
    tree[5][spans.COUNT] = 50
    m = spans.layer_metrics(tree)
    assert m["moebius.fits"] == 3
    assert m["moebius.refinements"] == 1
    assert m["moebius.lift_ratio"] == pytest.approx(1 / 3)
    assert m["moebius.rear_length_s"] == pytest.approx(0.5)
    assert m["menzin.monodromy_per_job"] == 2
    assert m["dynamics.steps"] == 150
    assert m["dynamics.ns_per_step"] == pytest.approx(1e9 * 1.5 / 150)
    assert m["bench.s"] == pytest.approx(0.0)


def test_tracer_wraps_and_restores():
    import tractrix_lab as tl

    original = tl.monodromy
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        assert tl.monodromy is not original
        assert tl.menzin.monodromy is tl.monodromy
        tracer.job = 0
        root = tracer.open(spans.ROOT)
        tl.monodromy(tl.make_curve({"kind": "circle", "r": 2.0}), tl.BikeParams(ell=1.0))
        tracer.close(root)
    finally:
        spans.uninstall(undo)
    assert tl.monodromy is original and tl.menzin.monodromy is original
    names = {s[spans.NAME] for s in tracer.spans}
    assert {"geom.make_curve", "moebius.monodromy", "dynamics.steering_endpoints",
            "geom.curvature"} <= names
    row = spans.job_breakdown(tracer.spans)[0]
    assert sum(v for k, v in row.items() if k != "traced_s") == pytest.approx(row["traced_s"],
                                                                              rel=1e-12)


def test_percentile_and_metrics():
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 50) == 2.0
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 75) == 3.0
    assert run.percentile([3.0, 1.0, 2.0, 4.0], 100) == 4.0
    records = [{"calibrated_s": s, "ok": ok, "digits": d}
               for s, ok, d in [(1.0, True, 8.0), (2.0, False, None), (5.0, True, 6.0)]]
    m = run.end_to_end(records, tail_p=100.0, setup=[1.0, 3.0, 2.0], rss_mb=50.0)
    assert m == {"jobs_per_s": 0.25, "job_p50_s": 2.0, "job_tail_s": 5.0,
                 "oracle_digits_p50": 7.0, "oracle_digits_min": 6.0, "setup_s": 2.0,
                 "peak_rss_mb": 50.0}


def test_metric_names_match_benchmark_json():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    records = [{"calibrated_s": 1.0, "ok": True, "digits": 8.0}]
    assert list(run.end_to_end(records, 75.0, [1.0], 1.0)) == [m["name"] for m in bench["end_to_end"]]
    per_layer = list(spans.layer_metrics([])) + ["import.tractrix_lab_s", "import.scipy_s",
                                                 "trace.overhead"]
    assert sorted(per_layer) == sorted(m["name"] for m in bench["per_layer"])
