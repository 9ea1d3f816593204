"""Workload process: import the library, build the inputs, run timed jobs.

Started by ``run.py``; prints ``ready`` once set up (the end of ``setup_s``),
then the host speed factor from the calibration kernel, then one JSON line
with every job record (raw and calibrated seconds), the wall time of the timed
phase, its peak RSS and, when traced, the spans reduced to per-layer figures.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]
"""

from __future__ import annotations

import argparse
import itertools
import json
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

# the checkout's own sources, never an installed copy
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

import tractrix_lab  # noqa: E402

import calibration  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_job(job: workloads.Job, job_id: int, tracer: spans.Tracer | None = None) -> dict:
    run, score = workloads.KINDS[job.kind]
    raised = None  # (exception type, file, function) of a raising job
    if tracer is not None:
        tracer.job = job_id
        root = tracer.open(spans.ROOT)
    start = perf_counter()
    try:
        out = run(job.inputs)
    except Exception as exc:  # a raising job is an outcome to report, not a benchmark crash
        where = traceback.extract_tb(exc.__traceback__)[-1]
        out = None
        raised = (type(exc).__name__, Path(where.filename).name, where.name)
        message = f"raised {raised[0]}: {exc} ({raised[1]}:{where.lineno} in {raised[2]})"
    end = perf_counter()
    if tracer is not None:
        tracer.close(root)
    if out is None:
        error, problems = float("inf"), [message]
    else:
        error, problems = score(job, out)
        error = float(error)
    ok = not problems and error <= job.tol
    if not ok and not problems:
        problems = [f"oracle miss: relative error {error:.3e} > {job.tol:.1e}"]
    defect = job.known_defect
    known = ""
    if defect is not None and not ok:
        if defect.matches(error, raised):
            known = defect.cause
        else:
            problems.append(f"outside the known defect's signature ({defect.signature()})")
    return {"id": job_id, "kind": job.kind, "start": start, "end": end, "ok": ok, "error": error,
            "digits": None if out is None else oracles.digits(error),
            "oracle": job.oracle, "problems": problems, "known_defect": known,
            "defect_fixed": defect is not None and ok}


def run_calibrated(jobs, sampler: calibration.SpeedSampler, first_id: int = 0,
                   tracer: spans.Tracer | None = None) -> list[dict]:
    """Run ``jobs`` in order; calibrate each by the kernel times around and during it."""
    records = []
    before = calibration.kernel_seconds()
    for i, job in enumerate(jobs):
        record = run_job(job, first_id + i, tracer)
        after = calibration.kernel_seconds()
        inside = sampler.within(record["start"], record["end"])
        record["seconds"] = record["end"] - record["start"] - sum(inside)
        # work done = time x mean speed; the samples are evenly spaced in wall time
        speed = statistics.mean(calibration.REFERENCE_S / k for k in [before, after] + inside)
        record["calibrated_s"] = record["seconds"] * speed
        records.append(record)
        before = after
    return records


def run_cycles(cycles, seconds: float) -> tuple[list[workloads.Job], list[dict], float]:
    """Run whole cycles until ``seconds`` have passed; returns jobs, records, wall time."""
    jobs: list[workloads.Job] = []
    records: list[dict] = []
    start = perf_counter()
    with calibration.SpeedSampler() as sampler:
        for cycle in cycles:
            records += run_calibrated(cycle, sampler, len(jobs))
            jobs += cycle
            if perf_counter() - start >= seconds:
                break
    return jobs, records, perf_counter() - start


def run_traced(jobs: list[workloads.Job]) -> tuple[list[dict], list[list], dict]:
    """Run ``jobs`` traced; returns records, spans and the per-job layer breakdown."""
    tracer = spans.Tracer()
    undo = spans.install(tracer)
    try:
        with calibration.SpeedSampler() as sampler:
            records = run_calibrated(jobs, sampler, tracer=tracer)
    finally:
        spans.uninstall(undo)
    breakdown = spans.job_breakdown(tracer.spans)
    for s in tracer.spans:
        if s[spans.NAME] == spans.ROOT:  # samples inside a job are in its layers' self times
            breakdown[s[spans.JOB]]["sampling_s"] = sum(sampler.within(s[spans.START],
                                                                       s[spans.END]))
    return records, tracer.spans, breakdown


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    stream = workloads.job_stream(args.workload, args.seed, workloads.load_reference())
    cycles = itertools.chain([next(stream)], stream)
    print("ready", flush=True)
    # the setup sample is calibrated by the kernel time right after it
    print(calibration.REFERENCE_S / calibration.kernel_seconds(), flush=True)
    if args.setup_only:
        return 0
    import scipy  # after the setup window: only the library's own imports count in setup_s

    out = {
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "tractrix_lab": tractrix_lab.__version__},
        "tail_percentile": workloads.WORKLOADS[args.workload].tail_percentile,
    }
    if not args.trace:
        _, out["records"], out["elapsed"] = run_cycles(cycles, args.seconds)
    else:
        # the same jobs twice: untraced, then traced, for the tracing overhead
        jobs, untraced, out["elapsed"] = run_cycles(cycles, 0.5 * args.seconds)
        out["records"], trace_spans, breakdown = run_traced(jobs)
        out["untraced_records"] = untraced
        out["per_layer"] = spans.layer_metrics(trace_spans)
        out["spans"] = len(trace_spans)
        out["breakdown"] = {str(k): v for k, v in breakdown.items()}
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
