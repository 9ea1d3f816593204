"""tractrix-lab benchmark: one closed-loop client driving the library API.

Run from the root of a checkout:

    python3 perfbench/run.py --workload monodromy-mix --seed 1 --seconds 25 --trace 0

The job inputs are drawn from ``--seed``; each job is checked against a closed
form or a stored reference (see oracles.py and reference.json). The report
lists every job with its oracle outcome, every failing job with its cause,
and every metric by name and unit; the last line is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``).

Times are calibrated seconds (see calibration.py): each job time is scaled by
the host speed measured with a fixed kernel around and during it, which
removes the shared host's speed swings; the report prints raw figures too.
``setup_s`` is the median over several fresh interpreters of the calibrated
time from process start to ``ready`` (``import tractrix_lab`` plus building
the inputs); one discarded start before them compiles the bytecode.
BLAS/OpenMP pools are capped at the number of usable cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
# names, units and workloads are defined once, in BENCHMARK.json
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SETUP_SAMPLES = 7  # setup-only interpreters; the measured worker adds one more sample
DEADLINE_S = 170.0
# the root span opens before and closes after the job's timer: a few microseconds
CLOSURE_ABS_S = 2e-4
CLOSURE_TOL = 1e-3
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(RuntimeError):
    pass


# -- statistics ------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile; p = 100 is the maximum."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100.0 * len(ordered)) - 1)]


def end_to_end(records: list[dict], tail_p: float, setup: list[float],
               rss_mb: float) -> dict[str, float]:
    latencies = [r["calibrated_s"] for r in records]
    digits = [r["digits"] for r in records if r["digits"] is not None]
    return {
        "jobs_per_s": sum(r["ok"] for r in records) / sum(latencies),
        "job_p50_s": statistics.median(latencies),
        "job_tail_s": percentile(latencies, tail_p),
        "oracle_digits_p50": statistics.median(digits),
        "oracle_digits_min": min(digits),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_mb,
    }


def import_times(python: str, env: dict) -> dict[str, float]:
    """``import tractrix_lab`` (cumulative) and all scipy modules (self), from -X importtime."""
    proc = subprocess.run([python, "-X", "importtime", "-c", "import tractrix_lab"],
                          env=env, capture_output=True, text=True, timeout=60, check=True)
    lib_us = scipy_us = 0
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        name = parts[2].strip()
        try:
            self_us, cumulative_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:  # the header line
            continue
        if name == "tractrix_lab":
            lib_us = cumulative_us
        elif name == "scipy" or name.startswith("scipy."):
            scipy_us += self_us
    if not lib_us:
        raise BenchError("-X importtime did not report tractrix_lab")
    return {"import.tractrix_lab_s": lib_us * 1e-6, "import.scipy_s": scipy_us * 1e-6}


# -- processes -------------------------------------------------------------------


def start_worker(args, env: dict, setup_only: bool) -> tuple[subprocess.Popen, float, float]:
    """Start a worker; returns it once it printed ``ready``, with the time that took
    and the host speed factor it measured right after."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    try:
        if line.strip() != "ready":
            raise ValueError(line)
        speed = float(proc.stdout.readline())
    except ValueError:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not get ready (exit {proc.returncode})") from None
    return proc, ready, speed


def finish(proc: subprocess.Popen, timeout: float) -> str:
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    return out


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- report ----------------------------------------------------------------------


def job_line(r: dict) -> str:
    if r["ok"]:
        outcome = f"PASS  digits {r['digits']:.2f}" + ("  (known defect fixed)" if r["defect_fixed"] else "")
    else:
        outcome = ("KNOWN " if r["known_defect"] else "FAIL  ") + "; ".join(r["problems"])
    return (f"job {r['id']:4d} {r['kind']:<13} {r['calibrated_s']:9.4f} s "
            f"(raw {r['seconds']:.4f} s)  {r['oracle']:<24} {outcome}")


def main() -> int:
    ap = argparse.ArgumentParser(description="tractrix-lab benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "tractrix_lab" / "__init__.py").is_file():
        print("run.py: no src/tractrix_lab under the current directory; "
              "run from the root of a tractrix-lab checkout", file=sys.stderr)
        return 2
    began = time.perf_counter()
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.update({var: str(nproc) for var in THREAD_VARS})

    try:
        finish(start_worker(args, env, setup_only=True)[0], 60)  # compiles bytecode
        setup, raw_setup = [], []
        for i in range(SETUP_SAMPLES + 1):
            proc, ready, speed = start_worker(args, env, setup_only=i < SETUP_SAMPLES)
            if i < SETUP_SAMPLES:
                finish(proc, 60)
            raw_setup.append(ready)
            setup.append(ready * speed)
        out = finish(proc, DEADLINE_S - (time.perf_counter() - began))
        result = json.loads(out.strip().splitlines()[-1])
        if args.trace:
            result["per_layer"].update(import_times(sys.executable, env))
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1

    records = result["records"]
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "nproc": nproc, "cpu": cpu_model(),
              "threads": {var: env[var] for var in THREAD_VARS}, **result["versions"],
              "client": "one closed-loop client in one process"}
    print("# run " + json.dumps(record))
    for r in records:
        print(job_line(r))
    missed = [r for r in records if not r["ok"]]
    unexpected = [r for r in missed if not r["known_defect"]]
    print(f"# failing jobs: {len(missed)} ({len(missed) - len(unexpected)} known seed "
          f"failures, {len(unexpected)} unexpected)")
    for r in missed:
        cause = f"known defect: {r['known_defect']}" if r["known_defect"] else "oracle miss"
        print(f"#   job {r['id']} {r['kind']}: {'; '.join(r['problems'])} [{cause}]")

    correct = not unexpected
    tail_p = result["tail_percentile"]
    if not args.trace:
        metrics = end_to_end(records, tail_p, setup, result["peak_rss_mb"])
        units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
        n = len(records)
        raw = [r["seconds"] for r in records]
        beyond = sum(r["calibrated_s"] > metrics["job_tail_s"] for r in records)
        notes = {
            "jobs_per_s": f"{n - len(missed)} passed of {n} in {sum(r['calibrated_s'] for r in records):.3f}"
                          f" calibrated s; raw {(n - len(missed)) / result['elapsed']:.4f} per wall"
                          f" second of the {result['elapsed']:.3f} s timed phase",
            "job_p50_s": f"n = {n}; raw {statistics.median(raw):.4f} s",
            "job_tail_s": f"p{tail_p:g}, n = {n}, {beyond} samples beyond; "
                          f"raw {percentile(raw, tail_p):.4f} s",
            "oracle_digits_p50": f"{sum(r['digits'] is not None for r in records)} jobs with a value",
            "setup_s": "median of " + ", ".join(f"{s:.4f}" for s in setup)
                       + "; raw " + ", ".join(f"{s:.4f}" for s in raw_setup),
        }
        print(f"metric failed_ratio = {len(missed) / n!r} ratio "
              f"({len(missed)} of {n} attempted raised or missed their oracle)")
    else:
        metrics = dict(result["per_layer"])
        traced = sum(r["calibrated_s"] for r in records)
        untraced = sum(r["calibrated_s"] for r in result["untraced_records"])
        metrics["trace.overhead"] = traced / untraced - 1.0
        units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
        notes = {"trace.overhead": f"traced {traced:.3f} s / untraced {untraced:.3f} s "
                                   f"calibrated, same jobs, {result['spans']} spans"}
        layers = ["geom", "dynamics", "moebius", "menzin", "planimeter", "noneuclid", "bench"]
        # the layer self times of a job, less the calibration samples inside its root span,
        # against the job's own timer around the library call (net of the samples inside it)
        print("# traced job self times (s): " + " ".join(layers)
              + " | sum - samples | timed")
        worst = excess = 0.0
        for r in records:
            row = result["breakdown"][str(r["id"])]
            total = sum(row.get(layer, 0.0) for layer in layers) - row["sampling_s"]
            gap = abs(total - r["seconds"])
            worst = max(worst, gap)
            excess = max(excess, gap - CLOSURE_ABS_S - CLOSURE_TOL * r["seconds"])
            print(f"#   job {r['id']:4d} {r['kind']:<13} "
                  + " ".join(f"{row.get(layer, 0.0):.6f}" for layer in layers)
                  + f" | {total:.6f} | {r['seconds']:.6f}")
        print(f"# self-time closure: worst |sum - timed| = {worst:.3e} s "
              f"(allowed {CLOSURE_ABS_S:g} s + {CLOSURE_TOL:g} timed)")
        same = all(a["ok"] == b["ok"] for a, b in zip(records, result["untraced_records"]))
        correct = correct and excess <= 0.0 and same
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} = {metrics[name]!r} {unit}{note}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": len(unexpected),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
