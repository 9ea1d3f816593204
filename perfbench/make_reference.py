"""Compute the reference values for benchmark inputs that have no closed form.

The seeded fourier-support shapes and the wheelbase-scan ellipses have no
closed-form trace or critical wheelbase, so their oracles are computed once at
16 times the step count the workloads use and stored in ``reference.json``
together with the command and library versions that produced them.

Run from the repository root (takes roughly half an hour on one core):

    PYTHONPATH=src python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import math
import platform
import random
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import tractrix_lab as tl

OUT = Path(__file__).resolve().parent / "reference.json"
COMMAND = "PYTHONPATH=src python3 perfbench/make_reference.py"
FACTOR = 16
MONODROMY_STEPS = 4096  # BikeParams default, used by the monodromy-mix jobs
MENZIN_STEPS = 512  # steps_per_traversal of the menzin-scan jobs
MONODROMY_ELLS = (0.4, 1.2)  # below the min osculating radius (>= 0.5), and above it
N_MONODROMY_SHAPES = 24
N_MENZIN_SHAPES = 8
ELLIPSE_BS = (0.9, 0.7, 0.5)  # members of the wheelbase_scan.py family (a = 1)
POOL_SEED = 20120703
N_HARMONICS = 4  # harmonics 2..5 of each seeded support function


def convex_support_spec(rng: random.Random) -> dict:
    """Strictly convex support-function spec with a0 = 1 and no first harmonic.

    Harmonic n adds at most |c_n| (n^2 - 1) to p + p'', so each coefficient
    gets a budget that keeps the radius of curvature above 1/2.
    """
    cos_c, sin_c = [0.0], [0.0]
    for n in range(2, 2 + N_HARMONICS):
        budget = 0.5 / (N_HARMONICS * (n * n - 1.0))
        cos_c.append(rng.uniform(-budget, budget))
        sin_c.append(rng.uniform(-budget, budget))
    return {"kind": "fourier-support", "a0": 1.0, "cos": cos_c, "sin": sin_c}


def reference_trace(spec: dict, ell: float) -> float:
    track = tl.make_curve(spec)
    matrix = tl.monodromy_matrix(track, tl.BikeParams(ell=ell),
                                 n_steps=FACTOR * MONODROMY_STEPS)
    return tl.MoebiusMap.from_matrix(matrix).trace


def reference_ell0(spec: dict) -> float:
    track = tl.make_curve(spec)
    scale = math.sqrt(tl.enclosed_area(track) / math.pi)
    return tl.critical_length(track, tol=1e-10 * scale,
                              steps_per_traversal=FACTOR * MENZIN_STEPS)


def main() -> None:
    rng = random.Random(POOL_SEED)
    out = {
        "command": COMMAND,
        "versions": {"python": platform.python_version(), "numpy": np.__version__,
                     "scipy": scipy.__version__, "tractrix_lab": tl.__version__},
        "steps_factor": FACTOR,
        "monodromy_steps": FACTOR * MONODROMY_STEPS,
        "menzin_steps": FACTOR * MENZIN_STEPS,
        "monodromy_fourier": [],
        "menzin_fourier": [],
        "menzin_ellipse": [],
    }
    t0 = time.perf_counter()
    for _ in range(N_MONODROMY_SHAPES):
        spec = convex_support_spec(rng)
        traces = {str(ell): reference_trace(spec, ell) for ell in MONODROMY_ELLS}
        out["monodromy_fourier"].append({"spec": spec, "trace": traces})
        print(f"monodromy shape {len(out['monodromy_fourier'])}: {traces} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
    for b in ELLIPSE_BS:
        spec = {"kind": "ellipse", "a": 1.0, "b": b}
        out["menzin_ellipse"].append({"spec": spec, "ell0": reference_ell0(spec)})
        print(f"ellipse b={b}: {out['menzin_ellipse'][-1]['ell0']!r} "
              f"({time.perf_counter() - t0:.0f} s)", flush=True)
    for _ in range(N_MENZIN_SHAPES):
        spec = convex_support_spec(rng)
        out["menzin_fourier"].append({"spec": spec, "ell0": reference_ell0(spec)})
        print(f"menzin shape {len(out['menzin_fourier'])}: "
              f"{out['menzin_fourier'][-1]['ell0']!r} ({time.perf_counter() - t0:.0f} s)",
              flush=True)
    OUT.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {OUT}", file=sys.stderr)


if __name__ == "__main__":
    main()
