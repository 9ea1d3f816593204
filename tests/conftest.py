"""Shared fixtures; the expensive verification reports are session-scoped."""

import json

import numpy as np
import pytest

import tractrix_lab as tl


@pytest.fixture(scope="session")
def unit_circle():
    return tl.make_curve({"kind": "circle", "r": 1.0})


@pytest.fixture(scope="session")
def circle2():
    return tl.make_curve({"kind": "circle", "r": 2.0})


@pytest.fixture(scope="session")
def ellipse21():
    return tl.make_curve({"kind": "ellipse", "a": 2.0, "b": 1.0})


@pytest.fixture(scope="session")
def menzin_ellipse(ellipse21):
    return tl.menzin_verify(ellipse21)


@pytest.fixture(scope="session")
def menzin_unit_circle(unit_circle):
    return tl.menzin_verify(unit_circle)


def random_convex_spec(rng: np.random.Generator, n_harmonics: int = 4) -> dict:
    """Support-function spec guaranteed strictly convex.

    Harmonic n contributes at most |c_n| (n^2 - 1) to p + p''; scaling each
    coefficient by that factor keeps the total perturbation below a0 / 2.
    """
    cos_c, sin_c = [0.0], [0.0]  # centred: no first harmonic
    for n in range(2, 2 + n_harmonics):
        budget = 0.5 / (n_harmonics * (n * n - 1.0))
        cos_c.append(rng.uniform(-budget, budget))
        sin_c.append(rng.uniform(-budget, budget))
    return {"kind": "fourier-support", "a0": 1.0, "cos": cos_c, "sin": sin_c}


def strict_json(text: str):
    """``json.loads`` that fails on the NaN and Infinity tokens strict JSON has no room for."""
    def refuse(token):
        raise AssertionError(f"non-finite {token} in JSON output")

    return json.loads(text, parse_constant=refuse)
