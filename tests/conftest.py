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


def generic_rk4(a0: np.ndarray, am: np.ndarray, a1: np.ndarray, h: float) -> np.ndarray:
    """``E = S - I`` of classical RK4 steps of ``z' = A z`` by three stacked 2x2 products.

    ``a0``, ``am`` and ``a1`` are the generator at each step's start,
    midpoint and end, entrywise ``(m00, m01, m10, m11)`` along axis 0:
    ``K1 = A0``, ``K2 = Am (I + h/2 K1)``, ``K3 = Am (I + h/2 K2)``,
    ``K4 = A1 (I + h K3)`` and ``E = h/6 (K1 + 2 K2 + 2 K3 + K4)``.
    """
    def mul(a, b):
        return np.stack((a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
                         a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]))

    k2 = am + (0.5 * h) * mul(am, a0)
    k3 = am + (0.5 * h) * mul(am, k2)
    k4 = a1 + h * mul(a1, k3)
    return (h / 6.0) * (a0 + 2.0 * k2 + 2.0 * k3 + k4)
