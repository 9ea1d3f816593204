"""Closed-form oracles for the benchmark jobs, one derivation line per entry.

Every steering problem on a track of constant geodesic curvature ``k`` and
length ``L`` has the constant lift generator ``A = (1/2) [[-c, k], [-k, c]]``
(``c`` = 1/ell, cot ell or coth ell), so its monodromy is ``exp(L A)`` with
eigenvalues ``exp(+-(L/2) sqrt(c^2 - k^2))``. The traces below all follow from
that, and the canonical trace the library reports is the absolute value.

Tolerances are relative; a trace error is measured against ``max(|trace|, 1)``
because unimodular traces live on the scale of 2 (an elliptic trace can be 0).
"""

from __future__ import annotations

import math

DIGITS_CAP = 16.0  # -log10 of the smallest relative error the digits metric resolves

TRACE_TOL = 1e-6  # circles, segment, square, geodesic circles, reference traces
ELL0_TOL = 1e-5  # critical wheelbase against 1 (unit circle) or a 16x-steps reference
REAR_TOL = 1e-6  # invariant rear circle radius and the circuit area pi ell^2
TRACTRIX_TOL = 1e-6  # area between tractrix and asymptote, pi ell^2 / 2
PLANIMETER_TOL = 1e-9  # closure defect and Green area against pi a b
FROZEN_ABS_TOL = 1e-12  # frozen centroid residual, absolute as in tests/test_planimeter.py
DEVELOP_TOL = 1e-6  # closure of a developed constant-curvature circle
STARGAZE_TOL = 1e-4  # central-difference residual of alpha' = k - sin(alpha)
LOOP_TOL = 1e-9  # rod-area identity mismatch over scale^2

# ellipse 2x1, ell = 10, centroid start, 4096 steps: tests/test_planimeter.py
FROZEN_CENTROID_RESIDUAL = -3.956131849861322e-3


def _constant_curvature_trace(half_length: float, c: float, k: float) -> float:
    # exp(L A): 2 cosh((L/2) sqrt(c^2 - k^2)) if |c| > |k|, else 2 |cos((L/2) sqrt(k^2 - c^2))|
    disc = c * c - k * k
    if disc >= 0.0:
        return 2.0 * math.cosh(half_length * math.sqrt(disc))
    return 2.0 * abs(math.cos(half_length * math.sqrt(-disc)))


def circle_trace(r: float, ell: float) -> float:
    """Euclidean circle: k = 1/R, c = 1/ell, L/2 = pi R, so
    2 cosh(pi sqrt(R^2/ell^2 - 1)) for ell < R and 2 |cos(pi sqrt(1 - R^2/ell^2))| above."""
    return _constant_curvature_trace(math.pi * r, 1.0 / ell, 1.0 / r)


def segment_trace(length: float, ell: float) -> float:
    """Straight segment: k = 0, so exp(L A) = diag(e^(-L/2ell), e^(L/2ell)), trace 2 cosh(L/2ell)."""
    return 2.0 * math.cosh(0.5 * length / ell)


def square_trace(side: float, ell: float) -> float:
    """Square with exact corners: (R(pi/4) D)^4 with D = diag(e^-x, e^x), x = side/2ell;
    tr(R D) = sqrt(2) cosh x, and tr(M^4) = (tr(M)^2 - 2)^2 - 2 gives |(cosh(side/ell) - 1)^2 - 2|."""
    return abs((math.cosh(side / ell) - 1.0) ** 2 - 2.0)


def spherical_circle_trace(rho: float, ell: float) -> float:
    """Geodesic circle on the unit sphere: k = cot rho, c = cot ell, L/2 = pi sin rho."""
    return _constant_curvature_trace(math.pi * math.sin(rho), 1.0 / math.tan(ell),
                                     1.0 / math.tan(rho))


def hyperbolic_circle_trace(rho: float, ell: float) -> float:
    """Geodesic circle in the hyperbolic plane: k = coth rho, c = coth ell, L/2 = pi sinh rho."""
    return _constant_curvature_trace(math.pi * math.sinh(rho), 1.0 / math.tanh(ell),
                                     1.0 / math.tanh(rho))


def identity_circle_trace() -> float:
    """Circle r = sqrt(3)/2 traversed twice at ell = 1: sqrt(R^2/ell^2 - 1) is imaginary with
    modulus 1/2, so one pass is a rotation by pi and two passes give the identity, trace 2."""
    return 2.0


def unit_circle_ell0(r: float) -> float:
    """Circle of radius R: the trace leaves 2 exactly at ell = R, so ell0 = R (1 for the unit circle)."""
    return r


def rear_circle_radius(r: float, ell: float) -> float:
    """Invariant rear circle behind a front circle: the rod is tangent to it, so sqrt(R^2 - ell^2)
    (sqrt(3) for R = 2, ell = 1)."""
    return math.sqrt(r * r - ell * ell)


def rear_circle_area(ell: float) -> float:
    """Front circle minus its invariant rear circle: pi R^2 - pi (R^2 - ell^2) = pi ell^2."""
    return math.pi * ell * ell


def tractrix_area(ell: float) -> float:
    """Full tractrix sweep: the rod turns through pi and the area to the asymptote is pi ell^2 / 2."""
    return 0.5 * math.pi * ell * ell


def ellipse_area(a: float, b: float) -> float:
    """Ellipse with semi-axes a, b: pi a b."""
    return math.pi * a * b


def hyperbolic_circle_length(k: float) -> float:
    """Constant curvature k > 1 in the hyperbolic plane closes into a circle of length
    2 pi sinh(rho) with coth(rho) = k, that is 2 pi / sqrt(k^2 - 1) (2 pi sqrt(3) at k = 2/sqrt(3))."""
    return 2.0 * math.pi / math.sqrt(k * k - 1.0)


def zero_mismatch() -> float:
    """Rod-area identity A_F - A_R = ell \\int lambda + (ell^2/2) \\int dtheta holds for every
    configuration loop, so the two sides differ by 0."""
    return 0.0


def relative_error(value: float, reference: float, floor: float = 0.0) -> float:
    """|value - reference| / max(|reference|, floor)."""
    return abs(value - reference) / max(abs(reference), floor)


def digits(error: float) -> float:
    """-log10 of a relative error, capped at DIGITS_CAP so an exact match stays finite."""
    if not math.isfinite(error):
        return -DIGITS_CAP
    if error <= 10.0 ** -DIGITS_CAP:
        return DIGITS_CAP
    return -math.log10(error)
