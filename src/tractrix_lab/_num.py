"""Small numerical utilities: panel quadrature, arc-length inversion, Fourier helpers."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)

trapezoid = getattr(np, "trapezoid", None) or np.trapz


def panel_nodes(
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
    min_panels: int = 512,
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of 16-point Gauss panels on [a, b], both shaped (panels, 16).

    Panels never straddle a breakpoint, so piecewise-analytic integrands
    (filleted polylines) keep full quadrature accuracy.
    """
    cuts = [a]
    for c in sorted(breakpoints):
        if a + 1e-12 < c < b - 1e-12:
            cuts.append(float(c))
    cuts.append(b)
    width = (b - a) / min_panels
    edges = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        n = max(1, int(np.ceil((hi - lo) / width)))
        edges.append(np.linspace(lo, hi, n + 1))
    starts = np.concatenate([e[:-1] for e in edges])
    stops = np.concatenate([e[1:] for e in edges])
    half = 0.5 * (stops - starts)
    mid = 0.5 * (stops + starts)
    return mid[:, None] + half[:, None] * _GL_NODES[None, :], half[:, None] * _GL_WEIGHTS[None, :]


def panel_quad(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    breakpoints: Sequence[float] = (),
    min_panels: int = 512,
) -> float:
    """Integrate ``f`` over [a, b] on the panels of :func:`panel_nodes`, in one call of ``f``."""
    if b <= a:
        return 0.0
    x, weights = panel_nodes(a, b, breakpoints, min_panels)
    return float(np.sum(weights * f(x.ravel()).reshape(x.shape)))


class ArcLengthParam:
    """Invert arc length for a positive speed function on a fixed interval.

    Stores cumulative lengths on a uniform grid in the base parameter ``u``;
    ``u_of_t`` refines grid lookups with Newton steps against partial
    Gauss-panel integrals, so the inversion is accurate to roundoff.
    """

    def __init__(self, speed: Callable[[np.ndarray], np.ndarray], u_min: float, u_max: float, n_seg: int = 2048):
        self.speed = speed
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.nodes = np.linspace(u_min, u_max, n_seg + 1)
        lo = self.nodes[:-1]
        half = 0.5 * (self.nodes[1:] - lo)
        x = lo[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
        seg = np.sum(half[:, None] * _GL_WEIGHTS[None, :] * speed(x.ravel()).reshape(x.shape), axis=1)
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.total = float(self.cum[-1])

    def _partial(self, u_lo: np.ndarray, u_hi: np.ndarray) -> np.ndarray:
        half = 0.5 * (u_hi - u_lo)
        x = u_lo[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
        return np.sum(half[:, None] * _GL_WEIGHTS[None, :] * self.speed(x.ravel()).reshape(x.shape), axis=1)

    def u_of_t(self, t) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.total)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        idx = np.clip(np.searchsorted(self.cum, t, side="right") - 1, 0, len(self.nodes) - 2)
        lo = self.nodes[idx]
        frac = (t - self.cum[idx]) / np.maximum(self.cum[idx + 1] - self.cum[idx], 1e-300)
        u = lo + frac * (self.nodes[idx + 1] - lo)
        for _ in range(4):
            resid = self.cum[idx] + self._partial(lo, u) - t
            u = u - resid / self.speed(u)
            u = np.clip(u, self.u_min, self.u_max)
        return float(u[0]) if scalar else u


def fourier_eval(a0: float, cos_c: np.ndarray, sin_c: np.ndarray, phi, deriv: int = 0) -> np.ndarray:
    """Evaluate a real trigonometric polynomial or one of its derivatives."""
    phi = np.asarray(phi, dtype=float)
    n = np.arange(1, len(cos_c) + 1, dtype=float)
    arg = np.multiply.outer(phi, n)
    sign = (-1) ** ((deriv + 1) // 2)
    scale = n**deriv
    if deriv % 2 == 0:
        out = np.cos(arg) @ (sign * scale * cos_c) + np.sin(arg) @ (sign * scale * sin_c)
        if deriv == 0:
            out = out + a0
        return out
    return np.sin(arg) @ (sign * scale * cos_c) + np.cos(arg) @ (-sign * scale * sin_c)


def fit_fourier(samples: np.ndarray, n_harmonics: int) -> tuple[float, np.ndarray, np.ndarray]:
    """Leading Fourier coefficients of uniformly spaced periodic samples."""
    n = len(samples)
    if n_harmonics >= n // 2:
        raise ValueError("too many harmonics for the sample count")
    c = np.fft.rfft(samples) / n
    a0 = float(c[0].real)
    a = 2.0 * c[1 : n_harmonics + 1].real
    b = -2.0 * c[1 : n_harmonics + 1].imag
    return a0, a, b


def wrap_angle(x):
    """Wrap to (-pi, pi]."""
    return np.pi - np.mod(np.pi - np.asarray(x, dtype=float), 2.0 * np.pi)


def _two_prod(x: float, y: float) -> tuple[float, float]:
    """Dekker product: ``x * y`` as rounded value plus exact error term."""
    p = x * y
    c = 134217729.0 * x  # Veltkamp split at 2^27 + 1
    xh = c - (c - x)
    xl = x - xh
    c = 134217729.0 * y
    yh = c - (c - y)
    yl = y - yh
    err = ((xh * yh - p) + xh * yl + xl * yh) + xl * yl
    return p, err


def det2x2(a: float, b: float, c: float, d: float) -> float:
    """``a*d - b*c`` with compensated products.

    The naive expression loses the determinant entirely once the products
    exceed ``det / eps`` (entries ~1e8 for unimodular matrices), which
    strongly hyperbolic monodromies reach easily.
    """
    p1, e1 = _two_prod(a, d)
    p2, e2 = _two_prod(b, c)
    return (p1 - p2) + (e1 - e2)
