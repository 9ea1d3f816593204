"""Small numerical utilities: panel and Simpson quadrature, arc-length inversion, Fourier helpers."""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)
# Legendre coefficients from values at the Gauss nodes: (2k+1)/2 * w_i * P_k(x_i)
_TO_LEGENDRE = ((np.arange(16) + 0.5)[:, None] * _GL_WEIGHTS[None, :]
                * np.polynomial.legendre.legvander(_GL_NODES, 15).T)

trapezoid = getattr(np, "trapezoid", None) or np.trapz

PAIRABLE = float(np.sqrt(np.finfo(float).max))  # magnitudes whose squares and products stay finite


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

    Stores cumulative lengths ``cum`` on a uniform grid of ``n_seg + 1``
    nodes in the base parameter ``u``, from 16-point Gauss sums of the speed
    on each segment. The same speed samples fix each segment's Legendre
    series ``sigma(u) = sum_k a_k P_k(xi)`` in the local variable ``xi`` in
    [-1, 1] to rounding (one fixed 16x16 matrix,
    ``(2k+1)/2 w_i P_k(x_i)``); integrated term by term it gives a 17-term
    series of the partial length ``S(xi)`` from the segment start.

    ``u_of_t`` seeds each point from the cubic Hermite interpolant of the
    inverse map ``u(t)`` (values ``nodes`` at ``cum``, slopes ``1 / speed``);
    a segment with a node speed that is not positive gets the linear seed.
    Newton steps follow until the largest correction is at most
    ``sqrt(eps)`` times the node spacing, so that its square, the error left
    after it, is below roundoff (four steps at most). Each step reads the
    residual ``cum + S(xi) - t`` and the slope ``sigma`` from the two series
    by Clenshaw sums, so a smooth track calls ``speed`` only while it is
    built. A segment whose two highest speed coefficients are not both below
    1e-13 of the mean speed is not resolved by its series (a spline knot
    inside it, say); it is flagged in ``rough``, and points in it take
    Newton steps against partial Gauss-panel integrals of ``speed`` instead.

    Nothing is kept between calls: each ``u_of_t`` inverts its points afresh.
    """

    def __init__(self, speed: Callable[[np.ndarray], np.ndarray], u_min: float, u_max: float, n_seg: int = 2048):
        self.speed = speed
        self.u_min = float(u_min)
        self.u_max = float(u_max)
        self.nodes = np.linspace(u_min, u_max, n_seg + 1)
        lo = self.nodes[:-1]
        half = 0.5 * (self.nodes[1:] - lo)
        x = lo[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
        samples = speed(x.ravel()).reshape(x.shape)
        seg = np.sum(half[:, None] * _GL_WEIGHTS[None, :] * samples, axis=1)
        self.cum = np.concatenate([[0.0], np.cumsum(seg)])
        self.total = float(self.cum[-1])
        node_speed = np.asarray(speed(self.nodes), dtype=float)
        # Hermite slopes as deviations from the chord, per segment: du/dt * dt - du
        v0, v1 = node_speed[:-1], node_speed[1:]
        positive = (v0 > 0.0) & (v1 > 0.0)
        du = np.diff(self.nodes)
        self._lead = np.zeros(n_seg)
        self._trail = np.zeros(n_seg)
        self._lead[positive] = seg[positive] / v0[positive] - du[positive]
        self._trail[positive] = seg[positive] / v1[positive] - du[positive]
        self._tol = float(np.sqrt(np.finfo(float).eps)) * (self.u_max - self.u_min) / n_seg
        # Legendre series of the speed, one row per segment, and of its
        # antiderivative from the segment start, scaled to u:
        # int_{-1}^{xi} P_k = (P_{k+1} - P_{k-1}) / (2k + 1), and P_0 + P_1 for k = 0.
        # The speed is expanded about the segment mean a_0, so rounding in the
        # fixed matrix scales with its variation over the segment, not its size.
        mean = seg / (2.0 * half)
        speed_series = (samples - mean[:, None]) @ _TO_LEGENDRE.T
        speed_series[:, 0] += mean
        a = speed_series / (2.0 * np.arange(_GL_NODES.size) + 1.0)
        length_series = np.zeros((n_seg, _GL_NODES.size + 1))
        length_series[:, 0] = a[:, 0]
        length_series[:, 1:] = a
        length_series[:, :-2] -= a[:, 1:]
        self._speed_series = speed_series
        self._length_series = length_series * half[:, None]
        mean_speed = self.total / (self.u_max - self.u_min)
        self.rough = np.max(np.abs(speed_series[:, -2:]), axis=1) > 1e-13 * mean_speed

    def _partial(self, u_lo: np.ndarray, u_hi: np.ndarray) -> np.ndarray:
        half = 0.5 * (u_hi - u_lo)
        x = u_lo[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
        return np.sum(half[:, None] * _GL_WEIGHTS[None, :] * self.speed(x.ravel()).reshape(x.shape), axis=1)

    def _invert(self, t: np.ndarray) -> np.ndarray:
        idx = np.clip(np.searchsorted(self.cum, t, side="right") - 1, 0, len(self.nodes) - 2)
        lo = self.nodes[idx]
        hi = self.nodes[idx + 1]
        c0 = self.cum[idx]
        s = (t - c0) / np.maximum(self.cum[idx + 1] - c0, 1e-300)
        r = 1.0 - s
        u = lo + s * (hi - lo) + s * r * (r * self._lead[idx] - s * self._trail[idx])
        half = 0.5 * (hi - lo)
        speed_series = self._speed_series[idx].T
        length_series = self._length_series[idx].T
        rough = np.flatnonzero(self.rough[idx])
        for _ in range(4):
            xi = (u - lo) / half - 1.0  # from lo, not a rounded midpoint: u - lo is exact
            residual = c0 + np.polynomial.legendre.legval(xi, length_series, tensor=False) - t
            slope = np.polynomial.legendre.legval(xi, speed_series, tensor=False)
            if rough.size:
                residual[rough] = c0[rough] + self._partial(lo[rough], u[rough]) - t[rough]
                slope[rough] = self.speed(u[rough])
            step = residual / slope
            u = np.clip(u - step, self.u_min, self.u_max)
            if np.max(np.abs(step), initial=0.0) <= self._tol:
                break
        return u

    def u_of_t(self, t) -> np.ndarray:
        t = np.clip(np.asarray(t, dtype=float), 0.0, self.total)
        u = self._invert(np.atleast_1d(t))
        return float(u[0]) if t.ndim == 0 else u


def simpson(y: np.ndarray, dx: float) -> float:
    """Composite Simpson rule on evenly spaced samples, as ``scipy.integrate.simpson(y, dx=dx)``.

    An odd sample count is plain composite Simpson. An even count takes
    Simpson over the first ``N - 1`` samples and closes the last interval
    with Cartwright's three-point correction; two samples are a trapezoid.
    The operations and their order are scipy's, so results match it bit for bit.
    """
    y = np.asarray(y, dtype=float)
    n = len(y)
    if n == 2:
        return float(0.5 * dx * (y[1] + y[0]))
    stop = n - 2 if n % 2 else n - 3
    result = np.sum(y[0:stop:2] + 4.0 * y[1:stop + 1:2] + y[2:stop + 2:2]) * (dx / 3.0)
    if n % 2 == 0:
        # the weights are linear in h: taken on h scaled to order one, exactly, no cube overflows
        h, e = np.frexp(np.float64(dx))
        alpha = (2 * h**2 + 3 * h * h) / (6 * (h + h))
        beta = (h**2 + 3.0 * h * h) / (6 * h)
        eta = (1 * h**3) / (6 * h * (h + h))
        result += np.ldexp(alpha, e) * y[-1] + np.ldexp(beta, e) * y[-2] - np.ldexp(eta, e) * y[-3]
    return float(result)


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


def fourier_grid(a0: float, cos_c: np.ndarray, sin_c: np.ndarray, m: int, deriv: bool = False) -> np.ndarray:
    """A trigonometric polynomial, or its derivative if ``deriv``, at the ``m`` angles ``2 pi j / m``.

    One inverse real FFT (``cos_c`` and ``sin_c`` of one length), taken on the
    first power-of-two multiple of ``m`` above twice the harmonic count, so no
    harmonic aliases, and read back at every ``m``-th point.
    """
    n = len(cos_c)
    size = m
    while size <= 2 * n:
        size *= 2
    spectrum = np.zeros(size // 2 + 1, dtype=complex)
    spectrum[0] = 0.0 if deriv else size * a0
    # a cos + b sin is the real part of (a - ib) e^{i phi}, whose derivative is i times it
    spectrum[1:n + 1] = (0.5 * size) * (cos_c - 1j * sin_c) * (1j * np.arange(1, n + 1) if deriv else 1.0)
    return np.fft.irfft(spectrum, size)[::size // m]


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
