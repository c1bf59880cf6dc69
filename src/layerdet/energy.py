"""Semi-infinite spectral integrals: Casimir energy and force, fractional
power traces, and smoothed relative traces over a sector contour.

Every integral goes through one driver, `_nested_cc`: nested
Clenshaw-Curtis rules in the logarithm of the integration variable on one
or two pieces, each level evaluating only its new nodes, until
|I_n - I_{n/2}| <= tol: the contour's quad_err; on the imaginary axis
quad_err adds a bound on the omitted segment (0, kappa_min).  The
imaginary-axis integrals use one piece over [kappa_min, kappa_max], the
contour two split at 1 / gap (all ends proportional to inverse gap, so scene
rescaling maps every node onto its scaled counterpart).  The integrand
decays like C e^{-delta' kappa} beyond the gap scale and the truncated tail
is bounded by fitting C on the last decade of samples with the
conservative rate delta' = 0.9 * gap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, LayerDetError
from .geometry import BoundaryGrid, Scene
from .kernel import KAPPA_MIN_FACTOR
from .xi import _DELTA_PRIME_FRACTION, xi_dsep, xi_imag, xi_on_ray, xi_rel_many


@dataclass(frozen=True)
class QuadConfig:
    """Spectral-quadrature tolerance: nested Clenshaw-Curtis levels n = 16,
    32, ... 256 over kappa in [1e-6 / gap, 30 / (0.9 gap)] stop once the
    integral moves by <= `tol`.  Nodes are evaluated one after another; the
    only parallelism is the BLAS library's threads inside each LU and solve,
    whose count moves the energy by about 1e-12."""

    tol: float = 1e-8


@dataclass(frozen=True)
class EnergyResult:
    value: float
    quad_err: float
    tail_bound: float
    samples: Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class SmoothFunctionSpec:
    """The admitted trace-function family f(lambda) = g(lambda^2) with
    g(z) = z^a e^{-t z}; a > 0, decay t >= 0 (t = 0 only through the
    dedicated power-trace path)."""

    a: float
    t: float = 0.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("exponent a must be positive")
        if self.t < 0:
            raise ValueError("decay t must be non-negative")

    def f(self, lam):
        z = np.asarray(lam) ** 2
        return np.power(z, self.a) * np.exp(-self.t * z)

    def f_prime(self, lam):
        lam = np.asarray(lam)
        z = lam ** 2
        return 2.0 * lam * np.power(z, self.a - 1.0) \
            * np.exp(-self.t * z) * (self.a - self.t * z)


@lru_cache(maxsize=64)
def _cc_rule(n: int):
    """Clenshaw-Curtis nodes cos(j pi / n), j = 0..n, and weights on [-1, 1]."""
    j = np.arange(n + 1)
    k = np.arange(1, n // 2 + 1)
    b = np.where(2 * k == n, 1.0, 2.0) / (4.0 * k ** 2 - 1.0)
    c = np.where((j == 0) | (j == n), 1.0, 2.0)
    w = c / n * (1.0 - np.cos(2.0 * np.pi * np.outer(j, k) / n) @ b)
    t = np.cos(np.pi * j / n)
    for a in (t, w):
        a.setflags(write=False)
    return t, w


def _pieces_rule(edges: np.ndarray, n: int):
    """Nodes and weights, shape (pieces, n + 1), of the rule mapped in log x
    onto each piece [edges[i], edges[i + 1]], end nodes exactly the edges."""
    t, w = _cc_rule(n)
    lo, hi = np.log(edges[:-1])[:, None], np.log(edges[1:])[:, None]
    x = np.exp(0.5 * (hi - lo) * t + 0.5 * (hi + lo))
    x[:, 0], x[:, -1] = edges[1:], edges[:-1]
    return x, 0.5 * (hi - lo) * w * x


def _eval_unique(evaluate, x: np.ndarray) -> np.ndarray:
    # pieces share their end points; evaluate each abscissa once
    u, inv = np.unique(x.ravel(), return_inverse=True)
    vals = np.asarray(evaluate(u))
    return vals[..., inv.ravel()].reshape(vals.shape[:-1] + x.shape)


def _nested_cc(edges: Sequence[float], evaluate: Callable[[np.ndarray], np.ndarray],
               weight: Callable[[np.ndarray], np.ndarray], tol: float):
    """Integral of weight(x) * evaluate(x) from edges[0] to edges[-1], one
    log-mapped piece between consecutive edges, each with n + 1 nodes, n
    doubling from 16 (ConvergenceError past 256).

    evaluate maps an array of abscissae to samples along its last axis
    (leading axes integrate independently and converge together); each
    level calls it once, on that level's new nodes.  Returns (value, err,
    nodes, samples): err = |I_n - I_{n/2}|, the last level's nodes sorted.
    """
    n, edges = 16, np.asarray(edges, dtype=float)
    x, w = _pieces_rule(edges, n)
    vals = _eval_unique(evaluate, x)
    cur = np.sum(vals * w * weight(x), axis=(-2, -1))
    while True:
        n *= 2
        x, w = _pieces_rule(edges, n)
        # the odd nodes are new; the even ones are the previous level's
        vals = np.insert(vals, np.arange(1, n // 2 + 1),
                         _eval_unique(evaluate, x[:, 1::2]), axis=-1)
        prev, cur = cur, np.sum(vals * w * weight(x), axis=(-2, -1))
        err = np.abs(cur - prev)
        if np.all(err <= tol):
            break
        if n >= 256:
            raise ConvergenceError(f"spectral quadrature did not converge: "
                                   f"|delta| = {np.max(err):.3e} at n = {n}")
    nodes, first = np.unique(x.ravel(), return_index=True)
    return cur, err, nodes, vals.reshape(vals.shape[:-2] + (-1,))[..., first]


def _fit_tail(nodes, xis, kmax: float, dprime: float) -> float:
    """Least-squares fit of C in |Xi| <= C e^{-delta' kappa} on the last
    decade of samples; returns the integrated tail bound beyond kmax."""
    fit = (nodes >= kmax / 10.0) & (np.abs(xis) > 1e-300)
    if not np.any(fit):
        return 0.0
    ln_c = float(np.mean(np.log(np.abs(xis[fit])) + dprime * nodes[fit]))
    return np.exp(ln_c - dprime * kmax) / dprime


def _xi_imag_weighted(scene: Scene, sample: Callable[[float], float],
                      weight: Callable, cfg: QuadConfig) -> EnergyResult:
    """Integral of weight(kappa) sample(kappa) over [1e-6 / gap,
    30 / (0.9 gap)] of a multi-obstacle scene, sample being Xi(i kappa) or
    a derivative of it."""
    kmin, kmax = KAPPA_MIN_FACTOR / scene.gap, 30.0 / (_DELTA_PRIME_FRACTION * scene.gap)
    value, err, nodes, vals = _nested_cc(
        (kmin, kmax), lambda ks: np.array([sample(k) for k in ks.tolist()]), weight,
        cfg.tol)
    near_zero = kmin * max(abs(weight(kmin)), abs(weight(2.0 * kmin))) * \
        np.max(np.abs(vals[nodes <= 2.0 * kmin]))
    tail = _fit_tail(nodes, vals, kmax, _DELTA_PRIME_FRACTION * scene.gap)
    # once the integrand sits below the log-determinant rounding scale,
    # any extension integrates noise; bound that by a rectangle over the
    # magnitudes observed on [kappa_max / 2, kappa_max]
    noise_tail = 0.5 * kmax * np.max(np.abs(vals[nodes >= 0.5 * kmax]))
    return EnergyResult(float(value), float(err + near_zero),
                        float(abs(weight(kmax)) * max(tail, noise_tail)),
                        tuple(zip(nodes.tolist(), vals.tolist())))


def casimir_energy(scene: Scene, grid: BoundaryGrid,
                   cfg: QuadConfig = QuadConfig()) -> EnergyResult:
    """(1/pi) * integral of Xi(i kappa) over (0, inf): the vacuum energy of
    the assembled configuration relative to separated obstacles."""
    if scene.n_obstacles == 1:
        return EnergyResult(0.0, 0.0, 0.0, ())
    return _xi_imag_weighted(scene, lambda k: xi_imag(scene, grid, k).xi.real,
                             lambda k: 1.0 / np.pi, cfg)


def power_trace(scene: Scene, grid: BoundaryGrid, s: float,
                cfg: QuadConfig = QuadConfig()) -> EnergyResult:
    """Relative trace of the power family:
    (2s/pi) sin(pi s) * integral kappa^{2s-1} Xi(i kappa) d kappa.

    s in (0, 1); the boundary s = 1 returns exactly 0 (the sin prefactor
    annihilates the integral in the operator identity's limit sense).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("power trace supports s in (0, 1]")
    if s == 1.0 or scene.n_obstacles == 1:
        return EnergyResult(0.0, 0.0, 0.0, ())
    pref = (2.0 * s / np.pi) * np.sin(np.pi * s)
    return _xi_imag_weighted(scene, lambda k: xi_imag(scene, grid, k).xi.real,
                             lambda k: pref * k ** (2.0 * s - 1.0), cfg)


def trace_df(scene: Scene, grid: BoundaryGrid, f: SmoothFunctionSpec,
             cfg: QuadConfig = QuadConfig(), theta: float = np.pi / 8) -> EnergyResult:
    """Tr D_f = (i/2pi) * contour integral of f'(lambda) Xi(lambda) over the
    sector boundary rays u e^{i theta} and u e^{i (pi - theta)}.

    The kernels obey Q(-conj(lambda)) = conj(Q(lambda)) entrywise, so the
    left-ray integral is exactly the conjugate of the right-ray one and the
    trace reduces to (1/pi) Im of the right-ray integral; this is an exact
    discrete identity, not an approximation.  Requires t > 0 with
    2 theta < pi/2 so e^{-t lambda^2} decays on both rays.
    """
    if f.t <= 0:
        raise LayerDetError("trace_df needs t > 0; use power_trace for t = 0")
    if not 0 < theta < np.pi / 4:
        raise LayerDetError("contour half-angle must satisfy 0 < 2*theta < pi/2")
    if scene.n_obstacles == 1:
        return EnergyResult(0.0, 0.0, 0.0, ())
    gap = scene.gap
    dprime = _DELTA_PRIME_FRACTION * gap
    u_max = min(np.sqrt(45.0 / (f.t * np.cos(2 * theta))),
                45.0 / (dprime * np.sin(theta)))
    # the integrand is smooth in log u over the decades below 1 / gap; the
    # piece beyond gets its own nodes for the oscillation of Xi on the ray
    phase = np.exp(1j * theta)
    value, delta, nodes, xis = _nested_cc(
        (KAPPA_MIN_FACTOR / gap, min(1.0 / gap, 0.5 * u_max), u_max),
        lambda u: xi_on_ray(scene, grid, theta, u),
        lambda u: phase * f.f_prime(u * phase), cfg.tol)
    # tail: |f'| * C e^{-delta' u sin(theta)} beyond u_max
    fmax = abs(f.f_prime(u_max * phase))
    tail = fmax * _fit_tail(nodes, xis, u_max, dprime * np.sin(theta)) / np.pi
    return EnergyResult(float(value.imag) / np.pi, float(delta) / np.pi, tail,
                        tuple(zip(nodes.tolist(), xis.tolist())))


def birman_krein_trace(scene: Scene, grid: BoundaryGrid,
                       f: SmoothFunctionSpec) -> float:
    """Real-axis evaluation -integral f'(lambda) xi_rel(lambda) d lambda,
    the classical representation used to cross-check trace_df: 64 Gauss
    nodes on [1e-3, L / 4] and on [L / 4, L], e^{-t L^2} = e^{-45}."""
    if scene.n_obstacles == 1:
        return 0.0
    if f.t <= 0:
        raise LayerDetError("real-axis cross-check needs t > 0")
    lam_max = np.sqrt(45.0 / f.t)
    x, w = leggauss(64)
    panels = [(1e-3, 0.25 * lam_max), (0.25 * lam_max, lam_max)]
    total = 0.0
    for a, b in panels:
        nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
        weights = 0.5 * (b - a) * w
        shifts = xi_rel_many(scene, grid, nodes)
        vals = np.array([s.xi_rel for s in shifts])
        total += float(np.sum(weights * f.f_prime(nodes) * vals))
    return -total


def casimir_force(scene: Scene, grid: BoundaryGrid,
                  cfg: QuadConfig = QuadConfig()) -> EnergyResult:
    """-dE/ds = -(1/pi) * integral of dXi(i kappa)/ds (`xi_dsep`) over the
    energy's kappa range, for obstacle 1 of a two-obstacle scene moving
    along the unit vector from obstacle 0's centre to its own.  Exact in the
    separation; quad_err and tail_bound bound the spectral integral as for
    the energy.  Negative force = attraction (energy increases with
    separation)."""
    if scene.n_obstacles != 2:
        raise LayerDetError("the force needs a two-obstacle scene")
    return _xi_imag_weighted(scene, lambda k: xi_dsep(scene, grid, k),
                             lambda k: -1.0 / np.pi, cfg)
