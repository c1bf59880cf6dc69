"""Semi-infinite spectral integrals: Casimir energy, fractional power
traces, smoothed relative traces over a sector contour, and finite
difference forces.

The imaginary-axis integrals use composite Gauss-Legendre panels placed
geometrically between kappa_min and kappa_max (both proportional to inverse
gap, so scene rescaling maps every sample exactly onto its scaled
counterpart); panel orders double until the panel increment is below its
share of the tolerance.  The integrand decays like C e^{-delta' kappa}
beyond the gap scale and the truncated tail is bounded by fitting C on the
last decade of samples with the conservative rate delta' = 0.9 * gap.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConvergenceError, LayerDetError
from .geometry import BoundaryGrid, Scene, discretize
from .kernel import KAPPA_MIN_FACTOR
from .xi import _DELTA_PRIME_FRACTION, xi_imag, xi_on_ray, xi_rel_many


@dataclass(frozen=True)
class QuadConfig:
    """Panel quadrature controls.  kappa_min/kappa_max default to
    1e-6 / gap and 30 / (0.9 gap); explicit panel_edges override the
    geometric construction (used to match grids across force evaluations)."""

    tol: float = 1e-8
    order: int = 16
    max_order: int = 256
    kappa_min: Optional[float] = None
    kappa_max: Optional[float] = None
    panel_edges: Optional[Tuple[float, ...]] = None
    threads: int = 1


@dataclass(frozen=True)
class EnergyResult:
    value: float
    quad_err: float
    tail_bound: float
    samples: Tuple[Tuple[float, float], ...]


@dataclass(frozen=True)
class SmoothFunctionSpec:
    """The admitted trace-function family f(lambda) = g(lambda^2) with
    g(z) = scale * z^a e^{-t z}; a > 0, decay t >= 0 (t = 0 only through
    the dedicated power-trace path).  The scalar multiple keeps the family
    closed under linear rescaling."""

    a: float
    t: float = 0.0
    scale: float = 1.0

    def __post_init__(self):
        if self.a <= 0:
            raise ValueError("exponent a must be positive")
        if self.t < 0:
            raise ValueError("decay t must be non-negative")

    def f(self, lam):
        z = np.asarray(lam) ** 2
        return self.scale * np.power(z, self.a) * np.exp(-self.t * z)

    def f_prime(self, lam):
        lam = np.asarray(lam)
        z = lam ** 2
        return 2.0 * self.scale * lam * np.power(z, self.a - 1.0) \
            * np.exp(-self.t * z) * (self.a - self.t * z)


def panel_edges_for(scene: Scene, cfg: QuadConfig) -> Tuple[float, ...]:
    """Geometric panel edges kappa_min * 2^j capped at kappa_max."""
    if cfg.panel_edges is not None:
        return tuple(cfg.panel_edges)
    gap = scene.gap
    if not np.isfinite(gap):
        raise LayerDetError("panel construction needs a multi-obstacle scene")
    kmin = cfg.kappa_min if cfg.kappa_min is not None else KAPPA_MIN_FACTOR / gap
    kmax = cfg.kappa_max if cfg.kappa_max is not None else \
        30.0 / (_DELTA_PRIME_FRACTION * gap)
    if not 0 < kmin < kmax:
        raise ValueError("need 0 < kappa_min < kappa_max")
    edges = [kmin]
    while edges[-1] < kmax:
        edges.append(min(edges[-1] * 2.0, kmax))
    return tuple(edges)


def _gl_panel(fn, mapper, a: float, b: float, order: int, samples: list) -> float:
    x, w = leggauss(order)
    xs = 0.5 * (b - a) * x + 0.5 * (a + b)
    vals = np.fromiter(mapper(fn, xs), dtype=float, count=xs.size)
    samples.extend(zip(xs.tolist(), vals.tolist()))
    return 0.5 * (b - a) * float(np.dot(w, vals))


def _integrate_panels(fn: Callable[[float], float], edges: Sequence[float],
                      cfg: QuadConfig):
    """Per-panel order doubling until each panel increment is below its
    share of the tolerance.  Returns (value, quad_err, samples).

    Samples within a panel evaluate concurrently when cfg.threads > 1; the
    ordered collection keeps results independent of the thread count.
    """
    npan = len(edges) - 1
    tol_panel = cfg.tol / max(npan, 1)
    total, err = 0.0, 0.0
    samples: List[Tuple[float, float]] = []
    pool = ThreadPoolExecutor(cfg.threads) if cfg.threads > 1 else None
    mapper = pool.map if pool is not None else map
    try:
        for a, b in zip(edges[:-1], edges[1:]):
            order = cfg.order
            prev = _gl_panel(fn, mapper, a, b, order, [])
            while True:
                order *= 2
                keep: list = []
                cur = _gl_panel(fn, mapper, a, b, order, keep)
                delta = abs(cur - prev)
                if delta <= tol_panel or order >= cfg.max_order:
                    if delta > tol_panel:
                        raise ConvergenceError(
                            f"panel [{a:g}, {b:g}] did not converge: "
                            f"|delta| = {delta:.3e} at order {order}")
                    total += cur
                    err += delta
                    samples.extend(keep)
                    break
                prev = cur
    finally:
        if pool is not None:
            pool.shutdown()
    return total, err, samples


def _fit_tail(samples, kmax: float, dprime: float) -> float:
    """Least-squares fit of C in |Xi| <= C e^{-delta' kappa} on the last
    decade of samples; returns the integrated tail bound beyond kmax."""
    pts = [(k, abs(v)) for k, v in samples if k >= kmax / 10.0 and abs(v) > 1e-300]
    if not pts:
        return 0.0
    ks = np.array([p[0] for p in pts])
    lv = np.log(np.array([p[1] for p in pts]))
    ln_c = float(np.mean(lv + dprime * ks))
    return np.exp(ln_c - dprime * kmax) / dprime


def _xi_imag_weighted(scene: Scene, grid: BoundaryGrid,
                      weight: Callable[[float], float], cfg: QuadConfig):
    edges = panel_edges_for(scene, cfg)
    gap = scene.gap
    dprime = _DELTA_PRIME_FRACTION * gap

    def integrand(k: float) -> float:
        return weight(k) * xi_imag(scene, grid, k).xi.real

    value, err, wsamples = _integrate_panels(integrand, edges, cfg)
    # recover bare Xi samples for the tail fit and the result trace
    samples = tuple((k, v / weight(k)) for k, v in wsamples)
    kmin, kmax = edges[0], edges[-1]
    first = [abs(v) for k, v in samples if k <= edges[1]]
    near_zero = kmin * max(abs(weight(kmin)), abs(weight(edges[1]))) * \
        (max(first) if first else 0.0)
    tail = abs(weight(kmax)) * _fit_tail(samples, kmax, dprime)
    # once the integrand sits below the log-determinant rounding scale, any
    # extension integrates noise; bound that by a rectangle over the last
    # panel's observed magnitudes
    last = max((abs(v) for k, v in samples if k >= edges[-2]), default=0.0)
    noise_tail = 0.5 * kmax * abs(weight(kmax)) * last
    return value, err + near_zero, max(tail, noise_tail), samples


def casimir_energy(scene: Scene, grid: BoundaryGrid,
                   cfg: QuadConfig = QuadConfig()) -> EnergyResult:
    """(1/pi) * integral of Xi(i kappa) over (0, inf): the vacuum energy of
    the assembled configuration relative to separated obstacles."""
    if scene.n_obstacles == 1:
        return EnergyResult(0.0, 0.0, 0.0, ())
    value, err, tail, samples = _xi_imag_weighted(
        scene, grid, lambda k: 1.0 / np.pi, cfg)
    return EnergyResult(value, err, tail, tuple(samples))


def power_trace(scene: Scene, grid: BoundaryGrid, s: float,
                cfg: QuadConfig = QuadConfig()) -> EnergyResult:
    """Relative trace of the power family:
    (2s/pi) sin(pi s) * integral kappa^{2s-1} Xi(i kappa) d kappa.

    s in (0, 1); the boundary s = 1 returns exactly 0 (the sin prefactor
    annihilates the integral in the operator identity's limit sense).
    """
    if not 0.0 < s <= 1.0:
        raise ValueError("power trace supports s in (0, 1]")
    if s == 1.0:
        return EnergyResult(0.0, 0.0, 0.0, ())
    if scene.n_obstacles == 1:
        return EnergyResult(0.0, 0.0, 0.0, ())
    pref = (2.0 * s / np.pi) * np.sin(np.pi * s)

    def weight(k: float) -> float:
        return pref * k ** (2.0 * s - 1.0)

    value, err, tail, samples = _xi_imag_weighted(scene, grid, weight, cfg)
    return EnergyResult(value, err, tail, tuple(samples))


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
    u_min = KAPPA_MIN_FACTOR / gap
    u_max = min(np.sqrt(45.0 / (f.t * np.cos(2 * theta))),
                45.0 / (dprime * np.sin(theta)))
    edges = [u_min]
    while edges[-1] < u_max:
        edges.append(min(edges[-1] * 2.0, u_max))
    phase = np.exp(1j * theta)

    def ray_integral(order: int):
        x, w = leggauss(order)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * w)
        nodes = np.concatenate(nodes)
        weights = np.concatenate(weights)
        xis = xi_on_ray(scene, grid, theta, nodes)
        fp = f.f_prime(nodes * phase)
        return complex(phase * np.sum(weights * fp * xis)), nodes, xis

    order = cfg.order
    prev, _, _ = ray_integral(order)
    while True:
        order *= 2
        cur, nodes, xis = ray_integral(order)
        delta = abs(cur - prev)
        if delta <= cfg.tol or order >= cfg.max_order:
            if delta > cfg.tol:
                raise ConvergenceError(f"contour quadrature stalled at order "
                                       f"{order}: |delta| = {delta:.3e}")
            break
        prev = cur
    value = float(cur.imag) / np.pi
    # tail: |f'| * C e^{-delta' u sin(theta)} beyond u_max
    fmax = abs(f.f_prime(u_max * phase))
    tail = fmax * _fit_tail([(u, x) for u, x in zip(nodes, xis)],
                            u_max, dprime * np.sin(theta)) / np.pi
    samples = tuple((float(u), complex(x)) for u, x in zip(nodes, xis))
    return EnergyResult(value, delta / np.pi, tail, samples)


def birman_krein_trace(scene: Scene, grid: BoundaryGrid, f: SmoothFunctionSpec,
                       n_nodes: int = 64, lam_max: Optional[float] = None) -> float:
    """Real-axis evaluation -integral f'(lambda) xi_rel(lambda) d lambda,
    the classical representation used to cross-check trace_df."""
    if scene.n_obstacles == 1:
        return 0.0
    if f.t <= 0:
        raise LayerDetError("real-axis cross-check needs t > 0")
    if lam_max is None:
        lam_max = np.sqrt(45.0 / f.t)
    x, w = leggauss(n_nodes)
    panels = [(1e-3, 0.25 * lam_max), (0.25 * lam_max, lam_max)]
    total = 0.0
    for a, b in panels:
        nodes = 0.5 * (b - a) * x + 0.5 * (a + b)
        weights = 0.5 * (b - a) * w
        shifts = xi_rel_many(scene, grid, nodes)
        vals = np.array([s.xi_rel for s in shifts])
        total += float(np.sum(weights * f.f_prime(nodes) * vals))
    return -total


def casimir_force(scene_builder: Callable[[float], Scene], separation: float,
                  h: float, n_per_obstacle, cfg: QuadConfig = QuadConfig()) -> float:
    """-dE/d(separation) by central difference with matched kappa panels
    (panels frozen from the centre separation so quadrature bias cancels).
    Negative force = attraction (energy increases with separation)."""
    if h <= 0 or h >= separation:
        raise ValueError("need 0 < h < separation")
    # freeze panels from the tightest configuration: its kappa_min is the
    # largest, so the shared edges stay admissible for both evaluations
    edges = panel_edges_for(scene_builder(separation - h), cfg)
    cfg_frozen = replace(cfg, panel_edges=edges)
    energies = []
    for s in (separation + h, separation - h):
        scene = scene_builder(s)
        grid = discretize(scene, n_per_obstacle)
        energies.append(casimir_energy(scene, grid, cfg_frozen).value)
    return -(energies[0] - energies[1]) / (2.0 * h)
