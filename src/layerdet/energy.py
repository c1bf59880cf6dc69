"""Semi-infinite spectral integrals: Casimir energy and force, fractional
power traces, and smoothed relative traces over a sector contour.

Every integral goes through one driver, `_nested_cc`: nested
Clenshaw-Curtis rules in the logarithm of the integration variable on one
or two pieces, seeded by a 5-node rule, each level evaluating only its new
nodes, until from n = 32 on d_n = |I_n - I_{n/2}| stops growing and the
ratio estimate d_n^2 / d_{n/2} <= tol: that estimate is the contour's
quad_err; on the imaginary axis quad_err adds a bound on the omitted
segment (0, kappa_min).  The imaginary-axis integrals use one piece over
[kappa_min, kappa_max], the contour and the real-axis Birman-Krein
cross-check two split at 1 / gap (`_log_pieces`; all ends proportional to
inverse gap, so scene rescaling maps every node onto its scaled
counterpart).  The integrand decays like C e^{-delta' kappa} beyond the
gap scale and the truncated tail is bounded by fitting C on the last
decade of samples with the conservative rate delta' = 0.9 * gap.

The caller's grid is the finest level of every integral, on the imaginary
axis and on the contour alike (`_Levels`): each node is evaluated on the
coarsest embedded sub-grid (every 2nd, 4th, ... node) whose own estimates
|v_m - v_{m/2}| resolve it, starting coarse and climbing toward the
caller's grid only while they fail; disc_err integrates those estimates.
The contour's nodes are walked down its ray one level at a time, each later
level's walk from the largest node already on the branch.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import ConvergenceError, LayerDetError, UnresolvedGridError
from .geometry import BoundaryGrid, Scene
from .kernel import KAPPA_MIN_FACTOR
from .xi import (_DELTA_PRIME_FRACTION, _KAPPA_MAX_FACTOR, _check, _walker,
                 _xi_dsep_levels, _xi_imag_levels, xi_rel_many)


@dataclass(frozen=True)
class QuadConfig:
    """Spectral-quadrature tolerance: nested Clenshaw-Curtis levels n = 4,
    8, ... 256 over kappa in [1e-6 / gap, 30 / (0.9 gap)] stop from n = 32
    on once the ratio estimate d_n^2 / d_{n/2} of the level differences
    d_n = |I_n - I_{n/2}| is <= `tol` and d_n has not grown (`_nested_cc`),
    each node on the coarsest embedded grid whose estimates keep its share
    of the discretization error below `tol` / 4 (`_Levels`); the contour's
    rule is the same on its two pieces.  Nodes are evaluated one after
    another; the only parallelism is the BLAS library's threads inside
    each LU and solve, whose count moves the energy by about 1e-12."""

    tol: float = 1e-8

    def __post_init__(self):
        if not (np.isfinite(self.tol) and self.tol > 0):
            raise ValueError("tol must be positive and finite")


@dataclass(frozen=True)
class EnergyResult:
    """An integral with its error terms: quad_err of the spectral rule (the
    ratio estimate d_n^2 / d_{n/2} of its last level, plus on the imaginary
    axis a bound on the omitted (0, kappa_min)), tail_bound of the
    truncated range and disc_err of the boundary grids, None where no
    embedded sub-grid could estimate it."""
    value: float
    quad_err: float
    tail_bound: float
    samples: Tuple[Tuple[float, float], ...]
    disc_err: float | None = None


@dataclass(frozen=True)
class SmoothFunctionSpec:
    """The admitted trace-function family f(lambda) = g(lambda^2) with
    g(z) = z^a e^{-t z}; a > 0, decay t >= 0 (t = 0 only through the
    dedicated power-trace path)."""

    a: float
    t: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.a) and self.a > 0):
            raise ValueError("exponent a must be positive and finite")
        if not (np.isfinite(self.t) and self.t >= 0):
            raise ValueError("decay t must be non-negative and finite")

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
               weight: Callable[[np.ndarray], np.ndarray], tol: float,
               fail: Callable[[str], Exception] = ConvergenceError):
    """Integral of weight(x) * evaluate(x) from edges[0] to edges[-1], one
    log-mapped piece between consecutive edges, each with n + 1 nodes, n
    doubling from 4 and tested from 32 on (past 256 it raises
    fail(message), a ConvergenceError by default).

    The rule stops at the first level where d_n = |I_n - I_{n/2}| has not
    grown and the ratio estimate e_n = d_n^2 / d_{n/2} (d_n where d_{n/2}
    = 0) is <= tol: doubling n converges faster than geometrically, so e_n
    still over-reports the error, where d_n alone over-reports it by the
    whole level-to-level ratio.

    evaluate maps an array of abscissae to samples along its last axis
    (leading axes integrate independently and converge together); each
    level calls it once, on that level's new nodes.  Returns (value, err,
    nodes, samples, weights): err = e_n, the last level's nodes sorted and
    their weights, the shared end points' two weights summed.
    """
    n, edges = 4, np.asarray(edges, dtype=float)
    x, w = _pieces_rule(edges, n)
    vals = _eval_unique(evaluate, x)
    cur, d = np.sum(vals * w * weight(x), axis=(-2, -1)), None
    while True:
        n *= 2
        x, w = _pieces_rule(edges, n)
        # the odd nodes are new; the even ones are the previous level's
        vals = np.insert(vals, np.arange(1, n // 2 + 1),
                         _eval_unique(evaluate, x[:, 1::2]), axis=-1)
        prev, cur = cur, np.sum(vals * w * weight(x), axis=(-2, -1))
        d_prev, d = d, np.abs(cur - prev)
        # the levels below 16 only seed the embedded grids (`_Levels`)
        if n >= 32:
            with np.errstate(divide="ignore", invalid="ignore"):
                err = np.where(d_prev > 0, d ** 2 / d_prev, d)
            if np.all((d <= d_prev) & (err <= tol)):
                break
        if n >= 256:
            raise fail(f"spectral quadrature did not converge: "
                       f"|delta| = {np.max(d):.3e} at n = {n}")
    nodes, first, inv = np.unique(x.ravel(), return_index=True, return_inverse=True)
    return (cur, err, nodes, vals.reshape(vals.shape[:-2] + (-1,))[..., first],
            np.bincount(inv.ravel(), w.ravel()))


def _log_pieces(gap: float, top: float) -> np.ndarray:
    """Edges of two log-mapped pieces from kappa_min to top, split at
    min(1 / gap, top / 2): smooth in log below the gap scale, the piece
    beyond gets its own nodes for the oscillation off the imaginary axis."""
    return np.array([KAPPA_MIN_FACTOR / gap, min(1.0 / gap, 0.5 * top), top])


def _fit_tail(nodes, xis, kmax: float, dprime: float) -> float:
    """Least-squares fit of C in |Xi| <= C e^{-delta' kappa} on the last
    decade of samples; returns the integrated tail bound beyond kmax."""
    fit = (nodes >= kmax / 10.0) & (np.abs(xis) > 1e-300)
    if not np.any(fit):
        return 0.0
    ln_c = float(np.mean(np.log(np.abs(xis[fit])) + dprime * nodes[fit]))
    return np.exp(ln_c - dprime * kmax) / dprime


def _strides(grid: BoundaryGrid) -> list:
    """Strides s = 1, 2, 4, ... whose embedded grid has a sub-grid at 2 s,
    i.e. the levels whose own estimate |v_s - v_2s| exists."""
    out, s = [], 1
    while grid.embedded(2 * s) is not None:
        out.append(s)
        s *= 2
    return out


def _spread(vals) -> np.ndarray:
    # |v_s - v_2s| per level; a level without a value is not resolved
    return np.nan_to_num(np.abs(np.diff(vals)), nan=np.inf)


class _Levels:
    """The embedded level of each node of one integral of weight(x) v(x)
    over the log-mapped pieces between edges.

    grid is the finest level.  A node is resolved on the grid of every
    s-th node when d_s = |v_s - v_2s| x |weight| log(edges[-1] / edges[0])
    <= tol / 4: the log-mapped rule then keeps the integrated
    discretization error below tol / 4.  A seed node, with no known
    neighbour, starts on the coarsest stride whose sub-grids at 2 s and
    4 s exist (grid itself when it has fewer than two strides); every
    later node starts on the finer of its two neighbours' strides.  Each
    is assembled on its stride s with those sub-grids and moves one stride
    finer, at one more assembly, only while its own estimate fails.  Where
    d_s and d_2s both resolve it, it records 2 s, keeping v_s and d_s, so
    its neighbours start coarser.  `disc_err` sums weight |weight| d_s over
    the nodes.  A node whose estimate fails on grid itself stays there,
    unresolved, and `failure` blames those nodes when the nested rule does
    not converge.  var names the integration variable in messages."""

    def __init__(self, grid: BoundaryGrid, edges, weight: Callable, tol: float,
                 var: str = "kappa"):
        self.grid, self.edges, self.weight, self.tol = grid, edges, weight, tol
        self.strides, self.span = _strides(grid), np.log(edges[-1] / edges[0])
        self.level, self.disc, self.value, self.unresolved = {}, {}, {}, {}
        self.var = var

    def _resolved(self, x, d) -> bool:
        return d * x * abs(self.weight(x)) * self.span <= 0.25 * self.tol

    def evaluate(self, xs, sample: Callable) -> np.ndarray:
        """v at xs, one Clenshaw-Curtis level's new nodes in the order given.
        sample(x, g, subgrids) returns v at x on grid g and on each embedded
        sub-grid of g in subgrids, from one assembly on g."""
        known = np.array(sorted(self.level))
        return np.array([self._node(x, known, sample) for x in xs])

    def _node(self, x, known, sample):
        grid, strides = self.grid, self.strides
        if known.size:
            i = np.searchsorted(known, x)
            s = min(self.level[k] for k in known[max(i - 1, 0):i + 1].tolist())
        else:
            s = strides[-2] if len(strides) > 1 else 1
        while True:
            subs = (grid.embedded(2 * s), grid.embedded(4 * s))
            vals = sample(x, grid.embedded(s), [g for g in subs if g is not None])
            v, ds = vals[0], _spread(vals)
            if s == 1 or self._resolved(x, ds[0]):
                break
            s //= 2
        if len(ds) > 1 and all(self._resolved(x, d) for d in ds):
            s *= 2
        if np.isnan(v):
            raise LayerDetError("negative determinant sign product on the "
                                f"imaginary axis at kappa = {x}")
        self.level[x], self.disc[x], self.value[x] = s, ds[0] if strides else None, v
        if strides and s == 1 and not self._resolved(x, ds[0]):
            self.unresolved[x] = ds[0]
        return v

    def failure(self, message: str) -> LayerDetError:
        """The error for `_nested_cc`'s message: UnresolvedGridError naming
        the unresolved nodes' range, the largest estimate and the grid
        when there are any, else ConvergenceError."""
        if not self.unresolved:
            return ConvergenceError(message)
        xs, worst = sorted(self.unresolved), max(self.unresolved, key=self.unresolved.get)
        return UnresolvedGridError(
            f"{message}, while {len(xs)} nodes at {self.var} in [{xs[0]:.4g}, "
            f"{xs[-1]:.4g}] are not resolved on the grid of "
            f"{self.grid.n_per_obstacle} nodes per obstacle: |v_n - v_n/2| "
            f"up to {self.unresolved[worst]:.3e} at {self.var} = {worst:.4g}")

    def disc_err(self, nodes: np.ndarray, w: np.ndarray) -> float | None:
        """The final rule's weight w times |weight| d_s summed over its nodes
        (sorted, as `_nested_cc` returns both), None where grid has no
        embedded sub-grid."""
        if not self.strides:
            return None
        d = np.array([self.disc[k] for k in nodes.tolist()])
        return float(np.sum(w * np.abs(self.weight(nodes)) * d))


def _xi_imag_weighted(scene: Scene, grid: BoundaryGrid, sample: Callable,
                      weight: Callable, cfg: QuadConfig) -> EnergyResult:
    """Integral of weight(kappa) v(kappa) over [1e-6 / gap, 30 / (0.9 gap)]
    of a multi-obstacle scene, v being Xi(i kappa) or a derivative of it,
    each node on its embedded level (`_Levels`).  sample(scene, g, kappa,
    subgrids) returns v on grid g and on each embedded sub-grid of g in
    subgrids, from one assembly on g."""
    dprime = _DELTA_PRIME_FRACTION * scene.gap
    kmin, kmax = KAPPA_MIN_FACTOR / scene.gap, _KAPPA_MAX_FACTOR / dprime
    levels = _Levels(grid, np.array([kmin, kmax]), weight, cfg.tol)

    def evaluate(ks):
        return levels.evaluate(ks.tolist(), lambda k, g, subs: sample(scene, g, k, subs))

    value, err, nodes, vals, w = _nested_cc(levels.edges, evaluate, weight, cfg.tol,
                                            levels.failure)
    near_zero = kmin * max(abs(weight(kmin)), abs(weight(2.0 * kmin))) * \
        np.max(np.abs(vals[nodes <= 2.0 * kmin]))
    tail = _fit_tail(nodes, vals, kmax, dprime)
    # once the integrand sits below the log-determinant rounding scale,
    # any extension integrates noise; bound that by a rectangle over the
    # magnitudes observed on [kappa_max / 2, kappa_max]
    noise_tail = 0.5 * kmax * np.max(np.abs(vals[nodes >= 0.5 * kmax]))
    return EnergyResult(float(value), float(err + near_zero),
                        float(abs(weight(kmax)) * max(tail, noise_tail)),
                        tuple(zip(nodes.tolist(), vals.tolist())),
                        levels.disc_err(nodes, w))


def casimir_energy(scene: Scene, grid: BoundaryGrid,
                   cfg: QuadConfig = QuadConfig()) -> EnergyResult:
    """(1/pi) * integral of Xi(i kappa) over (0, inf): the vacuum energy of
    the assembled configuration relative to separated obstacles."""
    if scene.n_obstacles == 1:
        return EnergyResult(0.0, 0.0, 0.0, (), 0.0)
    return _xi_imag_weighted(scene, grid, _xi_imag_levels, lambda k: 1.0 / np.pi, cfg)


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
        return EnergyResult(0.0, 0.0, 0.0, (), 0.0)
    pref = (2.0 * s / np.pi) * np.sin(np.pi * s)
    return _xi_imag_weighted(scene, grid, _xi_imag_levels,
                             lambda k: pref * k ** (2.0 * s - 1.0), cfg)


def trace_df(scene: Scene, grid: BoundaryGrid, f: SmoothFunctionSpec,
             cfg: QuadConfig = QuadConfig(), theta: float = np.pi / 8) -> EnergyResult:
    """Tr D_f = (i/2pi) * contour integral of f'(lambda) Xi(lambda) over the
    sector boundary rays u e^{i theta} and u e^{i (pi - theta)}, each node
    on its embedded level (`_Levels`).

    The kernels obey Q(-conj(lambda)) = conj(Q(lambda)) entrywise, so the
    left-ray integral is exactly the conjugate of the right-ray one and the
    trace reduces to (1/pi) Im of the right-ray integral; this is an exact
    discrete identity, not an approximation.  Requires t > 0 with
    2 theta < pi/2 so e^{-t lambda^2} decays on both rays.
    """
    _check(scene, grid)
    if f.t <= 0:
        raise LayerDetError("trace_df needs t > 0; use power_trace for t = 0")
    if not 0 < theta < np.pi / 4:
        raise LayerDetError("contour half-angle must satisfy 0 < 2*theta < pi/2")
    if scene.n_obstacles == 1:
        return EnergyResult(0.0, 0.0, 0.0, (), 0.0)
    gap = scene.gap
    dprime = _DELTA_PRIME_FRACTION * gap
    u_max = min(np.sqrt(45.0 / (f.t * np.cos(2 * theta))),
                45.0 / (dprime * np.sin(theta)))
    phase = np.exp(1j * theta)
    edges = _log_pieces(gap, u_max)

    def weight(u):
        return phase * f.f_prime(u * phase)

    levels = _Levels(grid, edges, weight, cfg.tol, "|lambda|")

    def evaluate(us):
        # one walk per level down the ray through its new nodes, started at
        # the largest node already on the branch, or from the imaginary axis
        desc = us[::-1].tolist()
        top = max(levels.value, default=None)
        walker = _walker(scene, grid, desc[0] * phase,
                         None if top is None else (top * phase, levels.value[top]))
        return levels.evaluate(desc, lambda u, g, subs:
                               walker.step(u * phase, g, subs))[::-1]

    value, err, nodes, xis, w = _nested_cc(edges, evaluate, weight, cfg.tol,
                                           levels.failure)
    # tail: |f'| * C e^{-delta' u sin(theta)} beyond u_max
    fmax = abs(f.f_prime(u_max * phase))
    tail = fmax * _fit_tail(nodes, xis, u_max, dprime * np.sin(theta)) / np.pi
    disc = levels.disc_err(nodes, w)
    return EnergyResult(float(value.imag) / np.pi, float(err) / np.pi, tail,
                        tuple(zip(nodes.tolist(), xis.tolist())),
                        None if disc is None else disc / np.pi)


def birman_krein_trace(scene: Scene, grid: BoundaryGrid,
                       f: SmoothFunctionSpec) -> float:
    """Real-axis evaluation -integral f'(lambda) xi_rel(lambda) d lambda,
    the classical representation used to cross-check trace_df: `_nested_cc`
    over `_log_pieces` up to L, e^{-t L^2} = e^{-45}, each level's new
    nodes one `xi_rel_many` walk.  The rule's tolerance is fixed at 1e-12,
    well below any trace_df it checks."""
    if scene.n_obstacles == 1:
        return 0.0
    if f.t <= 0:
        raise LayerDetError("real-axis cross-check needs t > 0")

    def evaluate(lams):
        return np.array([s.xi_rel for s in xi_rel_many(scene, grid, lams)])

    value = _nested_cc(_log_pieces(scene.gap, np.sqrt(45.0 / f.t)), evaluate,
                       f.f_prime, 1e-12)[0]
    return -float(value)


def casimir_force(scene: Scene, grid: BoundaryGrid,
                  cfg: QuadConfig = QuadConfig()) -> EnergyResult:
    """-dE/ds = -(1/pi) * integral of dXi(i kappa)/ds (`_xi_dsep_levels`)
    over the energy's kappa range, for obstacle 1 of a two-obstacle scene
    moving along the unit vector from obstacle 0's centre to its own.  Exact
    in the separation; quad_err and tail_bound bound the spectral integral as
    for the energy.  Negative force = attraction (energy increases with
    separation)."""
    if scene.n_obstacles != 2:
        raise LayerDetError("the force needs a two-obstacle scene")
    return _xi_imag_weighted(scene, grid, _xi_dsep_levels, lambda k: -1.0 / np.pi, cfg)
