"""The boundary-layer determinant Xi(lambda) = log det(Q Qtilde^{-1}), its
derivatives in lambda and in the obstacles' separation, the relative
resolvent trace, and the relative spectral shift.

Xi is computed as the difference of two LU log-determinants, never through
the difference operator itself: each log-magnitude is O(1)-conditioned and
the subtraction is exact to the rounding floor, because Qtilde is factored
at full size (`layer_ops.LayerPair`), so its pivots round as Q's do.  The
derivative Xi' uses the opposite strategy: it is evaluated from the
difference-structured operator form  (dT) Q^{-1} - (dQtilde) Qtilde^{-1} T
Q^{-1}, whose traces involve only small (cross-coupling) factors, avoiding
the cancellation of two large traces.

On the imaginary axis everything is real; Xi elsewhere carries the branch of
the logarithm fixed by continuity along a descent path from i*Lambda (where
the exponential bound forces Xi ~ 0) to the evaluation point.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ConvergenceError, LayerDetError, SingularOperatorError
from .geometry import BoundaryGrid, Scene
from .kernel import SpectralPoint
from .layer_ops import (LayerPair, assemble_dq, assemble_dt_dsep, assemble_q,
                        factorize, layer_pair, solve, split_blocks)

#: descent anchor i*Lambda with Lambda = _LAMBDA_FACTOR / delta'
_LAMBDA_FACTOR = 20.0
#: delta' = _DELTA_PRIME_FRACTION * gap in every decay-rate estimate
_DELTA_PRIME_FRACTION = 0.9
#: descent-path segments from i*Lambda; the spectral shift's eta / lambda
_DESCENT_STEPS, _ETA_REL = 24, 1e-3

#: rounding-floor scale for err_est fields
_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class XiSample:
    sp: SpectralPoint
    xi: complex
    branch_offset: int
    err_est: float


@dataclass(frozen=True)
class ShiftSample:
    lam: float
    xi_rel: float
    eta_used: float
    err_est: float


def _check(scene: Scene, grid: BoundaryGrid):
    if grid.scene is not scene and grid.scene != scene:
        raise LayerDetError("grid was built for a different scene")


def _logdet_pair(grid: BoundaryGrid, sp: SpectralPoint) -> LayerPair:
    pair = layer_pair(grid, sp)
    if sp.is_imaginary and (pair.fq.sign < 0 or pair.ft.sign < 0):
        # positivity of the layer operator at imaginary wavenumber is an
        # empirical diagnostic, not a correctness assumption; fixed message
        # so the default warning filter deduplicates repeats
        warnings.warn("negative LU pivot sign for an imaginary-axis layer "
                      "matrix (grid underresolved for this kappa?)",
                      RuntimeWarning, stacklevel=3)
    return pair


def xi_imag(scene: Scene, grid: BoundaryGrid, kappa: float) -> XiSample:
    """Xi(i kappa): real, from two real LU log-determinants."""
    _check(scene, grid)
    sp = SpectralPoint.imaginary(kappa)
    pair = _logdet_pair(grid, sp)
    fq, ft = pair.fq, pair.ft
    if fq.sign * ft.sign <= 0:
        raise LayerDetError(
            "negative determinant sign product on the imaginary axis "
            f"(signs {fq.sign}, {ft.sign}); internal consistency violated")
    floor = (abs(fq.log_abs_det) + abs(ft.log_abs_det) + 1.0) * 8 * _EPS
    return XiSample(sp, pair.log_det_ratio(), 0, floor)


class _Unwrapper:
    """Continuous-branch walker along a path of spectral points."""

    def __init__(self, grid: BoundaryGrid, budget: int = 600):
        self.grid = grid
        self.budget = budget
        self.evals = 0
        self.offset = 0

    def _eval(self, z: complex) -> complex:
        if self.evals >= self.budget:
            raise ConvergenceError("phase-unwrapping budget exceeded")
        self.evals += 1
        for attempt in range(4):
            try:
                return _logdet_pair(self.grid, SpectralPoint.from_complex(z)).log_det_ratio()
            except SingularOperatorError:
                # lambda^2 grazing an interior Dirichlet eigenvalue: deform
                # the path locally upward
                z = z + 1j * max(1e-6, 1e-3 * abs(z)) * 4.0 ** attempt
        raise SingularOperatorError("path deformation failed near a "
                                    f"singular spectral point {z}")

    def walk(self, path) -> list:
        """Xi at every point of path.  The first point is an anchor where
        Xi is negligible and takes the branch nearest Im Xi = 0; every later
        point keeps Im within pi/2 of its predecessor by absorbing 2 pi
        multiples and bisecting oversized steps."""
        raw = self._eval(path[0])
        m = -np.round(raw.imag / (2 * np.pi))
        self.offset = int(m)
        prev = (path[0], raw + 2j * np.pi * m)
        vals = [prev[1]]
        for z in path[1:]:
            prev = self._step(prev, z, 0)
            vals.append(prev[1])
        return vals

    def _step(self, prev, z: complex, depth: int):
        prev_z, prev_val = prev
        raw = self._eval(z)
        m = np.round((prev_val.imag - raw.imag) / (2 * np.pi))
        val = raw + 2j * np.pi * m
        if abs(val.imag - prev_val.imag) > np.pi / 2:
            if depth > 48:
                raise ConvergenceError("unwrapping step cannot be refined further")
            prev = self._step(prev, 0.5 * (prev_z + z), depth + 1)
            return self._step(prev, z, depth + 1)
        self.offset += int(m)
        return z, val


def _delta_prime(scene: Scene) -> float:
    if not np.isfinite(scene.gap):
        raise LayerDetError("descent anchor needs a multi-obstacle scene")
    return _DELTA_PRIME_FRACTION * scene.gap


def _descent_points(target: complex, dprime: float):
    lam_big = _LAMBDA_FACTOR / dprime
    u = np.linspace(0.0, 1.0, _DESCENT_STEPS + 1)
    mod = np.exp(np.log(lam_big) + (np.log(abs(target)) - np.log(lam_big)) * u)
    ang = 0.5 * np.pi + (np.angle(target) - 0.5 * np.pi) * u
    return mod * np.exp(1j * ang)


def _positive(values, what: str) -> None:
    if np.any(np.asarray(values) <= 0):
        raise ValueError(f"{what} must be positive")


def _richardson(f4, f2, f1):
    """Extrapolate samples at eta in {4, 2, 1} * eta0 to eta -> 0; returns
    the extrapolated value and its error estimate."""
    g2, g1 = 2 * f2 - f4, 2 * f1 - f2
    rich = (4 * g1 - g2) / 3.0
    return rich, np.abs(rich - g1) + 64 * _EPS


def xi_real(scene: Scene, grid: BoundaryGrid, lam: float,
            eta: float | None = None) -> XiSample:
    """Xi(lambda + i eta) near the positive real axis, branch fixed by
    continuity from i*Lambda where Xi vanishes."""
    _check(scene, grid)
    _positive(lam, "lam")
    eta = _ETA_REL * lam if eta is None else float(eta)
    _positive(eta, "eta")
    target = lam + 1j * eta
    sp = SpectralPoint.from_complex(target)
    if scene.n_obstacles == 1:
        return XiSample(sp, 0.0 + 0.0j, 0, 0.0)
    walker = _Unwrapper(grid)
    val = walker.walk(_descent_points(target, _delta_prime(scene)))[-1]
    floor = (abs(val.real) + 1.0) * 16 * _EPS
    return XiSample(sp, val, walker.offset, floor)


def xi_rel(scene: Scene, grid: BoundaryGrid, lam: float) -> ShiftSample:
    """Relative spectral shift xi_rel(lambda) = -(1/pi) Im Xi(lambda + i0),
    Richardson-extrapolated over eta in {4, 2, 1} * eta0, eta0 = 1e-3 lambda."""
    _check(scene, grid)
    _positive(lam, "lam")
    eta0 = _ETA_REL * lam
    if scene.n_obstacles == 1:
        return ShiftSample(lam, 0.0, eta0, 0.0)
    path = [*_descent_points(lam + 4j * eta0, _delta_prime(scene)),
            lam + 2j * eta0, lam + 1j * eta0]
    f4, f2, f1 = (-v.imag / np.pi for v in _Unwrapper(grid).walk(path)[-3:])
    rich, err = _richardson(f4, f2, f1)
    return ShiftSample(lam, rich, eta0, err)


def xi_rel_many(scene: Scene, grid: BoundaryGrid,
                lams: Sequence[float]) -> List[ShiftSample]:
    """Batch xi_rel on a lambda grid: one descent from i*Lambda to the
    largest lambda at 4 eta, then one unwrapping walk down the 4 eta ray, up
    the 2 eta ray and down the 1 eta ray (rays through the origin, eta =
    1e-3 lambda)."""
    _check(scene, grid)
    lams = np.asarray(list(lams), dtype=float)
    _positive(lams, "lambda grid")
    if scene.n_obstacles == 1 or not lams.size:
        return [ShiftSample(l, 0.0, _ETA_REL * l, 0.0) for l in lams]
    order = np.argsort(lams)[::-1]
    sorted_lams = lams[order]
    dprime = _delta_prime(scene)
    rays = [sorted_lams * (1.0 + 1j * c)
            for c in (4 * _ETA_REL, 2 * _ETA_REL, _ETA_REL)]
    path = [*_descent_points(rays[0][0], dprime), *rays[0][1:]]
    # each level's largest point is where a descent to it ends, ulps off the ray
    rays[1][0], rays[2][0] = (_descent_points(r[0], dprime)[-1] for r in rays[1:])
    path += [*rays[1][::-1], *rays[2]]
    vals = _Unwrapper(grid, budget=80 + 90 * lams.size).walk(path)[-3 * lams.size:]
    f4, f2, f1 = (-np.array([v.imag for v in level]) / np.pi
                  for level in np.split(np.array(vals), 3))
    rich, err = _richardson(f4, f2[::-1], f1)
    out = [None] * lams.size
    for pos, idx in enumerate(order):
        out[idx] = ShiftSample(float(lams[idx]), float(rich[pos]),
                               _ETA_REL * float(lams[idx]), float(err[pos]))
    return out


def xi_on_ray(scene: Scene, grid: BoundaryGrid, angle: float,
              u_values: Sequence[float]) -> np.ndarray:
    """Xi(u e^{i angle}) with a continuous branch, anchored far out on the
    ray where the exponential bound makes Xi negligible."""
    _check(scene, grid)
    u = np.asarray(list(u_values), dtype=float)
    _positive(u, "ray moduli")
    if scene.n_obstacles == 1 or not u.size:
        return np.zeros(u.size, dtype=complex)
    u_anchor = _LAMBDA_FACTOR / (_delta_prime(scene) * np.sin(angle))
    order = np.argsort(u)[::-1]
    phase = np.exp(1j * angle)
    # geometric approach from the anchor to the largest node
    lead = np.geomspace(max(u_anchor, u[order[0]] * 1.5), u[order[0]], 8)
    path = [v * phase for v in lead] + [u[idx] * phase for idx in order[1:]]
    out = np.empty(u.size, dtype=complex)
    out[order] = _Unwrapper(grid, budget=120 + 30 * u.size).walk(path)[-u.size:]
    return out


# ---------------------------------------------------------------------------
# derivative and relative-resolvent traces
# ---------------------------------------------------------------------------

def _trace_product(U: np.ndarray, V: np.ndarray):
    # Tr(U @ V) without forming the product
    return np.sum(U * V.T)


def _trace_terms(grid: BoundaryGrid, sp: SpectralPoint, both_paths: bool):
    """Assemble and factor Q and Qtilde once and return the
    difference-structured trace  d = Tr[(dT) Q^{-1}] - Tr[(dQtilde)
    Qtilde^{-1} T Q^{-1}]  and, with both_paths, the independent
    Tr[(dQ)(Q^{-1} - Qtilde^{-1})] = -Tr[Qtilde^{-1} dQ Q^{-1} T]  (else
    None).

    Derivatives are in the axis variable of `assemble_dq`: on the
    imaginary axis all matrices are real and d is a kappa derivative, so
    callers apply the chain factor dlambda = i dkappa.
    """
    fq, ft, T = layer_pair(grid, sp)
    dq = assemble_dq(grid, sp).entries
    dqt, dT = split_blocks(dq, grid.blocks)
    d = np.trace(solve(fq, dT)) - _trace_product(solve(fq, dqt), solve(ft, T))
    if not both_paths:
        return d, None
    return d, -_trace_product(solve(ft, dq), solve(fq, T))


def _rrel_from_trace(d, sp: SpectralPoint) -> complex:
    # -Xi'/(2 lambda); on the imaginary axis d is a kappa derivative and
    # -(-i d)/(2 i kappa) = d/(2 kappa) is real
    if sp.is_imaginary:
        return complex(d / (2 * sp.value))
    return complex(-d / (2 * sp.lam))


def xi_prime(scene: Scene, grid: BoundaryGrid, sp: SpectralPoint) -> complex:
    """Xi'(lambda) by the difference-structured trace
    Tr[(dT) Q^{-1}] - Tr[(dQtilde) Qtilde^{-1} T Q^{-1}]."""
    _check(scene, grid)
    if scene.n_obstacles == 1:
        return 0.0 + 0.0j
    d, _ = _trace_terms(grid, sp, both_paths=False)
    if sp.is_imaginary:
        return -1j * d        # dXi/dlambda = -i dXi/dkappa at lambda = i kappa
    return complex(d)


def trace_rrel(scene: Scene, grid: BoundaryGrid, sp: SpectralPoint,
               both_paths: bool = False):
    """Tr R_rel(lambda) = -Xi'(lambda) / (2 lambda).

    With both_paths=True also returns the independent evaluation through
    S^t S = (1/2 lambda) dQ/dlambda, i.e.
    -(1/2 lambda) Tr[(dQ/dlambda)(Q^{-1} - Qtilde^{-1})] with the inverse
    difference in its factorized form -Q^{-1} T Qtilde^{-1}.
    """
    _check(scene, grid)
    if scene.n_obstacles == 1:
        return (0j, 0j) if both_paths else 0j
    d, alt = _trace_terms(grid, sp, both_paths)
    primary = _rrel_from_trace(d, sp)
    if not both_paths:
        return primary
    return primary, _rrel_from_trace(alt, sp)


def xi_dsep(scene: Scene, grid: BoundaryGrid, kappa: float) -> float:
    """dXi(i kappa)/ds when obstacle 1 of a two-obstacle scene moves by s
    along the unit vector from obstacle 0's centre to obstacle 1's.

    A rigid motion leaves Qtilde unchanged, so dXi/ds = Tr[Q^{-1} dT/ds]
    exactly: one Q assembly and one LU, and the trace involves only the
    small coupling T's derivative."""
    _check(scene, grid)
    if scene.n_obstacles != 2:
        raise LayerDetError("the separation derivative needs a two-obstacle scene")
    sp = SpectralPoint.imaginary(kappa)
    axis = np.subtract(scene.obstacles[1].center, scene.obstacles[0].center)
    dT = assemble_dt_dsep(grid, sp, axis / np.hypot(*axis))
    return float(np.trace(solve(factorize(assemble_q(grid, sp)), dT)))
