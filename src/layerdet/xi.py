"""The boundary-layer determinant Xi(lambda) = log det(Q Qtilde^{-1}), its
derivatives in lambda and in the obstacles' separation, the relative
resolvent trace, and the relative spectral shift.

Xi is computed as the difference of two LU log-determinants, never through
the difference operator itself: each log-magnitude is O(1)-conditioned and
the subtraction is exact to the rounding floor, because Qtilde is factored
at full size, so its pivots round as Q's do; `layer_ops.xi_levels` takes
both LUs, and this module none.  The
derivative Xi' uses the opposite strategy: it is the trace Tr[Q^{-1} R] of
the difference-structured R = dT - (dQtilde) Qtilde^{-1} T, which involves
only small (cross-coupling) factors and avoids the cancellation of two
large traces.  It takes no determinant, so the trace is taken by block
elimination at obstacle 0's own block (`layer_ops.Elimination`), every LU and
solve at the obstacles' size.

On the imaginary axis everything is real and Im Xi(i kappa) = 0 at every
kappa.  Xi elsewhere carries the branch fixed by continuity from there.
Every walk, `trace_df`'s included, is started by `_walker`: unevaluated at
i r, r = min(|z0|, kappa_max) for its first point z0, whence it reaches z0
along the arc of modulus r and then z0's ray, or from a point whose value
on the branch is known.  Xi is analytic and zero-free in the open upper
half plane, so every such path gives the same branch.  A walk may evaluate
each point on an embedded level of its grid (`_Unwrapper.step`), as
`trace_df` does.

The spectral shift -(1/pi) Im Xi(lambda + i0) is read at real lambda, from Q
and Qtilde assembled there: the outgoing kernel is continuous up to the real
axis, and the two are singular only where lambda^2 is an interior Dirichlet
eigenvalue of an obstacle.  Such a point is flagged: its pivot ratio (the
smaller over Q and Qtilde of smallest over largest pivot magnitude) is below
sqrt(eps).  Xi is analytic across it, so it is read from direct values at
its real-axis neighbours on the same walk.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import ConvergenceError, LayerDetError, SingularOperatorError
from .geometry import BoundaryGrid, Scene
from .kernel import SpectralPoint
from .layer_ops import (Elimination, _gemm, assemble_dq, assemble_q, block_diagonal,
                        dt_dsep_levels, q_levels, xi_levels)

#: delta' = _DELTA_PRIME_FRACTION * gap in every decay-rate estimate; the
#: energy's kappa range and every walk's anchor end at _KAPPA_MAX_FACTOR / delta'
_DELTA_PRIME_FRACTION, _KAPPA_MAX_FACTOR = 0.9, 30.0
#: angle steps of a walk's arc from the imaginary axis; `xi_real`'s default
#: eta / lambda; h / lambda0 of the neighbours lambda0 +- h, 2h, 4h that read a
#: flagged real lambda0
_ARC_STEPS, _ETA_REL, _H_REL = 4, 1e-3, 3e-5

#: rounding-floor scale for err_est fields; a real-axis Q or Qtilde whose
#: pivot ratio falls below _PIVOT_RATIO_MIN is taken as singular
_EPS = np.finfo(float).eps
_PIVOT_RATIO_MIN = np.sqrt(_EPS)


@dataclass(frozen=True)
class XiSample:
    sp: SpectralPoint
    xi: complex
    branch_offset: int
    err_est: float


@dataclass(frozen=True)
class ShiftSample:
    """xi_rel at lam, read at real lam or, where lam is flagged (an interior
    Dirichlet eigenvalue), from its real-axis neighbours.  eta_used is
    always 0; it stays because the CLI's CSV header names it."""
    lam: float
    xi_rel: float
    eta_used: float
    err_est: float


def _check(scene: Scene, grid: BoundaryGrid):
    if grid.scene is not scene and grid.scene != scene:
        raise LayerDetError("grid was built for a different scene")


def _imag_levels(scene: Scene, grid: BoundaryGrid, kappa: float, subgrids=()) -> list:
    """`xi_levels` at i kappa, warning when Q or Qtilde on grid itself has a
    negative determinant."""
    _check(scene, grid)
    levels = xi_levels(grid, SpectralPoint.imaginary(kappa), subgrids)
    if min(levels[0].signs) < 0:
        # positivity of the layer operator at imaginary wavenumber is an
        # empirical diagnostic, not a correctness assumption; fixed message
        # so the default warning filter deduplicates repeats
        warnings.warn("negative LU pivot sign for an imaginary-axis layer "
                      "matrix (grid underresolved for this kappa?)",
                      RuntimeWarning, stacklevel=3)
    return levels


def xi_imag(scene: Scene, grid: BoundaryGrid, kappa: float) -> XiSample:
    """Xi(i kappa): real, from two real LU log-determinants, as on grid in
    `_xi_imag_levels`; disagreeing signs raise, err_est is a rounding floor."""
    level = _imag_levels(scene, grid, kappa)[0]
    (sq, st), floor = level.signs, (level.scale + 1.0) * 8 * _EPS
    if sq * st <= 0:
        raise LayerDetError(
            "negative determinant sign product on the imaginary axis "
            f"(signs {sq}, {st}); internal consistency violated")
    return XiSample(SpectralPoint.imaginary(kappa), level.xi, 0, floor)


def _xi_imag_levels(scene: Scene, grid: BoundaryGrid, kappa: float, subgrids) -> list:
    """Xi(i kappa) on grid, bitwise `xi_imag`'s, then on each embedded
    sub-grid of it (`BoundaryGrid.embedded`) from the same assembly
    (`q_levels`), so a sub-grid costs its two LUs only.  A grid on which
    the two determinants' signs disagree does not resolve kappa: nan."""
    return [v.xi.real if v.signs[0] * v.signs[1] > 0 else np.nan
            for v in _imag_levels(scene, grid, kappa, subgrids)]


def _multiple(raw: complex, near: complex) -> float:
    # the multiple m of 2 pi that puts Im raw + 2 pi m nearest Im near
    return np.round((near.imag - raw.imag) / (2 * np.pi))


class _Unwrapper:
    """Continuous-branch walker: Xi at each point it `step`s to, on the
    2 pi multiple nearest its last point's value.  A walk may evaluate 600
    points plus 30 for each step asked of it; start one with `_walker`."""

    def __init__(self, grid: BoundaryGrid, last):
        self.grid, self._last = grid, last
        self.budget, self.evals, self.offset = 600, 0, 0
        #: the smaller pivot ratio of Q and Qtilde at each evaluated
        #: point; 0.0 where the point was singular and the path deformed
        self.pivot_ratio = {}

    def _eval(self, z: complex, grid: BoundaryGrid, subgrids=()) -> list:
        # Xi at z on grid, then on each embedded sub-grid of it
        if self.evals >= self.budget:
            raise ConvergenceError(f"phase-unwrapping budget of {self.budget} "
                                   "evaluations exceeded")
        self.evals += 1
        w = z
        for attempt in range(4):
            try:
                levels = xi_levels(grid, SpectralPoint.from_complex(w), subgrids)
            except SingularOperatorError:
                # lambda^2 grazing an interior Dirichlet eigenvalue: deform
                # the path locally upward
                w = w + 1j * max(1e-6, 1e-3 * abs(w)) * 4.0 ** attempt
                continue
            self.pivot_ratio[z] = 0.0 if w != z else levels[0].pivot_ratio
            return [v.xi for v in levels]
        raise SingularOperatorError("path deformation failed near a "
                                    f"singular spectral point {w}")

    def step(self, z: complex, grid: BoundaryGrid | None = None,
             subgrids=()) -> list:
        """Xi at z on grid (the walker's by default), the walk's next point,
        then on each embedded sub-grid of grid in subgrids from the same
        assembly, on the 2 pi multiple nearest the value on grid.  A step
        whose Im moves by more than pi/2 is bisected, its midpoints
        evaluated on grid alone.  A step to the walk's last point, a retry
        there on a finer grid, takes the multiple nearest the value there.
        At a flagged real z, whose phase is rounding, the raw values return
        and the walk stays at its last point."""
        self.budget += 30
        grid = self.grid if grid is None else grid
        raw, *below = self._eval(z, grid, subgrids)
        if z.imag == 0 and self.pivot_ratio[z] < _PIVOT_RATIO_MIN:
            return [raw, *below]
        self._last = self._step(self._last, z, raw, grid, 0)
        v = self._last[1]
        return [v, *(b + 2j * np.pi * _multiple(b, v) for b in below)]

    def _step(self, prev, z: complex, raw: complex, grid: BoundaryGrid, depth: int):
        prev_z, prev_val = prev
        m = _multiple(raw, prev_val)
        val = raw + 2j * np.pi * m
        if abs(val.imag - prev_val.imag) > np.pi / 2:
            if depth > 48 or z == prev_z:
                raise ConvergenceError("unwrapping step cannot be refined further")
            mid = 0.5 * (prev_z + z)
            prev = self._step(prev, mid, self._eval(mid, grid)[0], grid, depth + 1)
            return self._step(prev, z, raw, grid, depth + 1)
        self.offset += int(m)
        return z, val


def _walker(scene: Scene, grid: BoundaryGrid, z0: complex, anchor=None) -> _Unwrapper:
    """A walker on grid ready to `step` to z0: from anchor = (z, Xi(z)), a
    point already on the branch, or else from i r, r = min(|z0|, kappa_max),
    where Im Xi = 0, unevaluated, stepped along the arc of modulus r toward
    z0 in _ARC_STEPS equal angle steps and, when r < |z0|, out along z0's
    ray in steps of at most a factor 2."""
    lead = []
    if anchor is None:
        z0 = complex(z0)
        r = min(abs(z0), _KAPPA_MAX_FACTOR / (_DELTA_PRIME_FRACTION * scene.gap))
        arc = r * np.exp(1j * np.linspace(0.5 * np.pi, np.angle(z0), _ARC_STEPS + 1)[1:-1])
        out = np.geomspace(r, abs(z0), int(np.ceil(np.log2(abs(z0) / r))) + 1)[:-1]
        anchor, lead = (1j * r, 0j), [*arc, *(out * np.exp(1j * np.angle(z0)))]
    walker = _Unwrapper(grid, anchor)
    for z in lead:
        walker.step(z)
    return walker


def _positive(values, what: str) -> None:
    v = np.asarray(values, dtype=float)
    if not np.all((v > 0) & (v < np.inf)):
        raise ValueError(f"{what} must be positive and finite")


def xi_real(scene: Scene, grid: BoundaryGrid, lam: float,
            eta: float | None = None) -> XiSample:
    """Xi(lambda + i eta) near the positive real axis, branch fixed by
    continuity along the arc from i|lambda + i eta|, where Im Xi = 0."""
    _check(scene, grid)
    _positive(lam, "lam")
    eta = _ETA_REL * lam if eta is None else float(eta)
    _positive(eta, "eta")
    target = lam + 1j * eta
    sp = SpectralPoint.from_complex(target)
    if scene.n_obstacles == 1:
        return XiSample(sp, 0.0 + 0.0j, 0, 0.0)
    walker = _walker(scene, grid, target)
    val = walker.step(target)[0]
    floor = (abs(val.real) + 1.0) * 16 * _EPS
    return XiSample(sp, val, walker.offset, floor)


def xi_rel(scene: Scene, grid: BoundaryGrid, lam: float) -> ShiftSample:
    """Relative spectral shift xi_rel(lambda) = -(1/pi) Im Xi(lambda + i0):
    `xi_rel_many` at one point."""
    return xi_rel_many(scene, grid, [lam])[0]


def xi_rel_many(scene: Scene, grid: BoundaryGrid,
                lams: Sequence[float]) -> List[ShiftSample]:
    """xi_rel(lambda) = -(1/pi) Im Xi(lambda + i0) on a lambda grid, from Q
    assembled at real lambda: one walk from the imaginary axis along the arc
    to the largest lambda, then down the real axis.  A flagged lambda0 (pivot
    ratio below sqrt(eps), or exactly singular) is an interior Dirichlet
    eigenvalue: the walk goes on to the direct values f at lambda0 + 4h, 2h,
    h, -h, -2h, -4h, h = 3e-5 lambda0, and it is read as R(h) = [4 (f(h) +
    f(-h)) - (f(2h) + f(-2h))] / 6, f(lambda0) to O(h^4).  Its err_est is
    |R(2h) - R(h)| plus twice the neighbours' largest rounding floor."""
    _check(scene, grid)
    lams = np.asarray(list(lams), dtype=float)
    _positive(lams, "lambda grid")
    if scene.n_obstacles == 1 or not lams.size:
        return [ShiftSample(float(l), 0.0, 0.0, 0.0) for l in lams]
    desc = np.sort(lams)[::-1]
    walker = _walker(scene, grid, desc[0])
    out = {}
    for lam in desc:
        val, ratio = walker.step(lam)[0], walker.pivot_ratio[lam]
        if ratio >= _PIVOT_RATIO_MIN:
            out[lam] = ShiftSample(float(lam), float(-val.imag / np.pi), 0.0,
                                   float((abs(val) + 1.0) * 16 * _EPS / ratio))
            continue
        f, floor = {}, 0.0
        for k in (4, 2, 1, -1, -2, -4):
            z = lam + k * _H_REL * lam
            val = walker.step(z)[0]
            f[k] = -val.imag / np.pi
            floor = max(floor, (abs(val) + 1.0) * 16 * _EPS / walker.pivot_ratio[z])
        r1, r2 = ((4 * (f[k] + f[-k]) - (f[2 * k] + f[-2 * k])) / 6 for k in (1, 2))
        out[lam] = ShiftSample(float(lam), float(r1), 0.0, float(abs(r2 - r1) + 2 * floor))
    return [out[lam] for lam in lams]


def xi_on_ray(scene: Scene, grid: BoundaryGrid, angle: float,
              u_values: Sequence[float]) -> np.ndarray:
    """Xi(u e^{i angle}) with a continuous branch: one walk from the
    imaginary axis along the arc to the largest u, then down the ray."""
    _check(scene, grid)
    if not 0 < angle < np.pi / 2:
        raise ValueError(f"ray angle {angle} must lie in (0, pi/2)")
    u = np.asarray(list(u_values), dtype=float)
    _positive(u, "ray moduli")
    if scene.n_obstacles == 1 or not u.size:
        return np.zeros(u.size, dtype=complex)
    order = np.argsort(u)[::-1]
    phase = np.exp(1j * angle)
    walker = _walker(scene, grid, u[order[0]] * phase)
    out = np.empty(u.size, dtype=complex)
    out[order] = [walker.step(u[idx] * phase)[0] for idx in order]
    return out


# ---------------------------------------------------------------------------
# derivative and relative-resolvent traces
# ---------------------------------------------------------------------------

def _trace_terms(grid: BoundaryGrid, sp: SpectralPoint, both_paths: bool):
    """Assemble Q and dQ once and return d = Tr[Q^{-1} R], R = dT - (dQtilde)
    Qtilde^{-1} T with zero diagonal blocks, and, with both_paths, the
    independent Tr[(dQ)(Q^{-1} - Qtilde^{-1})] = Tr[S^{-1} dS - Dtilde^{-1} dD]
    = Tr[S^{-1} Y], Y = -C A^{-1} R12 - dC W + (C W - T_rest) Dtilde^{-1} dD
    (else None): traces by elimination at obstacle 0's block A of Q = [[A, B],
    [C, D]] (`layer_ops.Elimination`), with Dtilde = D - T_rest factored block
    by block: no LU or solve at Q's size.

    Derivatives are in the axis variable of `assemble_dq`: on the
    imaginary axis all matrices are real and d is a kappa derivative, so
    callers apply the chain factor dlambda = i dkappa.
    """
    q = assemble_q(grid, sp).entries
    dq = assemble_dq(grid, sp).entries
    n0 = grid.blocks[0][1]
    e = Elimination(q, grid.blocks)
    # R block row by block row, the first as dB - dA W
    R = np.zeros_like(dq)
    R[:n0, n0:] = _gemm(-1.0, dq[:n0, :n0], e.W, 1.0, dq[:n0, n0:])
    for j, (a, b) in enumerate(grid.blocks[1:], 1):
        for c, d in grid.blocks:
            if c != a:
                R[a:b, c:d] = _gemm(-1.0, dq[a:b, a:b], e.solve_block(j, q[a:b, c:d]),
                                    1.0, dq[a:b, c:d])
    if not both_paths:
        return e.traces(R)[0], None
    d22 = q[n0:, n0:]
    t_rest = d22 - block_diagonal(d22, [(a - n0, b - n0) for a, b in grid.blocks[1:]])
    return tuple(e.traces(R, (dq[n0:, :n0], _gemm(1.0, e.CW - t_rest,
                                                 e.solve_tilde(dq[n0:, n0:], 1)))))


def _rrel_from_trace(d, sp: SpectralPoint) -> complex:
    # -Xi'/(2 lambda); on the imaginary axis d is a kappa derivative and
    # -(-i d)/(2 i kappa) = d/(2 kappa) is real
    if sp.is_imaginary:
        return complex(d / (2 * sp.value))
    return complex(-d / (2 * sp.lam))


def xi_prime(scene: Scene, grid: BoundaryGrid, sp: SpectralPoint) -> complex:
    """Xi'(lambda) by the difference-structured trace
    Tr[Q^{-1} (dT - (dQtilde) Qtilde^{-1} T)]."""
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
    S^t S = (1/2 lambda) dQ/dlambda, -(1/2 lambda) Tr[(dQ/dlambda)(Q^{-1} - Qtilde^{-1})].
    """
    _check(scene, grid)
    if scene.n_obstacles == 1:
        return (0j, 0j) if both_paths else 0j
    d, alt = _trace_terms(grid, sp, both_paths)
    primary = _rrel_from_trace(d, sp)
    if not both_paths:
        return primary
    return primary, _rrel_from_trace(alt, sp)


def _xi_dsep_levels(scene: Scene, grid: BoundaryGrid, kappa: float, subgrids) -> list:
    """dXi(i kappa)/ds when obstacle 1 of a two-obstacle scene moves by s
    along the unit vector from obstacle 0's centre to obstacle 1's, on grid,
    then on each embedded sub-grid of it as `_xi_imag_levels`.  A rigid
    motion leaves Qtilde unchanged, so dXi/ds = Tr[Q^{-1} dT/ds] exactly: a
    trace by block elimination (`layer_ops.Elimination`), two LUs at the
    obstacles' size per grid, of the small coupling's derivative alone."""
    _check(scene, grid)
    sp = SpectralPoint.imaginary(kappa)
    axis = np.subtract(scene.obstacles[1].center, scene.obstacles[0].center)
    grids = (grid, *subgrids)
    dts = dt_dsep_levels(grids, sp, axis / np.hypot(*axis))
    return [float(Elimination(m, g.blocks).traces(dT)[0])
            for m, dT, g in zip(q_levels(grid, sp, subgrids), dts, grids)]
