"""The boundary-layer determinant Xi(lambda) = log det(Q Qtilde^{-1}), its
derivatives in lambda and in the obstacles' separation, the relative
resolvent trace, and the relative spectral shift.

Xi is computed as a difference of LU log-determinants, never through the
difference operator itself; `layer_ops.xi_levels` takes every LU, and this
module none.  On the imaginary axis these are Q's and Qtilde's at full size:
the obstacles' own blocks are ill-conditioned at large kappa, and the
subtraction is exact to the rounding floor only because Qtilde's pivots
round as Q's do.  Elsewhere those blocks are well conditioned, and Xi = log
det S - sum_{j>=1} log det Q_jj from the LUs of Q's block elimination at
obstacle 0's own block (S its Schur complement), all at the obstacles'
size.  The derivative Xi' uses the opposite strategy: it is the trace
Tr[Q^{-1} R] of the difference-structured R = dT - (dQtilde) Qtilde^{-1} T,
which involves only small (cross-coupling) factors and avoids the
cancellation of two large traces.  It takes no determinant, so the trace is
taken by block elimination at obstacle 0's own block
(`layer_ops.Elimination`), every LU and solve at the obstacles' size.

On the imaginary axis everything is real and Im Xi(i kappa) = 0 at every
kappa.  Xi elsewhere carries the branch fixed by continuity from there.
Every walk, `trace_df`'s included, is started by `_walker`: unevaluated at
i r, r = min(|z0|, kappa_max) for its first point z0, whence it reaches z0
along the arc of modulus r and then z0's ray, or from a point whose value
on the branch is known.  Xi is analytic and zero-free in the open upper
half plane, so every such path gives the same branch.  A walk may evaluate
each point on an embedded level of its grid (`_Unwrapper.step`), as
`trace_df` does; `xi_real`, `xi_rel_many` and `xi_on_ray` share `_on_walk`.

Xi(lambda + i0), and the spectral shift -(1/pi) Im of it, is read at real
lambda, from Q assembled there: the outgoing kernel is continuous up to the
real axis, and Q and Qtilde are singular only where lambda^2 is an interior
Dirichlet eigenvalue of an obstacle, and so then is an LU of the
elimination.  Such a point is flagged: its pivot ratio (the smallest over
those LUs of smallest over largest pivot magnitude) is below sqrt(eps).  Xi
is analytic across it, so it is read from its real-axis neighbours.
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
#: angle steps of a walk's arc from the imaginary axis; h / lambda0 of the
#: neighbours lambda0 +- h, 2h, 4h that read a flagged real lambda0
_ARC_STEPS, _H_REL = 4, 3e-5

#: rounding-floor scale for err_est fields; a real-axis point whose
#: `XiLevel.pivot_ratio` falls below _PIVOT_RATIO_MIN is taken as singular
_EPS = np.finfo(float).eps
_PIVOT_RATIO_MIN = np.sqrt(_EPS)


@dataclass(frozen=True)
class XiSample:
    """Xi at sp, i kappa or lambda + i0, the 2 pi multiples its walk added to
    Im, and a bound on the error of each of Re and Im."""
    sp: SpectralPoint
    xi: complex
    branch_offset: int
    err_est: float


@dataclass(frozen=True)
class ShiftSample:
    """xi_rel at lam, read at real lam or, where lam is flagged (an interior
    Dirichlet eigenvalue), from its real-axis neighbours."""
    lam: float
    xi_rel: float
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
        #: `XiLevel.pivot_ratio` and `XiLevel.scale` at each evaluated point;
        #: pivot ratio 0.0 where the point was singular and the path deformed
        self.pivot_ratio, self.scale = {}, {}

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
            self.scale[z] = levels[0].scale
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


def _on_walk(scene: Scene, grid: BoundaryGrid, zs):
    """(values, spreads, floors, offset): Xi at zs, points of the open upper
    half plane or the positive reals, by one walk in decreasing modulus.  A
    floor's Re and Im bound the rounding of Re Xi, (`XiLevel.scale` + 1) 8
    eps, and of Im Xi, (|Xi| + 1) 16 eps / pivot ratio (inf if deformed).  A
    flagged real lambda0 (pivot ratio below sqrt(eps)) is read from the
    direct values f at lambda0 +- h, 2h, 4h, h = 3e-5 lambda0, as R(h) = [4
    (f(h) + f(-h)) - (f(2h) + f(-2h))] / 6 = f(lambda0) + O(h^4), with spread
    R(2h) - R(h) (elsewhere 0) and twice the neighbours' largest floors."""
    zs = np.asarray(zs, dtype=complex)
    vals, spreads, floors = (np.zeros(zs.size, dtype=complex) for _ in range(3))
    if scene.n_obstacles == 1 or not zs.size:
        return vals, spreads, floors, 0
    order = np.argsort(-np.abs(zs), kind="stable")
    walker = _walker(scene, grid, zs[order[0]])

    def at(z):
        val, ratio = walker.step(z)[0], walker.pivot_ratio[z]
        im = (abs(val) + 1.0) * 16 * _EPS / ratio if ratio else np.inf
        return val, complex((walker.scale[z] + 1.0) * 8 * _EPS, im)

    for i in order:
        vals[i], floors[i] = at(zs[i])
        if zs[i].imag or walker.pivot_ratio[zs[i]] >= _PIVOT_RATIO_MIN:
            continue
        lam = zs[i].real
        f, fl = zip(*(at(lam + k * _H_REL * lam) for k in (4, 2, 1, -1, -2, -4)))
        s4, s2, s1 = (f[j] + f[5 - j] for j in range(3))
        vals[i] = (4 * s1 - s2) / 6
        spreads[i] = (4 * s2 - s4) / 6 - vals[i]
        floors[i] = 2 * complex(max(np.real(fl)), max(np.imag(fl)))
    return vals, spreads, floors, walker.offset


def xi_real(scene: Scene, grid: BoundaryGrid, lam: float) -> XiSample:
    """Xi(lambda + i0) at real lambda > 0 from Q assembled there, a flagged
    lambda from its real-axis neighbours (`_on_walk`); err_est bounds Re and
    Im: the neighbour rule's |R(2h) - R(h)| plus both rounding floors."""
    _check(scene, grid)
    _positive(lam, "lam")
    (val,), (spread,), (floor,), offset = _on_walk(scene, grid, [lam])
    return XiSample(SpectralPoint.from_complex(lam), complex(val), offset,
                    float(abs(spread) + floor.real + floor.imag))


def xi_rel(scene: Scene, grid: BoundaryGrid, lam: float) -> ShiftSample:
    """Relative spectral shift -(1/pi) Im Xi(lambda + i0): `xi_rel_many` at lam."""
    return xi_rel_many(scene, grid, [lam])[0]


def xi_rel_many(scene: Scene, grid: BoundaryGrid,
                lams: Sequence[float]) -> List[ShiftSample]:
    """xi_rel(lambda) = -(1/pi) Im Xi(lambda + i0) on a lambda grid, from Q
    assembled at real lambda: one walk from the imaginary axis along the arc
    to the largest lambda, then down the real axis (`_on_walk`).  err_est is
    Im Xi's rounding floor plus, at a flagged lambda, the rule's spread."""
    _check(scene, grid)
    lams = np.asarray(list(lams), dtype=float)
    _positive(lams, "lambda grid")
    vals, spreads, floors, _ = _on_walk(scene, grid, lams)
    # + 0.0: a single obstacle's Xi = 0 reads 0.0, not -0.0
    rels, errs = -vals.imag / np.pi + 0.0, np.abs(spreads.imag) / np.pi + floors.imag
    return [ShiftSample(float(l), float(r), float(e)) for l, r, e in zip(lams, rels, errs)]


def xi_on_ray(scene: Scene, grid: BoundaryGrid, angle: float,
              u_values: Sequence[float]) -> np.ndarray:
    """Xi(u e^{i angle}) with a continuous branch: one walk from the
    imaginary axis along the arc to the largest u, then down the ray."""
    _check(scene, grid)
    if not 0 < angle < np.pi / 2:
        raise ValueError(f"ray angle {angle} must lie in (0, pi/2)")
    u = np.asarray(list(u_values), dtype=float)
    _positive(u, "ray moduli")
    return _on_walk(scene, grid, u * np.exp(1j * angle))[0]


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
