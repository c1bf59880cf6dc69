"""Dense Nystrom matrices for the single-layer operator family and their
LU machinery.

The matrix carries the full quadrature weight on the column index,
Q[(j,i),(k,m)] = w_{k,m} G(p_{j,i}, p_{k,m}); within each diagonal block the
log-singular part is integrated with the spectrally accurate product rule
(weights R_k for the log factor, plain trapezoid for the smooth remainder).
Cross-obstacle blocks are analytic, so the trapezoid rule alone converges
spectrally there.

The kernel is symmetric in the node pair and each value is evaluated once:
diagonal blocks on one triangle (`kernel.split_block`), cross blocks once
per unordered obstacle pair, block (k, j) being the transpose of (j, k)'s
kernel weighted by obstacle j's weights.  Every entry is bitwise what
evaluating each ordered pair on its own gives.  The node distances are
cached on the grid and the product-rule weights R[|i - j|] per node count.

Storage is real on the imaginary axis and complex elsewhere, for Q and for
its derivative alike, which is taken in the axis variable (kappa or lambda).
At real lambda the outgoing kernel is assembled as is, which is Q(lambda + i0).
Determinants are only ever consumed as ratios of two factorizations sharing
the same weights, so no symmetrized weighting is needed.  `factored_pairs` is
the one place where Q, its block-diagonal part Qtilde and the coupling
T = Q - Qtilde are formed and factored for Xi.  The derivative traces take
Tr(Q^{-1} X) by block elimination at obstacle 0's own block (`eliminate`),
with LUs at the obstacles' size only; the field kernels factor Qtilde block
by block (`factored_blocks`).  `dt_dsep_levels` gives T's derivative under a
rigid motion of one obstacle, which leaves Qtilde unchanged.

The grid of every s-th node of each obstacle (s = 2, 4, ...) is embedded in
the full one (`BoundaryGrid.embedded`): its nodes and speeds are the full
grid's every s-th ones and its weights exactly s times theirs, as
fl(2 pi / (n / s)) = s fl(2 pi / n).  So every cross-block entry of Q, and
every entry of dT/ds, on that grid is bitwise s M[::s, ::s] of the full
grid's matrix M.  The product-rule weights R_k do not stride, so Q keeps
its diagonal blocks' split parts, on every other node, on every axis, and
`embedded_q` refills those blocks from them: bitwise Q's assembly on the
sub-grid, with no kernel call.  `q_levels` gives Q on a grid and its
sub-grids from one assembly, and `dt_dsep_levels` dT/ds.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
import scipy.linalg as sla

from .errors import LayerDetError, SingularOperatorError
from .geometry import BoundaryGrid
from .kernel import KAPPA_MIN_FACTOR, SpectralPoint, offdiag_kernel, split_block


@dataclass(frozen=True)
class LayerMatrix:
    entries: np.ndarray
    #: Q keeps `split_block`'s (A, B) per obstacle on every other node, on
    #: every axis, wherever its grid has an embedded sub-grid; `embedded_q`
    #: refills the diagonal blocks there from them, and the cross blocks
    #: stride exactly
    parts: list | None = None


@dataclass(frozen=True)
class Factorization:
    lu: np.ndarray
    piv: np.ndarray
    log_abs_det: float
    phase: float          # arg(det) for complex input, 0 or pi for real
    sign: float           # +-1 for real input, 0 for complex
    pivot_min: float
    pivot_max: float

    @property
    def is_complex(self) -> bool:
        return np.iscomplexobj(self.lu)


@lru_cache(maxsize=64)
def kress_log_weights(n: int) -> np.ndarray:
    """Quadrature weights R_k for the factor log(4 sin^2((t-s)/2)) on n
    equispaced nodes (n even): exact for trigonometric polynomials of
    degree < n/2."""
    k = np.arange(n)
    m = np.arange(1, n // 2)
    c = np.cos(2 * np.pi * np.outer(k, m) / n)
    R = -(4 * np.pi / n) * (c / m).sum(axis=1) - (4 * np.pi / n**2) * np.cos(np.pi * k)
    R.setflags(write=False)
    return R


def _check_sp(grid: BoundaryGrid, sp: SpectralPoint):
    gap = grid.scene.gap
    kmin = KAPPA_MIN_FACTOR / gap if np.isfinite(gap) else 0.0
    if sp.is_imaginary and sp.value < kmin:
        raise ValueError(f"kappa = {sp.value} below kappa_min = {kmin}")


@lru_cache(maxsize=64)
def _kress_log_matrix(n: int) -> np.ndarray:
    """R[|i - j|], the product-rule weight of each diagonal-block entry."""
    k = np.arange(n)
    R = kress_log_weights(n)[np.abs(k[:, None] - k[None, :])]
    R.setflags(write=False)
    return R


def _empty(grid: BoundaryGrid, sp: SpectralPoint) -> np.ndarray:
    return np.zeros((grid.size, grid.size), dtype=float if sp.is_imaginary else complex)


def _fill_diag(out: np.ndarray, sj: slice, A: np.ndarray, B: np.ndarray):
    # product-rule weights for the log factor, trapezoid for the remainder
    n = A.shape[0]
    out[sj, sj] = _kress_log_matrix(n) * A + (2 * np.pi / n) * B


def _spans(scene):
    """The intervals of the kernels' Chebyshev expansions: [0, each
    obstacle's diameter bound] for its diagonal block (on a ray), and [gap,
    the scene's diameter bound] for the cross blocks, the gap lowered by 1e-6
    relative for the rounding of node distances.  They depend on the scene
    alone, so a sub-grid's entries stay bitwise the full grid's."""
    own, whole = scene.diameters
    return [(0.0, d) for d in own], (scene.gap * (1 - 1e-6), whole)


def _assemble(grid: BoundaryGrid, sp: SpectralPoint, deriv: str,
              diagonal_only: bool) -> LayerMatrix:
    """Full matrix: Q for deriv "none", dQ/dv for any other value.  The
    string and the unused diagonal_only (always False) are kept because the
    benchmark's QCounter wraps this function positionally and counts
    deriv == "none" as one Q assembly."""
    _check_sp(grid, sp)
    d = deriv != "none"
    keep = not d and grid.embedded(2) is not None
    out, parts, w = _empty(grid, sp), [], grid.weights
    sl = [grid.block_slice(j) for j in range(grid.scene.n_obstacles)]
    own, cross = _spans(grid.scene)
    # each block's values are freed before the next block's are evaluated,
    # and only the split parts' every-other-node copies are kept: holding
    # them all tripled the page faults of 16 trace_rrel and 6 field-kernel
    # evaluations (kite + circle, n = 128) and cost about 5% of their time
    for j, sj in enumerate(sl):
        A, B = split_block(sp, grid.distances[sj, sj], grid.speeds[sj], deriv=d,
                           span=own[j])
        _fill_diag(out, sj, A, B)
        if keep:
            parts.append((A[::2, ::2].copy(), B[::2, ::2].copy()))
        del A, B
        for sk in sl[j + 1:]:
            K = offdiag_kernel(sp, grid.distances[sj, sk], deriv=d, span=cross)
            out[sj, sk] = K * w[sk]
            out[sk, sj] = K.T * w[sj]
    return LayerMatrix(out, parts if keep else None)


def assemble_q(grid: BoundaryGrid, sp: SpectralPoint) -> LayerMatrix:
    """Full single-layer matrix Q at the spectral point."""
    return _assemble(grid, sp, "none", False)


def assemble_dq(grid: BoundaryGrid, sp: SpectralPoint) -> LayerMatrix:
    """dQ/dv in the axis variable: dQ/dkappa on the imaginary axis (real
    storage, dQ/dlambda = -i dQ/dkappa there) and dQ/dlambda on a ray."""
    return _assemble(grid, sp, "dv", False)


def _strided(m: np.ndarray, grid: BoundaryGrid, counts: tuple) -> np.ndarray:
    """s m[::s, ::s] for grid the embedded grid of every s-th node (s = 2,
    4, ...) of the one m was assembled on, with counts nodes per obstacle:
    bitwise m's assembly there wherever the entries are the kernel times
    the column weight."""
    s = m.shape[0] // grid.size
    if s < 2 or s & (s - 1) or counts != tuple(s * n for n in grid.n_per_obstacle):
        raise ValueError("not an embedded sub-grid")
    return s * m[::s, ::s]


def embedded_q(q: LayerMatrix, grid: BoundaryGrid) -> np.ndarray:
    """Q on grid, an embedded sub-grid (`BoundaryGrid.embedded`) of the grid
    q was assembled on, at q's spectral point: the cross blocks strided, the
    diagonal blocks refilled from q's split parts.  No kernel call, and
    bitwise `assemble_q(grid, sp).entries` at that point sp."""
    out = _strided(q.entries, grid, tuple(2 * len(A) for A, _ in q.parts or ()))
    s = q.entries.shape[0] // (2 * grid.size)
    for j, (A, B) in enumerate(q.parts):
        _fill_diag(out, grid.block_slice(j), A[::s, ::s], B[::s, ::s])
    return out


def q_levels(grid: BoundaryGrid, sp: SpectralPoint, subgrids=()) -> list:
    """Q's entries at sp on grid, then on each embedded sub-grid of it in
    subgrids, from one assembly on grid; its split parts are freed here."""
    q = assemble_q(grid, sp)
    return [q.entries, *(embedded_q(q, g) for g in subgrids)]


def dt_dsep_levels(grids, sp: SpectralPoint, direction) -> list:
    """dT/ds when obstacle 1 moves rigidly by s * direction (a unit vector),
    assembled on grids[0] and strided to each later grid, an embedded
    sub-grid of grids[0].

    Only the cross blocks coupling obstacle 1 change, through r = |x - y|:
    dr/ds = +-(x - y).direction / r, + when x lies on obstacle 1.  The
    kernel depends on v r alone (v the axis variable), so r dG/dr = v dG/dv
    and each entry is the cross block of `assemble_dq` times v (dr/ds) / r."""
    grid = grids[0]
    if grid.scene.n_obstacles < 2:
        raise LayerDetError("the separation derivative needs obstacle 1")
    _check_sp(grid, sp)
    v = sp.value if sp.is_imaginary else sp.lam
    e = np.asarray(direction, dtype=float)
    out, w, s1, cross = _empty(grid, sp), grid.weights, grid.block_slice(1), _spans(grid.scene)[1]
    for j in range(grid.scene.n_obstacles):
        if j != 1:
            sj = grid.block_slice(j)
            K = offdiag_kernel(sp, grid.distances[s1, sj], deriv=True, span=cross)
            diff = grid.points[s1][:, None, :] - grid.points[sj][None, :, :]
            scale = v * (diff @ e) / np.sum(diff ** 2, axis=-1)
            out[s1, sj] = K * w[sj] * scale
            out[sj, s1] = K.T * w[s1] * scale.T
    return [out, *(_strided(out, g, grid.n_per_obstacle) for g in grids[1:])]


def split_blocks(entries: np.ndarray, blocks):
    """(Qtilde, T) of Q, or (dQtilde, dT) of dQ: the obstacles' own blocks
    bitwise with exactly zero cross blocks, and the rest (zero diagonal)."""
    diag = np.zeros_like(entries)
    for a, b in blocks:
        diag[a:b, a:b] = entries[a:b, a:b]
    return diag, entries - diag


def factorize(m) -> Factorization:
    """Partial-pivoting LU exposing log|det| and the determinant phase/sign."""
    a = m.entries if isinstance(m, LayerMatrix) else np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("factorize needs a square matrix")
    lu, piv = sla.lu_factor(a, check_finite=False)
    d = np.diag(lu)
    zero = np.flatnonzero(d == 0)
    if zero.size:
        raise SingularOperatorError(
            f"exactly singular pivot at index {zero[0]} "
            "(lambda^2 at or near an interior Dirichlet eigenvalue?)",
            pivot_index=int(zero[0]))
    parity = int(np.count_nonzero(piv != np.arange(piv.size)) % 2)
    log_abs = float(np.sum(np.log(np.abs(d))))
    if not np.isfinite(log_abs):    # no path deformation cures an overflow
        raise LayerDetError(f"log|det| = {log_abs} is not finite: an entry "
                            "overflowed (kappa too large for the obstacles?)")
    if np.iscomplexobj(lu):
        phase = float(np.sum(np.angle(d)) + np.pi * parity)
        sign = 0.0
    else:
        neg = int(np.count_nonzero(d < 0)) + parity
        sign = -1.0 if neg % 2 else 1.0
        phase = 0.0 if sign > 0 else np.pi
    mags = np.abs(d)
    return Factorization(lu, piv, log_abs, phase, sign,
                         float(mags.min()), float(mags.max()))


class LayerPair(NamedTuple):
    """Q and Qtilde factored at one spectral point, and T = Q - Qtilde.

    Qtilde is factored at full N x N size on purpose, for Xi alone: Xi =
    log|det Q| - log|det Qtilde| is exact to rounding only because both LUs'
    pivots on the obstacles' own blocks round alike.  At the energy's
    kappa_max those blocks have condition number ~5e10 (unit disks) and Xi
    is exactly 0.0; per-block LUs move log|det Qtilde| by 3e-7 and the
    energy by 8e-8.  The traces take no determinant (`eliminate`)."""
    fq: Factorization
    ft: Factorization
    T: np.ndarray

    def log_det_ratio(self) -> complex:
        """Xi = log det(Q Qtilde^{-1}); off the imaginary axis the
        imaginary part is known only modulo 2 pi."""
        return ((self.fq.log_abs_det - self.ft.log_abs_det)
                + 1j * (self.fq.phase - self.ft.phase))


def factored_pairs(grid: BoundaryGrid, sp: SpectralPoint, subgrids=()) -> list:
    """The LayerPair at sp on grid, then on each embedded sub-grid of it in
    subgrids, all from one assembly of Q on grid (`q_levels`)."""
    pairs = []
    for m, g in zip(q_levels(grid, sp, subgrids), (grid, *subgrids)):
        qt, T = split_blocks(m, g.blocks)
        pairs.append(LayerPair(factorize(m), factorize(qt), T))
    return pairs


def factored_blocks(grid: BoundaryGrid, sp: SpectralPoint):
    """Q's entries at sp on grid, Q's LU and the LU of each obstacle's own
    block: Qtilde factored block by block, for the field kernels, which
    apply Qtilde^{-1} (`solve_blocks`) but take no determinant of it."""
    q = assemble_q(grid, sp).entries
    return q, factorize(q), [factorize(q[a:b, a:b]) for a, b in grid.blocks]


def solve_blocks(fs, blocks, rhs: np.ndarray) -> np.ndarray:
    """Qtilde^{-1} rhs from the LUs fs of Qtilde's blocks, block row by
    block row."""
    out = np.empty(rhs.shape, dtype=np.result_type(fs[0].lu, rhs))
    for f, (a, b) in zip(fs, blocks):
        out[a:b] = solve(f, rhs[a:b])
    return out


def solve(f: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Q^{-1} rhs: one back-substitution on the LU, complex when the
    factorization is (a real rhs then gives bitwise the complexified rhs's
    result).  No refinement step: in working precision it cannot take the
    forward error below cond(Q) eps, and leaving it out moves the traces and
    field kernels by no more than a change of BLAS thread count does."""
    return sla.lu_solve((f.lu, f.piv), rhs, check_finite=False)


def _gemm(alpha, a: np.ndarray, b: np.ndarray, beta=0.0, c=None) -> np.ndarray:
    """alpha a b + beta c on scipy's BLAS: a numpy product between scipy's
    LAPACK calls wakes numpy's own thread pool, which stalls the next call."""
    return sla.get_blas_funcs("gemm", (a, b))(alpha, a, b, beta, c)


def eliminate(q: np.ndarray, n0: int):
    """Q = [[A, B], [C, D]] eliminated at its first n0 rows and columns,
    obstacle 0's own block A: W = A^{-1} B, C W and traces(x12, rest), which
    is Tr(Q^{-1} X) = Tr(S^{-1} (x22 - x21 W - C A^{-1} x12)), S = D - C W,
    for X = [[0, x12], [x21, x22]] and each (x21, x22) in rest: LUs of A and S."""
    fa = factorize(q[:n0, :n0])
    C, W = q[n0:, :n0], solve(fa, q[:n0, n0:])
    CW = _gemm(1.0, C, W)
    fs = factorize(q[n0:, n0:] - CW)

    def traces(x12: np.ndarray, rest) -> list:
        cv = _gemm(1.0, C, solve(fa, x12))
        return [np.trace(solve(fs, _gemm(-1.0, x21, W, 1.0, x22 - cv))) for x21, x22 in rest]
    return W, CW, traces
