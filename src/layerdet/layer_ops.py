"""Dense Nystrom matrices for the single-layer operator family and their
LU machinery.

The matrix carries the full quadrature weight on the column index,
Q[(j,i),(k,m)] = w_{k,m} G(p_{j,i}, p_{k,m}); within each diagonal block the
log-singular part is integrated with the spectrally accurate product rule
(weights R_k for the log factor, plain trapezoid for the smooth remainder).
Cross-obstacle blocks are analytic, so the trapezoid rule alone converges
spectrally there.

The kernel is a function of the node distance alone and each value is
evaluated once per distinct distance of a block: the grid caches every
block's sorted distinct distances and an index (`BoundaryGrid.distinct`),
`kernel.split_block` and `kernel.offdiag_kernel` evaluate on the values, and
the block is gathered with the index.  Diagonal blocks take their strict
upper triangle's values, cross blocks are evaluated once per unordered
obstacle pair, block (k, j) being the transpose of (j, k)'s kernel weighted
by obstacle j's weights.  Circles repeat their distances, so the Bessel
work on the canonical disks falls 6-15x on the diagonal blocks and 2x
across (the shares are in `kernel`); a curve without repeats pays only the
gather.  Every entry is bitwise what evaluating each ordered pair on its
own gives, except on a ray in a block of 16384 or more distinct distances
(see `kernel`).  The product-rule weights R[|i - j|] are cached per node
count.

Storage is real on the imaginary axis and complex elsewhere, for Q and for
its derivative alike, which is taken in the axis variable (kappa or lambda).
At real lambda the outgoing kernel is assembled as is, which is Q(lambda + i0).
Determinants are only ever consumed as ratios of two factorizations sharing
the same weights, so no symmetrized weighting is needed.  Every LU is taken
here: `xi_levels` factors Q and its block-diagonal part Qtilde at full size
for Xi, and `Elimination`, Q's block elimination at obstacle 0's own block,
makes every solve of the derivative traces and the field kernels with LUs at
the obstacles' size only.  `dt_dsep_levels` gives T's derivative under a
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
        A, B = split_block(sp, grid.distinct(j, j), grid.speeds[sj], deriv=d, span=own[j])
        _fill_diag(out, sj, A, B)
        if keep:
            parts.append((A[::2, ::2].copy(), B[::2, ::2].copy()))
        del A, B
        for k, sk in enumerate(sl[j + 1:], j + 1):
            values, index = grid.distinct(j, k)
            K = offdiag_kernel(sp, values, deriv=d, span=cross)[index]
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
            values, index = grid.distinct(1, j)
            K = offdiag_kernel(sp, values, deriv=True, span=cross)[index]
            diff = grid.points[s1][:, None, :] - grid.points[sj][None, :, :]
            scale = v * (diff @ e) / np.sum(diff ** 2, axis=-1)
            out[s1, sj] = K * w[sj] * scale
            out[sj, s1] = K.T * w[s1] * scale.T
    return [out, *(_strided(out, g, grid.n_per_obstacle) for g in grids[1:])]


def block_diagonal(entries: np.ndarray, blocks) -> np.ndarray:
    """Qtilde of Q, or dQtilde of dQ: the obstacles' own blocks bitwise,
    with exactly zero cross blocks; T = Q - Qtilde."""
    diag = np.zeros_like(entries)
    for a, b in blocks:
        diag[a:b, a:b] = entries[a:b, a:b]
    return diag


def factorize(m) -> Factorization:
    """Partial-pivoting LU exposing log|det| and the determinant phase/sign."""
    a = m.entries if isinstance(m, LayerMatrix) else np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("factorize needs a square matrix")
    lu, piv = sla.lu_factor(a, check_finite=False)
    d = np.diag(lu)
    mags = np.abs(d)
    zero = np.flatnonzero(mags == 0)
    if zero.size:
        raise SingularOperatorError(
            f"exactly singular pivot at index {zero[0]} "
            "(lambda^2 at or near an interior Dirichlet eigenvalue?)",
            pivot_index=int(zero[0]))
    parity = int(np.count_nonzero(piv != np.arange(piv.size)) % 2)
    log_abs = float(np.sum(np.log(mags)))
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
    return Factorization(lu, piv, log_abs, phase, sign,
                         float(mags.min()), float(mags.max()))


class XiLevel(NamedTuple):
    """Xi = log det(Q Qtilde^{-1}) (imaginary part modulo 2 pi), the signs of
    det Q and det Qtilde (0 if complex), the smaller pivot_min / pivot_max of
    their LUs, and |log|det Q|| + |log|det Qtilde||, the rounding scale."""
    xi: complex
    signs: tuple
    pivot_ratio: float
    scale: float


def xi_levels(grid: BoundaryGrid, sp: SpectralPoint, subgrids=()) -> list:
    """The XiLevel at sp on grid, then on each embedded sub-grid of it in
    subgrids, from one assembly of Q on grid (`q_levels`).  Qtilde is
    factored at full size on purpose: Xi is exact to rounding only because
    both LUs' pivots on the obstacles' own blocks round alike.  At the
    energy's kappa_max those blocks have condition number ~5e10 (unit disks)
    and Xi is exactly 0.0; per-block LUs move log|det Qtilde| by 3e-7 and
    the energy by 8e-8."""
    out = []
    for m, g in zip(q_levels(grid, sp, subgrids), (grid, *subgrids)):
        fq, ft = factorize(m), factorize(block_diagonal(m, g.blocks))
        out.append(XiLevel((fq.log_abs_det - ft.log_abs_det) + 1j * (fq.phase - ft.phase),
                           (fq.sign, ft.sign),
                           min(f.pivot_min / f.pivot_max for f in (fq, ft)),
                           abs(fq.log_abs_det) + abs(ft.log_abs_det)))
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


class Elimination:
    """Q = [[A, B], [C, D]], with the obstacles' index ranges blocks,
    eliminated at obstacle 0's own block A: the LUs of A and of the Schur
    complement S = D - C W (none for one obstacle), W = A^{-1} B and C W.
    The LUs of the other obstacles' own blocks are made on first use only."""

    def __init__(self, q: np.ndarray, blocks):
        self.q, self.blocks, n0 = q, blocks, blocks[0][1]
        self._lus = [factorize(q[:n0, :n0]), *(None for _ in blocks[1:])]
        self.W = self.solve_block(0, q[:n0, n0:])
        self.CW = _gemm(1.0, q[n0:, :n0], self.W)
        self.fs = factorize(q[n0:, n0:] - self.CW) if self.CW.size else None

    def solve_block(self, j: int, rhs: np.ndarray) -> np.ndarray:
        """Q_jj^{-1} rhs for obstacle j's own block Q_jj."""
        if self._lus[j] is None:
            a, b = self.blocks[j]
            self._lus[j] = factorize(self.q[a:b, a:b])
        return solve(self._lus[j], rhs)

    def solve_tilde(self, rhs: np.ndarray, first: int = 0) -> np.ndarray:
        """Qtilde^{-1} rhs block row by block row; with first = 1, Dtilde^{-1}
        rhs for D's block-diagonal part Dtilde, rhs on obstacles 1.. only."""
        off = self.blocks[first][0]
        out = np.empty(rhs.shape, dtype=np.result_type(self.q, rhs))
        for j, (a, b) in enumerate(self.blocks[first:], first):
            out[a - off:b - off] = self.solve_block(j, rhs[a - off:b - off])
        return out

    def solve(self, v: np.ndarray) -> np.ndarray:
        """Q^{-1} v by block back-substitution: x2 = S^{-1} (v2 - C A^{-1}
        v1) and x1 = A^{-1} v1 - W x2."""
        n0, v2 = self.blocks[0][1], v.reshape(v.shape[0], -1)
        y = self.solve_block(0, v2[:n0])
        if self.fs is None:
            return y.reshape(v.shape)
        x2 = solve(self.fs, _gemm(-1.0, self.q[n0:, :n0], y, 1.0, v2[n0:]))
        return np.concatenate([_gemm(-1.0, self.W, x2, 1.0, y), x2]).reshape(v.shape)

    def traces(self, X: np.ndarray, *rest) -> list:
        """Tr(Q^{-1} X) = Tr(S^{-1} (x22 - x21 W - C A^{-1} x12)) for X =
        [[0, x12], [x21, x22]], then with each (x21, x22) in rest instead."""
        n0 = self.blocks[0][1]
        cv = _gemm(1.0, self.q[n0:, :n0], self.solve_block(0, X[:n0, n0:]))
        return [np.trace(solve(self.fs, _gemm(-1.0, x21, self.W, 1.0, x22 - cv)))
                for x21, x22 in [(X[n0:, :n0], X[n0:, n0:]), *rest]]
