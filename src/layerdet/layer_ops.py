"""Dense Nystrom matrices for the single-layer operator family and their
LU machinery.

The matrix carries the full quadrature weight on the column index,
Q[(j,i),(k,m)] = w_{k,m} G(p_{j,i}, p_{k,m}); within each diagonal block the
log-singular part is integrated with the spectrally accurate product rule
(weights R_k for the log factor, plain trapezoid for the smooth remainder).
Cross-obstacle blocks are analytic, so the trapezoid rule alone converges
spectrally there.

Storage is real on the imaginary axis and complex elsewhere.  Determinants
are only ever consumed as ratios of two factorizations sharing the same
weights, so no symmetrized weighting is needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np
import scipy.linalg as sla

from .errors import SingularOperatorError
from .geometry import BoundaryGrid
from .kernel import KAPPA_MIN_FACTOR, SpectralPoint, offdiag_kernel, split_block


@dataclass(frozen=True)
class LayerMatrix:
    entries: np.ndarray
    sp: SpectralPoint
    blocks: Tuple[Tuple[int, int], ...]
    kind: str  # "Q" | "Qdiag" | "dQ" | "dQdk"


@dataclass(frozen=True)
class Factorization:
    lu: np.ndarray
    piv: np.ndarray
    matrix: np.ndarray
    log_abs_det: float
    phase: float          # arg(det) for complex input, 0 or pi for real
    sign: float           # +-1 for real input, 0 for complex
    parity: int
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
    if sp.axis == "real":
        raise ValueError("assembly requires Im(lambda) > 0; use a ray offset")
    gap = grid.scene.gap
    kmin = KAPPA_MIN_FACTOR / gap if np.isfinite(gap) else 0.0
    if sp.is_imaginary and sp.value < kmin:
        raise ValueError(f"kappa = {sp.value} below kappa_min = {kmin}")


def _diag_block(grid: BoundaryGrid, sp: SpectralPoint, j: int, deriv: str) -> np.ndarray:
    sl = grid.block_slice(j)
    t = grid.t[sl]
    A, B = split_block(sp, t, grid.points[sl], grid.speeds[sl], deriv=deriv)
    n = t.size
    idx = np.abs(np.arange(n)[:, None] - np.arange(n)[None, :])
    R = kress_log_weights(n)
    return R[idx] * A + (2 * np.pi / n) * B


def _offdiag_block(grid: BoundaryGrid, sp: SpectralPoint, j: int, k: int,
                   deriv: str) -> np.ndarray:
    sj, sk = grid.block_slice(j), grid.block_slice(k)
    r = np.hypot(grid.points[sj, 0][:, None] - grid.points[sk, 0][None, :],
                 grid.points[sj, 1][:, None] - grid.points[sk, 1][None, :])
    return offdiag_kernel(sp, r, deriv=deriv) * grid.weights[sk][None, :]


def _assemble(grid: BoundaryGrid, sp: SpectralPoint, deriv: str,
              diagonal_only: bool) -> np.ndarray:
    _check_sp(grid, sp)
    dtype = float if (sp.is_imaginary and deriv in ("none", "kappa")) else complex
    N = grid.size
    out = np.zeros((N, N), dtype=dtype)
    nb = grid.scene.n_obstacles
    for j in range(nb):
        sl = grid.block_slice(j)
        out[sl, sl] = _diag_block(grid, sp, j, deriv)
    if not diagonal_only:
        for j in range(nb):
            for k in range(nb):
                if j != k:
                    out[grid.block_slice(j), grid.block_slice(k)] = \
                        _offdiag_block(grid, sp, j, k, deriv)
    return out


def assemble_q(grid: BoundaryGrid, sp: SpectralPoint) -> LayerMatrix:
    """Full single-layer matrix Q at the spectral point."""
    return LayerMatrix(_assemble(grid, sp, "none", False), sp, grid.blocks, "Q")


def assemble_q_diag(grid: BoundaryGrid, sp: SpectralPoint) -> LayerMatrix:
    """Block-diagonal part; off-diagonal blocks exactly zero, diagonal
    blocks bitwise equal to assemble_q's (same code path)."""
    return LayerMatrix(_assemble(grid, sp, "none", True), sp, grid.blocks, "Qdiag")


def assemble_dq(grid: BoundaryGrid, sp: SpectralPoint) -> LayerMatrix:
    """dQ/dlambda; purely imaginary entries on the imaginary axis."""
    return LayerMatrix(_assemble(grid, sp, "lambda", False), sp, grid.blocks, "dQ")


def assemble_dq_dkappa(grid: BoundaryGrid, sp: SpectralPoint,
                       diagonal_only: bool = False) -> LayerMatrix:
    """dQ/dkappa on the imaginary axis (real storage); the derivative used
    by the difference-structured trace formulas."""
    return LayerMatrix(_assemble(grid, sp, "kappa", diagonal_only), sp,
                       grid.blocks, "dQdk")


def diagonal_part(m: LayerMatrix) -> LayerMatrix:
    """Zero out cross-obstacle blocks of an assembled matrix."""
    out = np.zeros_like(m.entries)
    for (a, b) in m.blocks:
        out[a:b, a:b] = m.entries[a:b, a:b]
    kind = "Qdiag" if m.kind == "Q" else m.kind + "diag"
    return LayerMatrix(out, m.sp, m.blocks, kind)


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
    if np.iscomplexobj(lu):
        phase = float(np.sum(np.angle(d)) + np.pi * parity)
        sign = 0.0
    else:
        neg = int(np.count_nonzero(d < 0)) + parity
        sign = -1.0 if neg % 2 else 1.0
        phase = 0.0 if sign > 0 else np.pi
    mags = np.abs(d)
    return Factorization(lu, piv, a, log_abs, phase, sign, parity,
                         float(mags.min()), float(mags.max()))


def solve(f: Factorization, rhs: np.ndarray) -> np.ndarray:
    """Back-substitution with one step of iterative refinement."""
    rhs = np.asarray(rhs)
    if f.is_complex and not np.iscomplexobj(rhs):
        rhs = rhs.astype(complex)
    x = sla.lu_solve((f.lu, f.piv), rhs, check_finite=False)
    resid = rhs - f.matrix @ x
    x += sla.lu_solve((f.lu, f.piv), resid, check_finite=False)
    return x
