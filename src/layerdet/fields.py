"""Pointwise kernels of the resolvent difference and the relative resolvent
away from the obstacles.

The resolvent-difference kernel is the boundary bilinear form
k(x, y) = -<G(y, .), Q^{-1} G(x, .)> over the obstacle boundary; the
relative kernel replaces Q^{-1} by Q^{-1} - Qtilde^{-1} =
-Q^{-1} T Qtilde^{-1} and is evaluated in that factorized form, both
inverses from Q's block elimination (`layer_ops.Elimination`), every LU at
the obstacles' size.  Off the
boundary the integrands are smooth, so the plain trapezoid weights of the
grid are spectrally accurate; points closer than a tenth of the obstacle
gap are rejected rather than computed inaccurately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import get_blas_funcs

from .errors import LayerDetError
from .geometry import BoundaryGrid, Scene, _winding_contains, distance_to_boundary
from .kernel import SpectralPoint, green_free
from .layer_ops import Elimination, assemble_q, block_diagonal
from .xi import _check


@dataclass(frozen=True)
class FieldPoint:
    x: tuple
    dist: float


def field_point(scene: Scene, xy) -> FieldPoint:
    """Wrap a planar point with its distance to the obstacle union; points
    on or inside an obstacle are rejected."""
    p = (float(xy[0]), float(xy[1]))
    if not np.all(np.isfinite(p)):
        raise LayerDetError(f"field point {p} is not finite")
    d = distance_to_boundary(scene, p)
    inside = any(_winding_contains(poly, np.array([p]))[0] for _, poly in scene.samples)
    if d <= 0 or inside:
        raise LayerDetError(f"field point {p} lies on or inside an obstacle")
    return FieldPoint(p, d)


class FieldEvaluator:
    """Caches Q's block elimination (`layer_ops.Elimination`) and the coupling
    T = Q - Qtilde for one (scene, grid, spectral point); all per-point
    evaluations are then boundary-vector solves at the obstacles' size."""

    def __init__(self, scene: Scene, grid: BoundaryGrid, sp: SpectralPoint):
        _check(scene, grid)
        self.scene, self.grid, self.sp = scene, grid, sp
        q = assemble_q(grid, sp).entries
        self._e, self._T = Elimination(q, grid.blocks), q - block_diagonal(q, grid.blocks)
        # a tenth of the gap; for one obstacle, of the mean boundary scale
        self._standoff = (0.1 * scene.gap if np.isfinite(scene.gap)
                          else 0.1 * float(np.sum(grid.weights)) / (2 * np.pi))

    def _check(self, *points: FieldPoint):
        for p in points:
            if p.dist <= self._standoff:
                raise LayerDetError(
                    f"field point at distance {p.dist:.3g} is inside the "
                    f"quadrature standoff {self._standoff:.3g}")

    def _boundary_vector(self, p: FieldPoint) -> np.ndarray:
        r = np.hypot(self.grid.points[:, 0] - p.x[0],
                     self.grid.points[:, 1] - p.x[1])
        return green_free(self.sp, r)

    def resolvent_diff(self, x: FieldPoint, y: FieldPoint) -> complex:
        """Kernel of (Delta - lambda^2)^{-1} - (Delta_0 - lambda^2)^{-1}."""
        self._check(x, y)
        gx = self._boundary_vector(x)
        gy = self._boundary_vector(y)
        u = self._e.solve(gx)
        return complex(-np.dot(gy * self.grid.weights, u))

    def rel_resolvent(self, x: FieldPoint, y: FieldPoint) -> complex:
        """Kernel of the relative resolvent: the multi-obstacle resolvent
        difference minus the sum of single-obstacle ones, through
        +<G(y,.), Q^{-1} T Qtilde^{-1} G(x,.)>."""
        self._check(x, y)
        if self.scene.n_obstacles == 1:
            return 0j
        gx = self._boundary_vector(x)
        gy = self._boundary_vector(y)
        v = self._e.solve_tilde(gx)
        # T v on scipy's BLAS, from T^T's F-ordered view: no copy
        u = self._e.solve(get_blas_funcs("gemv", (v,))(1.0, self._T.T, v, trans=1))
        return complex(np.dot(gy * self.grid.weights, u))
