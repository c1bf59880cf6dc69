"""Pointwise kernels of the resolvent difference and the relative resolvent
away from the obstacles.

The resolvent-difference kernel is the boundary bilinear form
k(x, y) = -<G(y, .), Q^{-1} G(x, .)> over the obstacle boundary; the
relative kernel replaces Q^{-1} by Q^{-1} - Qtilde^{-1} =
-Q^{-1} T Qtilde^{-1} and is evaluated in that factorized form.  Off the
boundary the integrands are smooth, so the plain trapezoid weights of the
grid are spectrally accurate; points closer than a tenth of the obstacle
gap are rejected rather than computed inaccurately.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LayerDetError
from .geometry import BoundaryGrid, Scene, _winding_contains, distance_to_boundary
from .kernel import SpectralPoint, green_free
from .layer_ops import layer_pair, solve


@dataclass(frozen=True)
class FieldPoint:
    x: tuple
    dist: float


def field_point(scene: Scene, xy) -> FieldPoint:
    """Wrap a planar point with its distance to the obstacle union; points
    on or inside an obstacle are rejected."""
    p = (float(xy[0]), float(xy[1]))
    d = distance_to_boundary(scene, p)
    inside = any(
        _winding_contains(c.point(2 * np.pi * np.arange(512) / 512), p)
        for c in scene.obstacles)
    if d <= 0 or inside:
        raise LayerDetError(f"field point {p} lies on or inside an obstacle")
    return FieldPoint(p, d)


class FieldEvaluator:
    """Caches the factorizations for one (scene, grid, spectral point); all
    per-point evaluations are then two boundary-vector solves."""

    def __init__(self, scene: Scene, grid: BoundaryGrid, sp: SpectralPoint):
        self.scene = scene
        self.grid = grid
        self.sp = sp
        self._fq, self._ft, self._T = layer_pair(grid, sp)
        gap = scene.gap
        if np.isfinite(gap):
            self._standoff = 0.1 * gap
        else:
            # single obstacle: fall back to a tenth of the mean boundary scale
            self._standoff = 0.1 * float(np.sum(grid.weights)) / (2 * np.pi)

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
        u = solve(self._fq, gx)
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
        v = solve(self._ft, gx)
        u = solve(self._fq, self._T @ v)
        return complex(np.dot(gy * self.grid.weights, u))
