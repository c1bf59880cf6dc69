"""Smooth closed obstacle boundaries, scenes, and Nystrom boundary grids.

Curves are parametrized over t in [0, 2pi) with closed-form first and second
derivatives, oriented counterclockwise.  A Scene is an ordered list of
pairwise disjoint curves; its minimal boundary-to-boundary gap controls every
decay rate downstream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence, Tuple

import numpy as np

from .errors import SceneError

_REGULARITY_SAMPLES = 2048
#: polygon nodes per curve for the nesting test and the gap search's start
_POLYGON_SAMPLES = 512


@dataclass(frozen=True)
class Curve:
    """Closed smooth parametric curve.

    kind: one of "circle", "ellipse", "kite", "polar-fourier"
    params: kind-specific numeric parameters (documented per factory)
    """

    kind: str
    center: Tuple[float, float]
    params: tuple
    _maps: Callable = field(repr=False, compare=False, default=None)

    def point(self, t):
        t = np.asarray(t, dtype=float)
        return self._maps(t, 0)

    def velocity(self, t):
        t = np.asarray(t, dtype=float)
        return self._maps(t, 1)

    def accel(self, t):
        t = np.asarray(t, dtype=float)
        return self._maps(t, 2)

    def speed(self, t):
        v = self.velocity(t)
        return np.hypot(v[..., 0], v[..., 1])


def _finalize(curve: Curve) -> Curve:
    t = 2 * np.pi * np.arange(_REGULARITY_SAMPLES) / _REGULARITY_SAMPLES
    sp = curve.speed(t)
    if not np.all(sp > 0.0):
        raise SceneError(f"{curve.kind} curve is not regular (|x'(t)| vanishes)")
    return curve


def make_circle(center, radius) -> Curve:
    """Circle of given radius."""
    if radius <= 0:
        raise SceneError("radius must be positive")
    cx, cy = float(center[0]), float(center[1])
    r = float(radius)

    def maps(t, order):
        c, s = np.cos(t), np.sin(t)
        if order == 0:
            return np.stack([cx + r * c, cy + r * s], axis=-1)
        if order == 1:
            return np.stack([-r * s, r * c], axis=-1)
        return np.stack([-r * c, -r * s], axis=-1)

    return _finalize(Curve("circle", (cx, cy), (r,), maps))


def make_ellipse(center, a, b, rotation=0.0) -> Curve:
    """Axis lengths a, b; rotated by `rotation` radians."""
    if a <= 0 or b <= 0:
        raise SceneError("ellipse axes must be positive")
    cx, cy = float(center[0]), float(center[1])
    a, b, phi = float(a), float(b), float(rotation)
    cphi, sphi = np.cos(phi), np.sin(phi)

    def maps(t, order):
        c, s = np.cos(t), np.sin(t)
        if order == 0:
            u, v = a * c, b * s
            return np.stack([cx + cphi * u - sphi * v, cy + sphi * u + cphi * v], axis=-1)
        if order == 1:
            u, v = -a * s, b * c
        else:
            u, v = -a * c, -b * s
        return np.stack([cphi * u - sphi * v, sphi * u + cphi * v], axis=-1)

    return _finalize(Curve("ellipse", (cx, cy), (a, b, phi), maps))


def make_kite(center, scale) -> Curve:
    """Standard kite test curve (cos t + 0.65 cos 2t - 0.65, 1.5 sin t), scaled."""
    if scale <= 0:
        raise SceneError("kite scale must be positive")
    cx, cy = float(center[0]), float(center[1])
    sc = float(scale)

    def maps(t, order):
        if order == 0:
            return np.stack([cx + sc * (np.cos(t) + 0.65 * np.cos(2 * t) - 0.65),
                             cy + sc * 1.5 * np.sin(t)], axis=-1)
        if order == 1:
            return np.stack([sc * (-np.sin(t) - 1.3 * np.sin(2 * t)),
                             sc * 1.5 * np.cos(t)], axis=-1)
        return np.stack([sc * (-np.cos(t) - 2.6 * np.cos(2 * t)),
                         sc * -1.5 * np.sin(t)], axis=-1)

    return _finalize(Curve("kite", (cx, cy), (sc,), maps))


def make_polar_fourier(center, cos_coeffs, sin_coeffs=()) -> Curve:
    """Star-shaped curve r(t) = c_0 + sum_k (a_k cos kt + b_k sin kt).

    cos_coeffs = (c_0, a_1, a_2, ...), sin_coeffs = (b_1, b_2, ...).
    The radius must stay positive; this also guarantees simplicity.
    """
    cx, cy = float(center[0]), float(center[1])
    ac = np.asarray(cos_coeffs, dtype=float)
    bs = np.asarray(sin_coeffs, dtype=float)
    if ac.size == 0 or ac[0] <= 0:
        raise SceneError("polar-fourier needs a positive constant coefficient")
    kc = np.arange(ac.size)
    ks = np.arange(1, bs.size + 1)

    def radius(t, order):
        tt = np.atleast_1d(t)[:, None]
        if order == 0:
            r = (ac * np.cos(kc * tt)).sum(axis=1)
            if bs.size:
                r = r + (bs * np.sin(ks * tt)).sum(axis=1)
        elif order == 1:
            r = (-ac * kc * np.sin(kc * tt)).sum(axis=1)
            if bs.size:
                r = r + (bs * ks * np.cos(ks * tt)).sum(axis=1)
        else:
            r = (-ac * kc**2 * np.cos(kc * tt)).sum(axis=1)
            if bs.size:
                r = r + (-bs * ks**2 * np.sin(ks * tt)).sum(axis=1)
        return r.reshape(np.shape(t))

    def maps(t, order):
        c, s = np.cos(t), np.sin(t)
        r = radius(t, 0)
        if order == 0:
            return np.stack([cx + r * c, cy + r * s], axis=-1)
        r1 = radius(t, 1)
        if order == 1:
            return np.stack([r1 * c - r * s, r1 * s + r * c], axis=-1)
        r2 = radius(t, 2)
        return np.stack([r2 * c - 2 * r1 * s - r * c, r2 * s + 2 * r1 * c - r * s], axis=-1)

    tgrid = 2 * np.pi * np.arange(_REGULARITY_SAMPLES) / _REGULARITY_SAMPLES
    if np.any(radius(tgrid, 0) <= 0):
        raise SceneError("polar-fourier radius must stay positive")
    return _finalize(Curve("polar-fourier", (cx, cy), (tuple(ac), tuple(bs)), maps))


# ---------------------------------------------------------------------------
# pairwise distance machinery
# ---------------------------------------------------------------------------

def _newton_refine_pair(cj: Curve, ck: Curve, t0: float, s0: float):
    """Newton on the squared distance F(t,s) = |xj(t)-xk(s)|^2 / 2 with
    golden-section fallback; returns the refined squared-distance/2."""
    t, s = t0, s0

    def F(tv, sv):
        d = cj.point(tv) - ck.point(sv)
        return 0.5 * float(d @ d)

    fcur = F(t, s)
    for _ in range(50):
        d = cj.point(t) - ck.point(s)
        vj, vk = cj.velocity(t), ck.velocity(s)
        aj, ak = cj.accel(t), ck.accel(s)
        g = np.array([d @ vj, -(d @ vk)])
        H = np.array([[vj @ vj + d @ aj, -(vj @ vk)],
                      [-(vj @ vk), vk @ vk - d @ ak]])
        try:
            step = np.linalg.solve(H, -g)
        except np.linalg.LinAlgError:
            break
        nrm = np.hypot(step[0], step[1])
        if nrm > 0.5:
            step *= 0.5 / nrm
        tn, sn = t + step[0], s + step[1]
        fn = F(tn, sn)
        if fn > fcur:
            break
        t, s, moved = tn, sn, nrm
        fcur = fn
        if moved < 1e-13:
            return fcur
    # fallback: alternating golden-section around (t, s)
    gr = (np.sqrt(5.0) - 1) / 2
    span = 2 * np.pi / 64
    for _ in range(3):
        for coord in (0, 1):
            lo, hi = (-span, span)
            while hi - lo > 1e-12:
                m1 = hi - gr * (hi - lo)
                m2 = lo + gr * (hi - lo)
                f1 = F(t + m1, s) if coord == 0 else F(t, s + m1)
                f2 = F(t + m2, s) if coord == 0 else F(t, s + m2)
                if f1 < f2:
                    hi = m2
                else:
                    lo = m1
            mid = 0.5 * (lo + hi)
            if coord == 0:
                t += mid
            else:
                s += mid
        span /= 8
    return F(t, s)


def _closest_pair(pj: np.ndarray, pk: np.ndarray):
    dx = pj[:, 0][:, None] - pk[None, :, 0]
    dy = pj[:, 1][:, None] - pk[None, :, 1]
    return np.unravel_index(np.argmin(dx * dx + dy * dy), dx.shape)


def _pair_min_distance(cj: Curve, ck: Curve, pj: np.ndarray, pk: np.ndarray) -> float:
    """Boundary distance of two curves from their polygons' closest node
    pair: moved to the closest pair of the 8x finer node lattice within 16
    of its nodes (where a search of that whole lattice lands), then Newton."""
    i, k = _closest_pair(pj, pk)
    n = 8 * _POLYGON_SAMPLES
    t = 2 * np.pi * ((8 * np.array([[i], [k]]) + np.arange(-16, 17)) % n) / n
    a, b = _closest_pair(cj.point(t[0]), ck.point(t[1]))
    return np.sqrt(2.0 * _newton_refine_pair(cj, ck, t[0, a], t[1, b]))


def _winding_contains(poly: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Even-odd crossing test of each point of pts (m x 2) against a dense
    sampled polygon; a boolean array of length m.  Points outside its
    bounding box skip the test, which makes make_scene 2.7 times faster."""
    box = np.all((pts >= poly.min(axis=0)) & (pts <= poly.max(axis=0)), axis=1)
    x, y = pts[box, :1], pts[box, 1:]
    xs, ys = poly[:, 0], poly[:, 1]
    xs2, ys2 = np.roll(xs, -1), np.roll(ys, -1)
    cond = (ys > y) != (ys2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = xs + (y - ys) * (xs2 - xs) / (ys2 - ys)
    inside = np.zeros(len(pts), dtype=bool)
    inside[box] = np.count_nonzero(cond & (x < xin), axis=1) % 2 == 1
    return inside


@dataclass(frozen=True)
class Scene:
    """Ordered collection of disjoint obstacles.  gap is +inf for N = 1."""

    obstacles: Tuple[Curve, ...]
    gap: float

    @property
    def n_obstacles(self) -> int:
        return len(self.obstacles)

    @cached_property
    def diameters(self) -> Tuple[Tuple[float, ...], float]:
        """Upper bounds on each obstacle's diameter and on the scene's,
        built on first use.  Each obstacle lies in the disk about its
        polygon nodes' mean reaching the farthest node plus a step of arc
        (twice the half step within which every curve point lies of a
        node); the bounds are those disks' diameters and their largest
        pairwise extent.  The diameters are rounded to single precision,
        well inside the step, so that congruent obstacles share one."""
        t = 2 * np.pi * np.arange(_POLYGON_SAMPLES) / _POLYGON_SAMPLES
        disks = []
        for c in self.obstacles:
            p = c.point(t)
            m = p.mean(axis=0)
            disks.append((m, float(np.max(np.hypot(*(p - m).T))
                                   + np.max(c.speed(t)) * 2 * np.pi / _POLYGON_SAMPLES)))
        whole = max(float(np.hypot(*(mj - mk))) + rj + rk
                    for mj, rj in disks for mk, rk in disks)
        return tuple(float(np.float32(2 * r)) for _, r in disks), whole


def make_scene(obstacles: Sequence[Curve]) -> Scene:
    obstacles = tuple(obstacles)
    if len(obstacles) < 1:
        raise SceneError("scene needs at least one obstacle")
    if len(obstacles) == 1:
        return Scene(obstacles, np.inf)
    gap = np.inf
    t = 2 * np.pi * np.arange(_POLYGON_SAMPLES) / _POLYGON_SAMPLES
    polys = [c.point(t) for c in obstacles]
    for j in range(len(obstacles)):
        for k in range(j + 1, len(obstacles)):
            d = _pair_min_distance(obstacles[j], obstacles[k], polys[j], polys[k])
            # every node of each polygon, so that crossing curves are caught
            # as well as nested ones
            if not d > 0.0 or _winding_contains(polys[k], polys[j]).any() \
                    or _winding_contains(polys[j], polys[k]).any():
                raise SceneError(f"obstacles {j} and {k} overlap or nest")
            gap = min(gap, d)
    if not np.isfinite(gap) or gap <= 0:
        raise SceneError("invalid gap")
    return Scene(obstacles, gap)


def distance_to_boundary(scene: Scene, xy) -> float:
    """Distance from a planar point to the union of obstacle boundaries."""
    p = np.asarray(xy, dtype=float)
    t = 2 * np.pi * np.arange(2048) / 2048
    best = np.inf
    for c in scene.obstacles:
        pts = c.point(t)
        d2 = (pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2
        i = int(np.argmin(d2))
        tcur = t[i]
        for _ in range(40):
            d = c.point(tcur) - p
            v = c.velocity(tcur)
            a = c.accel(tcur)
            g = float(d @ v)
            h = float(v @ v + d @ a)
            if h <= 0:
                break
            step = -g / h
            tcur += np.clip(step, -0.1, 0.1)
            if abs(step) < 1e-14:
                break
        best = min(best, float(np.hypot(*(c.point(tcur) - p))))
    return best


# ---------------------------------------------------------------------------
# Nystrom grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundaryGrid:
    """Trapezoid nodes in parameter on every obstacle, with the block
    bookkeeping used by the dense operator layer.

    weights are the full surface weights (2pi/n_j) * |x'(t)|; blocks maps
    obstacle j to its half-open index range in the assembled matrices.
    Arrays that depend on the grid alone, such as `distances`, are built on
    first use and cached on the grid.
    """

    scene: Scene
    n_per_obstacle: Tuple[int, ...]
    t: np.ndarray
    points: np.ndarray
    speeds: np.ndarray
    weights: np.ndarray
    blocks: Tuple[Tuple[int, int], ...]

    @property
    def size(self) -> int:
        return self.points.shape[0]

    def block_slice(self, j: int) -> slice:
        b = self.blocks[j]
        return slice(b[0], b[1])

    @cached_property
    def distances(self) -> np.ndarray:
        """Read-only N x N node distances |x_i - x_j|: every assembly reads
        its diagonal and cross blocks from here."""
        x, y = self.points[:, 0], self.points[:, 1]
        r = np.hypot(x[:, None] - x[None, :], y[:, None] - y[None, :])
        r.setflags(write=False)
        return r

    @cached_property
    def _embedded(self) -> dict:
        return {}

    def embedded(self, stride: int) -> "BoundaryGrid | None":
        """The grid of every stride-th node of each obstacle (stride a power
        of 2, 1 giving this grid), built once per stride, or None where a
        count would turn odd or fall below 16.  Its nodes, speeds and
        weights are bitwise this grid's every stride-th ones: halving a
        count halves the denominator of 2 pi k / n exactly."""
        if stride == 1:
            return self
        if stride not in self._embedded:
            ns = self.n_per_obstacle
            ok = all(n % (2 * stride) == 0 and n // stride >= 16 for n in ns)
            self._embedded[stride] = discretize(
                self.scene, [n // stride for n in ns]) if ok else None
        return self._embedded[stride]


def discretize(scene: Scene, n_per_obstacle) -> BoundaryGrid:
    """Build the boundary grid; every node count must be even and >= 16."""
    ns = [n_per_obstacle] * scene.n_obstacles if np.isscalar(n_per_obstacle) \
        else list(n_per_obstacle)
    if len(ns) != scene.n_obstacles:
        raise SceneError("one node count per obstacle required")
    for n in ns:
        if not (isinstance(n, numbers.Real) and float(n).is_integer()) or n < 16 or n % 2:
            raise SceneError(f"node count {n} must be an even integer >= 16 "
                             "(log-quadrature needs even counts)")
    ns = tuple(int(n) for n in ns)
    ts, pts, sps, wts, blocks = [], [], [], [], []
    start = 0
    for curve, n in zip(scene.obstacles, ns):
        t = 2 * np.pi * np.arange(n) / n
        p = curve.point(t)
        v = curve.velocity(t)
        sp = np.hypot(v[:, 0], v[:, 1])
        ts.append(t)
        pts.append(p)
        sps.append(sp)
        wts.append((2 * np.pi / n) * sp)
        blocks.append((start, start + n))
        start += n
    arrays = [np.concatenate(a) if a[0].ndim == 1 else np.vstack(a)
              for a in (ts, pts, sps, wts)]
    for a in arrays:
        a.setflags(write=False)
    return BoundaryGrid(scene, ns, *arrays, tuple(blocks))
