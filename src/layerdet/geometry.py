"""Smooth closed obstacle boundaries, scenes, and Nystrom boundary grids.

Every curve is a trigonometric polynomial in its parameter t in [0, 2pi),
x(t) = center + sum_k cos(kt) a_k + sin(kt) b_k with a_k, b_k in R^2, oriented
counterclockwise; its derivatives are the same sums over exact coefficients.
A Scene is an ordered list of pairwise disjoint curves; its minimal
boundary-to-boundary gap controls every decay rate downstream.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence, Tuple

import numpy as np

from .errors import SceneError

#: parameters of the regularity and radius checks and of the distance search
_SAMPLES = 2 * np.pi * np.arange(2048) / 2048
#: polygon node parameters of every curve for the nesting test, the gap
#: search's start and the diameter bounds
_POLYGON = 2 * np.pi * np.arange(512) / 512


@dataclass(frozen=True)
class Curve:
    """Closed smooth curve x(t) = center + sum_{k=0}^K cos(kt) a_k + sin(kt) b_k.

    kind: one of "circle", "ellipse", "kite", "polar-fourier"
    params: kind-specific numeric parameters (documented per factory)
    a, b: (K + 1) x 2 arrays of the a_k and b_k, which alone define the
    curve; equality and hashing read kind, center and params only.
    """

    kind: str
    center: Tuple[float, float]
    params: tuple
    a: np.ndarray = field(repr=False, compare=False)
    b: np.ndarray = field(repr=False, compare=False)

    @cached_property
    def _terms(self):
        """k = 1..K, center + a_0 (added last: a circle's point stays bitwise
        center + r (cos t, sin t)), and the k's coefficients of x, x', x''."""
        k = np.arange(1.0, len(self.a))[:, None]
        a, b = self.a[1:], self.b[1:]
        return k[:, 0], self.center + self.a[0], \
            ((a, b), (k * b, -k * a), (-k * k * a, -k * k * b))

    def _derivative(self, t, order: int):
        k, offset, terms = self._terms
        kt = np.multiply.outer(np.asarray(t, dtype=float), k)
        a, b = terms[order]
        x = np.dot(np.cos(kt), a) + np.dot(np.sin(kt), b)
        return offset + x if order == 0 else x

    def point(self, t):
        return self._derivative(t, 0)

    def velocity(self, t):
        return self._derivative(t, 1)

    def accel(self, t):
        return self._derivative(t, 2)

    def speed(self, t):
        v = self.velocity(t)
        return np.hypot(v[..., 0], v[..., 1])


def _curve(kind: str, center, terms, **params) -> Curve:
    """The curve of `kind` with coefficients a, b = terms(*params), refused
    unless the centre and every parameter are finite and |x'(t)| > 0."""
    for name, v in (("centre", center), *params.items()):
        if not np.all(np.isfinite(np.asarray(v, dtype=float))):
            raise SceneError(f"{kind} {name} must be finite, got {v!r}")
    curve = Curve(kind, (float(center[0]), float(center[1])), tuple(params.values()),
                  *(np.asarray(c, dtype=float) for c in terms(*params.values())))
    if not np.all(curve.speed(_SAMPLES) > 0.0):
        raise SceneError(f"{kind} curve is not regular (|x'(t)| vanishes)")
    return curve


def make_circle(center, radius) -> Curve:
    """Circle center + radius (cos t, sin t)."""
    if radius <= 0:
        raise SceneError("radius must be positive")
    return _curve("circle", center, lambda r: ([[0, 0], [r, 0]], [[0, 0], [0, r]]),
                  radius=float(radius))


def make_ellipse(center, a, b, rotation=0.0) -> Curve:
    """Axis lengths a, b, turned by `rotation` radians: center +
    (cos rotation, sin rotation) a cos t + (-sin rotation, cos rotation) b sin t."""
    if a <= 0 or b <= 0:
        raise SceneError("ellipse axes must be positive")
    return _curve("ellipse", center, lambda a, b, phi: (
        [[0, 0], [a * np.cos(phi), a * np.sin(phi)]],
        [[0, 0], [-b * np.sin(phi), b * np.cos(phi)]]), a=float(a), b=float(b),
        rotation=float(rotation))


def make_kite(center, scale) -> Curve:
    """Standard kite test curve center + scale (cos t + 0.65 cos 2t - 0.65, 1.5 sin t)."""
    if scale <= 0:
        raise SceneError("kite scale must be positive")
    return _curve("kite", center, lambda sc: ([[-0.65 * sc, 0], [sc, 0], [0.65 * sc, 0]],
                                              [[0, 0], [0, 1.5 * sc], [0, 0]]),
                  scale=float(scale))


def make_polar_fourier(center, cos_coeffs, sin_coeffs=()) -> Curve:
    """Star-shaped curve center + r(t) (cos t, sin t),
    r(t) = c_0 + sum_k (a_k cos kt + b_k sin kt).

    cos_coeffs = (c_0, a_1, a_2, ...), sin_coeffs = (b_1, b_2, ...).
    The radius must stay positive; this also guarantees simplicity.
    """
    return _curve("polar-fourier", center, _polar_terms,
                  cos_coeffs=tuple(np.asarray(cos_coeffs, dtype=float)),
                  sin_coeffs=tuple(np.asarray(sin_coeffs, dtype=float)))


def _polar_terms(ac, bs):
    """The coefficients of r(t) (cos t, sin t), of degree K + 1 for r of
    degree K, by the product-to-sum identities: a term al cos kt + be sin kt
    of r gives (al, -be) / 2 cos (k+1)t + (be, al) / 2 sin (k+1)t, and the
    same times (1, -1) at k - 1."""
    n = max(len(ac), len(bs) + 1)
    al, be = np.zeros(n), np.zeros(n)
    al[:len(ac)], be[1:len(bs) + 1] = ac, bs
    kt = np.multiply.outer(_SAMPLES, np.arange(n))
    if np.any(np.cos(kt) @ al + np.sin(kt) @ be <= 0):
        raise SceneError("polar-fourier radius must stay positive")
    a, b = np.zeros((n + 1, 2)), np.zeros((n + 1, 2))
    a[1, 0] = b[1, 1] = al[0]
    for c, up in ((a, (al[1:], -be[1:])), (b, (be[1:], al[1:]))):
        up = np.stack(up, axis=-1) / 2
        c[2:] += up
        c[:-2] += up * (1, -1)
    return a, b


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
    n = 8 * len(_POLYGON)
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
    def samples(self) -> Tuple[Tuple[np.ndarray, np.ndarray], ...]:
        """Each obstacle's points at the distance search's parameters and at
        its polygon nodes, read-only and built on first use."""
        out = tuple((c.point(_SAMPLES), c.point(_POLYGON)) for c in self.obstacles)
        for a in (a for pair in out for a in pair):
            a.setflags(write=False)
        return out

    @cached_property
    def diameters(self) -> Tuple[Tuple[float, ...], float]:
        """Upper bounds on each obstacle's diameter and on the scene's,
        built on first use.  Each obstacle lies in the disk about its
        polygon nodes' mean reaching the farthest node plus a step of arc
        (twice the half step within which every curve point lies of a
        node); the bounds are those disks' diameters and their largest
        pairwise extent.  The diameters are rounded to single precision,
        well inside the step, so that congruent obstacles share one."""
        disks = []
        for c, (_, p) in zip(self.obstacles, self.samples):
            m = p.mean(axis=0)
            disks.append((m, float(np.max(np.hypot(*(p - m).T))
                                   + np.max(c.speed(_POLYGON)) * 2 * np.pi / len(_POLYGON))))
        whole = max(float(np.hypot(*(mj - mk))) + rj + rk
                    for mj, rj in disks for mk, rk in disks)
        return tuple(float(np.float32(2 * r)) for _, r in disks), whole


def make_scene(obstacles: Sequence[Curve]) -> Scene:
    obstacles = tuple(obstacles)
    if len(obstacles) < 1:
        raise SceneError("scene needs at least one obstacle")
    gap = np.inf
    polys = [c.point(_POLYGON) for c in obstacles]
    for j in range(len(obstacles)):
        for k in range(j + 1, len(obstacles)):
            d = _pair_min_distance(obstacles[j], obstacles[k], polys[j], polys[k])
            # every node of each polygon, so that crossing curves are caught
            # as well as nested ones
            if not d > 0.0 or _winding_contains(polys[k], polys[j]).any() \
                    or _winding_contains(polys[j], polys[k]).any():
                raise SceneError(f"obstacles {j} and {k} overlap or nest")
            gap = min(gap, d)
    return Scene(obstacles, gap)


def distance_to_boundary(scene: Scene, xy) -> float:
    """Distance from a planar point to the union of obstacle boundaries."""
    p = np.asarray(xy, dtype=float)
    best = np.inf
    for c, (pts, _) in zip(scene.obstacles, scene.samples):
        d2 = (pts[:, 0] - p[0]) ** 2 + (pts[:, 1] - p[1]) ** 2
        i = int(np.argmin(d2))
        tcur = _SAMPLES[i]
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
        sp = curve.speed(t)
        ts.append(t)
        pts.append(curve.point(t))
        sps.append(sp)
        wts.append((2 * np.pi / n) * sp)
        blocks.append((start, start + n))
        start += n
    arrays = [np.concatenate(a) if a[0].ndim == 1 else np.vstack(a)
              for a in (ts, pts, sps, wts)]
    for a in arrays:
        a.setflags(write=False)
    return BoundaryGrid(scene, ns, *arrays, tuple(blocks))
