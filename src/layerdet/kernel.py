"""Free Helmholtz Green's function on the spectral axes and the
log-singularity splitting for diagonal-block quadrature.

Spectral points live in the closed upper half plane: lambda = i*kappa on the
imaginary axis (where every kernel is real and exponentially decaying) or
lambda = |lambda| e^{i theta} on a ray with 0 < theta < pi/2, or on the
positive real axis (theta = 0, the boundary value lambda + i0).  The kernel
is (i/4) H1_0(lambda r), which at lambda = i kappa collapses to
(1/2pi) K_0(kappa r); the code uses the modified-Bessel form there so the
imaginary part is exactly zero.  At real lambda it is (i/4) (J_0 + i Y_0)
from the real-argument J and Y, so the regular factor J_0 is real there.

The Martensen/Kussmaul-style splitting writes the single-layer kernel times
the speed factor as

    G(x(t), x(s)) |x'(s)| = A(t,s) log(4 sin^2((t-s)/2)) + B(t,s)

with A, B smooth and biperiodic; the diagonal limit of B carries the
Euler-Mascheroni and speed-log terms.  The derivative kernel, taken in the
axis variable (kappa on the imaginary axis, so it stays real; lambda on a
ray), has the same structure with A vanishing linearly on the diagonal, so
one product quadrature covers both.

Both factors of the split, and the cross kernel, are functions of the node
distance alone, so `split_block` and `offdiag_kernel` take a block's sorted
distinct distances (`BoundaryGrid.distinct`) and the block is gathered from
the values with its index (in `split_block` for a diagonal block, in
`layer_ops` for a cross block): each Bessel/Hankel value or Chebyshev sum
is taken once per distinct distance.  That pays where distances repeat, as
on circles and reflection-symmetric curves.  Distinct values among each
triangle's and the cross block's distances in the workload scenes: two
unit disks at gap 2, 91, 125 of 496 and 525 of 1024 at n = 32; 230, 341
of 2016 and 1978 of 4096 at n = 64; 458, 644 of 4560 and 4798 of 9216 at
n = 96; 549, 850 of 8128 and 7720 of 16384 at n = 128; a kite and a
circle 6981, 850 of 8128 and 11706 of 16384 at n = 128.  Every kernel is
elementwise in r, so on the imaginary and real axes each entry is bitwise
its per-pair evaluation.  On a ray so is every entry of a block with fewer
than 16384 distinct distances; above 256 KiB numpy takes the series'
complex product in place, which rounds up to 4e-16 relative differently.
The log factor depends on the node count alone and is cached per count.

AMOS calls are costly, so the kernels of `Q` and dQ are Chebyshev series in
the distance, fitted once per lambda and interval to AMOS values (Trefethen,
Approximation Theory and Approximation Practice, 2013) and evaluated entry
by entry: on a ray J and the entire part of Y in r on a diagonal block (J0
and Y0 for Q, -r J1 and -r Y1 for dQ) and H1 e^{-i lambda r} in log r across
the gap, on the imaginary axis the real K e^{kappa r} in log r across the gap
(entries keep their relative digits however far they decay).  Intervals come
from the scene.  Real lambda, `green_free` and the axis's diagonal blocks
keep their special functions.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from . import specfun
from .errors import ConvergenceError, LayerDetError

EULER = np.euler_gamma

#: kappa below KAPPA_MIN_FACTOR / gap is rejected (planar log-singular regime).
KAPPA_MIN_FACTOR = 1e-6


@dataclass(frozen=True)
class SpectralPoint:
    """Point lambda in the closed upper half plane sector.

    axis "imaginary": lambda = i * value; axis "ray": lambda =
    value * e^{i*angle} with angle in (0, pi/2); axis "real": lambda = value
    on the positive real axis, where the outgoing kernel is the boundary
    value lambda + i0 and Q is assembled as on a ray.
    """

    axis: str
    value: float
    angle: float = 0.0

    def __post_init__(self):
        if self.axis not in ("imaginary", "ray", "real"):
            raise ValueError(f"unknown axis {self.axis!r}")
        if not (self.value > 0 and np.isfinite(self.value)):
            raise ValueError("spectral magnitude must be positive and finite")
        if self.axis == "ray" and not 0.0 < self.angle < np.pi / 2:
            raise ValueError("ray angle must lie in (0, pi/2)")

    @classmethod
    def imaginary(cls, kappa: float) -> "SpectralPoint":
        return cls("imaginary", float(kappa))

    @classmethod
    def ray(cls, modulus: float, angle: float) -> "SpectralPoint":
        return cls("ray", float(modulus), float(angle))

    @classmethod
    def from_complex(cls, lam: complex) -> "SpectralPoint":
        lam = complex(lam)
        if lam.imag <= 0:
            if lam.imag == 0 and lam.real > 0:
                return cls("real", lam.real)
            raise ValueError("spectral point must lie in the upper half plane")
        if abs(lam.real) <= 8 * np.finfo(float).eps * abs(lam):
            # numerically on the imaginary axis (e.g. mod * exp(i pi/2))
            return cls.imaginary(lam.imag)
        ang = np.angle(lam)
        if not 0 < ang < np.pi / 2:
            raise ValueError("ray angle outside (0, pi/2)")
        return cls.ray(abs(lam), ang)

    @property
    def lam(self) -> complex:
        if self.axis == "imaginary":
            return 1j * self.value
        if self.axis == "real":
            return complex(self.value)
        return self.value * np.exp(1j * self.angle)

    @property
    def is_imaginary(self) -> bool:
        return self.axis == "imaginary"


def _check_r(r):
    r = np.asarray(r, dtype=float)
    if not np.all((r > 0) & (r < np.inf)):
        raise ValueError("green_free requires finite r > 0 "
                         "(diagonal handled by the splitting)")
    return r


def green_free(sp: SpectralPoint, r):
    """Free-resolvent kernel (i/4) H1_0(lambda r) as a function of the
    distance r = |x - y|.  On the imaginary axis the returned array is real
    (float dtype)."""
    r = _check_r(r)
    if sp.is_imaginary:
        return specfun.bessel_k(0, sp.value * r) / (2 * np.pi)
    return 0.25j * _hankel1(0, sp, r)


def _hankel1(order: int, sp: SpectralPoint, x):
    """H1_order(lambda x) off the imaginary axis.  At real lambda it is
    J + i Y from the real-argument j0/y0 or j1/y1, whose real part is J
    exactly: AMOS on lambda x + 0j takes about ten times as long and
    leaves J an imaginary part of up to 4e-16."""
    if sp.axis != "real":
        return _sp.hankel1(order, sp.lam * x)
    z = sp.value * x
    return _sp.j0(z) + 1j * _sp.y0(z) if order == 0 else _sp.j1(z) + 1j * _sp.y1(z)


# ---------------------------------------------------------------------------
# Chebyshev expansions in the distance: the kernels on a ray
# ---------------------------------------------------------------------------

def _cheb_fit(f, a: float, b: float, d: int, groups: int = 1) -> np.ndarray:
    """Chebyshev coefficients, shape (k, m), of the m real series that f
    gives along the last axis at an array of points in [a, b], from their
    values at the d + 1 first-kind points (never at an end).  The degree
    doubles until the last quarter of the coefficients lies 2^-47 below the
    largest, or until doubling no longer lowers that tail (AMOS's rounding
    at large arguments), which must then lie 2^-40 below; the series keep
    the terms above twice the tail and above 2^-50 of the largest.  The m
    series form `groups` equal groups, each measured against its own
    largest coefficient, so that series of unlike sizes keep their digits."""
    prev = np.inf
    for _ in range(5):
        x = np.cos(np.pi * (np.arange(d + 1) + 0.5) / (d + 1))
        vals = f(0.5 * (b - a) * x + 0.5 * (b + a))
        if not np.all(np.isfinite(vals)):
            raise LayerDetError(f"kernel values on [{a}, {b}] are not finite "
                                "(|lambda| too large for the obstacles?)")
        # the cosine transform, from an FFT of the even extension: its
        # rounding stays at the tail's level for any degree, where a cosine
        # matrix's grows with the degree
        k = np.arange(d + 1)[:, None]
        c = (np.exp(-0.5j * np.pi * k / (d + 1))
             * np.fft.fft(np.concatenate([vals, vals[::-1]]), axis=0)[:d + 1]).real / (d + 1)
        c[0] *= 0.5
        # the largest coefficient from each degree on, relative to the
        # largest of its group, the larger over the groups
        env = np.maximum.accumulate(np.abs(c).reshape(d + 1, groups, -1).max(axis=2)[::-1])[::-1]
        env = (env / env[0]).max(axis=1)
        tail = env[-(d + 1) // 4]
        if tail <= 2.0 ** -47 or prev / 2 <= tail <= 2.0 ** -40:
            c = c[:max(int(np.argmax(env <= max(2 * tail, 2.0 ** -50))), 1)]
            c.setflags(write=False)
            return c
        prev, d = tail, 2 * d
    raise ConvergenceError(f"Chebyshev coefficients on [{a}, {b}] did not "
                           f"decay by degree {d // 2}")


def _clenshaw(c: np.ndarray, t: np.ndarray) -> np.ndarray:
    """sum_k c[k] T_k(t) for each column of c, shape (k, m), stacked along a
    new first axis of t's shape: the recurrence runs elementwise, so each
    value depends on its own t alone and a sub-grid's entries are bitwise
    the full grid's."""
    axes = (c.shape[1],) + (1,) * t.ndim
    t2 = 2 * t
    b1, b2 = np.zeros(axes[:1] + t.shape), np.zeros(axes[:1] + t.shape)
    tmp = np.empty_like(b1)
    for ck in c[:0:-1]:
        np.multiply(t2, b1, out=tmp)
        tmp -= b2
        tmp += ck.reshape(axes)
        b1, b2, tmp = tmp, b1, b2
    np.multiply(t, b1, out=tmp)
    tmp -= b2
    tmp += c[0].reshape(axes)
    return tmp


def _stacked(*zs):
    # complex series as real and imaginary parts along the last axis
    return np.stack([p for z in zs for p in (z.real, z.imag)], axis=-1)


def _complex(v: np.ndarray) -> np.ndarray:
    # the complex series from their stacked real and imaginary parts
    return v[0::2] + 1j * v[1::2]


def _in_span(x: np.ndarray, span) -> None:
    if not (x.min() >= span[0] and x.max() <= span[1]):
        raise ValueError(f"distances in [{x.min()}, {x.max()}] outside the "
                         f"expansion interval [{span[0]}, {span[1]}]")


def _degree(lam: complex, a: float, b: float) -> int:
    # the first guess, |lambda| times the interval's length in r plus a
    # margin; `_cheb_fit` checks it by the coefficients' decay
    return int(np.ceil(abs(lam) * (b - a))) + 24


@lru_cache(maxsize=16)
def _split_series(lam: complex, a: float, b: float, order: int = 0) -> np.ndarray:
    """J0(lambda r) and the entire part Y0(z) - (2/pi) log(z/2) J0(z) of
    Y0 at z = lambda r (DLMF 10.8.2) as Chebyshev series in r on [a, b];
    for order 1, the lambda derivative's -r J1(lambda r) and the entire
    -r (Y1(z) - (2/pi) log(z/2) J1(z)) (DLMF 10.8.1), each fitted on its
    own scale: at small |lambda| the first is about lambda r^2 / 2 and the
    second about 2 / (pi lambda)."""
    def f(r):
        z = lam * r
        J = _sp.jv(order, z)
        # Y = -i (H - J): AMOS's yv takes two Hankel functions
        Yt = -1j * (_sp.hankel1(order, z) - J) - (2 / np.pi) * np.log(z / 2) * J
        return _stacked(J, Yt) if order == 0 else _stacked(-r * J, -r * Yt)
    return _cheb_fit(f, a, b, _degree(lam, a, b), groups=1 + order)


@lru_cache(maxsize=16)
def _cross_series(lam: complex, a: float, b: float, order: int = 0) -> np.ndarray:
    """(i/4) H1_0(lambda r) e^{-i lambda r} (AMOS's scaled `hankel1e`), or
    for order 1 the lambda derivative's -(i/4) r H1_1(lambda r) e^{-i lambda
    r}, smooth and without oscillation, as a Chebyshev series in log r on
    [log a, log b]: the log singularity at r = 0 sits at -infinity, so the
    degree stays bounded as a shrinks.  At lambda = i kappa: the real
    K0(kappa r) e^{kappa r} / 2pi or -(r/2pi) K1(kappa r) e^{kappa r} (`kve`)."""
    def f(s):
        r = np.exp(s)
        if not lam.real:
            k = _sp.kve(order, lam.imag * r) / (2 * np.pi)
            return (k if order == 0 else -r * k)[:, None]
        h = _sp.hankel1e(order, lam * r)
        return _stacked(0.25j * h if order == 0 else -0.25j * r * h)
    return _cheb_fit(f, np.log(a), np.log(b), _degree(lam, a, b))


def _ray_split(lam: complex, x: np.ndarray, span, order: int = 0):
    """J and G of `split_block` on a ray from `_split_series` on span: J0
    and (i/4) H1_0(lambda x), or -x J1 and -(i/4) x H1_1(lambda x) for order
    1, H rebuilt as J + i (Ytilde + (2/pi) (log x + log(lambda/2)) J)."""
    _in_span(x, span)
    a, b = span
    J, Yt = _complex(_clenshaw(_split_series(lam, a, b, order), (2 * x - (a + b)) / (b - a)))
    return J, 0.25j * J - 0.25 * (Yt + (2 / np.pi) * (np.log(x) + np.log(lam / 2)) * J)


def _series_cross(lam: complex, r: np.ndarray, span, order: int = 0):
    """offdiag_kernel's G or dG/dv from `_cross_series` on span, times e^{i
    lambda r}; at lambda = i kappa underflow to 0 is flagged as in bessel_k."""
    _in_span(r, span)
    la, lb = np.log(span[0]), np.log(span[1])
    # a one-point interval maps to t = 0
    scale = 2 / (lb - la) if lb > la else 0.0
    t = (np.log(r) - 0.5 * (la + lb)) * scale
    c = _clenshaw(_cross_series(lam, *span, order), t)
    if lam.real:
        return _complex(c)[0] * np.exp(1j * lam * r)
    out = c[0] * np.exp(-lam.imag * r)
    if lam.imag * span[1] > specfun._K_UNDERFLOW_EDGE:
        specfun._flag_k_underflow(out, lam.imag * r)
    return out


# ---------------------------------------------------------------------------
# splitting: diagonal-block builder
# ---------------------------------------------------------------------------

def _log4sin2(dt):
    return np.log(4.0 * np.sin(0.5 * dt) ** 2)


@lru_cache(maxsize=64)
def _split_grid(n: int) -> np.ndarray:
    """The n x n log(4 sin^2((t_i - t_j)/2)) of the split on n equispaced
    nodes t_k = 2 pi k / n.  Its diagonal holds log(4 sin^2(1/2)), a
    placeholder that split_block overwrites."""
    t = 2 * np.pi * np.arange(n) / n
    L = _log4sin2(t[:, None] - t[None, :] + np.eye(n))
    L.setflags(write=False)
    return L


def split_block(sp: SpectralPoint, dist: tuple[np.ndarray, np.ndarray], speeds: np.ndarray,
                deriv: bool = False, *, span):
    """Vectorized (A, B) for G * speed on one curve's n equispaced nodes,
    from dist, the (values, index) pair of their distances
    (`BoundaryGrid.distinct`: the strict upper triangle's sorted distinct
    values, and an n x n index into them whose diagonal points one past the
    last), or with deriv for dG/dv * speed in the axis variable v (kappa on
    the imaginary axis, lambda on a ray).  The regular factor J and the
    kernel G are (I0, K0/2pi) or (r I1, -r K1/2pi) on the axis and (J0,
    (i/4) H0) or (-r J1, -(i/4) r H1) elsewhere, J real at real lambda; A =
    -J speed / 4pi.  J and G are evaluated on the values only and gathered
    with the index, 0 on the diagonal before the diagonal limits fill it.

    On a ray, J and H, of G or of its derivative, come from Chebyshev
    series in r on span, an interval of distances (`layer_ops` passes [0,
    the obstacle's diameter bound]), fitted to AMOS values once per lambda
    and span (`_split_series`); a distance outside span is a ValueError.
    The other axes keep their special functions and ignore span."""
    x, index = dist
    L = _split_grid(speeds.size)
    if sp.is_imaginary:
        v, c = sp.value, 0.0
        J, G = ((x * _sp.i1(v * x), -(x / (2 * np.pi)) * _sp.k1(v * x)) if deriv
                else (_sp.i0(v * x), _sp.k0(v * x) / (2 * np.pi)))
    elif sp.axis == "ray":
        v, c = sp.lam, 0.25j
        J, G = _ray_split(v, x, span, int(deriv))
    else:
        v, c = sp.value, 0.25j
        H = _hankel1(int(deriv), sp, x)
        J, G = (-(x * H.real), -0.25j * x * H) if deriv else (H.real, 0.25j * H)
    # -J / 4pi is elementwise too, so it is taken on the values as well;
    # the gathered blocks are fresh, and B is built in G's
    A, B = (np.append(a, 0)[index] for a in (-(J / (4 * np.pi)), G))
    A *= speeds
    B *= speeds
    B -= A * L
    np.fill_diagonal(A, 0.0 if deriv else -speeds / (4 * np.pi))
    np.fill_diagonal(B, -speeds / (2 * np.pi * v) if deriv else
                     (c - EULER / (2 * np.pi) - np.log(v * speeds / 2) / (2 * np.pi)) * speeds)
    return A, B


def offdiag_kernel(sp: SpectralPoint, r: np.ndarray, deriv: bool = False, *, span):
    """Smooth cross-obstacle kernel values (no speed/weight factors): G, or
    with deriv dG/dv in the axis variable of split_block: -(r/2pi) K1(kappa r)
    on the imaginary axis, -(i r/4) H1_1(lambda r) elsewhere.

    On a ray and on the imaginary axis it comes from a Chebyshev series in
    log r on span (`_cross_series`), which must hold every r (a ValueError
    otherwise); at real lambda from `green_free` and `_hankel1`.  `layer_ops`
    passes a cross block's distinct distances and gathers the block."""
    r = _check_r(r)
    if sp.axis != "real":
        return _series_cross(sp.lam, r, span, int(deriv))
    return -0.25j * r * _hankel1(1, sp, r) if deriv else green_free(sp, r)
