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

Both factors of the split are symmetric in the node pair, so `split_block`
evaluates the Bessel/Hankel functions on one triangle of the block and
mirrors them; the triangle's indices and the log factor depend on the node
count alone and are cached per count.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import special as _sp

from . import specfun

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
    if np.any(r <= 0):
        raise ValueError("green_free requires r > 0 (diagonal handled by the splitting)")
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
# splitting: diagonal-block builder
# ---------------------------------------------------------------------------

def _log4sin2(dt):
    return np.log(4.0 * np.sin(0.5 * dt) ** 2)


@lru_cache(maxsize=64)
def _split_grid(n: int):
    """Grid-only arrays of the split on n equispaced nodes t_k = 2 pi k / n:
    the strict upper triangle (row-major) as an index pair and the n x n
    log(4 sin^2((t_i - t_j)/2)).  The log's diagonal holds log(4 sin^2(1/2)),
    a placeholder that split_block overwrites."""
    t = 2 * np.pi * np.arange(n) / n
    L = _log4sin2(t[:, None] - t[None, :] + np.eye(n))
    upper = np.triu_indices(n, 1)
    for a in (L, *upper):
        a.setflags(write=False)
    return upper, L


def _mirrored(upper_values, upper, n):
    """Symmetric n x n matrix from its strict upper triangle, zero diagonal."""
    out = np.zeros((n, n), dtype=upper_values.dtype)
    out[upper] = upper_values
    out[upper[::-1]] = upper_values
    return out


def split_block(sp: SpectralPoint, r: np.ndarray, speeds: np.ndarray,
                deriv: bool = False):
    """Vectorized (A, B) for G * speed on one curve's n equispaced nodes,
    from their n x n distance matrix r (diagonal unused), or with deriv for
    dG/dv * speed in the axis variable v (kappa on the imaginary axis,
    lambda on a ray).  The regular factor J and the kernel G are
    (I0, K0/2pi) or (r I1, -r K1/2pi) on the axis and (J0, (i/4) H0) or
    (-r J1, -(i/4) r H1) elsewhere, J real at real lambda; A = -J speed /
    4pi.  J and G are symmetric in the node pair, so they are evaluated on
    the strict upper triangle only and mirrored."""
    n = speeds.size
    upper, L = _split_grid(n)
    x = r[upper]
    if sp.is_imaginary:
        v, c = sp.value, 0.0
        J, G = ((x * _sp.i1(v * x), -(x / (2 * np.pi)) * _sp.k1(v * x)) if deriv
                else (_sp.i0(v * x), _sp.k0(v * x) / (2 * np.pi)))
    else:
        v, c = (sp.value if sp.axis == "real" else sp.lam), 0.25j
        H = _hankel1(int(deriv), sp, x)
        J = H.real if sp.axis == "real" else _sp.jv(int(deriv), v * x)
        J, G = (-(x * J), -0.25j * x * H) if deriv else (J, 0.25j * H)
    J, G = (_mirrored(a, upper, n) for a in (J, G))
    A = -(J / (4 * np.pi)) * speeds[None, :]
    # free J before B's temporaries: holding it made casimir_energy (disks,
    # n = 128) take 6% more page faults and run ~10% slower
    del J
    B = G * speeds[None, :] - A * L
    np.fill_diagonal(A, 0.0 if deriv else -speeds / (4 * np.pi))
    np.fill_diagonal(B, -speeds / (2 * np.pi * v) if deriv else
                     (c - EULER / (2 * np.pi) - np.log(v * speeds / 2) / (2 * np.pi)) * speeds)
    return A, B


def offdiag_kernel(sp: SpectralPoint, r: np.ndarray, deriv: bool = False):
    """Smooth cross-obstacle kernel values (no speed/weight factors): G, or
    with deriv dG/dv in the axis variable of split_block: -(r/2pi) K1(kappa r)
    on the imaginary axis, -(i r/4) H1_1(lambda r) elsewhere."""
    if not deriv:
        return green_free(sp, r)
    r = _check_r(r)
    if sp.is_imaginary:
        return -(r / (2 * np.pi)) * specfun.bessel_k(1, sp.value * r)
    return -0.25j * r * _hankel1(1, sp, r)
