"""Free Helmholtz Green's function on the spectral axes and the
log-singularity splitting for diagonal-block quadrature.

Spectral points live in the closed upper half plane: lambda = i*kappa on the
imaginary axis (where every kernel is real and exponentially decaying) or
lambda = |lambda| e^{i theta} on a ray with 0 < theta < pi/2.  The kernel
is (i/4) H1_0(lambda r), which at lambda = i kappa collapses to
(1/2pi) K_0(kappa r); the code uses the modified-Bessel form there so the
imaginary part is exactly zero.

The Martensen/Kussmaul-style splitting writes the single-layer kernel times
the speed factor as

    G(x(t), x(s)) |x'(s)| = A(t,s) log(4 sin^2((t-s)/2)) + B(t,s)

with A, B smooth and biperiodic; the diagonal limit of B carries the
Euler-Mascheroni and speed-log terms.  The lambda-derivative kernel has the
same structure with A vanishing linearly on the diagonal, so one product
quadrature covers both.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    value * e^{i*angle} with angle in (0, pi/2); axis "real" tags a target
    on the positive real axis (never directly assembled; evaluation happens
    at a small ray offset above it).
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
    return 0.25j * _sp.hankel1(0, sp.lam * r)


def green_free_dlambda(sp: SpectralPoint, r):
    """d/dlambda of green_free at fixed points: -(i r/4) H1_1(lambda r); on
    the imaginary axis this equals i (r/2pi) K_1(kappa r), purely imaginary.
    """
    r = _check_r(r)
    if sp.is_imaginary:
        return 1j * (r / (2 * np.pi)) * specfun.bessel_k(1, sp.value * r)
    return -0.25j * r * _sp.hankel1(1, sp.lam * r)


def green_free_dkappa(sp: SpectralPoint, r):
    """d/dkappa of the (real) imaginary-axis kernel: -(r/2pi) K_1(kappa r)."""
    if not sp.is_imaginary:
        raise ValueError("green_free_dkappa is an imaginary-axis helper")
    r = _check_r(r)
    return -(r / (2 * np.pi)) * specfun.bessel_k(1, sp.value * r)


# ---------------------------------------------------------------------------
# splitting: scalar public op and vectorized block builders
# ---------------------------------------------------------------------------

def _log4sin2(dt):
    return np.log(4.0 * np.sin(0.5 * dt) ** 2)


def kress_split(sp: SpectralPoint, curve, t: float, s: float):
    """Split G(x(t), x(s)) |x'(s)| = A log(4 sin^2((t-s)/2)) + B on one curve.

    Returns the pair (A, B); both are finite for every (t, s) including the
    diagonal, real when sp is on the imaginary axis.
    """
    t = float(t)
    s = float(s)
    sp_t = float(curve.speed(t))
    sp_s = float(curve.speed(s))
    lam = sp.lam
    if abs(np.remainder(t - s, 2 * np.pi)) < 1e-15 or \
            abs(np.remainder(s - t, 2 * np.pi)) < 1e-15:
        if sp.is_imaginary:
            A = -sp_t / (4 * np.pi)
            B = (-EULER / (2 * np.pi) - np.log(sp.value * sp_t / 2) / (2 * np.pi)) * sp_t
            return A, B
        A = complex(-sp_t / (4 * np.pi))
        B = (0.25j - EULER / (2 * np.pi) - np.log(lam * sp_t / 2) / (2 * np.pi)) * sp_t
        return A, B
    r = float(np.hypot(*(curve.point(t) - curve.point(s))))
    L = _log4sin2(t - s)
    if sp.is_imaginary:
        A = -float(specfun.bessel_i(0, sp.value * r)) / (4 * np.pi) * sp_s
        G = float(specfun.bessel_k(0, sp.value * r)) / (2 * np.pi)
        return A, G * sp_s - A * L
    A = -complex(_sp.jv(0, lam * r)) / (4 * np.pi) * sp_s
    G = 0.25j * complex(_sp.hankel1(0, lam * r))
    return A, G * sp_s - A * L


def split_block(sp: SpectralPoint, t: np.ndarray, pts: np.ndarray,
                speeds: np.ndarray, deriv: str = "none"):
    """Vectorized (A, B) matrices on one curve's node set.

    deriv "none": splitting of G * speed.
    deriv "kappa": splitting of dG/dkappa * speed (imaginary axis only, real).
    deriv "lambda": splitting of dG/dlambda * speed (complex in general).
    """
    n = t.size
    dt = t[:, None] - t[None, :]
    r = np.hypot(pts[:, 0][:, None] - pts[:, 0][None, :],
                 pts[:, 1][:, None] - pts[:, 1][None, :])
    np.fill_diagonal(r, 1.0)
    L = _log4sin2(dt + np.eye(n))
    lam = sp.lam
    kap = sp.value
    if deriv == "none":
        if sp.is_imaginary:
            A = -(_sp.i0(kap * r) / (4 * np.pi)) * speeds[None, :]
            np.fill_diagonal(A, -speeds / (4 * np.pi))
            G = _sp.k0(kap * r) / (2 * np.pi)
            B = G * speeds[None, :] - A * L
            np.fill_diagonal(B, (-EULER / (2 * np.pi)
                                 - np.log(kap * speeds / 2) / (2 * np.pi)) * speeds)
        else:
            A = -(_sp.jv(0, lam * r) / (4 * np.pi)) * speeds[None, :]
            np.fill_diagonal(A, -speeds / (4 * np.pi))
            G = 0.25j * _sp.hankel1(0, lam * r)
            B = G * speeds[None, :] - A * L
            np.fill_diagonal(B, (0.25j - EULER / (2 * np.pi)
                                 - np.log(lam * speeds / 2) / (2 * np.pi)) * speeds)
        return A, B
    if deriv == "kappa":
        if not sp.is_imaginary:
            raise ValueError("kappa-derivative splitting needs the imaginary axis")
        A = -(r * _sp.i1(kap * r) / (4 * np.pi)) * speeds[None, :]
        np.fill_diagonal(A, 0.0)
        G = -(r / (2 * np.pi)) * _sp.k1(kap * r)
        B = G * speeds[None, :] - A * L
        np.fill_diagonal(B, -speeds / (2 * np.pi * kap))
        return A, B
    if deriv == "lambda":
        if sp.is_imaginary:
            A, B = split_block(sp, t, pts, speeds, deriv="kappa")
            # chain rule: d/dlambda = -i d/dkappa at lambda = i kappa
            return -1j * A, -1j * B
        A = (r * _sp.jv(1, lam * r) / (4 * np.pi)) * speeds[None, :]
        np.fill_diagonal(A, 0.0)
        G = -0.25j * r * _sp.hankel1(1, lam * r)
        B = G * speeds[None, :] - A * L
        np.fill_diagonal(B, -speeds / (2 * np.pi * lam))
        return A, B
    raise ValueError(f"unknown deriv mode {deriv!r}")


def offdiag_kernel(sp: SpectralPoint, r: np.ndarray, deriv: str = "none"):
    """Smooth cross-obstacle kernel values (no speed/weight factors)."""
    if deriv == "none":
        return green_free(sp, r)
    if deriv == "kappa":
        return green_free_dkappa(sp, r)
    if deriv == "lambda":
        return green_free_dlambda(sp, r)
    raise ValueError(f"unknown deriv mode {deriv!r}")
