"""Independent partial-wave evaluation of Xi(i kappa) for two disks.

Derivation of the two-disk matrix
---------------------------------
Work at lambda = i kappa where the layer kernel is (1/2pi) K_0(kappa|x-y|).
On a single circle of radius a the orthonormal Fourier modes
e^{i m phi}/sqrt(2 pi a) diagonalize the single-layer operator with
eigenvalues a I_m(kappa a) K_m(kappa a): insert the classical expansion
K_0(kappa|u-v|) = sum_n K_n(kappa|u|) I_n(kappa|v|) e^{i n (arg u - arg v)}
(|v| < |u|) and integrate.

For two circles (radius a centered at the origin, radius b centered at
(d, 0), d > a + b) the same expansion about the second center, followed by
the translation of the outgoing harmonic K_n e^{i n arg} into regular
harmonics I_m e^{i m phi} about the first center (modified Graf addition
theorem, obtained from the plane-wave representation
K_n(kappa rho) e^{i n theta} = 1/2 int e^{-kappa(rho_1 cosh s + i rho_2
sinh s)} e^{n s} ds), gives the cross-block matrix elements
sqrt(ab) (-1)^n K_{n-m}(kappa d) I_m(kappa a) I_n(kappa b).

Writing det(Q Qtilde^{-1}) through the Schur complement of the two-block
structure and conjugating away the diagonal eigenvalue factors leaves

    Xi(i kappa) = log det(I - X X^T),
    X_{mn} = sqrt(I_m/K_m)(kappa a) * K_{m-n}(kappa d) * sqrt(I_n/K_n)(kappa b),

m, n = -l_max .. l_max.  The (-1)^n factors cancel in the round trip.  X is
evaluated in log scale so that huge K and tiny I never meet unbalanced;
every entry of X is bounded by its true magnitude ~ exp(-kappa * gap-like
exponent), and I - X X^T is well conditioned with determinant in (0, 1];
its log is summed as log1p(-mu) over the eigenvalues mu of X X^T, so Xi
stays accurate in relative terms deep in the exponential-decay regime.

The matrix is certified, not assumed: the test suite cross-validates it
symbolically-derived entries against fine-grid Nystrom runs before any
acceptance test relies on it.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from scipy.special import ive, kve

from .errors import ConvergenceError, LayerDetError


def log_bessel_k_seq(nmax: int, x: float) -> np.ndarray:
    """log K_n(x) for n = 0..nmax; upward recurrence with rescaling (the
    growing direction, unconditionally stable)."""
    if x <= 0:
        raise ValueError("x must be positive")
    out = np.empty(nmax + 1)
    out[0] = np.log(kve(0, x)) - x
    if nmax == 0:
        return out
    out[1] = np.log(kve(1, x)) - x
    a, b = np.exp(out[0] - out[1]), 1.0
    ln_scale = out[1]
    for n in range(1, nmax):
        a, b = b, a + (2.0 * n / x) * b
        if b > 1e250:
            a /= b
            ln_scale += np.log(b)
            b = 1.0
        out[n + 1] = ln_scale + np.log(b)
    return out


def log_bessel_i_seq(nmax: int, x: float) -> np.ndarray:
    """log I_n(x) for n = 0..nmax; Miller downward recurrence normalized to
    I_0, carried in log scale.  The start order sits safely above both the
    target order and the turning region n ~ x."""
    if x <= 0:
        raise ValueError("x must be positive")
    base = max(nmax, int(np.ceil(x)), 1)
    start = base + 15 + int(4.0 * np.sqrt(base))
    tmp = np.empty(start + 1)
    f_hi, f = 0.0, 1e-280
    shift = 0.0
    tmp[start] = np.log(f)
    for n in range(start, 0, -1):
        f_hi, f = f, f_hi + (2.0 * n / x) * f
        if f > 1e250:
            f_hi /= f
            shift += np.log(f)
            f = 1.0
        tmp[n - 1] = shift + np.log(f)
    tmp += (np.log(ive(0, x)) + x) - tmp[0]
    return tmp[: nmax + 1]


@dataclass(frozen=True)
class PartialWaveConfig:
    l_max: int
    a: float
    b: float
    d: float
    kappa: float

    def __post_init__(self):
        for name in ("a", "b", "kappa"):
            _positive(getattr(self, name), name)
        if not np.isfinite(self.d):
            raise ValueError("d must be finite")
        if self.d <= self.a + self.b:
            raise LayerDetError("disks must be disjoint: d > a + b")
        if not isinstance(self.l_max, numbers.Integral):
            raise ValueError("l_max must be an integer")
        if self.l_max < 4:
            raise ValueError("l_max must be at least 4")


def _positive(value: float, name: str) -> None:
    if not (value > 0 and np.isfinite(value)):
        raise ValueError(f"{name} must be positive and finite")


def default_l_max(kappa: float, a: float, b: float) -> int:
    """Truncation heuristic from the super-exponential decay of the
    I_n(kappa a) / K_n(kappa d) mode couplings."""
    _positive(kappa, "kappa")
    return int(np.ceil(8 + 3 * kappa * max(a, b)))


def _xi_pw(l_max: int, a: float, b: float, d: float, kappa: float) -> float:
    orders = np.arange(-l_max, l_max + 1)
    absn = np.abs(orders)
    half_a = 0.5 * (log_bessel_i_seq(l_max, kappa * a)
                    - log_bessel_k_seq(l_max, kappa * a))[absn]
    half_b = 0.5 * (log_bessel_i_seq(l_max, kappa * b)
                    - log_bessel_k_seq(l_max, kappa * b))[absn]
    lnKd = log_bessel_k_seq(2 * l_max, kappa * d)
    lnX = half_a[:, None] + lnKd[np.abs(orders[:, None] - orders[None, :])] + half_b[None, :]
    X = np.exp(lnX)
    # log det(I - X X^T) as a sum of log1p over the eigenvalues: relative
    # accuracy where Xi ~ -|X|_F^2 falls below the rounding of det itself
    mu = np.linalg.eigvalsh(X @ X.T)
    if np.any(mu >= 1.0):
        raise LayerDetError("partial-wave round-trip determinant not positive")
    return float(np.sum(np.log1p(-mu)))


def xi_two_disks(cfg: PartialWaveConfig) -> float:
    """Xi(i kappa) for two disks through the balanced partial-wave matrix.

    Refuses to certify when the truncation has not converged in l_max.
    The result is exactly symmetric in the two radii (they are canonically
    ordered before assembly).
    """
    a, b = sorted((cfg.a, cfg.b))
    val = _xi_pw(cfg.l_max, a, b, cfg.d, cfg.kappa)
    richer = _xi_pw(cfg.l_max + 4, a, b, cfg.d, cfg.kappa)
    if abs(val - richer) > max(1e-12, 1e-10 * abs(val)):
        raise ConvergenceError(
            f"partial-wave truncation not converged at l_max={cfg.l_max}: "
            f"|delta| = {abs(val - richer):.3e}")
    return val
