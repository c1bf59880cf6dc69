"""Integer-order Bessel functions on the positive real axis.

These are the checked special functions the kernel layer and the validation
suites consume for real arguments: J_n, Y_n (oscillatory) and I_n, K_n
(modified).  Evaluation is delegated to
scipy.special (AMOS/cephes), which comfortably exceeds the accuracy budget
of the quadrature layer; this module adds the domain contract: order cap,
argument-domain checks, underflow flagging.

All functions are pure and accept scalars or numpy arrays.
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy import special as _sp

from .errors import LayerDetError

#: Orders above this are rejected: the library never legitimately needs them
#: (partial-wave sums live in the oracle module with their own scaled code).
ORDER_CAP = 200

#: K_n underflows to exactly 0 roughly beyond this argument; permitted but flagged.
_K_UNDERFLOW_EDGE = 700.0


class OrderError(LayerDetError, ValueError):
    """Bessel order negative, non-integer, or above ORDER_CAP."""


def _check_order(n) -> int:
    if not float(n).is_integer():
        raise OrderError(f"order must be an integer, got {n!r}")
    n = int(n)
    if n < 0:
        raise OrderError(f"order must be non-negative, got {n}")
    if n > ORDER_CAP:
        raise OrderError(f"order {n} above cap {ORDER_CAP}")
    return n


def _check_arg(x, positive: bool, name: str):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError(f"non-finite argument to {name}")
    if positive:
        if np.any(x <= 0.0):
            raise ValueError(f"{name} requires x > 0")
    elif np.any(x < 0.0):
        raise ValueError(f"{name} requires x >= 0")
    return x


def bessel_j(n, x):
    """J_n(x) for x >= 0 (x = 0 returns the exact limit 1 or 0)."""
    n = _check_order(n)
    x = _check_arg(x, positive=False, name="bessel_j")
    if n == 0:
        return _sp.j0(x) if x.ndim else float(_sp.j0(x))
    if n == 1:
        return _sp.j1(x) if x.ndim else float(_sp.j1(x))
    out = _sp.jv(n, x)
    return out if x.ndim else float(out)


def bessel_y(n, x):
    """Y_n(x) for x > 0 (logarithmically singular at 0)."""
    n = _check_order(n)
    x = _check_arg(x, positive=True, name="bessel_y")
    if n == 0:
        out = _sp.y0(x)
    elif n == 1:
        out = _sp.y1(x)
    else:
        out = _sp.yv(n, x)
    return out if x.ndim else float(out)


def bessel_i(n, x):
    """I_n(x) for x >= 0.  Raises on overflow (x beyond the exp range)."""
    n = _check_order(n)
    x = _check_arg(x, positive=False, name="bessel_i")
    out = _sp.i0(x) if n == 0 else (_sp.i1(x) if n == 1 else _sp.iv(n, x))
    if np.any(np.isinf(out)):
        raise OverflowError("bessel_i overflow; use log-scale sequences instead")
    return out if x.ndim else float(out)


def bessel_k(n, x):
    """K_n(x) for x > 0.  Underflow to 0 beyond the exponential range is
    permitted and flagged with a RuntimeWarning."""
    n = _check_order(n)
    x = _check_arg(x, positive=True, name="bessel_k")
    out = _sp.k0(x) if n == 0 else (_sp.k1(x) if n == 1 else _sp.kv(n, x))
    _flag_k_underflow(out, x)
    return out if x.ndim else float(out)


def _flag_k_underflow(out, x) -> None:
    if np.any((np.asarray(out) == 0.0) & (x > _K_UNDERFLOW_EDGE)):
        warnings.warn("bessel_k underflowed to 0 beyond the exponential range",
                      RuntimeWarning, stacklevel=3)
