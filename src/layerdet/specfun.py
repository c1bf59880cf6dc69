"""The modified Bessel function K_n on the positive real axis, checked.

`kernel.green_free` takes the imaginary-axis Green's function
(1/2pi) K_0(kappa r) from `bessel_k`; every other Bessel function the
library needs comes straight from scipy.special.  Evaluation is delegated to
scipy.special (AMOS/cephes), which comfortably exceeds the accuracy budget
of the quadrature layer; this module adds the domain contract: order cap,
argument-domain checks, underflow flagging.

`bessel_k` is pure and accepts scalars or numpy arrays.
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


def _check_arg(x):
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise ValueError("non-finite argument to bessel_k")
    if np.any(x <= 0.0):
        raise ValueError("bessel_k requires x > 0")
    return x


def bessel_k(n, x):
    """K_n(x) for x > 0.  Underflow to 0 beyond the exponential range is
    permitted and flagged with a RuntimeWarning."""
    n = _check_order(n)
    x = _check_arg(x)
    out = _sp.k0(x) if n == 0 else (_sp.k1(x) if n == 1 else _sp.kv(n, x))
    _flag_k_underflow(out, x)
    return out if x.ndim else float(out)


def _flag_k_underflow(out, x) -> None:
    if np.any((np.asarray(out) == 0.0) & (x > _K_UNDERFLOW_EDGE)):
        warnings.warn("bessel_k underflowed to 0 beyond the exponential range",
                      RuntimeWarning, stacklevel=3)
