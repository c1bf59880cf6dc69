"""The checked K_n and the kernel's real-axis Hankel functions against
independent extended-precision oracles.

The oracles are built in mpmath working precision: the ascending series for
J_n, the sin/exp integral representations for Y_0 and K_0, and mpmath's own
arbitrary-precision Bessel implementations for H1_nu.  None of them share
code with the production path (scipy).  I_n, the partner of K_n in the
Wronskian and recurrence checks, comes from scipy.special.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import iv

from layerdet import SpectralPoint, green_free, specfun
from layerdet.kernel import offdiag_kernel
from layerdet.specfun import OrderError


def h1(nu, x):
    """Outgoing Hankel function H1_nu(x) from mpmath at 50 digits."""
    with mp.workdps(50):
        return complex(mp.hankel1(nu, x))


def real_axis(x):
    """Spectral point on the positive real axis, where the kernel module's
    Green's functions are (i/4) H1_0(x r) and its lambda-derivative."""
    return SpectralPoint("real", x)


def kernel_h1(nu, x):
    """H1_nu(x) for nu = 0, 1 as the kernel module computes it at real
    lambda = x: green_free is (i/4) H1_0(lambda r), and its
    lambda-derivative at r = 1 is -(i/4) H1_1(lambda)."""
    if nu == 0:
        return -4j * green_free(real_axis(x), 1.0)
    return 4j * offdiag_kernel(real_axis(x), 1.0, deriv=True, span=(1.0, 1.0))


def j_series_oracle(n, x, dps=50):
    """Ascending series sum_k (-1)^k (x/2)^{n+2k} / (k! (n+k)!)."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        total = mp.mpf(0)
        term_scale = (xm / 2) ** n / mp.factorial(n)
        k = 0
        while True:
            term = (-1) ** k * (xm / 2) ** (2 * k) / (
                mp.factorial(k) * mp.rf(n + 1, k)) * term_scale
            total += term
            if abs(term) < mp.mpf(10) ** (-dps) * (1 + abs(total)) and k > 3:
                return float(total)
            k += 1


def y0_integral_oracle(x, dps=40):
    """Y_0(x) = (1/pi) int_0^pi sin(x sin t) dt - (2/pi) int_0^inf e^{-x sinh t} dt.

    Gauss-Legendre panels; the infinite tail is cut where sinh makes the
    integrand vanish to far beyond working precision.
    """
    with mp.workdps(dps):
        xm = mp.mpf(x)
        a = mp.quadgl(lambda t: mp.sin(xm * mp.sin(t)), [0, mp.pi]) / mp.pi
        b = 2 / mp.pi * mp.quadgl(lambda t: mp.exp(-xm * mp.sinh(t)), [0, 3, 40])
        return float(a - b)


def k0_integral_oracle(x, dps=40):
    """K_0(x) = int_0^inf e^{-x cosh t} dt, Gauss-Legendre panels."""
    with mp.workdps(dps):
        xm = mp.mpf(x)
        return float(mp.quadgl(lambda t: mp.exp(-xm * mp.cosh(t)), [0, 3, 40]))


class TestExamples:
    def test_j0_series_oracle(self):
        # the kernel's regular part J_0 at real lambda; frozen from the
        # 50-digit ascending series
        assert j_series_oracle(0, 2.0) == pytest.approx(0.22389077914123567, abs=1e-16)
        assert kernel_h1(0, 2.0).real == pytest.approx(j_series_oracle(0, 2.0),
                                                       rel=1e-15, abs=1e-16)

    def test_y_wronskian_at_2(self):
        # J_1 Y_0 - J_0 Y_1 = 2 / (pi x) from the kernel's value and
        # lambda-derivative at real lambda
        x = 2.0
        h0, h1_ = kernel_h1(0, x), kernel_h1(1, x)
        resid = h1_.real * h0.imag - h0.real * h1_.imag - 2 / (np.pi * x)
        assert abs(resid) <= 1e-13

    def test_y0_integral_oracle(self):
        # the kernel's Y_0 at real lambda; frozen from the 40-digit
        # integral representation
        assert y0_integral_oracle(5.0) == pytest.approx(-0.30851762524903376, abs=1e-15)
        assert kernel_h1(0, 5.0).imag == pytest.approx(y0_integral_oracle(5.0), rel=1e-14)

    def test_k0_integral_oracle(self):
        # frozen from the 40-digit integral representation
        assert k0_integral_oracle(1.0) == pytest.approx(0.4210244382407083, abs=1e-15)
        assert specfun.bessel_k(0, 1.0) == pytest.approx(k0_integral_oracle(1.0), rel=1e-14)

    def test_ik_wronskian_at_2(self):
        x = 2.0
        resid = iv(0, x) * specfun.bessel_k(1, x) + iv(1, x) * specfun.bessel_k(0, x) - 1 / x
        assert abs(resid) <= 1e-13

    def test_hankel_definition(self):
        # the kernel's Hankel form against mpmath's H1_0
        assert green_free(real_axis(1.0), 1.0) == pytest.approx(
            0.25j * h1(0, 1.0), rel=1e-14)

    def test_hankel_deriv_j1_n0(self):
        # d/dx H1_0 = -H1_1: the kernel's lambda-derivative at r = 1
        x = 2.5
        assert offdiag_kernel(real_axis(x), 1.0, deriv=True, span=(1.0, 1.0)) \
            == pytest.approx(-0.25j * h1(1, x), rel=1e-14)

    def test_hankel_deriv_fd_oracle(self):
        x, h = 3.0, 1e-5
        fd = (green_free(real_axis(x + h), 1.0)
              - green_free(real_axis(x - h), 1.0)) / (2 * h)
        assert offdiag_kernel(real_axis(x), 1.0, deriv=True, span=(1.0, 1.0)) \
            == pytest.approx(fd, rel=1e-9)

    def test_hankel_small_argument_imag(self):
        # Im H1_0(x) ~ (2/pi) log x, so the kernel's real part is
        # -(1/2pi) log r near the diagonal
        x = 1e-7
        assert green_free(real_axis(1.0), x).real / (-np.log(x) / (2 * np.pi)) == \
            pytest.approx(1.0, rel=1e-2)


class TestDomainChecks:
    def test_order_cap(self):
        with pytest.raises(OrderError):
            specfun.bessel_k(201, 1.0)
        with pytest.raises(OrderError):
            specfun.bessel_k(-1, 1.0)

    def test_non_finite(self):
        with pytest.raises(ValueError):
            specfun.bessel_k(0, np.nan)

    def test_y_needs_positive(self):
        # Y_0 and K_0 are log-singular at 0: the kernel and bessel_k reject it
        with pytest.raises(ValueError):
            green_free(real_axis(1.0), 0.0)
        for x in (0.0, -1.0):
            with pytest.raises(ValueError):
                specfun.bessel_k(0, x)

    def test_k_underflow_flagged(self):
        with pytest.warns(RuntimeWarning):
            assert specfun.bessel_k(0, 800.0) == 0.0


@pytest.mark.parametrize("x", [0.1, 1.0, 10.0, 100.0])
def test_wronskians_all_orders(x):
    for n in range(0, 51):
        ik = iv(n, x) * specfun.bessel_k(n + 1, x) + iv(n + 1, x) * specfun.bessel_k(n, x)
        assert ik == pytest.approx(1 / x, rel=1e-13)


@pytest.mark.parametrize("x", [0.7, 3.0, 30.0])
def test_three_term_recurrences(x):
    for n in range(1, 30):
        scale = max(abs(specfun.bessel_k(m, x)) for m in (n - 1, n, n + 1))
        assert abs(specfun.bessel_k(n + 1, x) - (2 * n / x) * specfun.bessel_k(n, x)
                   - specfun.bessel_k(n - 1, x)) <= 1e-12 * scale


@pytest.mark.parametrize("nu", [0, 1])
def test_hankel_small_argument_envelope(nu):
    # the kernel's H1_nu at real lambda; fit C once at r0 = 0.5, bound must
    # hold on (0, r0]
    r0 = 0.5
    shape = (lambda x: np.abs(np.log(x))) if nu == 0 else (lambda x: x ** (-nu))
    C = abs(kernel_h1(nu, r0)) / shape(r0) * 1.02
    for x in np.geomspace(1e-4, r0, 25):
        assert abs(kernel_h1(nu, x)) <= C * shape(x)


@pytest.mark.parametrize("nu", [0, 1])
def test_hankel_large_argument_envelope(nu):
    # the kernel's H1_nu at real lambda; envelope constant fitted on a coarse
    # grid, verified on a fine one
    r0 = 0.5
    fit = np.geomspace(r0, 1e4, 40)
    C = max(abs(kernel_h1(nu, x)) * np.sqrt(x) for x in fit) * 1.02
    for x in np.geomspace(r0 * 1.11, 9.7e3, 97):
        assert abs(kernel_h1(nu, x)) <= C / np.sqrt(x)
