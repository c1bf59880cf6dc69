from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from scipy import special
from scipy.special import i0, jv

from layerdet import LayerDetError, SpectralPoint, green_free, make_circle, make_kite
from layerdet import kernel, specfun
from layerdet.kernel import offdiag_kernel, split_block

class TestSpectralPoint:
    def test_imaginary(self):
        sp = SpectralPoint.imaginary(2.0)
        assert sp.lam == 2j and sp.is_imaginary

    def test_ray(self):
        sp = SpectralPoint.ray(3.0, np.pi / 8)
        assert sp.lam == pytest.approx(3.0 * np.exp(1j * np.pi / 8))

    def test_from_complex_folds_axis(self):
        sp = SpectralPoint.from_complex(5.0 * np.exp(1j * np.pi / 2))
        assert sp.is_imaginary

    def test_rejects_lower_half(self):
        with pytest.raises(ValueError):
            SpectralPoint.from_complex(1.0 - 1j)
        with pytest.raises(ValueError):
            SpectralPoint.imaginary(-1.0)


class TestGreenFree:
    def test_symmetry_in_r_only(self):
        sp = SpectralPoint.imaginary(1.3)
        assert green_free(sp, 0.8) == green_free(sp, 0.8)

    def test_d2_imag_axis_vs_series_continuation(self):
        # (i/4) H1_0(i kappa r) continued through the ascending series
        # must equal (1/2pi) K_0(kappa r); evaluated with mpmath at (1, 1)
        with mp.workdps(40):
            lhs = complex(mp.mpf(0.25) * 1j * mp.hankel1(0, 1j))
        v = green_free(SpectralPoint.imaginary(1.0), 1.0)
        assert v == pytest.approx(lhs.real, rel=1e-13)
        assert float(np.imag(v)) == 0.0

    def test_imaginary_axis_exactly_real(self):
        sp = SpectralPoint.imaginary(0.7)
        out = green_free(sp, np.geomspace(0.01, 10, 50))
        assert not np.iscomplexobj(out)

    def test_monotone_decay_in_r(self):
        sp = SpectralPoint.imaginary(1.0)
        vals = green_free(sp, np.geomspace(0.05, 20, 60))
        assert np.all(np.diff(vals) < 0)

    def test_rejects_nonpositive_r(self):
        with pytest.raises(ValueError):
            green_free(SpectralPoint.imaginary(1.0), 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_r(self, bad):
        r = np.array([1.0, bad])
        for sp in (SpectralPoint.imaginary(1.0), SpectralPoint.ray(1.0, np.pi / 8),
                   SpectralPoint.from_complex(1.0)):
            with pytest.raises(ValueError, match="finite r > 0"):
                green_free(sp, r)
            for deriv in (False, True):
                with pytest.raises(ValueError, match="finite r > 0"):
                    offdiag_kernel(sp, r, deriv=deriv, span=(0.5, 2.0))

    def test_pointwise_decay_envelope_d2(self):
        # |G| <= C (kappa r)^{-1/2} e^{-kappa r} for kappa r >= 1, C fitted
        kap = 2.0
        sp = SpectralPoint.imaginary(kap)
        fit_r = np.geomspace(1.0 / kap, 30.0 / kap, 20)
        shape = (kap * fit_r) ** -0.5 * np.exp(-kap * fit_r)
        C = float(np.max(np.abs(green_free(sp, fit_r)) / shape)) * 1.02
        test_r = np.geomspace(1.05 / kap, 28.0 / kap, 77)
        shape_t = (kap * test_r) ** -0.5 * np.exp(-kap * test_r)
        assert np.all(np.abs(green_free(sp, test_r)) <= C * shape_t)


class TestGreenFreeDLambda:
    def test_d2_vs_finite_difference(self):
        # step along the pi/4 ray: d/du G(u e^{i theta}) = e^{i theta} G'(lambda)
        mod, theta, r = 2.0, np.pi / 4, 1.3
        h = 1e-6 * mod
        fd = (green_free(SpectralPoint.ray(mod + h, theta), r)
              - green_free(SpectralPoint.ray(mod - h, theta), r)) / (2 * h)
        val = -0.25j * r * special.hankel1(1, mod * np.exp(1j * theta) * r)
        assert val * np.exp(1j * theta) == pytest.approx(fd, rel=1e-8)

    def test_imag_axis_dkappa_vs_finite_difference(self):
        # on the axis the derivative is in kappa and real
        kap, r, h = 0.9, 1.1, 1e-6
        fd = (green_free(SpectralPoint.imaginary(kap + h), r)
              - green_free(SpectralPoint.imaginary(kap - h), r)) / (2 * h)
        val = -(r / (2 * np.pi)) * specfun.bessel_k(1, kap * r)
        assert not np.iscomplexobj(val) and val < 0
        assert val == pytest.approx(fd, rel=1e-8)


def _nodes(curve, n):
    """n equispaced nodes of a curve: parameters, distance matrix, speeds."""
    t = 2 * np.pi * np.arange(n) / n
    p = curve.point(t)
    r = np.hypot(p[:, 0][:, None] - p[:, 0][None, :], p[:, 1][:, None] - p[:, 1][None, :])
    return t, r, curve.speed(t)


def _split_direct(sp, curve, t, s):
    """(A, B) of the split at one off-diagonal parameter pair, from the
    regular factor and green_free evaluated directly."""
    r = float(np.hypot(*(curve.point(t) - curve.point(s))))
    J = i0(sp.value * r) if sp.is_imaginary else jv(0, sp.lam * r)
    A = -J / (4 * np.pi) * float(curve.speed(s))
    B = green_free(sp, r) * float(curve.speed(s)) - A * np.log(4 * np.sin((t - s) / 2) ** 2)
    return A, B


class TestKressSplit:
    def test_A_matches_bessel_form(self):
        # the 64-node pair nearest (t, s) = (0.3, 1.2)
        curve = make_circle((0, 0), 1.0)
        sp = SpectralPoint.ray(1.5, np.pi / 4)
        t, r, speeds = _nodes(curve, 64)
        A, _ = split_block(sp, r, speeds, span=(0.0, r.max()))
        i, j = 3, 12
        expect = -jv(0, sp.lam * r[i, j]) / (4 * np.pi) * speeds[j]
        assert A[i, j] == pytest.approx(expect, rel=1e-14)

    def test_A_diagonal_value(self):
        curve = make_kite((0, 0), 1.0)
        sp = SpectralPoint.imaginary(1.0)
        t, r, speeds = _nodes(curve, 64)
        A, B = split_block(sp, r, speeds, span=(0.0, r.max()))
        assert np.diag(A) == pytest.approx(-speeds / (4 * np.pi), rel=1e-14)
        assert np.all(np.isfinite(np.diag(B)))

    def test_reconstruction_off_diagonal(self):
        # node offsets 1, 5, 15, 32 of 64 put t - s at 0.098, 0.49, 1.47, pi
        curve = make_kite((0, 0), 1.0)
        t, r, speeds = _nodes(curve, 64)
        i = 10
        for sp in (SpectralPoint.imaginary(1.3), SpectralPoint.ray(2.0, np.pi / 5)):
            A, B = split_block(sp, r, speeds, span=(0.0, r.max()))
            for j in ((i - m) % 64 for m in (1, 5, 15, 32)):
                direct = green_free(sp, r[i, j]) * speeds[j]
                recon = A[i, j] * np.log(4 * np.sin((t[i] - t[j]) / 2) ** 2) + B[i, j]
                assert recon == pytest.approx(direct, rel=1e-12)

    def test_B_finite_on_diagonal(self):
        curve = make_circle((0, 0), 1.0)
        sp = SpectralPoint.imaginary(1.0)
        _, r, speeds = _nodes(curve, 16)
        A, B = split_block(sp, r, speeds, span=(0.0, r.max()))
        assert np.all(np.isfinite(A)) and np.all(np.isfinite(B))

    def test_split_block_matches_scalar(self):
        # off the diagonal, entry by entry against the direct split; on it,
        # against the closed form of B, and separately against the limit
        # s -> t of the direct B, whose one-sided values at s = t +- delta
        # average to the limit within O(delta^2)
        curve = make_kite((0, 0), 1.0)
        t, r, speeds = _nodes(curve, 16)
        delta = 1e-5
        for sp in (SpectralPoint.imaginary(0.8), SpectralPoint.ray(1.1, np.pi / 3)):
            A, B = split_block(sp, r, speeds, span=(0.0, r.max()))
            for i, j in ((3, 11), (15, 2)):
                a, b = _split_direct(sp, curve, t[i], t[j])
                assert A[i, j] == pytest.approx(a, rel=1e-12)
                assert B[i, j] == pytest.approx(b, rel=1e-12)
            v, c = (sp.value, 0.0) if sp.is_imaginary else (sp.lam, 0.25j)
            for i in (0, 7):
                assert A[i, i] == pytest.approx(-speeds[i] / (4 * np.pi), rel=1e-12)
                b = (c - np.euler_gamma / (2 * np.pi)
                     - np.log(v * speeds[i] / 2) / (2 * np.pi)) * speeds[i]
                assert B[i, i] == pytest.approx(b, rel=1e-12)
                limit = 0.5 * (_split_direct(sp, curve, t[i], t[i] + delta)[1]
                               + _split_direct(sp, curve, t[i], t[i] - delta)[1])
                assert B[i, i] == pytest.approx(limit, rel=1e-8)

    def test_bessel_on_one_triangle(self, monkeypatch):
        # every special-function call of a diagonal block sees the
        # n (n - 1) / 2 node pairs of one triangle, not the n^2 square; a
        # block on a ray, of Q or of its derivative, sees only the d + 1
        # Chebyshev points of its expansions in the distance, fewer than
        # either
        sizes = []

        def counted(fn):
            def wrapped(*args):
                sizes.append(np.size(args[-1]))
                return fn(*args)
            return wrapped

        spec = SimpleNamespace(**{name: counted(getattr(special, name))
                                  for name in ("i0", "i1", "k0", "k1", "jv",
                                               "hankel1", "hankel1e")})
        monkeypatch.setattr(kernel, "_sp", spec)
        n = 48
        _, r, speeds = _nodes(make_kite((0, 0), 1.0), n)
        for sp in (SpectralPoint.imaginary(0.8), SpectralPoint.ray(1.1, np.pi / 3)):
            for deriv in (False, True):
                sizes.clear()
                kernel._split_series.cache_clear()
                split_block(sp, r, speeds, deriv=deriv, span=(0.0, r.max()))
                if sp.is_imaginary:
                    assert sizes == [n * (n - 1) // 2] * 2
                else:
                    d = kernel._degree(sp.lam, 0.0, r.max())
                    assert sizes == [d + 1] * 2 and d + 1 < n * (n - 1) // 2

    def test_derivative_split_reconstruction(self):
        curve = make_kite((0, 0), 1.0)
        t, r, speeds = _nodes(curve, 16)
        i, j = 2, 9
        L = np.log(4 * np.sin((t[i] - t[j]) / 2) ** 2)
        # the derivative is in the axis variable: kappa (real) on the
        # imaginary axis, lambda on a ray
        for sp in (SpectralPoint.imaginary(0.8), SpectralPoint.ray(1.1, np.pi / 3)):
            A, B = split_block(sp, r, speeds, deriv=True, span=(0.0, r.max()))
            assert np.iscomplexobj(B) != sp.is_imaginary
            assert np.all(np.diag(A) == 0.0)
            x = r[i, j]
            direct = (-(x / (2 * np.pi)) * specfun.bessel_k(1, sp.value * x) if sp.is_imaginary
                      else -0.25j * x * special.hankel1(1, sp.lam * x)) * speeds[j]
            assert A[i, j] * L + B[i, j] == pytest.approx(direct, rel=1e-12)

    def test_offdiag_kernel_modes(self):
        r, span = np.array([0.5, 2.0]), (0.5, 2.0)
        # on the imaginary axis and a ray the kernels come from their
        # expansions in log r on the interval
        for sp in (SpectralPoint.imaginary(1.0), SpectralPoint.ray(1.1, np.pi / 3)):
            assert offdiag_kernel(sp, r, span=span) == pytest.approx(green_free(sp, r),
                                                                     rel=1e-14)
        assert offdiag_kernel(SpectralPoint.imaginary(1.0), r, deriv=True, span=span) \
            == pytest.approx(-(r / (2 * np.pi)) * specfun.bessel_k(1, r), rel=1e-14)
        sp = SpectralPoint.ray(1.1, np.pi / 3)
        assert offdiag_kernel(sp, r, deriv=True, span=span) == pytest.approx(
            -0.25j * r * special.hankel1(1, sp.lam * r), rel=1e-14)
        # at real lambda, the real-argument Hankel functions, exactly
        sp, x = SpectralPoint.from_complex(1.1), 1.1 * r
        assert np.array_equal(offdiag_kernel(sp, r, span=span), green_free(sp, r))
        assert np.array_equal(offdiag_kernel(sp, r, deriv=True, span=span),
                              -0.25j * r * (special.j1(x) + 1j * special.y1(x)))


class TestRayExpansions:
    def test_rejects_distances_outside_the_interval(self):
        sp = SpectralPoint.ray(2.0, np.pi / 8)
        _, r, speeds = _nodes(make_circle((0, 0), 1.0), 16)
        with pytest.raises(ValueError, match="outside the expansion interval"):
            split_block(sp, r, speeds, span=(0.0, 1.5))
        with pytest.raises(ValueError, match="outside the expansion interval"):
            offdiag_kernel(sp, np.array([1.0, 3.0]), span=(1.0, 2.0))
        with pytest.raises(ValueError, match="outside the expansion interval"):
            offdiag_kernel(sp, np.array([0.5, 1.5]), span=(1.0, 2.0))
        r[0, 1] = r[1, 0] = np.nan
        with pytest.raises(ValueError, match="outside the expansion interval"):
            split_block(sp, r, speeds, span=(0.0, 2.5))

    def test_one_point_interval(self):
        for sp in (SpectralPoint.ray(2.0, np.pi / 8), SpectralPoint.imaginary(2.0)):
            assert offdiag_kernel(sp, 1.3, span=(1.3, 1.3)) == pytest.approx(
                green_free(sp, 1.3), rel=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflow_raises(self):
        # Im(lambda) r near 1400 passes J0's overflow on the diagonal block
        sp = SpectralPoint.ray(1000.0, 1.5)
        _, r, speeds = _nodes(make_circle((0, 0), 1.0), 16)
        with pytest.raises(LayerDetError, match="not finite"):
            split_block(sp, r, speeds, span=(0.0, r.max()))
