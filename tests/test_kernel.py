import mpmath as mp
import numpy as np
import pytest

from layerdet import SpectralPoint, green_free, green_free_dlambda, kress_split, \
    make_circle, make_kite
from layerdet.kernel import green_free_dkappa, offdiag_kernel, split_block


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
        val = green_free_dlambda(SpectralPoint.ray(mod, theta), r)
        assert val * np.exp(1j * theta) == pytest.approx(fd, rel=1e-8)

    def test_imag_axis_purely_imaginary(self):
        sp = SpectralPoint.imaginary(0.9)
        v = green_free_dlambda(sp, 1.1)
        assert v.real == 0.0 and v.imag > 0

    def test_dkappa_consistency(self):
        # chain rule at lambda = i kappa: dG/dlambda = -i dG/dkappa
        sp = SpectralPoint.imaginary(0.9)
        assert green_free_dlambda(sp, 1.1) == pytest.approx(
            -1j * green_free_dkappa(sp, 1.1))


class TestKressSplit:
    def test_A_matches_bessel_form(self):
        curve = make_circle((0, 0), 1.0)
        sp = SpectralPoint.ray(1.5, np.pi / 4)
        t, s = 0.3, 1.2
        r = float(np.hypot(*(curve.point(t) - curve.point(s))))
        A, B = kress_split(sp, curve, t, s)
        from scipy.special import jv
        expect = -jv(0, sp.lam * r) / (4 * np.pi) * float(curve.speed(s))
        assert A == pytest.approx(expect, rel=1e-14)

    def test_A_diagonal_value(self):
        curve = make_kite((0, 0), 1.0)
        sp = SpectralPoint.imaginary(1.0)
        t = 0.8
        A, B = kress_split(sp, curve, t, t)
        assert A == pytest.approx(-float(curve.speed(t)) / (4 * np.pi), rel=1e-14)
        assert np.isfinite(B)

    def test_reconstruction_off_diagonal(self):
        curve = make_kite((0, 0), 1.0)
        for sp in (SpectralPoint.imaginary(1.3), SpectralPoint.ray(2.0, np.pi / 5)):
            for dt in (0.1, 0.5, 1.5, np.pi):
                t, s = 1.0, 1.0 - dt
                A, B = kress_split(sp, curve, t, s)
                r = float(np.hypot(*(curve.point(t) - curve.point(s))))
                direct = green_free(sp, r) * float(curve.speed(s))
                recon = A * np.log(4 * np.sin((t - s) / 2) ** 2) + B
                assert recon == pytest.approx(direct, rel=1e-12)

    def test_B_finite_on_diagonal(self):
        curve = make_circle((0, 0), 1.0)
        sp = SpectralPoint.imaginary(1.0)
        for t in np.linspace(0, 2 * np.pi, 9):
            A, B = kress_split(sp, curve, t, t)
            assert np.isfinite(B)

    def test_split_block_matches_scalar(self):
        curve = make_kite((0, 0), 1.0)
        n = 16
        t = 2 * np.pi * np.arange(n) / n
        pts = curve.point(t)
        speeds = curve.speed(t)
        for sp in (SpectralPoint.imaginary(0.8), SpectralPoint.ray(1.1, np.pi / 3)):
            A, B = split_block(sp, t, pts, speeds)
            for i, j in ((0, 0), (3, 11), (7, 7), (15, 2)):
                a, b = kress_split(sp, curve, t[i], t[j])
                assert A[i, j] == pytest.approx(a, rel=1e-12)
                assert B[i, j] == pytest.approx(b, rel=1e-12)

    def test_derivative_split_reconstruction(self):
        curve = make_kite((0, 0), 1.0)
        n = 16
        t = 2 * np.pi * np.arange(n) / n
        pts = curve.point(t)
        speeds = curve.speed(t)
        sp = SpectralPoint.imaginary(0.8)
        A1, B1 = split_block(sp, t, pts, speeds, deriv="kappa")
        assert np.all(np.diag(A1) == 0.0)
        i, j = 2, 9
        r = float(np.hypot(*(pts[i] - pts[j])))
        direct = green_free_dkappa(sp, r) * speeds[j]
        L = np.log(4 * np.sin((t[i] - t[j]) / 2) ** 2)
        assert A1[i, j] * L + B1[i, j] == pytest.approx(direct, rel=1e-12)
        # lambda-derivative split is the chain-rule image
        A2, B2 = split_block(sp, t, pts, speeds, deriv="lambda")
        assert np.allclose(A2, -1j * A1) and np.allclose(B2, -1j * B1)

    def test_offdiag_kernel_modes(self):
        sp = SpectralPoint.imaginary(1.0)
        r = np.array([0.5, 2.0])
        assert np.allclose(offdiag_kernel(sp, r), green_free(sp, r))
        assert np.allclose(offdiag_kernel(sp, r, "lambda"),
                           green_free_dlambda(sp, r))
