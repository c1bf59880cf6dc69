"""Certification of the partial-wave oracle.

The certification protocol: the analytically derived round-trip matrix must
agree with fine-grid Nystrom computations (which themselves are validated by
the exact circle diagonalization in the operator tests) before the oracle is
allowed to certify anything else.  These tests run the protocol.
"""

import mpmath as mp
import numpy as np
import pytest
from scipy.special import iv, kv

from layerdet import (ConvergenceError, LayerDetError, PartialWaveConfig,
                      default_l_max, discretize, make_circle,
                      make_scene, xi_imag, xi_two_disks)
from layerdet.oracle import log_bessel_i_seq, log_bessel_k_seq


class TestLogBesselSequences:
    @pytest.mark.parametrize("x", [0.05, 0.4, 2.0, 50.0, 400.0])
    def test_vs_scipy(self, x):
        n = np.arange(13)
        assert np.allclose(log_bessel_k_seq(12, x), np.log(kv(n, x)), rtol=1e-13)
        assert np.allclose(log_bessel_i_seq(12, x), np.log(iv(n, x)), rtol=1e-12)

    def test_extreme_orders_vs_mpmath(self):
        # the regime where direct scipy evaluation over/underflows
        x, nmax = 0.4, 120
        lk = log_bessel_k_seq(nmax, x)
        li = log_bessel_i_seq(nmax, x)
        with mp.workdps(60):
            for n in (80, 100, 120):
                assert lk[n] == pytest.approx(float(mp.log(mp.besselk(n, x))),
                                              rel=1e-12)
                assert li[n] == pytest.approx(float(mp.log(mp.besseli(n, x))),
                                              rel=1e-12)

    def test_small_argument_vs_mpmath(self):
        # at x = 1e-9 I_n's downward recurrence rescales, and K's sequence
        # of order 0 alone returns before its recurrence
        x, nmax = 1e-9, 40
        with mp.workdps(50):
            ref_i = np.array([float(mp.log(mp.besseli(n, x))) for n in range(nmax + 1)])
            ref_k = np.array([float(mp.log(mp.besselk(n, x))) for n in range(nmax + 1)])
        for ours, ref in ((log_bessel_i_seq(nmax, x), ref_i),
                          (log_bessel_k_seq(nmax, x), ref_k),
                          (log_bessel_k_seq(0, x), ref_k[:1])):
            assert ours.shape == ref.shape
            assert np.all(np.abs(ours - ref) <= 1e-13 * (1 + np.abs(ref)))


class TestPartialWave:
    def test_config_validation(self):
        with pytest.raises(LayerDetError):
            PartialWaveConfig(40, 1.0, 1.0, 1.9, 1.0)
        with pytest.raises(ValueError):
            PartialWaveConfig(2, 1.0, 1.0, 4.0, 1.0)

    def test_truncation_convergence(self):
        v30 = xi_two_disks(PartialWaveConfig(30, 1.0, 1.0, 4.0, 1.0))
        v40 = xi_two_disks(PartialWaveConfig(40, 1.0, 1.0, 4.0, 1.0))
        assert abs(v30 - v40) <= 1e-12

    def test_insufficient_truncation_refused(self):
        # high kappa needs more modes than l_max = 4 offers
        with pytest.raises(ConvergenceError):
            xi_two_disks(PartialWaveConfig(4, 1.0, 1.0, 2.5, 12.0))

    def test_radius_symmetry_exact(self):
        a = xi_two_disks(PartialWaveConfig(30, 1.0, 0.5, 4.0, 0.7))
        b = xi_two_disks(PartialWaveConfig(30, 0.5, 1.0, 4.0, 0.7))
        assert a == b

    @pytest.mark.parametrize("field, args", [
        ("a", (40, np.nan, 1.0, 4.0, 1.0)),
        ("b", (40, 1.0, np.inf, 4.0, 1.0)),
        ("d", (40, 1.0, 1.0, np.inf, 1.0)),
        ("d", (40, 1.0, 1.0, np.nan, 1.0)),
        ("kappa", (40, 1.0, 1.0, 4.0, np.inf)),
        ("kappa", (40, 1.0, 1.0, 4.0, np.nan)),
        ("kappa", (40, 1.0, 1.0, 4.0, -1.0)),
        ("l_max", (10.5, 1.0, 1.0, 4.0, 1.0)),
        ("l_max", (10.0, 1.0, 1.0, 4.0, 1.0)),
    ], ids=["a_nan", "b_inf", "d_inf", "d_nan", "kappa_inf", "kappa_nan",
            "kappa_negative", "l_max_fraction", "l_max_float"])
    def test_config_refuses_bad_fields(self, field, args):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            PartialWaveConfig(*args)

    def test_default_l_max(self):
        assert default_l_max(1.0, 1.0, 1.0) == 11
        assert default_l_max(0.1, 1.0, 0.5) >= 8

    @pytest.mark.parametrize("kappa", [-1.0, 0.0, np.nan, np.inf])
    def test_default_l_max_refuses_bad_kappa(self, kappa):
        with pytest.raises(ValueError, match="^kappa must be positive and finite"):
            default_l_max(kappa, 1.0, 1.0)

    def test_decay_envelope_at_high_kappa(self):
        # oracle values consistent with the exponential bound
        gap = 2.0
        k0, k1 = 8.0 / gap, 10.0 / gap
        v0 = abs(xi_two_disks(PartialWaveConfig(48, 1.0, 1.0, 4.0, k0)))
        v1 = abs(xi_two_disks(PartialWaveConfig(48, 1.0, 1.0, 4.0, k1)))
        assert v1 <= v0 * np.exp(-0.9 * gap * (k1 - k0))

    @pytest.mark.parametrize("kappa", [9.0, 12.0, 30.0 / 1.8])
    def test_relative_accuracy_in_decay(self, kappa):
        # Xi = log det(I - X X^T) = -|X|_F^2 (1 + O(|X|^2)) once X is
        # tiny; X rebuilt here from the log-Bessel sequences
        l_max = default_l_max(kappa, 1.0, 1.0) + 16
        m = np.arange(-l_max, l_max + 1)
        half = 0.5 * (log_bessel_i_seq(l_max, kappa)
                      - log_bessel_k_seq(l_max, kappa))[np.abs(m)]
        ln_kd = log_bessel_k_seq(2 * l_max, 4.0 * kappa)
        ln_x = half[:, None] + ln_kd[np.abs(m[:, None] - m[None, :])] + half[None, :]
        xi = xi_two_disks(PartialWaveConfig(l_max, 1.0, 1.0, 4.0, kappa))
        assert xi == pytest.approx(-np.sum(np.exp(2 * ln_x)), rel=1e-10, abs=0)


class TestCertification:
    def test_vs_extrapolated_nystrom(self, canonical_scene):
        # the Nystrom limit without extrapolation: two grids, each within
        # 1e-10 of the oracle
        for n in (128, 256):
            grid = discretize(canonical_scene, n)
            for kap in (0.3, 1.0):
                pw = xi_two_disks(PartialWaveConfig(40, 1.0, 1.0, 4.0, kap))
                assert pw == pytest.approx(
                    xi_imag(canonical_scene, grid, kap).xi.real, abs=1e-10)

    def test_asymmetric_disks(self):
        scene = make_scene([make_circle((0, 0), 1.0), make_circle((3, 0.5), 0.5)])
        d = float(np.hypot(3.0, 0.5))
        for kap in (0.5, 2.0):
            grid = discretize(scene, 256)
            bem = xi_imag(scene, grid, kap).xi.real
            pw = xi_two_disks(PartialWaveConfig(40, 1.0, 0.5, d, kap))
            assert bem == pytest.approx(pw, abs=1e-9)

    @pytest.mark.slow
    def test_fine_grid_certification(self, canonical_scene):
        # the full protocol: n = 1024 and 2048 per disk
        pw = xi_two_disks(PartialWaveConfig(40, 1.0, 1.0, 4.0, 1.0))
        for n in (1024, 2048):
            bem = xi_imag(canonical_scene, discretize(canonical_scene, n), 1.0)
            assert pw == pytest.approx(bem.xi.real, abs=1e-10)

    def test_agreement_across_kappa_grid(self, canonical_scene, canonical_grid_256):
        gap = canonical_scene.gap
        for kap in np.geomspace(0.1 / gap, 10 / gap, 7):
            bem = xi_imag(canonical_scene, canonical_grid_256, kap).xi.real
            pw = xi_two_disks(PartialWaveConfig(
                max(40, default_l_max(kap, 1.0, 1.0)), 1.0, 1.0, 4.0, kap))
            assert abs(bem - pw) <= 1e-8 * (1 + abs(pw))

