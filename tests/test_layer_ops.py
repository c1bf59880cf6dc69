import numpy as np
import pytest
from scipy.special import iv, ivp, kv, kvp

from layerdet import (SingularOperatorError, SpectralPoint, assemble_dq,
                      assemble_q, discretize, factorize, make_circle,
                      make_scene, solve)
from layerdet.layer_ops import kress_log_weights, split_blocks


@pytest.fixture(scope="module")
def two_disk_grid(canonical_scene):
    return discretize(canonical_scene, 64)


class TestKressWeights:
    def test_exact_on_trig_polynomials(self):
        # int_0^{2pi} log(4 sin^2((t-s)/2)) e^{i m s} ds = -(2pi/|m|) e^{i m t}
        n = 32
        R = kress_log_weights(n)
        t = 2 * np.pi * np.arange(n) / n
        for m in (1, 3, 7, n // 2 - 1):
            for i in (0, 5):
                approx = np.sum(R[np.abs(i - np.arange(n))] * np.exp(1j * m * t))
                assert approx == pytest.approx(-(2 * np.pi / m) * np.exp(1j * m * t[i]),
                                               abs=1e-13)

    def test_zero_mean(self):
        R = kress_log_weights(64)
        assert abs(R.sum()) < 1e-13


class TestAssembly:
    def test_single_obstacle_q_equals_qdiag(self, single_disk):
        scene, grid = single_disk
        sp = SpectralPoint.imaginary(1.0)
        q = assemble_q(grid, sp).entries
        qd, t = split_blocks(q, grid.blocks)
        assert np.array_equal(q, qd)
        assert np.all(t == 0.0)

    def test_symmetry_defect(self, canonical_scene, two_disk_grid):
        q = assemble_q(two_disk_grid, SpectralPoint.imaginary(1.0)).entries
        assert np.linalg.norm(q - q.T) <= 1e-12 * np.linalg.norm(q)

    def test_kernel_symmetry_weight_normalized(self, mixed_scene):
        # with the column-weight convention the kernel symmetry
        # G(x,y) = G(y,x) reads Q diag(w)^{-1} symmetric
        grid = discretize(mixed_scene, 64)
        q = assemble_q(grid, SpectralPoint.imaginary(1.0)).entries
        s = q / grid.weights[None, :]
        assert np.linalg.norm(s - s.T) <= 1e-12 * np.linalg.norm(s)

    def test_circle_eigenvalues(self):
        scene = make_scene([make_circle((0, 0), 1.0)])
        grid = discretize(scene, 128)
        q = assemble_q(grid, SpectralPoint.imaginary(1.0)).entries
        eigs = np.sort(np.linalg.eigvals(q).real)[::-1]
        n = np.arange(0, 6)
        exact = iv(n, 1.0) * kv(n, 1.0)
        target = np.sort(np.concatenate([[exact[0]], np.repeat(exact[1:], 2)]))[::-1]
        assert np.allclose(eigs[: target.size], target, atol=1e-10)

    def test_qdiag_offblocks_zero(self, canonical_scene, two_disk_grid):
        sp = SpectralPoint.imaginary(0.7)
        q = assemble_q(two_disk_grid, sp).entries
        qd, t = split_blocks(q, two_disk_grid.blocks)
        assert np.all(qd[:64, 64:] == 0.0)
        assert np.all(qd[64:, :64] == 0.0)
        assert np.all(t[:64, :64] == 0.0)
        assert np.all(t[64:, 64:] == 0.0)
        assert np.array_equal(t[:64, 64:], q[:64, 64:])

    def test_qdiag_blocks_bitwise_equal_q(self, canonical_scene, two_disk_grid):
        sp = SpectralPoint.imaginary(0.7)
        q = assemble_q(two_disk_grid, sp).entries
        qd, _ = split_blocks(q, two_disk_grid.blocks)
        assert np.array_equal(q[:64, :64], qd[:64, :64])
        assert np.array_equal(q[64:, 64:], qd[64:, 64:])

    def test_qdiag_block_equals_single_scene(self, canonical_scene, two_disk_grid):
        sp = SpectralPoint.imaginary(0.9)
        qd, _ = split_blocks(assemble_q(two_disk_grid, sp).entries,
                             two_disk_grid.blocks)
        solo = make_scene([make_circle((4.0, 0.0), 1.0)])
        solo_q = assemble_q(discretize(solo, 64), sp)
        assert np.allclose(qd[64:, 64:], solo_q.entries, atol=1e-15)

    def test_real_storage_on_imaginary_axis(self, two_disk_grid):
        for assemble in (assemble_q, assemble_dq):
            assert not np.iscomplexobj(assemble(two_disk_grid,
                                                SpectralPoint.imaginary(1.0)).entries)
            assert np.iscomplexobj(assemble(two_disk_grid,
                                            SpectralPoint.ray(1.0, np.pi / 4)).entries)

    def test_deterministic(self, two_disk_grid):
        sp = SpectralPoint.imaginary(1.0)
        a = assemble_q(two_disk_grid, sp).entries
        b = assemble_q(two_disk_grid, sp).entries
        assert np.array_equal(a, b)

    def test_kappa_min_guard(self, canonical_scene, two_disk_grid):
        with pytest.raises(ValueError):
            assemble_q(two_disk_grid, SpectralPoint.imaginary(1e-9))


class TestAssembleDq:
    def test_entrywise_finite_difference(self, canonical_scene, two_disk_grid):
        # dQ/dkappa on the imaginary axis; on the ray u e^{i theta},
        # d/du Q(u e^{i theta}) = e^{i theta} dQ/dlambda
        u, h = 1.2, 1e-5
        for point, phase in ((SpectralPoint.imaginary, 1.0),
                             (lambda v: SpectralPoint.ray(v, np.pi / 5),
                              np.exp(1j * np.pi / 5))):
            dq = phase * assemble_dq(two_disk_grid, point(u)).entries
            qp = assemble_q(two_disk_grid, point(u + h)).entries
            qm = assemble_q(two_disk_grid, point(u - h)).entries
            fd = (qp - qm) / (2 * h)
            off = np.s_[:64, 64:]
            assert np.abs(fd[off] - dq[off]).max() <= 1e-7 * np.abs(dq[off]).max()
            assert np.abs(fd - dq).max() <= 1e-7 * np.abs(dq).max()

    def test_circle_mode_derivative(self):
        # Fourier modes diagonalize the circle; the projected kappa-derivative
        # equals d/dkappa [I_n K_n]
        scene = make_scene([make_circle((0, 0), 1.0)])
        grid = discretize(scene, 128)
        kap = 1.0
        dqk = assemble_dq(grid, SpectralPoint.imaginary(kap)).entries
        t = grid.t
        for n in (0, 1, 3):
            v = np.cos(n * t)
            proj = float(v @ (dqk @ v) / (v @ v))
            exact = ivp(n, kap) * kv(n, kap) + iv(n, kap) * kvp(n, kap)
            assert proj == pytest.approx(exact, rel=1e-8)


class TestFactorize:
    def test_identity(self):
        f = factorize(np.eye(5))
        assert f.log_abs_det == pytest.approx(0.0, abs=1e-15)
        assert f.sign == 1.0

    def test_diag(self):
        f = factorize(np.diag([2.0, 3.0]))
        assert f.log_abs_det == pytest.approx(np.log(6.0), rel=1e-15)

    def test_logdet_vs_svd(self):
        rng = np.random.default_rng(7)
        a = rng.standard_normal((50, 50)) + 5 * np.eye(50)
        f = factorize(a)
        sv = np.linalg.svd(a, compute_uv=False)
        assert f.log_abs_det == pytest.approx(np.sum(np.log(sv)), rel=1e-10)

    def test_reconstruction(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((40, 40))
        f = factorize(a)
        L = np.tril(f.lu, -1) + np.eye(40)
        U = np.triu(f.lu)
        pa = a.copy()
        for i, p in enumerate(f.piv):
            pa[[i, p]] = pa[[p, i]]
        assert np.linalg.norm(pa - L @ U) <= 1e-12 * np.linalg.norm(a)

    @pytest.mark.filterwarnings("ignore::scipy.linalg.LinAlgWarning")
    def test_singular_raises_with_pivot(self):
        a = np.zeros((3, 3))
        a[0, 0] = 1.0
        with pytest.raises(SingularOperatorError) as exc:
            factorize(a)
        assert exc.value.pivot_index is not None

    def test_complex_phase(self):
        a = np.diag([1j, 2.0])
        f = factorize(a)
        det = np.exp(f.log_abs_det + 1j * f.phase)
        assert det == pytest.approx(2j, rel=1e-14)


class TestSolve:
    def test_identity_and_diagonal(self):
        f = factorize(np.diag([2.0, 4.0]))
        x = solve(f, np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-15)

    def test_spd_vs_cg_oracle(self):
        rng = np.random.default_rng(11)
        m = rng.standard_normal((30, 30))
        a = m @ m.T + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x = solve(factorize(a), b)
        # conjugate-gradient oracle
        from scipy.sparse.linalg import cg
        xo, info = cg(a, b, rtol=1e-14, maxiter=10000)
        assert info == 0
        assert np.linalg.norm(x - xo) <= 1e-10 * np.linalg.norm(xo)

    def test_residual_bound(self, canonical_scene, two_disk_grid):
        q = assemble_q(two_disk_grid, SpectralPoint.imaginary(1.0))
        f = factorize(q)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(q.entries.shape[0])
        x = solve(f, b)
        norm_a = np.linalg.norm(q.entries)
        assert np.linalg.norm(q.entries @ x - b) <= 1e-11 * norm_a * np.linalg.norm(x)


class TestOperatorProperties:
    def test_imag_axis_pivots_positive(self, canonical_scene, two_disk_grid,
                                       mixed_scene):
        for scene, grid in ((canonical_scene, two_disk_grid),
                            (mixed_scene, discretize(mixed_scene, 64))):
            for kap in (0.1, 1.0, 5.0):
                f = factorize(assemble_q(grid, SpectralPoint.imaginary(kap)))
                assert f.sign == 1.0 and f.pivot_min > 0

    def test_offdiag_norm_decay(self, canonical_scene, two_disk_grid):
        gap = canonical_scene.gap
        kaps = np.linspace(2 / gap, 5 / gap, 4)
        norms = []
        for kap in kaps:
            q = assemble_q(two_disk_grid, SpectralPoint.imaginary(kap))
            norms.append(np.linalg.norm(q.entries[:64, 64:]))
        for (k1, n1), (k2, n2) in zip(zip(kaps, norms), zip(kaps[1:], norms[1:])):
            assert n2 <= n1 * np.exp(-0.95 * gap * (k2 - k1))

    def test_spectral_convergence_of_functional(self, mixed_scene):
        # fixed matrix functional with a continuum limit: the boundary
        # quadratic form <f, Q f> on the kite+circle scene at kappa = 1
        def quad_form(n):
            grid = discretize(mixed_scene, n)
            q = assemble_q(grid, SpectralPoint.imaginary(1.0))
            f = np.exp(np.sin(grid.t))
            return float(f @ (grid.weights * (q.entries @ f)))

        ref = quad_form(512)
        err64 = abs(quad_form(64) - ref)
        err128 = abs(quad_form(128) - ref)
        assert err64 > 1e-13  # not yet at the rounding floor
        assert err128 <= err64 / 10
