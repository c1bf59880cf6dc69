from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla
from scipy import special
from scipy.special import i0, i1, iv, ivp, kv, kvp

from layerdet import (LayerDetError, SingularOperatorError, SpectralPoint, assemble_dq,
                      assemble_q, discretize, factorize, green_free, kernel, layer_ops,
                      make_circle, make_ellipse, make_kite, make_polar_fourier, make_scene,
                      solve, specfun, trace_rrel)
from layerdet.kernel import offdiag_kernel, split_block
from layerdet.layer_ops import block_diagonal, dt_dsep_levels, kress_log_weights, xi_levels

SPECTRAL_POINTS = (SpectralPoint.imaginary(1.0), SpectralPoint.ray(2.0, np.pi / 8))


@pytest.fixture(scope="module")
def two_disk_grid(canonical_scene):
    return discretize(canonical_scene, 64)


@pytest.fixture(scope="module")
def unequal_grids(mixed_scene, three_scene):
    """Kite + circle at unequal node counts, and three obstacles (three
    pairs, rectangular cross blocks)."""
    return discretize(mixed_scene, (48, 64)), discretize(three_scene, (48, 64, 32))


@pytest.fixture(scope="module")
def no_repeat_grid():
    """A polar-Fourier curve beside a rotated ellipse, whose node distances
    hardly repeat: 2016 of the curve's 2016 triangle distances are
    distinct, 864 of the ellipse's 1128, and all 3072 across."""
    return discretize(make_scene([make_polar_fourier((0.0, 0.0), [1.0, 0.15, 0.05],
                                                     [0.1, -0.04]),
                                  make_ellipse((3.5, 0.3), 1.0, 0.6, 0.4)]), (64, 48))


def _direct_assembly(grid, sp, deriv):
    """Q, or dQ/dv with deriv, with the kernel evaluated at every ordered
    node pair on its own (the full square of each diagonal block, both
    cross blocks of each pair), and NaN on the diagonal, whose values do
    not come from the kernel.  The kernels on a ray, of Q and of its
    derivative, and the cross kernels on the imaginary axis come from the
    Chebyshev expansions on the scene's intervals, as in the assembly."""
    v = sp.value if sp.is_imaginary else sp.lam
    own, cross = layer_ops._spans(grid.scene)
    out = np.zeros((grid.size, grid.size), dtype=float if sp.is_imaginary else complex)
    for j, (a, b) in enumerate(grid.blocks):
        for k, (c, d) in enumerate(grid.blocks):
            x, y = grid.points[a:b], grid.points[c:d]
            r = np.hypot(x[:, 0][:, None] - y[:, 0][None, :],
                         x[:, 1][:, None] - y[:, 1][None, :])
            if j != k:
                out[a:b, c:d] = offdiag_kernel(sp, r, deriv, span=cross) * grid.weights[c:d]
                continue
            n = b - a
            np.fill_diagonal(r, 1.0)
            if sp.is_imaginary:
                J, G = ((r * i1(v * r), -(r / (2 * np.pi)) * specfun.bessel_k(1, v * r))
                        if deriv else (i0(v * r), green_free(sp, r)))
            else:
                J, G = kernel._ray_split(v, r, own[j], int(deriv))
            speeds = grid.speeds[a:b]
            A = -(J / (4 * np.pi)) * speeds[None, :]
            dt = grid.t[a:b][:, None] - grid.t[a:b][None, :] + np.eye(n)
            B = G * speeds[None, :] - A * np.log(4.0 * np.sin(0.5 * dt) ** 2)
            R = kress_log_weights(n)[np.abs(np.subtract.outer(np.arange(n), np.arange(n)))]
            out[a:b, a:b] = R * A + (2 * np.pi / n) * B
    np.fill_diagonal(out, np.nan)
    return out


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
        qd = block_diagonal(q, grid.blocks)
        assert np.array_equal(q, qd)
        assert np.all(q - qd == 0.0)

    def test_symmetry_defect(self, canonical_scene, two_disk_grid):
        q = assemble_q(two_disk_grid, SpectralPoint.imaginary(1.0)).entries
        assert np.linalg.norm(q - q.T) <= 1e-12 * np.linalg.norm(q)

    def test_kernel_symmetry_weight_normalized(self, mixed_scene, canonical_scene):
        # with the column-weight convention the kernel symmetry
        # G(x,y) = G(y,x) reads Q diag(w)^{-1} symmetric: bitwise where every
        # node has the same weight (equal circles at equal node counts), to
        # rounding where fl(fl(K w) / w) != K (the kite)
        three = make_scene([make_circle((0.0, 0.0), 1.0), make_circle((4.0, 0.0), 1.0),
                            make_circle((1.0, 5.0), 1.0)])
        for grid, exact in ((discretize(mixed_scene, 64), False),
                            (discretize(canonical_scene, 64), True),
                            (discretize(three, 32), True)):
            for sp in SPECTRAL_POINTS:
                for assemble in (assemble_q, assemble_dq):
                    s = assemble(grid, sp).entries / grid.weights[None, :]
                    if exact:
                        assert np.array_equal(s, s.T)
                    else:
                        assert np.linalg.norm(s - s.T) <= 1e-12 * np.linalg.norm(s)

    def test_kernel_values_equal_direct_evaluation(self, unequal_grids, no_repeat_grid):
        # each kernel value is evaluated once per distinct distance of a
        # block and gathered; every entry stays bitwise what evaluating each
        # ordered pair separately gives, with unequal weights and rectangular
        # blocks, and on a scene whose distances hardly repeat
        for grid in (*unequal_grids, no_repeat_grid):
            for sp in SPECTRAL_POINTS:
                for deriv, assemble in ((False, assemble_q), (True, assemble_dq)):
                    q = assemble(grid, sp).entries
                    direct = _direct_assembly(grid, sp, deriv)
                    off = ~np.eye(grid.size, dtype=bool)
                    assert np.array_equal(q[off], direct[off])
                    s = q / grid.weights[None, :]
                    assert np.abs(s - s.T).max() <= 1e-14 * np.abs(s).max()
        # the no-repeat curves' cross block at n = 96 and 128 has 9216 and
        # 16384 distinct distances, evaluated as one array; chunks of 1000
        # round as per-pair evaluation does.  From 16384 entries numpy takes
        # a complex product on a ray in place, which rounds differently
        _, cross = layer_ops._spans(no_repeat_grid.scene)
        for n in (96, 128):
            r = discretize(no_repeat_grid.scene, n).distinct(0, 1)[0]
            assert r.size == n * n
            for sp in (*SPECTRAL_POINTS, SpectralPoint.from_complex(1.7)):
                for deriv in (False, True):
                    whole = offdiag_kernel(sp, r, deriv, span=cross)
                    chunks = np.concatenate([offdiag_kernel(sp, r[i:i + 1000], deriv,
                                                            span=cross)
                                             for i in range(0, r.size, 1000)])
                    if n == 128 and sp.axis == "ray":
                        assert np.all(np.abs(whole - chunks) <= 4e-16 * np.abs(chunks))
                    else:
                        assert np.array_equal(whole, chunks)

    def test_one_kernel_call_per_obstacle_pair(self, monkeypatch, unequal_grids):
        # one split_block call per obstacle and one offdiag_kernel call per
        # obstacle pair and assembly, the counts the benchmark reports
        calls = {"offdiag": 0, "split": 0}

        def counted(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(layer_ops, "offdiag_kernel", counted("offdiag", offdiag_kernel))
        monkeypatch.setattr(layer_ops, "split_block", counted("split", split_block))
        for grid in unequal_grids:
            nb = grid.scene.n_obstacles
            for sp in SPECTRAL_POINTS:
                for assemble in (assemble_q, assemble_dq):
                    calls.update(offdiag=0, split=0)
                    assemble(grid, sp)
                    assert calls == {"offdiag": nb * (nb - 1) // 2, "split": nb}
                # dT/ds: only the pairs with obstacle 1
                calls.update(offdiag=0, split=0)
                dt_dsep_levels([grid], sp, (1.0, 0.0))
                assert calls == {"offdiag": nb - 1, "split": 0}

    def test_kernels_see_each_distinct_distance_once(self, monkeypatch, two_disk_grid):
        # on the canonical disks at n = 64 the special functions of each
        # block (i0/k0 on the imaginary axis, j0/y0 at real lambda) and the
        # cross block's Clenshaw sum see exactly its distinct distances: 230
        # and 341 among each triangle's 2016, 1978 among the 4096 across
        sizes = {}

        def counted(name, fn):
            def wrapped(*args):
                sizes.setdefault(name, []).append(np.size(args[-1]))
                return fn(*args)
            return wrapped

        monkeypatch.setattr(kernel, "_sp", SimpleNamespace(
            kve=special.kve, **{name: counted(name, getattr(special, name))
                                for name in ("i0", "k0", "j0", "y0")}))
        monkeypatch.setattr(kernel, "_clenshaw", counted("clenshaw", kernel._clenshaw))
        grid = two_disk_grid
        own = [grid.distinct(j, j)[0].size for j in range(2)]
        cross = grid.distinct(0, 1)[0].size
        assert (own, cross) == ([230, 341], 1978)
        sizes.clear()
        assemble_q(grid, SpectralPoint.imaginary(1.3))
        assert sizes == {"i0": own, "k0": own, "clenshaw": [cross]}
        sizes.clear()
        assemble_q(grid, SpectralPoint.from_complex(1.3))
        assert sizes == {"j0": [own[0], cross, own[1]], "y0": [own[0], cross, own[1]]}

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
        qd = block_diagonal(q, two_disk_grid.blocks)
        t = q - qd
        assert np.all(qd[:64, 64:] == 0.0)
        assert np.all(qd[64:, :64] == 0.0)
        assert np.all(t[:64, :64] == 0.0)
        assert np.all(t[64:, 64:] == 0.0)
        assert np.array_equal(t[:64, 64:], q[:64, 64:])

    def test_qdiag_blocks_bitwise_equal_q(self, canonical_scene, two_disk_grid):
        sp = SpectralPoint.imaginary(0.7)
        q = assemble_q(two_disk_grid, sp).entries
        qd = block_diagonal(q, two_disk_grid.blocks)
        assert np.array_equal(q[:64, :64], qd[:64, :64])
        assert np.array_equal(q[64:, 64:], qd[64:, 64:])

    def test_qdiag_block_equals_single_scene(self, canonical_scene, two_disk_grid):
        sp = SpectralPoint.imaginary(0.9)
        qd = block_diagonal(assemble_q(two_disk_grid, sp).entries, two_disk_grid.blocks)
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


class TestAssembleDtDsep:
    def test_entrywise_finite_difference(self):
        # obstacle 1, a kite between two circles, moved by s e: its four
        # coupling blocks change, the circles' mutual blocks do not
        e, h = np.array([0.6, 0.8]), 1e-5

        def grid(s):
            return discretize(make_scene([
                make_circle((0.0, 0.0), 1.0), make_kite(s * e + (4.0, 0.0), 1.0),
                make_circle((0.0, 5.0), 1.0)]), 32)

        for sp in (SpectralPoint.imaginary(1.2), SpectralPoint.ray(1.2, np.pi / 5)):
            dt = dt_dsep_levels([grid(0.0)], sp, e)[0]
            fd = (assemble_q(grid(h), sp).entries
                  - assemble_q(grid(-h), sp).entries) / (2 * h)
            assert np.abs(fd - dt).max() <= 1e-7 * np.abs(dt).max()
            assert not dt[:32, 64:].any() and not dt[64:, :32].any()

    def test_needs_two_obstacles(self, single_disk):
        with pytest.raises(LayerDetError):
            dt_dsep_levels([single_disk[1]], SpectralPoint.imaginary(1.0), (1.0, 0.0))


class TestFactorize:
    def test_xi_levels_keep_a_full_size_qtilde(self, two_disk_grid, lu_solves):
        # Xi's path: Q and Qtilde each factored at N = 2n, whose pivots on
        # the obstacles' blocks round alike, and no solve
        for sp in SPECTRAL_POINTS:
            lu_solves[0].clear()
            xi_levels(two_disk_grid, sp)
            assert lu_solves[0] == {128: 2} and not lu_solves[1]

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

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_fields_from_the_pivots(self, dtype):
        # every field is a reduction of diag(U) and the row swaps, bitwise
        rng = np.random.default_rng(5)
        a = rng.standard_normal((30, 30)).astype(dtype)
        if dtype is complex:
            a += 1j * rng.standard_normal((30, 30))
        f = factorize(a)
        lu, piv = sla.lu_factor(a, check_finite=False)
        d, swaps = np.diag(lu), np.count_nonzero(piv != np.arange(30)) % 2
        assert np.array_equal(f.lu, lu) and np.array_equal(f.piv, piv)
        assert f.log_abs_det == float(np.sum(np.log(np.abs(d))))
        assert (f.pivot_min, f.pivot_max) == (np.abs(d).min(), np.abs(d).max())
        if dtype is float:
            assert f.sign == (-1.0) ** (np.count_nonzero(d < 0) + swaps)
            assert f.phase == (0.0 if f.sign > 0 else np.pi)
        else:
            assert f.sign == 0.0
            assert f.phase == float(np.sum(np.angle(d)) + np.pi * swaps)

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
        # one back-substitution, no refinement: the residual stays at the
        # backward-stable rounding level (measured <= 0.09 eps |Q| |x|)
        rng = np.random.default_rng(0)
        for sp in SPECTRAL_POINTS:
            q = assemble_q(two_disk_grid, sp).entries
            b = rng.standard_normal((q.shape[0], 3))
            x = solve(factorize(q), b)
            bound = np.finfo(float).eps * np.linalg.norm(q) * np.linalg.norm(x)
            assert np.linalg.norm(q @ x - b) <= bound

    def test_real_rhs_on_complex_factorization(self, two_disk_grid):
        f = factorize(assemble_q(two_disk_grid, SPECTRAL_POINTS[1]))
        b = np.random.default_rng(2).standard_normal((two_disk_grid.size, 2))
        x = solve(f, b)
        assert x.dtype == np.complex128
        assert np.array_equal(x, solve(f, b.astype(complex)))

    def test_near_singular_dual_paths(self, canonical_scene):
        # lambda just above the first interior Dirichlet eigenvalue j_{0,1}
        # of the unit disks, where Q is close to singular
        grid = discretize(canonical_scene, 128)
        p1, p2 = trace_rrel(canonical_scene, grid,
                            SpectralPoint.ray(2.404825557695773, 1e-4), both_paths=True)
        assert abs(p1 - p2) <= 1e-9 * abs(p2)


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
