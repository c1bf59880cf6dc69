import numpy as np
import pytest
from scipy.special import iv, kv

from layerdet import (Curve, FieldEvaluator, LayerDetError, SpectralPoint, assemble_q,
                      discretize, factorize, field_point, green_free, make_circle,
                      make_kite, make_scene, solve)


def disk_diff_kernel_series(kappa, a, rx, ry, dtheta, nmax=60):
    """Exterior Dirichlet correction kernel of a single disk through its
    Fourier diagonalization: -(1/2pi) sum_n (I_n/K_n)(kappa a)
    K_n(kappa rx) K_n(kappa ry) e^{i n dtheta}."""
    n = np.arange(1, nmax + 1)
    terms = (iv(n, kappa * a) / kv(n, kappa * a)) * kv(n, kappa * rx) \
        * kv(n, kappa * ry) * np.cos(n * dtheta)
    s0 = (iv(0, kappa * a) / kv(0, kappa * a)) * kv(0, kappa * rx) * kv(0, kappa * ry)
    return -(s0 + 2 * np.sum(terms)) / (2 * np.pi)


@pytest.fixture(scope="module")
def evaluator(canonical_scene, canonical_grid_96):
    return FieldEvaluator(canonical_scene, canonical_grid_96,
                          SpectralPoint.imaginary(1.0))


class TestResolventDiff:
    def test_symmetry(self, canonical_scene, evaluator):
        x = field_point(canonical_scene, (2.0, 1.5))
        y = field_point(canonical_scene, (-1.0, -2.0))
        kxy = evaluator.resolvent_diff(x, y)
        kyx = evaluator.resolvent_diff(y, x)
        assert kyx == pytest.approx(kxy, rel=1e-11)

    def test_single_disk_series_oracle(self):
        scene = make_scene([make_circle((0, 0), 1.0)])
        grid = discretize(scene, 128)
        kappa = 1.0
        ev = FieldEvaluator(scene, grid, SpectralPoint.imaginary(kappa))
        for rx, ry, th in ((2.0, 2.0, 0.0), (1.5, 2.5, 0.7), (3.0, 2.0, np.pi / 2)):
            x = field_point(scene, (rx, 0.0))
            y = field_point(scene, (ry * np.cos(th), ry * np.sin(th)))
            got = ev.resolvent_diff(x, y)
            want = disk_diff_kernel_series(kappa, 1.0, rx, ry, th)
            assert got.real == pytest.approx(want, abs=1e-8 * (1 + abs(want)))
            assert abs(got.imag) < 1e-14

    def test_diagonal_decay_envelope(self, canonical_scene, evaluator):
        # |k(x,x)| <= C (1+|log(kappa dist)|)^2 e^{-c dist kappa}: c from the
        # first two ray points (shrunk), C at the nearest (inflated)
        kappa = 1.0
        dists = np.linspace(1.0, 8.0, 22)
        vals = []
        for s in dists:
            x = field_point(canonical_scene, (5.0 + s, 0.0))
            vals.append(abs(evaluator.resolvent_diff(x, x)))
        vals = np.array(vals)
        c = -np.log(vals[1] / vals[0]) / (kappa * (dists[1] - dists[0])) * 0.85
        shape = (1 + np.abs(np.log(kappa * dists))) ** 2 * np.exp(-c * dists * kappa)
        C = vals[0] / shape[0] * 1.1
        assert np.all(vals[2:] <= C * shape[2:])

    def test_monotone_decay_along_ray(self, canonical_scene, evaluator):
        vals = []
        for s in np.linspace(1.0, 6.0, 12):
            x = field_point(canonical_scene, (-1.0 - s, 0.0))
            vals.append(abs(evaluator.resolvent_diff(x, x)))
        assert np.all(np.diff(vals) < 0)

    def test_standoff_rejected(self, canonical_scene, evaluator):
        x = field_point(canonical_scene, (1.15, 0.0))   # 0.15 off the boundary
        assert x.dist < 0.1 * canonical_scene.gap + 0.1
        with pytest.raises(LayerDetError):
            evaluator.resolvent_diff(x, x)

    def test_oneshot_wrappers(self, canonical_scene, canonical_grid_96, evaluator):
        # a freshly built evaluator reproduces the cached one bitwise
        sp = SpectralPoint.imaginary(1.0)
        x = field_point(canonical_scene, (2.0, 2.0))
        fresh = FieldEvaluator(canonical_scene, canonical_grid_96, sp)
        assert fresh.resolvent_diff(x, x) == evaluator.resolvent_diff(x, x)
        assert fresh.rel_resolvent(x, x) == evaluator.rel_resolvent(x, x)

    def test_symmetry_three_obstacles(self, three_scene):
        ev = FieldEvaluator(three_scene, discretize(three_scene, (48, 64, 32)),
                            SpectralPoint.imaginary(0.8))
        x = field_point(three_scene, (2.0, 2.5))
        y = field_point(three_scene, (-2.5, 1.0))
        assert abs(ev.resolvent_diff(y, x) - ev.resolvent_diff(x, y)) \
            <= 1e-10 * abs(ev.resolvent_diff(x, y))


class TestRelResolvent:
    def test_single_obstacle_zero(self):
        scene = make_scene([make_circle((0, 0), 1.0)])
        grid = discretize(scene, 64)
        ev = FieldEvaluator(scene, grid, SpectralPoint.imaginary(1.0))
        x = field_point(scene, (2.0, 0.0))
        assert abs(ev.rel_resolvent(x, x)) <= 1e-12

    def test_reciprocity(self, canonical_scene, evaluator):
        x = field_point(canonical_scene, (2.0, 1.5))
        y = field_point(canonical_scene, (-1.5, 1.0))
        assert evaluator.rel_resolvent(y, x) == pytest.approx(
            evaluator.rel_resolvent(x, y), rel=1e-11)

    def test_no_full_size_qtilde_lu(self, canonical_scene, lu_solves):
        # every LU at the obstacles' size n = 48, none at N = 2n: A's and the
        # Schur complement's of Q's block elimination, with one solve for
        # W = A^{-1} B, then D's on the relative kernel's first use; Q^{-1}
        # takes two solves (A and S), Qtilde^{-1} one per block
        ev = FieldEvaluator(canonical_scene, discretize(canonical_scene, 48),
                            SpectralPoint.imaginary(1.0))
        assert lu_solves == ({48: 2}, {48: 1})
        x = field_point(canonical_scene, (2.0, 1.5))
        y = field_point(canonical_scene, (-1.5, 1.0))
        ev.rel_resolvent(x, y)
        assert lu_solves == ({48: 3}, {48: 5})
        ev.resolvent_diff(x, y)
        assert lu_solves == ({48: 3}, {48: 7})

    @pytest.mark.parametrize("sp", [SpectralPoint.imaginary(1.0),
                                    SpectralPoint.ray(1.3, np.pi / 8)], ids=["imag", "ray"])
    def test_three_obstacles_match_full_size_formulas(self, three_scene, sp):
        # the block elimination's Q^{-1} and per-block Qtilde^{-1} against a
        # full-size LU of Q and a per-block solve of Qtilde
        grid = discretize(three_scene, (48, 64, 32))
        ev = FieldEvaluator(three_scene, grid, sp)
        q = assemble_q(grid, sp).entries
        fq, t = factorize(q), q.copy()
        for a, b in grid.blocks:
            t[a:b, a:b] = 0.0
        pts = [field_point(three_scene, xy) for xy in ((2.0, 2.5), (-2.5, 1.0))]
        g = [green_free(sp, np.hypot(*(grid.points - p.x).T)) for p in pts]
        v = np.concatenate([solve(factorize(q[a:b, a:b]), g[0][a:b]) for a, b in grid.blocks])
        diff = -np.dot(g[1] * grid.weights, solve(fq, g[0]))
        rel = np.dot(g[1] * grid.weights, solve(fq, t @ v))
        assert abs(ev.resolvent_diff(*pts) - diff) <= 1e-12 * abs(diff)
        assert abs(ev.rel_resolvent(*pts) - rel) <= 1e-12 * abs(rel)

    def test_decays_faster_than_diff_kernel(self, canonical_scene, evaluator):
        # the relative kernel carries the gap-crossing factor on top of the
        # boundary-distance decay
        near = field_point(canonical_scene, (2.0, 2.0))
        far = field_point(canonical_scene, (2.0, 6.0))
        ratio_rel = abs(evaluator.rel_resolvent(far, far)
                        / evaluator.rel_resolvent(near, near))
        ratio_diff = abs(evaluator.resolvent_diff(far, far)
                         / evaluator.resolvent_diff(near, near))
        assert ratio_rel < ratio_diff

    def test_point_validation(self, canonical_scene):
        with pytest.raises(LayerDetError):
            field_point(canonical_scene, (0.2, 0.0))  # inside the first disk

    @pytest.mark.parametrize("xy", [(np.nan, 2.0), (2.0, np.inf), (-np.inf, 2.0)],
                             ids=["nan", "inf", "minus_inf"])
    def test_non_finite_point_rejected(self, canonical_scene, xy):
        # min(inf, nan) is inf: the distance alone would let a NaN through
        with pytest.raises(LayerDetError, match="not finite"):
            field_point(canonical_scene, xy)

    def test_trace_proxy_demonstration(self, canonical_scene, canonical_grid_96):
        # Demonstration, not an assertion of equality: integrating the
        # relative-kernel diagonal over a finite box tracks part of the
        # full-space trace Tr R_rel = dXi/dkappa / (2 kappa); the box misses
        # the exterior contribution, so only sign and rough size are checked.
        from layerdet import SpectralPoint, trace_rrel

        kappa = 1.0
        ev = FieldEvaluator(canonical_scene, canonical_grid_96,
                            SpectralPoint.imaginary(kappa))
        xs = np.linspace(-4.0, 8.0, 25)
        ys = np.linspace(-6.0, 6.0, 25)
        hx, hy = xs[1] - xs[0], ys[1] - ys[0]
        box_sum = 0.0
        for x in xs:
            for y in ys:
                try:
                    p = field_point(canonical_scene, (x, y))
                    box_sum += ev.rel_resolvent(p, p).real * hx * hy
                except LayerDetError:
                    continue  # inside an obstacle or the standoff
        full = trace_rrel(canonical_scene, canonical_grid_96,
                          SpectralPoint.imaginary(kappa)).real
        print(f"\nbox-integrated rel-kernel diagonal {box_sum:.4e} vs "
              f"full-space Tr R_rel {full:.4e}")
        assert np.sign(box_sum) == np.sign(full)
        assert 0.05 * abs(full) < abs(box_sum) < 20 * abs(full)


def test_evaluator_rejects_grid_of_another_scene(canonical_scene, single_disk):
    with pytest.raises(LayerDetError, match="grid was built for a different scene"):
        FieldEvaluator(canonical_scene, single_disk[1], SpectralPoint.imaginary(1.0))


class TestFieldPoint:
    def test_boundary_samples_cached(self, monkeypatch):
        # the distance search's samples and the winding polygon are the
        # scene's, built on the first call: a second call evaluates the
        # curves at single parameters only, and gives the same point
        scene = make_scene([make_circle((0, 0), 1.0), make_kite((4.0, 0.0), 1.0)])
        first = field_point(scene, (2.0, 1.5))
        sizes, point = [], Curve.point

        def counted(curve, t):
            sizes.append(np.size(t))
            return point(curve, t)

        monkeypatch.setattr(Curve, "point", counted)
        assert field_point(scene, (2.0, 1.5)) == first
        assert sizes and max(sizes) == 1
