import numpy as np
import pytest
from scipy.integrate import quad

from layerdet import (SceneError, casimir_energy, discretize, make_circle,
                      make_ellipse, make_kite, make_polar_fourier, make_scene)
from layerdet.geometry import distance_to_boundary


class TestCurves:
    def test_circle_perimeter_from_weights(self):
        scene = make_scene([make_circle((0, 0), 1.0)])
        grid = discretize(scene, 64)
        assert np.sum(grid.weights) == pytest.approx(2 * np.pi, rel=1e-12)

    def test_circle_point_is_the_closed_form_exactly(self):
        # the canonical disks' numbers rest on this route staying bitwise
        t = np.linspace(0, 2 * np.pi, 41)
        c = make_circle((0.3, -0.2), 0.7)
        assert np.array_equal(c.point(t), np.stack([0.3 + 0.7 * np.cos(t),
                                                    -0.2 + 0.7 * np.sin(t)], axis=-1))

    def test_degenerate_ellipse_is_circle(self):
        t = np.linspace(0, 2 * np.pi, 37)
        c = make_circle((0.3, -0.2), 0.7)
        e = make_ellipse((0.3, -0.2), 0.7, 0.7)
        for m in ("point", "velocity", "accel"):
            assert np.array_equal(getattr(c, m)(t), getattr(e, m)(t))

    def test_constant_polar_fourier_is_circle(self):
        t = np.linspace(0, 2 * np.pi, 29)
        c = make_circle((1.0, 2.0), 1.3)
        p = make_polar_fourier((1.0, 2.0), [1.3])
        for m in ("point", "velocity", "accel"):
            assert np.array_equal(getattr(c, m)(t), getattr(p, m)(t))

    @pytest.mark.parametrize("curve, closed_form", [
        (make_circle((0.3, -0.2), 0.8),
         lambda t: np.stack([0.3 + 0.8 * np.cos(t), -0.2 + 0.8 * np.sin(t)], axis=-1)),
        (make_ellipse((0.1, 0.2), 1.0, 0.6, 0.4),
         lambda t: np.array([0.1, 0.2]) + np.stack([np.cos(t), 0.6 * np.sin(t)], axis=-1)
         @ np.array([[np.cos(0.4), np.sin(0.4)], [-np.sin(0.4), np.cos(0.4)]])),
        (make_kite((-0.5, 0.25), 1.0),
         lambda t: np.stack([-0.5 + np.cos(t) + 0.65 * np.cos(2 * t) - 0.65,
                             0.25 + 1.5 * np.sin(t)], axis=-1)),
        (make_polar_fourier((0.2, 0.1), [1.0, 0.1], [0.05, -0.08, 0.04]),
         lambda t: np.array([0.2, 0.1]) + (1.0 + 0.1 * np.cos(t) + 0.05 * np.sin(t)
                                           - 0.08 * np.sin(2 * t) + 0.04 * np.sin(3 * t)
                                           )[:, None] * np.stack([np.cos(t), np.sin(t)], -1)),
    ], ids=["circle", "ellipse", "kite", "polar-fourier"])
    def test_derivatives_and_closed_form(self, curve, closed_form):
        t, h = np.linspace(0, 2 * np.pi, 53), 1e-5
        assert np.allclose(curve.point(t), closed_form(t), rtol=0, atol=1e-14)
        fd_v = (curve.point(t + h) - curve.point(t - h)) / (2 * h)
        fd_a = (curve.velocity(t + h) - curve.velocity(t - h)) / (2 * h)
        assert np.allclose(curve.velocity(t), fd_v, rtol=0, atol=1e-8)
        assert np.allclose(curve.accel(t), fd_a, rtol=0, atol=1e-8)
        # a scalar parameter gives one point, as an array of them gives many
        for m in (curve.point, curve.velocity, curve.accel):
            assert m(t[5]).shape == (2,) and np.array_equal(m(t[5]), m(t)[5])

    def test_closure_and_regularity(self):
        for curve in (make_kite((0, 0), 1.0),
                      make_ellipse((0, 0), 2.0, 0.5, 0.4),
                      make_polar_fourier((0, 0), [1.0, 0.2], [0.1])):
            p0 = curve.point(0.0)
            p1 = curve.point(2 * np.pi - 1e-14)
            assert np.allclose(p0, p1, atol=1e-12)
            assert np.all(curve.speed(np.linspace(0, 2 * np.pi, 500)) > 0)

    def test_bad_parameters(self):
        with pytest.raises(SceneError):
            make_circle((0, 0), -1.0)
        with pytest.raises(SceneError):
            make_ellipse((0, 0), 0.0, 1.0)
        with pytest.raises(SceneError):
            make_kite((0, 0), 0.0)
        with pytest.raises(SceneError):
            make_polar_fourier((0, 0), [0.5, 0.8])  # radius crosses zero

    @pytest.mark.parametrize("make, name", [
        (lambda: make_circle((0, 0), np.inf), "radius"),
        (lambda: make_circle((0, 0), np.nan), "radius"),
        (lambda: make_circle((np.nan, 0), 1.0), "centre"),
        (lambda: make_ellipse((0, 0), 1.0, np.nan), "b"),
        (lambda: make_ellipse((0, 0), 1.0, 0.5, np.inf), "rotation"),
        (lambda: make_kite((0, 0), np.inf), "scale"),
        (lambda: make_kite((0, -np.inf), 1.0), "centre"),
        (lambda: make_polar_fourier((0, 0), [np.nan]), "cos_coeffs"),
        (lambda: make_polar_fourier((0, 0), [1.0, 0.1], [np.nan]), "sin_coeffs"),
        (lambda: make_polar_fourier((np.inf, 0), [1.0]), "centre"),
    ], ids=["circle-inf", "circle-nan", "circle-centre", "ellipse-b", "ellipse-rotation",
            "kite-inf", "kite-centre", "polar-cos", "polar-sin", "polar-centre"])
    def test_non_finite_parameters(self, make, name):
        with pytest.raises(SceneError, match=f" {name} must be finite"):
            make()

    def test_outward_normals(self):
        kite = make_kite((0, 0), 1.0)
        scene = make_scene([kite])
        # counterclockwise orientation: (v_y, -v_x)/|v| is the outward
        # normal, so moving a little along it must increase the distance
        # to the curve
        for t in 2 * np.pi * np.array([0, 7, 20, 45]) / 64:
            v = kite.velocity(t)
            normal = np.array([v[1], -v[0]]) / np.hypot(*v)
            p_out = kite.point(t) + 1e-3 * normal
            p_in = kite.point(t) - 1e-3 * normal
            assert distance_to_boundary(scene, p_out) > \
                distance_to_boundary(scene, p_in) - 1e-9


class TestMinGap:
    def test_two_circles_collinear(self):
        scene = make_scene([make_circle((0, 0), 1.0), make_circle((4, 0), 1.0)])
        assert scene.gap == pytest.approx(2.0, abs=1e-10)

    def test_overlap_rejected(self):
        with pytest.raises(SceneError):
            make_scene([make_circle((0, 0), 1.0), make_circle((1.5, 0), 1.0)])

    def test_nesting_rejected(self):
        with pytest.raises(SceneError):
            make_scene([make_circle((0, 0), 3.0), make_circle((0, 0), 1.0)])

    def test_crossing_rejected(self):
        # neither curve's first node lies inside the other, but the
        # ellipse's top and bottom nodes lie on either side of the circle
        with pytest.raises(SceneError, match="overlap or nest"):
            make_scene([make_circle((0, 0), 1.0), make_ellipse((0, 1.2), 1.5, 0.3)])

    def test_single_obstacle_sentinel(self):
        scene = make_scene([make_circle((0, 0), 1.0)])
        assert scene.gap == np.inf

    def test_vs_brute_force(self):
        # 1e6-pair double loops: a global coarse pass plus a local zoom
        # around its argmin (still derivative-free)
        c1 = make_circle((0, 0), 1.0)
        c2 = make_kite((3.5, 0.8), 1.0)
        scene = make_scene([c1, c2])

        def pair_min(t1, t2):
            p1, p2 = c1.point(t1), c2.point(t2)
            d = np.hypot(p1[:, 0][:, None] - p2[:, 0][None, :],
                         p1[:, 1][:, None] - p2[:, 1][None, :])
            k = np.unravel_index(np.argmin(d), d.shape)
            return float(d[k]), t1[k[0]], t2[k[1]]

        t = 2 * np.pi * np.arange(1000) / 1000
        _, t1s, t2s = pair_min(t, t)
        w = 2 * np.pi / 1000
        dmin, _, _ = pair_min(np.linspace(t1s - w, t1s + w, 1000),
                              np.linspace(t2s - w, t2s + w, 1000))
        assert scene.gap == pytest.approx(dmin, abs=1e-8)
        assert scene.gap <= dmin + 1e-12


class TestDiscretize:
    def test_circle_unit_speeds(self):
        scene = make_scene([make_circle((0, 0), 1.0)])
        grid = discretize(scene, 64)
        assert np.allclose(grid.speeds, 1.0, atol=1e-15)
        assert np.allclose(grid.weights, 2 * np.pi / 64, atol=1e-16)

    def test_block_ranges(self):
        scene = make_scene([make_circle((0, 0), 1.0), make_circle((4, 0), 1.0)])
        grid = discretize(scene, (32, 48))
        assert grid.blocks == ((0, 32), (32, 80))
        assert grid.size == 80

    def test_kite_perimeter_vs_adaptive(self):
        kite = make_kite((0, 0), 1.0)
        scene = make_scene([kite])
        grid = discretize(scene, 128)
        exact, err = quad(lambda t: float(kite.speed(t)), 0.0, 2 * np.pi,
                          limit=200, epsabs=1e-13, epsrel=1e-13)
        assert err < 1e-10
        assert np.sum(grid.weights) == pytest.approx(exact, rel=1e-10)

    def test_rejects_bad_counts(self):
        scene = make_scene([make_circle((0, 0), 1.0)])
        with pytest.raises(SceneError):
            discretize(scene, 33)
        with pytest.raises(SceneError):
            discretize(scene, 8)

    @pytest.mark.parametrize("n", [32.9, np.nan, "32", (32, 40.5)],
                             ids=["fraction", "nan", "string", "one_of_two"])
    def test_rejects_non_integer_counts(self, q_assemblies, n):
        # no silent truncation: 32.9 would build 32 nodes
        scene = make_scene([make_circle((0, 0), 1.0), make_circle((4, 0), 1.0)])
        with pytest.raises(SceneError, match="even integer"):
            casimir_energy(scene, discretize(scene, n))
        assert q_assemblies[0] == 0

    def test_deterministic(self):
        scene = make_scene([make_kite((0, 0), 1.0), make_circle((4, 0), 1.0)])
        g1 = discretize(scene, 64)
        g2 = discretize(scene, 64)
        assert np.array_equal(g1.points, g2.points)
        assert np.array_equal(g1.weights, g2.weights)

    def test_distinct_distances(self, canonical_grid_64, mixed_scene, three_scene):
        # every block of the distances from its sorted distinct values and
        # index, bitwise off the diagonal and 0 on it, built once per block,
        # read-only, and block (k, j) the transpose of block (j, k)
        grids = (canonical_grid_64, discretize(mixed_scene, (48, 64)),
                 discretize(three_scene, (48, 64, 32)),
                 discretize(mixed_scene, 128).embedded(2))
        for grid in grids:
            nb = grid.scene.n_obstacles
            for j in range(nb):
                for k in range(nb):
                    values, index = grid.distinct(j, k)
                    block = grid.distances[grid.block_slice(j), grid.block_slice(k)]
                    # the diagonal of the distances is 0
                    assert np.array_equal(np.append(values, 0)[index], block)
                    assert j != k or np.all(np.diag(index) == values.size)
                    assert np.all(np.diff(values) > 0)
                    assert not values.flags.writeable and not index.flags.writeable
                    again = grid.distinct(j, k)
                    assert again[0] is values and again[1] is index
                    back = grid.distinct(k, j)
                    assert back[0] is values and np.array_equal(back[1], index.T)


class TestInvariance:
    def _rigid(self, angle, shift):
        c, s = np.cos(angle), np.sin(angle)

        def move(center):
            x, y = center
            return (c * x - s * y + shift[0], s * x + c * y + shift[1])
        return move

    def test_rigid_motion(self):
        # ellipses carry their rotation, so the whole scene moves rigidly
        angle, shift = 0.7, (3.0, -2.0)
        move = self._rigid(angle, shift)
        s1 = make_scene([make_ellipse((0, 0), 1.0, 0.6, 0.2),
                         make_ellipse((4, 0), 0.8, 1.1, -0.5)])
        s2 = make_scene([make_ellipse(move((0, 0)), 1.0, 0.6, 0.2 + angle),
                         make_ellipse(move((4, 0)), 0.8, 1.1, -0.5 + angle)])
        g1, g2 = discretize(s1, 64), discretize(s2, 64)
        d1 = np.hypot(g1.points[:, 0][:, None] - g1.points[None, :, 0],
                      g1.points[:, 1][:, None] - g1.points[None, :, 1])
        d2 = np.hypot(g2.points[:, 0][:, None] - g2.points[None, :, 0],
                      g2.points[:, 1][:, None] - g2.points[None, :, 1])
        assert np.allclose(d1, d2, atol=1e-13)
        assert np.allclose(g1.weights, g2.weights, atol=1e-14)
        assert s2.gap == pytest.approx(s1.gap, abs=1e-13)
        # set-level invariance for circles (parametrization-free quantities)
        c1 = make_scene([make_circle((0, 0), 1.0), make_circle((4, 0), 1.0)])
        c2 = make_scene([make_circle(move((0, 0)), 1.0), make_circle(move((4, 0)), 1.0)])
        assert c2.gap == pytest.approx(c1.gap, abs=1e-13)

    def test_scaling(self):
        s1 = make_scene([make_circle((0, 0), 1.0), make_circle((4, 0), 1.0)])
        s2 = make_scene([make_circle((0, 0), 2.0), make_circle((8, 0), 2.0)])
        g1, g2 = discretize(s1, 64), discretize(s2, 64)
        assert np.allclose(g2.weights, 2.0 * g1.weights, rtol=1e-15)
        assert s2.gap == pytest.approx(2.0 * s1.gap, rel=1e-12)
