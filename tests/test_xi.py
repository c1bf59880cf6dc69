import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from layerdet import (LayerDetError, PartialWaveConfig, SingularOperatorError,
                      SpectralPoint, discretize, make_circle, make_ellipse,
                      make_kite, make_polar_fourier, make_scene, trace_rrel,
                      xi_imag, xi_on_ray, xi_prime, xi_real, xi_rel,
                      xi_rel_many, xi_two_disks)


def richardson_fd(f, x, h):
    c1 = (f(x + h) - f(x - h)) / (2 * h)
    c2 = (f(x + h / 2) - f(x - h / 2)) / h
    return (4 * c2 - c1) / 3


class TestXiImag:
    def test_single_obstacle_zero(self):
        for maker in (lambda: make_circle((0, 0), 1.0),
                      lambda: make_ellipse((0, 0), 1.5, 0.7, 0.3),
                      lambda: make_kite((0, 0), 1.0)):
            scene = make_scene([maker()])
            grid = discretize(scene, 64)
            for kap in (0.1, 1.0, 10.0):
                assert abs(xi_imag(scene, grid, kap).xi) <= 1e-12

    def test_against_partial_wave(self, canonical_scene, canonical_grid_256):
        for kap in (0.1, 1.0, 3.0):
            bem = xi_imag(canonical_scene, canonical_grid_256, kap).xi.real
            pw = xi_two_disks(PartialWaveConfig(40, 1.0, 1.0, 4.0, kap))
            assert bem == pytest.approx(pw, abs=1e-8 * (1 + abs(pw)))

    def test_scaling_covariance(self, canonical_scene, canonical_grid_96):
        big = make_scene([make_circle((0, 0), 2.0), make_circle((8, 0), 2.0)])
        big_grid = discretize(big, 96)
        for kap in (0.3, 1.0, 2.5):
            a = xi_imag(big, big_grid, kap)
            b = xi_imag(canonical_scene, canonical_grid_96, 2 * kap)
            # 1e-10 relative, floored by the reported rounding estimates
            assert abs(a.xi.real - b.xi.real) <= \
                max(1e-10 * abs(b.xi.real), a.err_est + b.err_est)

    def test_permutation_invariance(self, canonical_scene, canonical_grid_96):
        swapped = make_scene([make_circle((4, 0), 1.0), make_circle((0, 0), 1.0)])
        gs = discretize(swapped, 96)
        a = xi_imag(canonical_scene, canonical_grid_96, 1.0).xi.real
        b = xi_imag(swapped, gs, 1.0).xi.real
        assert a == pytest.approx(b, abs=1e-12 * (1 + abs(a)))

    def test_rigid_motion_invariance(self):
        s1 = make_scene([make_ellipse((0, 0), 1.0, 0.6, 0.0),
                         make_ellipse((3.5, 0), 0.8, 1.1, 0.4)])
        ang, shift = 1.1, (-2.0, 0.7)
        c, s = np.cos(ang), np.sin(ang)
        mv = lambda p: (c * p[0] - s * p[1] + shift[0],   # noqa: E731
                        s * p[0] + c * p[1] + shift[1])
        s2 = make_scene([make_ellipse(mv((0, 0)), 1.0, 0.6, ang),
                         make_ellipse(mv((3.5, 0)), 0.8, 1.1, 0.4 + ang)])
        v1 = xi_imag(s1, discretize(s1, 96), 1.0).xi.real
        v2 = xi_imag(s2, discretize(s2, 96), 1.0).xi.real
        assert v2 == pytest.approx(v1, abs=1e-11 * (1 + abs(v1)))

    def test_realness(self, canonical_scene, canonical_grid_96):
        for kap in (0.2, 1.0, 4.0):
            s = xi_imag(canonical_scene, canonical_grid_96, kap)
            assert abs(s.xi.imag) <= 1e-10 * (1 + abs(s.xi))
            assert s.branch_offset == 0

    def test_exponential_decay(self, canonical_scene, canonical_grid_96):
        gap = canonical_scene.gap
        dp = 0.9 * gap
        ks = np.linspace(8 / gap, 16 / gap, 5)
        vals = [abs(xi_imag(canonical_scene, canonical_grid_96, k).xi.real)
                for k in ks]
        for i in range(len(ks) - 1):
            for j in range(i + 1, len(ks)):
                assert vals[j] <= vals[i] * np.exp(-dp * (ks[j] - ks[i])) + 1e-14

    def test_positivity_warning_fires_when_underresolved(self):
        # the kite's small near-zero eigenvalues go slightly negative once
        # kappa outruns the grid; that is reported, not raised
        import warnings as _w

        scene = make_scene([make_kite((0, 0), 1.0)])
        grid = discretize(scene, 64)
        with _w.catch_warnings():
            _w.simplefilter("error")
            with pytest.raises(RuntimeWarning, match="negative LU pivot"):
                xi_imag(scene, grid, 4.0)
        # and the value is still exactly zero for a single obstacle
        with _w.catch_warnings():
            _w.simplefilter("ignore")
            assert abs(xi_imag(scene, grid, 4.0).xi) <= 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_determinant_raises(self, q_assemblies):
        # gap 0.05: at kappa = 400, kappa r passes I0's overflow (~713) on
        # the diagonal blocks, and NaN pivots would pass the sign check
        scene = make_scene([make_circle((0, 0), 1.0), make_circle((2.05, 0), 1.0)])
        with pytest.raises(LayerDetError, match="not finite") as info:
            xi_imag(scene, discretize(scene, 64), 400.0)
        # not a singular point: nothing for a walker to deform around
        assert not isinstance(info.value, SingularOperatorError)
        assert q_assemblies[0] == 1


def _curve_maker(kind, size, shape, angle, ripple):
    """center -> a curve of the kind, its size between 0.5 and 3."""
    if kind == "circle":
        return lambda c: make_circle(c, size)
    if kind == "ellipse":
        return lambda c: make_ellipse(c, size, shape * size, angle)
    if kind == "kite":
        return lambda c: make_kite(c, 0.6 * size)
    return lambda c: make_polar_fourier(c, [size, *ripple[:2]], ripple[2:])


@st.composite
def disjoint_scenes(draw):
    """2 or 3 curve makers and their centres.  Obstacle k sits on a random
    bearing at the reach of obstacles 0..k-1 from the origin, plus its own
    bounding radius, plus a gap of 0.5-2; by the triangle inequality every
    pair is then at least that gap apart, so none overlaps or nests."""
    obstacle = st.builds(_curve_maker,
                         st.sampled_from(["circle", "ellipse", "kite", "polar-fourier"]),
                         st.floats(0.5, 1.5), st.floats(0.3, 1.0),
                         st.floats(0.0, np.pi),
                         st.lists(st.floats(-0.1, 0.1), min_size=4, max_size=4))
    makers = draw(st.lists(obstacle, min_size=2, max_size=3))
    t = 2 * np.pi * np.arange(1024) / 1024
    radii = [np.max(np.hypot(*m((0.0, 0.0)).point(t).T)) for m in makers]
    centres, reach = [(0.0, 0.0)], radii[0]
    for r in radii[1:]:
        dist = reach + r + draw(st.floats(0.5, 2.0))
        bearing = draw(st.floats(0.0, 2 * np.pi))
        centres.append((dist * np.cos(bearing), dist * np.sin(bearing)))
        reach = dist + r
    return makers, centres


class TestRandomScenes:
    # n = 32 is coarse for a kite, but every property below holds for the
    # discretized operator itself
    n = 32

    def xi(self, curves, kappa):
        scene = make_scene(curves)
        return xi_imag(scene, discretize(scene, self.n), kappa)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(scene=disjoint_scenes(), kappa=st.floats(0.1, 2.0),
           shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)))
    def test_invariances_and_nullity(self, scene, kappa, shift):
        makers, centres = scene
        base = self.xi([m(c) for m, c in zip(makers, centres)], kappa)

        def agrees(other):
            return abs(other.xi.real - base.xi.real) <= \
                max(1e-10 * abs(base.xi.real), other.err_est + base.err_est)

        assert agrees(self.xi([m(c) for m, c in zip(makers[::-1], centres[::-1])],
                              kappa))
        moved = [(x + shift[0], y + shift[1]) for x, y in centres]
        assert agrees(self.xi([m(c) for m, c in zip(makers, moved)], kappa))
        for m, c in zip(makers, centres):
            assert abs(self.xi([m(c)], kappa).xi) <= 1e-12


class TestXiPrime:
    def test_single_obstacle(self, single_disk):
        scene, grid = single_disk
        assert xi_prime(scene, grid, SpectralPoint.imaginary(1.0)) == 0

    def test_vs_finite_difference(self, canonical_scene, canonical_grid_96):
        scene, grid = canonical_scene, canonical_grid_96
        for kap in (0.5, 1.0, 2.0):
            fd = richardson_fd(lambda k: xi_imag(scene, grid, k).xi.real, kap, 2e-3)
            xp = xi_prime(scene, grid, SpectralPoint.imaginary(kap))
            # dXi/dkappa = i * Xi'(i kappa)
            assert (1j * xp).real == pytest.approx(fd, rel=1e-6)
            assert abs(xp.real) <= 1e-10 * abs(xp)
        # on a ray Xi'(lambda) = e^{-i theta} d/du Xi(u e^{i theta}), with Xi
        # on one branch-tracked walk through all difference nodes
        theta, h, us = np.pi / 8, 2e-3, (0.8, 2.0)
        nodes = [u + d for u in us for d in (-h, -h / 2, h / 2, h)]
        on_ray = dict(zip(nodes, xi_on_ray(scene, grid, theta, nodes)))
        for u in us:
            fd = np.exp(-1j * theta) * richardson_fd(on_ray.__getitem__, u, h)
            xp = xi_prime(scene, grid, SpectralPoint.ray(u, theta))
            assert abs(xp - fd) <= 1e-6 * abs(fd)

    def test_vs_finite_difference_gap_units(self, mixed_scene):
        # kappa in {0.5, 1, 2}/delta on a second shipped scene
        grid = discretize(mixed_scene, 64)
        for kap in np.array([0.5, 1.0, 2.0]) / mixed_scene.gap:
            fd = richardson_fd(lambda k: xi_imag(mixed_scene, grid, k).xi.real,
                               kap, 2e-3)
            xp = xi_prime(mixed_scene, grid, SpectralPoint.imaginary(kap))
            assert (1j * xp).real == pytest.approx(fd, rel=1e-6)

    def test_spec_example_step(self, canonical_scene, canonical_grid_96):
        # plain central difference with step 1e-4 at kappa = 1
        scene, grid = canonical_scene, canonical_grid_96
        h = 1e-4
        fd = (xi_imag(scene, grid, 1.0 + h).xi.real
              - xi_imag(scene, grid, 1.0 - h).xi.real) / (2 * h)
        xp = xi_prime(scene, grid, SpectralPoint.imaginary(1.0))
        assert (1j * xp).real == pytest.approx(fd, rel=1e-6)

    def test_decay_envelope(self, canonical_scene, canonical_grid_96):
        gap = canonical_scene.gap
        k0, k1 = 8 / gap, 16 / gap
        v0 = abs(xi_prime(canonical_scene, canonical_grid_96,
                          SpectralPoint.imaginary(k0)))
        C = v0 * np.exp(0.9 * gap * k0) * 1.02
        for k in np.linspace(k0, k1, 5)[1:]:
            v = abs(xi_prime(canonical_scene, canonical_grid_96,
                             SpectralPoint.imaginary(k)))
            assert v <= C * np.exp(-0.9 * gap * k) + 1e-14


class TestTraceRrel:
    def test_single_obstacle(self, single_disk):
        scene, grid = single_disk
        assert trace_rrel(scene, grid, SpectralPoint.imaginary(1.0)) == 0

    def test_both_paths_agree(self, canonical_scene, canonical_grid_96):
        for kap in (0.5, 1.0, 2.0):
            p1, p2 = trace_rrel(canonical_scene, canonical_grid_96,
                                SpectralPoint.imaginary(kap), both_paths=True)
            assert p2 == pytest.approx(p1, rel=1e-9)

    def test_matches_xi_prime(self, canonical_scene, canonical_grid_96):
        sp = SpectralPoint.imaginary(1.0)
        tr = trace_rrel(canonical_scene, canonical_grid_96, sp)
        xp = xi_prime(canonical_scene, canonical_grid_96, sp)
        assert tr == pytest.approx(-xp / (2 * sp.lam), rel=1e-13)

    def test_real_on_imaginary_axis(self, canonical_scene, canonical_grid_96):
        # Xi(i kappa) real in kappa forces Xi' purely imaginary there, hence
        # the trace (= -Xi'/(2 i kappa)) is real
        tr = trace_rrel(canonical_scene, canonical_grid_96,
                        SpectralPoint.imaginary(1.0))
        assert abs(tr.imag) <= 1e-12 * (1 + abs(tr))


class TestXiReal:
    def test_branch_zero_weak_coupling(self, far_scene):
        grid = discretize(far_scene, 64)
        for lam in (0.5, 2.0, 5.0):
            s = xi_real(far_scene, grid, lam)
            assert s.branch_offset == 0

    def test_envelope_far_scene(self, far_scene):
        # |Xi(lambda + i eta)| <= C e^{-delta' eta}: fit C at the smallest
        # offset, the bound must hold at the larger ones
        grid = discretize(far_scene, 64)
        dp = 0.9 * far_scene.gap
        etas = (0.05, 0.2, 0.5, 1.0)
        for lam in (0.8, 2.0):
            vals = [abs(xi_real(far_scene, grid, lam, eta=e).xi) for e in etas]
            C = vals[0] * np.exp(dp * etas[0]) * 1.05
            for e, v in zip(etas[1:], vals[1:]):
                assert v <= C * np.exp(-dp * e) + 1e-13

    def test_matches_imag_axis_limit(self, canonical_scene, canonical_grid_64):
        # approach the imaginary axis along the unwrap path: Xi at a steep
        # ray point is close to Xi(i |lambda|)
        lam = 1.0
        s = xi_real(canonical_scene, canonical_grid_64, lam, eta=50.0)
        target = xi_imag(canonical_scene, canonical_grid_64,
                         abs(lam + 50j)).xi.real
        assert s.xi.real == pytest.approx(target, rel=0.2, abs=1e-12)

    def test_single_obstacle(self, single_disk):
        scene, grid = single_disk
        s = xi_real(scene, grid, 2.0)
        assert s.xi == 0 and s.branch_offset == 0


class TestXiRel:
    def test_single_obstacle(self, single_disk):
        scene, grid = single_disk
        assert xi_rel(scene, grid, 1.0).xi_rel == 0.0

    def test_small_lambda_limit(self, canonical_scene, canonical_grid_64):
        gap = canonical_scene.gap
        tiny = abs(xi_rel(canonical_scene, canonical_grid_64, 1e-3 / gap).xi_rel)
        ref = abs(xi_rel(canonical_scene, canonical_grid_64, 0.1 / gap).xi_rel)
        assert tiny <= 10 * ref

    def test_conjugate_identity_form(self, canonical_scene, canonical_grid_64):
        # -(1/pi) Im Xi vs (i/2pi)(Xi - conj(Xi)): same number two ways
        s = xi_real(canonical_scene, canonical_grid_64, 1.3)
        a = -s.xi.imag / np.pi
        b = complex(1j / (2 * np.pi) * (s.xi - np.conj(s.xi))).real
        assert a == pytest.approx(b, abs=1e-9 * (1 + abs(a)))

    def test_near_interior_eigenvalue(self, canonical_scene, canonical_grid_64):
        # lambda^2 at the first interior Dirichlet eigenvalue of a unit disk
        # (lambda = j_{0,1}): the representation degenerates but xi_rel is
        # continuous; the eta offset plus extrapolation must survive it
        from scipy.special import jn_zeros

        lam = float(jn_zeros(0, 1)[0])
        s = xi_rel(canonical_scene, canonical_grid_64, lam)
        assert np.isfinite(s.xi_rel)
        near = xi_rel(canonical_scene, canonical_grid_64, lam + 0.02)
        assert abs(s.xi_rel - near.xi_rel) < 0.2

    def test_batch_matches_single(self, canonical_scene, canonical_grid_64):
        lams = [0.7, 1.6, 2.4]
        batch = xi_rel_many(canonical_scene, canonical_grid_64, lams)
        for lam, b in zip(lams, batch):
            single = xi_rel(canonical_scene, canonical_grid_64, lam)
            assert b.xi_rel == pytest.approx(single.xi_rel, rel=1e-6, abs=1e-9)
            assert b.lam == lam and b.eta_used > 0


class TestXiOnRay:
    def test_single_obstacle(self, single_disk):
        scene, grid = single_disk
        assert np.all(xi_on_ray(scene, grid, np.pi / 8, [0.5, 1.0]) == 0)

    def test_continuity_with_imag_axis(self, canonical_scene, canonical_grid_64):
        # steep ray (close to pi/2): values near the imaginary-axis ones
        ang = np.pi / 2 - 0.05
        us = np.array([1.0, 2.0])
        vals = xi_on_ray(canonical_scene, canonical_grid_64, ang, us)
        for u, v in zip(us, vals):
            direct = xi_imag(canonical_scene, canonical_grid_64, u).xi.real
            assert v.real == pytest.approx(direct, rel=0.25, abs=1e-10)


@pytest.fixture(scope="module")
def canonical_grid_32(canonical_scene):
    return discretize(canonical_scene, 32)


class TestWalkerPaths:
    # every walker visits a fixed path: the 25-point descent from i*Lambda
    # (or the 8-point lead-in on a ray), then its own evaluation points,
    # plus any bisections of oversized phase steps; xi_rel_many descends
    # once and then walks its three eta rays back and forth
    @pytest.mark.parametrize("call, expected", [
        (lambda s, g: xi_real(s, g, 0.7), 25),
        (lambda s, g: xi_rel(s, g, 0.7), 27),
        (lambda s, g: xi_rel_many(s, g, [0.5, 0.9, 1.3, 3.0]), 36),
        (lambda s, g: xi_on_ray(s, g, np.pi / 8, [0.5, 1.1, 2.0]), 10),
    ], ids=["xi_real", "xi_rel", "xi_rel_many", "xi_on_ray"])
    def test_q_assemblies(self, canonical_scene, canonical_grid_32,
                          q_assemblies, call, expected):
        call(canonical_scene, canonical_grid_32)
        assert q_assemblies[0] == expected

    @pytest.mark.parametrize("eta", [0.0, -1e-3], ids=["xi_real_zero",
                                                      "xi_real_negative"])
    def test_nonpositive_eta_rejected_before_walking(
            self, canonical_scene, canonical_grid_64, q_assemblies, eta):
        with pytest.raises(ValueError, match="eta"):
            xi_real(canonical_scene, canonical_grid_64, 0.7, eta=eta)
        assert q_assemblies[0] == 0

    def test_empty_sweeps(self, canonical_scene, canonical_grid_64, q_assemblies):
        assert xi_rel_many(canonical_scene, canonical_grid_64, []) == []
        vals = xi_on_ray(canonical_scene, canonical_grid_64, np.pi / 8, [])
        assert vals.shape == (0,) and vals.dtype == complex
        assert q_assemblies[0] == 0

    @settings(max_examples=5, deadline=None)
    @given(lams=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=3))
    def test_batch_matches_single_within_err_est(self, canonical_scene,
                                                 canonical_grid_32, lams):
        batch = xi_rel_many(canonical_scene, canonical_grid_32, lams)
        for lam, b in zip(lams, batch):
            single = xi_rel(canonical_scene, canonical_grid_32, lam)
            assert abs(b.xi_rel - single.xi_rel) <= b.err_est + single.err_est
