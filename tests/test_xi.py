from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import hankel1, jv, kve

from layerdet import (ConvergenceError, Curve, LayerDetError,
                      PartialWaveConfig, SingularOperatorError, SpectralPoint,
                      assemble_dq, casimir_energy, discretize, green_free, kernel, layer_ops,
                      make_circle, make_ellipse, make_kite, make_polar_fourier,
                      make_scene, trace_rrel, xi, xi_imag, xi_on_ray, xi_prime,
                      xi_real, xi_rel, xi_rel_many, xi_two_disks)
from layerdet.kernel import split_block
from layerdet.layer_ops import assemble_q, dt_dsep_levels, embedded_q, xi_levels


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
        # the energy reports it from the nodes' own grids
        scene = make_scene([make_kite((0, 0), 1.0), make_circle((4, 0), 1.0)])
        with pytest.warns(RuntimeWarning, match="negative LU pivot"):
            casimir_energy(scene, discretize(scene, 64))

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


def _similar(curve, scale, turn):
    """curve scaled by `scale` and turned by `turn` about the origin, its
    parameter shifted by `turn` as well: for a whole number of node
    spacings the nodes land on the turned curve's own nodes, as a circle's
    do, whose nodes start at angle 0 wherever its centre is.  x(t - turn)
    has the coefficients a_k cos k turn - b_k sin k turn of cos kt and
    a_k sin k turn + b_k cos k turn of sin kt."""
    c, s = np.cos(turn), np.sin(turn)
    rot = scale * np.array([[c, s], [-s, c]])      # row vectors: p @ rot
    kt = turn * np.arange(len(curve.a))[:, None]
    a = (curve.a * np.cos(kt) - curve.b * np.sin(kt)) @ rot
    b = (curve.a * np.sin(kt) + curve.b * np.cos(kt)) @ rot
    return Curve(curve.kind, tuple(np.array(curve.center) @ rot), curve.params, a, b)


class TestRandomScenes:
    # n = 32 is coarse for a kite, but every property below holds for the
    # discretized operator itself
    n = 32

    def xi(self, curves, kappa):
        scene = make_scene(curves)
        return xi_imag(scene, discretize(scene, self.n), kappa)

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(scene=disjoint_scenes(), kappa=st.floats(0.1, 2.0),
           shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           scale=st.floats(0.5, 2.0), turns=st.integers(1, n - 1))
    def test_invariances_and_nullity(self, scene, kappa, shift, scale, turns):
        makers, centres = scene
        curves = [m(c) for m, c in zip(makers, centres)]
        base = self.xi(curves, kappa)

        def agrees(other):
            return abs(other.xi.real - base.xi.real) <= \
                max(1e-10 * abs(base.xi.real), other.err_est + base.err_est)

        assert agrees(self.xi(curves[::-1], kappa))
        moved = [(x + shift[0], y + shift[1]) for x, y in centres]
        assert agrees(self.xi([m(c) for m, c in zip(makers, moved)], kappa))
        turn = 2 * np.pi * turns / self.n
        assert agrees(self.xi([_similar(c, 1.0, turn) for c in curves], kappa))
        # Xi of the scene scaled by s at i kappa / s is Xi at i kappa
        assert agrees(self.xi([_similar(c, scale, 0.0) for c in curves],
                              kappa / scale))
        for c in curves:
            assert abs(self.xi([c], kappa).xi) <= 1e-12

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(scene=disjoint_scenes(), lam=st.floats(0.1, 2.0))
    def test_walks_start_on_the_imaginary_axis(self, scene, lam):
        # the branch reached along the arc from i|z0| is the one the far
        # descent from i*Lambda, Lambda = 20 / (0.9 gap), reached before
        makers, centres = scene
        sc = make_scene([m(c) for m, c in zip(makers, centres)])
        grid = discretize(sc, self.n)
        phase = np.exp(1j * np.pi / 8)
        walks = _recorded_walks()
        with walks:
            ray = xi_on_ray(sc, grid, np.pi / 8, [lam, 0.5 * lam])
            real = xi_real(sc, grid, lam).xi
        assert len(walks.seen) == 2
        for walker, path, vals in walks.seen:
            assert path[0].real == 0 and path[0].imag > 0
            # Im Xi = 0 at the anchor, which is not evaluated
            assert path[0] not in walker.pivot_ratio
            arc = np.imag([0, *vals[:xi._ARC_STEPS]])
            assert np.all(np.abs(np.diff(arc)) <= np.pi / 8)

        ref = _walked(grid, [*_descent(lam * phase, sc.gap), 0.5 * lam * phase])
        assert np.allclose(np.imag(ref[-2:]), ray.imag, rtol=0, atol=1e-10)
        ref = _walked(grid, _descent(lam + 0j, sc.gap))
        assert abs(ref[-1].imag - real.imag) <= 1e-10


#: trace_df's u_max at t = 1 and its default theta = pi/8 for gaps up to 2:
#: sqrt(45 / (t cos(2 theta))), below 45 / (0.9 gap sin(theta))
RAY_U_MAX = float(np.sqrt(45.0 / np.cos(np.pi / 4)))
#: the canonical disks as (centre, radius) pairs, for the T-matrix reference
CANONICAL_DISKS = [((0.0, 0.0), 1.0), ((4.0, 0.0), 1.0)]

CLOSE_DISKS = ([_curve_maker("circle", 1.0, 1.0, 0.0, [0.0] * 4)] * 2,
               [(0.0, 0.0), (2.1, 0.0)])


def _amos_kernel(sp, r, deriv):
    # G on a ray, or with deriv dG/dlambda, from AMOS's hankel1
    return -0.25j * r * hankel1(1, sp.lam * r) if deriv else green_free(sp, r)


def _amos_split(sp, r, speeds, deriv):
    """split_block's (A, B) on a ray, or with deriv its lambda derivative's,
    from AMOS's jv and hankel1 at every node pair of the square, the
    diagonal's distance replaced by 1."""
    r = r + np.eye(speeds.size)
    J = -(r * jv(1, sp.lam * r)) if deriv else jv(0, sp.lam * r)
    A = -(J / (4 * np.pi)) * speeds
    return A, _amos_kernel(sp, r, deriv) * speeds - A * kernel._split_grid(speeds.size)


class TestRayExpansions:
    n = 48

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(scene=disjoint_scenes(), log_u=st.floats(np.log(1e-6), np.log(RAY_U_MAX)),
           angle=st.floats(0.0, np.pi / 2, exclude_min=True, exclude_max=True))
    @example(scene=CLOSE_DISKS, log_u=np.log(RAY_U_MAX), angle=np.pi / 8)
    @example(scene=CLOSE_DISKS, log_u=np.log(RAY_U_MAX), angle=1.5)
    @example(scene=CLOSE_DISKS, log_u=0.0, angle=0.05)
    @example(scene=CLOSE_DISKS, log_u=np.log(1e-6), angle=0.7)
    @example(scene=CLOSE_DISKS, log_u=np.log(1e-4), angle=0.7)
    def test_kernels_match_amos(self, scene, log_u, angle):
        # the ray Q's and dQ/dlambda's cross entries within 1e-13 of AMOS
        # each, and each diagonal block's A and B within 1e-13 of their
        # largest entry; the derivative's two diagonal series differ in size
        # by lambda^2 r^2 at small |lambda|, so each keeps its own digits
        makers, centres = scene
        sc = make_scene([m(c) for m, c in zip(makers, centres)])
        grid, sp = discretize(sc, self.n), SpectralPoint.ray(np.exp(log_u), angle)
        own, off = layer_ops._spans(sc)[0], ~np.eye(self.n, dtype=bool)
        for deriv, assemble in ((False, assemble_q), (True, assemble_dq)):
            q = assemble(grid, sp).entries
            for j in range(sc.n_obstacles):
                sj = grid.block_slice(j)
                for k in range(sc.n_obstacles):
                    sk = grid.block_slice(k)
                    if k != j:
                        amos = _amos_kernel(sp, grid.distances[sj, sk], deriv) * grid.weights[sk]
                        assert np.all(np.abs(q[sj, sk] - amos) <= 1e-13 * np.abs(amos))
                parts = split_block(sp, grid.distinct(j, j), grid.speeds[sj], deriv,
                                    span=own[j])
                for part, amos in zip(parts, _amos_split(sp, grid.distances[sj, sj],
                                                         grid.speeds[sj], deriv)):
                    err = np.abs(part - amos)[off].max()
                    assert err <= 1e-13 * np.abs(amos)[off].max()


class TestImaginaryCrossSeries:
    n = 48

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(["circle", "ellipse", "kite"]), min_size=2,
                          max_size=2),
           size=st.floats(0.5, 1.5), gap=st.floats(0.1, 2.0),
           bearing=st.floats(0.0, 2 * np.pi), u=st.floats(0.0, 1.0))
    @example(kinds=["circle", "circle"], size=1.0, gap=0.1, bearing=0.0, u=1.0)
    @example(kinds=["circle", "circle"], size=1.0, gap=0.1, bearing=0.0, u=0.0)
    @example(kinds=["kite", "ellipse"], size=1.5, gap=2.0, bearing=1.0, u=0.0)
    def test_entries_match_kve(self, kinds, size, gap, bearing, u):
        # every cross entry of Q and dQ/dkappa, from the series in log r on
        # the scene's span, times e^{kappa r}, within 1e-14 of AMOS's scaled
        # kve at kappa log-uniform in [KAPPA_MIN_FACTOR / gap, 70]; the
        # embedded level of Q stays bitwise the coarse grid's assembly
        makers = [_curve_maker(k, size, 0.6, 0.3, [0.0] * 4) for k in kinds]
        t = 2 * np.pi * np.arange(1024) / 1024
        dist = gap + sum(np.max(np.hypot(*m((0.0, 0.0)).point(t).T)) for m in makers)
        sc = make_scene([makers[0]((0.0, 0.0)),
                         makers[1]((dist * np.cos(bearing), dist * np.sin(bearing)))])
        kmin = kernel.KAPPA_MIN_FACTOR / sc.gap
        kappa = max(kmin, float(np.exp(np.log(kmin) + u * (np.log(70.0) - np.log(kmin)))))
        grid, sp = discretize(sc, self.n), SpectralPoint.imaginary(kappa)
        r = grid.distances[:self.n, self.n:]
        span = layer_ops._spans(sc)[1]
        for deriv in (False, True):
            scaled = kernel.offdiag_kernel(sp, r, deriv, span=span) * np.exp(kappa * r)
            amos = kve(int(deriv), kappa * r) / (2 * np.pi) * (-r if deriv else 1.0)
            assert np.all(np.abs(scaled - amos) <= 1e-14 * np.abs(amos))
        q = assemble_q(grid, sp)
        assert np.array_equal(embedded_q(q, grid.embedded(2)),
                              assemble_q(discretize(sc, self.n // 2), sp).entries)

    def test_underflow_flagged(self):
        # kappa r reaches about 1230 across unit disks at gap 0.1: the far
        # entries underflow to 0, flagged as specfun.bessel_k flags them
        sc = make_scene([make_circle((0.0, 0.0), 1.0), make_circle((2.1, 0.0), 1.0)])
        grid = discretize(sc, 32)
        with pytest.warns(RuntimeWarning, match="bessel_k underflowed to 0 beyond "
                                                "the exponential range"):
            q = assemble_q(grid, SpectralPoint.imaginary(300.0)).entries
        assert np.any(q[:32, 32:] == 0.0) and np.all(q[:32, 32:] >= 0.0)


#: node counts per obstacle: halving 18, 20 or 30 turns odd or falls below
#: 16, the others have one or more embedded sub-grids
COUNTS = [16, 18, 20, 24, 30, 32, 48, 64, 96, 128]


KITE_AND_CIRCLE = ([_curve_maker("kite", 1.0, 1.0, 0.0, [0.0] * 4),
                    _curve_maker("circle", 1.0, 1.0, 0.0, [0.0] * 4)],
                   [(0.0, 0.0), (4.0, 0.0)])


#: a spectral point of modulus kappa on each axis
AXES = {"imaginary": SpectralPoint.imaginary,
        "ray": lambda kappa: SpectralPoint.ray(kappa, np.pi / 5),
        "real": lambda kappa: SpectralPoint.from_complex(kappa)}


class TestEmbeddedLevels:
    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(scene=disjoint_scenes(), kappa=st.floats(0.01, 6.0),
           counts=st.lists(st.sampled_from(COUNTS), min_size=3, max_size=3),
           axis=st.sampled_from(sorted(AXES)))
    # mixed counts: one level (64, 24), none at (32, 12); and none at all
    @example(scene=KITE_AND_CIRCLE, kappa=2.0, counts=[128, 48, 16], axis="imaginary")
    @example(scene=KITE_AND_CIRCLE, kappa=0.5, counts=[64, 30, 16], axis="imaginary")
    @example(scene=KITE_AND_CIRCLE, kappa=2.0, counts=[128, 48, 16], axis="ray")
    @example(scene=KITE_AND_CIRCLE, kappa=1.5, counts=[64, 64, 16], axis="real")
    def test_bitwise_the_coarse_assembly(self, scene, kappa, counts, axis):
        # every embedded level of Q, its factored pair and dT/ds, on the
        # imaginary axis, a ray or the real axis, is the one on the grid of
        # every 2^k-th node, bitwise; a stride at which a count would turn
        # odd or fall below 16 has no level
        makers, centres = scene
        sc = make_scene([m(c) for m, c in zip(makers, centres)])
        ns = counts[:sc.n_obstacles]
        grid, sp, e = discretize(sc, ns), AXES[axis](kappa), (0.6, 0.8)
        q = assemble_q(grid, sp)
        stride, subs, refs = 2, [], []
        while all(n % stride == 0 and (n // stride) % 2 == 0 and n // stride >= 16
                  for n in ns):
            sub, ref = grid.embedded(stride), discretize(sc, [n // stride for n in ns])
            assert np.array_equal(embedded_q(q, sub), assemble_q(ref, sp).entries)
            assert np.array_equal(dt_dsep_levels([grid, sub], sp, e)[1],
                                  dt_dsep_levels([ref], sp, e)[0])
            subs.append(sub)
            refs.append(ref)
            stride *= 2
        assert grid.embedded(stride) is None
        for level, ref in zip(xi_levels(grid, sp, subs)[1:], refs):
            assert level == xi_levels(ref, sp)[0]

    # of 64 nodes per disk: 48 per disk is no stride's grid (96 does not
    # divide 128), and 16 + 48 is half the size but not every other node
    @pytest.mark.parametrize("counts", [48, [16, 48]], ids=["size", "split"])
    @pytest.mark.parametrize("level", [
        lambda grid, sub, sp: embedded_q(assemble_q(grid, sp), sub),
        lambda grid, sub, sp: dt_dsep_levels([grid, sub], sp, (1.0, 0.0)),
    ], ids=["embedded_q", "dt_dsep_levels"])
    def test_rejects_a_grid_that_is_not_embedded(self, canonical_scene, level, counts):
        grid, sub = discretize(canonical_scene, 64), discretize(canonical_scene, counts)
        with pytest.raises(ValueError, match="not an embedded sub-grid"):
            level(grid, sub, SpectralPoint.imaginary(1.0))


def _descent(target, gap):
    """The 25-point descent from i*Lambda, Lambda = 20 / (0.9 gap), along a
    log-spiral to target: a reference path for the branch."""
    far = 20.0 / (0.9 * gap)
    u = np.linspace(0.0, 1.0, 25)
    ang = 0.5 * np.pi + (np.angle(target) - 0.5 * np.pi) * u
    return [*(far * (abs(target) / far) ** u * np.exp(1j * ang))[:-1], target]


def _xi_at(scene, grid, z):
    """Xi at z in the open upper half plane, by `xi_on_ray` on z's ray."""
    return xi_on_ray(scene, grid, np.arctan2(z.imag, z.real), [abs(z)])[0]


def _walked(grid, path):
    """Xi at path[1:] by one walk on grid from path[0], a point of the
    imaginary axis, where Im Xi = 0, not evaluated."""
    walker = xi._walker(None, grid, path[1], anchor=(path[0], 0j))
    return [walker.step(z)[0] for z in path[1:]]


class _recorded_walks(pytest.MonkeyPatch):
    """Context in which every walk is kept in .seen as (walker, path,
    values): the path from the walk's start, values at path[1:]."""

    def __enter__(self):
        self.seen, init, step = [], xi._Unwrapper.__init__, xi._Unwrapper.step

        def recorded_init(walker, grid, last):
            init(walker, grid, last)
            self.seen.append((walker, [last[0]], []))

        def recorded_step(walker, z, *args):
            vals = step(walker, z, *args)
            _, path, values = next(w for w in self.seen if w[0] is walker)
            path.append(z)
            values.append(vals[0])
            return vals

        self.setattr(xi._Unwrapper, "__init__", recorded_init)
        self.setattr(xi._Unwrapper, "step", recorded_step)
        return self

    def __exit__(self, *exc):
        self.undo()


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

    def test_vs_finite_difference_three_obstacles(self, three_scene):
        # Qtilde^{-1} applied block by block on three unlike blocks
        scene, grid = three_scene, discretize(three_scene, (48, 64, 32))
        for kap in (0.5, 1.0):
            fd = richardson_fd(lambda k: xi_imag(scene, grid, k).xi.real, kap, 2e-3)
            xp = xi_prime(scene, grid, SpectralPoint.imaginary(kap))
            assert (1j * xp).real == pytest.approx(fd, rel=1e-6)
        theta, h, u = np.pi / 8, 2e-3, 0.8
        nodes = [u + d for d in (-h, -h / 2, h / 2, h)]
        on_ray = dict(zip(nodes, xi_on_ray(scene, grid, theta, nodes)))
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

    def test_both_paths_agree_three_obstacles(self, three_scene):
        grid = discretize(three_scene, (48, 64, 32))
        for sp in (SpectralPoint.imaginary(0.7), SpectralPoint.ray(1.5, np.pi / 5)):
            p1, p2 = trace_rrel(three_scene, grid, sp, both_paths=True)
            assert abs(p2 - p1) <= 1e-9 * abs(p1)

    def test_solves_at_obstacle_block_cost(self, canonical_scene, three_scene, lu_solves):
        # block elimination at obstacle 0's own block: LUs of each obstacle's
        # block and of the Schur complement of the first, on two disks all
        # three at n and nothing at N = 2n, and on three obstacles the blocks
        # at 48, 64 and 32 and the complement at 64 + 32; no solve against Q
        n = 48
        cases = ((canonical_scene, n, {n: 3}),
                 (three_scene, (48, 64, 32), {48: 1, 64: 1, 32: 1, 96: 1}))
        for scene, counts, lus in cases:
            grid = discretize(scene, counts)
            for sp in (SpectralPoint.imaginary(1.0), SpectralPoint.ray(1.0, np.pi / 8)):
                for call in (lambda: trace_rrel(scene, grid, sp, both_paths=True),
                             lambda: xi_prime(scene, grid, sp)):
                    lu_solves[0].clear()
                    lu_solves[1].clear()
                    call()
                    assert lu_solves[0] == lus
                    assert lu_solves[1] and set(lu_solves[1]) <= set(lus)

    def test_dsep_at_obstacle_block_cost(self, canonical_scene, lu_solves):
        # dXi/ds by block elimination: two LUs at n per level, none at 2n
        grid = discretize(canonical_scene, 64)
        xi._xi_dsep_levels(canonical_scene, grid, 1.0, [grid.embedded(2), grid.embedded(4)])
        assert lu_solves[0] == {64: 2, 32: 2, 16: 2}
        assert set(lu_solves[1]) == {64, 32, 16}

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
            vals = [abs(_xi_at(far_scene, grid, lam + 1j * e)) for e in etas]
            C = vals[0] * np.exp(dp * etas[0]) * 1.05
            for e, v in zip(etas[1:], vals[1:]):
                assert v <= C * np.exp(-dp * e) + 1e-13

    def test_matches_imag_axis_limit(self, canonical_scene, canonical_grid_64):
        # approach the imaginary axis along the unwrap path: Xi at a steep
        # ray point is close to Xi(i |lambda|)
        lam = 1.0
        val = _xi_at(canonical_scene, canonical_grid_64, lam + 50j)
        target = xi_imag(canonical_scene, canonical_grid_64,
                         abs(lam + 50j)).xi.real
        assert val.real == pytest.approx(target, rel=0.2, abs=1e-12)

    def test_single_obstacle(self, single_disk):
        scene, grid = single_disk
        s = xi_real(scene, grid, 2.0)
        assert s.xi == 0 and s.branch_offset == 0 and s.err_est == 0

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("which", ["canonical", "three"])
    def test_meets_tmatrix_reference(self, canonical_scene, three_disks, tmatrix_xi,
                                     which, n):
        # Xi(lambda + i0) at 0.7, 1.9 and 3.3 and at each disk's j_{0,1} / a
        # and j_{1,1} / a, read from the real-axis neighbours: Re and Im
        # (modulo 2 pi) within err_est of the T-matrix value (2.9e-13 and
        # 9.7e-14 off at worst), and -Im / pi is xi_rel's value, bitwise
        from scipy.special import jn_zeros

        disks, scene = ((CANONICAL_DISKS, canonical_scene) if which == "canonical"
                        else three_disks)
        grid = discretize(scene, n)
        lams = [0.7, 1.9, 3.3, *(float(jn_zeros(order, 1)[0]) / a
                                 for _, a in disks for order in (0, 1))]
        for lam in lams:
            s, ref = xi_real(scene, grid, lam), tmatrix_xi(disks, lam)
            assert abs(s.xi.real - ref.real) <= s.err_est
            assert abs(np.angle(np.exp(1j * (s.xi.imag - ref.imag)))) <= s.err_est
            assert -s.xi.imag / np.pi == xi_rel(scene, grid, lam).xi_rel


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
        # continuous; the reading from the real-axis neighbours must survive it
        from scipy.special import jn_zeros

        lam = float(jn_zeros(0, 1)[0])
        s = xi_rel(canonical_scene, canonical_grid_64, lam)
        assert np.isfinite(s.xi_rel)
        near = xi_rel(canonical_scene, canonical_grid_64, lam + 0.02)
        assert abs(s.xi_rel - near.xi_rel) < 0.2

    def test_batch_matches_single(self, canonical_scene, canonical_grid_64):
        # both assemble Q at the same real lambda: bitwise equal
        lams = [0.7, 1.6, 2.4]
        batch = xi_rel_many(canonical_scene, canonical_grid_64, lams)
        for lam, b in zip(lams, batch):
            single = xi_rel(canonical_scene, canonical_grid_64, lam)
            assert b == single
            assert b.lam == lam

    @pytest.mark.parametrize("order", [0, 1], ids=["j01", "j11"])
    def test_interior_eigenvalue_falls_back_to_rays(
            self, canonical_scene, canonical_grid_64, order):
        # (named for the ray fallback this replaced) at a unit disk's
        # Dirichlet eigenvalue Q(lambda) is singular to working precision and
        # the direct value is off by ~1e-2; the point is read from direct
        # values on the real axis around it, and matches the direct values a
        # little way off the eigenvalue on either side
        from scipy.special import jn_zeros

        lam = float(jn_zeros(order, 1)[0])
        s = xi_rel(canonical_scene, canonical_grid_64, lam)
        sides = xi_rel_many(canonical_scene, canonical_grid_64,
                            [lam - 1e-5, lam + 1e-5])
        assert abs(s.xi_rel - 0.5 * (sides[0].xi_rel + sides[1].xi_rel)) <= 1e-7

    @pytest.mark.parametrize("order", [0, 1], ids=["j01", "j11"])
    def test_ray_fallback_err_est_tracks_its_error(
            self, canonical_scene, canonical_grid_128, tmatrix_xi_rel, order):
        # (named for the ray fallback this replaced) against the T-matrix
        # value: within err_est, and err_est at most 1e-12 from n = 64 on;
        # at n = 32 the grid's own error near the eigenvalue (5e-13 to
        # 1.2e-12) dominates, and the value is within 2e-12.  j_{1,1} is a
        # double eigenvalue of each disk (m = +-1)
        from scipy.special import jn_zeros

        lam = float(jn_zeros(order, 1)[0])
        ref = tmatrix_xi_rel(CANONICAL_DISKS, lam)
        for n in (32, 64, 128):
            grid = canonical_grid_128 if n == 128 else discretize(canonical_scene, n)
            s = xi_rel(canonical_scene, grid, lam)
            err = abs(s.xi_rel - ref)
            assert err <= s.err_est
            assert (err <= 2e-12) if n == 32 else (s.err_est <= 1e-12)

    def test_interior_eigenvalue_inside_a_sweep(self, canonical_scene, canonical_grid_128,
                                                tmatrix_xi_rel):
        # j_{1,1} added to a 15-point sweep: the other points stay bitwise the
        # sweep without it, and it is within its err_est of the T-matrix value
        from scipy.special import jn_zeros

        lams, lam = list(np.linspace(0.5, 8.0, 15)), float(jn_zeros(1, 1)[0])
        plain = xi_rel_many(canonical_scene, canonical_grid_128, lams)
        *rest, s = xi_rel_many(canonical_scene, canonical_grid_128, [*lams, lam])
        assert rest == plain
        assert abs(s.xi_rel - tmatrix_xi_rel(CANONICAL_DISKS, lam)) <= s.err_est <= 1e-12

    def test_three_disks_interior_eigenvalues(self, three_disks, tmatrix_xi_rel):
        # j_{0,1} / a and j_{1,1} / a of each of three disks, in one sweep
        from scipy.special import jn_zeros

        disks, scene = three_disks
        lams = [float(jn_zeros(order, 1)[0]) / a for _, a in disks for order in (0, 1)]
        for lam, s in zip(lams, xi_rel_many(scene, discretize(scene, 64), lams)):
            assert abs(s.xi_rel - tmatrix_xi_rel(disks, lam)) <= s.err_est <= 1e-12

    @pytest.mark.parametrize("n", [64, 128])
    @pytest.mark.parametrize("which", ["canonical", "three"])
    def test_sweep_meets_tmatrix_reference(self, canonical_scene, three_disks,
                                           tmatrix_xi_rel, which, n):
        # direct real-axis values on 16 points of [0.5, 8] (6 among them)
        # and at 0.7, 1.9 and 3.3, away from the interior Dirichlet
        # eigenvalues, within their err_est of the T-matrix values (4.0e-15
        # and 5.8e-15 at worst)
        disks, scene = ((CANONICAL_DISKS, canonical_scene) if which == "canonical"
                        else three_disks)
        lams = np.union1d(np.linspace(0.5, 8.0, 16), [0.7, 1.9, 3.3])
        for lam, s in zip(lams, xi_rel_many(scene, discretize(scene, n), lams)):
            assert abs(s.xi_rel - tmatrix_xi_rel(disks, lam)) <= s.err_est

    def test_singular_real_target_falls_back_to_rays(
            self, canonical_scene, canonical_grid_32, monkeypatch):
        # (named for the ray fallback this replaced) an exactly singular Q at
        # a real target is read from its real-axis neighbours, not reported
        # as a value from a point moved off the axis
        lam, xi_levels = 0.9, xi.xi_levels

        def singular_at_lam(grid, sp, subgrids=()):
            if sp.axis == "real" and sp.value == lam:
                raise SingularOperatorError("exactly singular pivot")
            return xi_levels(grid, sp, subgrids)

        direct = xi_rel_many(canonical_scene, canonical_grid_32, [1.3, lam, 0.5])
        monkeypatch.setattr(xi, "xi_levels", singular_at_lam)
        batch = xi_rel_many(canonical_scene, canonical_grid_32, [1.3, lam, 0.5])
        assert abs(batch[1].xi_rel - direct[1].xi_rel) <= batch[1].err_est
        assert batch[0] == direct[0] and batch[2] == direct[2]

    def test_direct_value_converged_to_its_err_est(self, canonical_scene,
                                                   canonical_grid_64):
        # the direct value is the same at n = 64 and n = 128 to 1e-12, and
        # err_est covers the change
        lam = 2.0
        a = xi_rel(canonical_scene, canonical_grid_64, lam)
        b = xi_rel(canonical_scene, discretize(canonical_scene, 128), lam)
        diff = abs(a.xi_rel - b.xi_rel)
        assert diff <= 1e-12
        assert diff <= a.err_est <= 1e-12 and diff <= b.err_est <= 1e-12


class TestXiOnRay:
    def test_single_obstacle(self, single_disk):
        scene, grid = single_disk
        assert np.all(xi_on_ray(scene, grid, np.pi / 8, [0.5, 1.0]) == 0)

    @pytest.mark.parametrize("which", ["canonical", "three"])
    def test_meets_tmatrix_reference(self, canonical_scene, three_disks, tmatrix_xi,
                                     which):
        # Xi on the ray at angle pi/8 against the T-matrix value there, Re
        # directly and Im modulo 2 pi (4.0e-14 off at worst)
        disks, scene = ((CANONICAL_DISKS, canonical_scene) if which == "canonical"
                        else three_disks)
        us = [0.7, 1.9, 3.3]
        for u, v in zip(us, xi_on_ray(scene, discretize(scene, 64), np.pi / 8, us)):
            ref = tmatrix_xi(disks, u * np.exp(1j * np.pi / 8))
            assert abs(v.real - ref.real) <= 1e-11
            assert abs(np.angle(np.exp(1j * (v.imag - ref.imag)))) <= 1e-11

    @pytest.mark.parametrize("j", [0, 1])
    def test_singular_obstacle_block_deforms_the_path(self, canonical_scene,
                                                      canonical_grid_32, monkeypatch, j):
        # an exactly singular own block of obstacle j, A (j = 0) or Q_11,
        # raises in xi_levels and the walker moves that point off the ray
        z = 1.5 * np.exp(1j * np.pi / 8)
        sp, q_levels = SpectralPoint.from_complex(z), layer_ops.q_levels
        plain = xi._walker(canonical_scene, canonical_grid_32, z).step(z)[0]

        def singular_block(grid, at, subgrids=()):
            out = q_levels(grid, at, subgrids)
            if at == sp:
                out[0][grid.blocks[j][0], slice(*grid.blocks[j])] = 0
            return out

        monkeypatch.setattr(layer_ops, "q_levels", singular_block)
        with pytest.raises(SingularOperatorError):
            xi_levels(canonical_grid_32, sp)
        walker = xi._walker(canonical_scene, canonical_grid_32, z)
        moved = walker.step(z)[0]
        assert walker.pivot_ratio[z] == 0.0
        assert 0 < abs(moved - plain) <= 1e-2 * abs(plain)

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


@pytest.fixture(scope="module")
def canonical_grid_128(canonical_scene):
    return discretize(canonical_scene, 128)


class TestWalkerPaths:
    # every walker visits a fixed path: from the anchor i|z0| on the
    # imaginary axis, which is not evaluated, 4 arc steps at modulus |z0| to
    # its first point z0, then its own evaluation points, plus any
    # bisections of oversized phase steps; xi_rel and xi_rel_many walk down
    # the real axis from one arc
    @pytest.mark.parametrize("call, expected", [
        (lambda s, g: xi_real(s, g, 0.7), 4),
        (lambda s, g: xi_rel(s, g, 0.7), 4),
        (lambda s, g: xi_rel_many(s, g, [0.5, 0.9, 1.3, 3.0]), 7),
        (lambda s, g: xi_on_ray(s, g, np.pi / 8, [0.5, 1.1, 2.0]), 6),
    ], ids=["xi_real", "xi_rel", "xi_rel_many", "xi_on_ray"])
    def test_q_assemblies(self, canonical_scene, canonical_grid_32,
                          q_assemblies, call, expected):
        call(canonical_scene, canonical_grid_32)
        assert q_assemblies[0] == expected

    def test_bisected_points_evaluated_once(self, monkeypatch):
        # Im Xi = 4 Re z: the step from the anchor 1j to 1 + 1j bisects
        # down to quarter steps, four distinct points in all
        calls = []

        def stub(walker, z, grid, subgrids=()):
            calls.append(z)
            return [4j * z.real]

        monkeypatch.setattr(xi._Unwrapper, "_eval", stub)
        walker = xi._walker(None, None, 1 + 1j, anchor=(1j, 0j))
        assert walker.step(1 + 1j) == [4j]
        assert len(calls) == len(set(calls)) == 4

    def test_budget_bounds_the_evaluations(self, monkeypatch):
        # Im Xi = (pi/3) Re z: a step of 2^k units, k >= 1, leaves a phase
        # residual of 2 pi/3 after absorbing 2 pi multiples, so the step
        # from 1j to 1024 + 1j bisects down to 1024 unit steps, more than
        # the 600 + 30 evaluations a walk of one step may make
        monkeypatch.setattr(xi, "xi_levels", lambda grid, sp, subgrids=(): [
            SimpleNamespace(xi=1j * np.pi / 3 * sp.lam.real, pivot_ratio=1.0, scale=0.0)])
        walker = xi._walker(None, None, 1024 + 1j, anchor=(1j, 0j))
        with pytest.raises(ConvergenceError, match="budget of 630 evaluations exceeded"):
            walker.step(1024 + 1j)
        assert walker.evals == 630

    def test_first_step_held_to_the_axis_branch(self, canonical_scene,
                                                canonical_grid_32, monkeypatch):
        # Im Xi = pi next to the axis contradicts Im Xi = 0 on it (as a
        # negative determinant sign product there would): the walk's first
        # arc step bisects toward its start on the axis and raises rather
        # than start on the Im Xi = pi branch
        monkeypatch.setattr(xi._Unwrapper, "_eval",
                            lambda walker, z, grid, subgrids=(): [np.pi * 1j])
        with pytest.raises(ConvergenceError, match="refined"):
            xi_real(canonical_scene, canonical_grid_32, 0.7)

    def test_below_kappa_min(self, canonical_scene, canonical_grid_32):
        # lambda below kappa_min = 1e-6 / gap: the walk stays off the axis,
        # where the real assembly would refuse kappa < kappa_min
        lam = 1e-8
        val = xi_real(canonical_scene, canonical_grid_32, lam).xi
        ref = _walked(canonical_grid_32, _descent(lam + 0j, canonical_scene.gap))
        assert abs(val.imag - ref[-1].imag) <= 1e-10

    def test_far_target_meets_the_axis_at_kappa_max(self):
        # u = 45 / (0.9 gap sin(pi/8)), trace_df's u_max for a small t on a
        # close pair: the walk reaches the axis at kappa_max = 30 / (0.9
        # gap), where i0(kappa r) is finite, and goes out along the ray
        sc = make_scene([make_circle((0, 0), 1.0), make_circle((2.2, 0), 1.0)])
        grid = discretize(sc, 32)
        u = 45.0 / (0.9 * sc.gap * np.sin(np.pi / 8))
        walks = _recorded_walks()
        with walks:
            vals = xi_on_ray(sc, grid, np.pi / 8, [u, 0.5 * u])
        assert np.all(np.isfinite(vals))
        (walker, path, _), = walks.seen
        kappa_max = 30.0 / (0.9 * sc.gap)
        assert path[0] == pytest.approx(1j * kappa_max, rel=1e-15)
        assert path[0] not in walker.pivot_ratio
        assert max(abs(np.array(path))) == pytest.approx(u, rel=1e-15)

    @pytest.mark.parametrize("call, message", [
        pytest.param(lambda s, g: xi_on_ray(s, g, -0.3, [1.0]),
                     r"^ray angle -0.3 must lie in \(0, pi/2\)", id="ray_angle_negative"),
        pytest.param(lambda s, g: xi_on_ray(s, g, np.nan, [1.0]),
                     r"^ray angle nan must lie in \(0, pi/2\)", id="ray_angle_nan"),
        pytest.param(lambda s, g: xi_on_ray(s, g, np.pi / 2, [1.0]),
                     r"^ray angle 1.57\d* must lie in \(0, pi/2\)", id="ray_angle_half_pi"),
        pytest.param(lambda s, g: xi_on_ray(s, g, np.pi / 8, [1.0, np.nan]),
                     "^ray moduli must be positive and finite", id="ray_modulus_nan"),
        pytest.param(lambda s, g: xi_on_ray(s, g, np.pi / 8, [np.inf]),
                     "^ray moduli must be positive and finite", id="ray_modulus_inf"),
        pytest.param(lambda s, g: xi_rel_many(s, g, [0.5, np.nan]),
                     "^lambda grid must be positive and finite", id="xi_rel_many_nan"),
        pytest.param(lambda s, g: xi_rel_many(s, g, [np.inf, 0.5]),
                     "^lambda grid must be positive and finite", id="xi_rel_many_inf"),
        pytest.param(lambda s, g: xi_real(s, g, np.nan),
                     "^lam must be positive and finite", id="xi_real_lam_nan"),
        pytest.param(lambda s, g: xi_real(s, g, np.inf),
                     "^lam must be positive and finite", id="xi_real_lam_inf"),
    ])
    def test_bad_input_rejected_before_walking(self, canonical_scene, canonical_grid_32,
                                               q_assemblies, call, message):
        with pytest.raises(ValueError, match=message):
            call(canonical_scene, canonical_grid_32)
        assert q_assemblies[0] == 0

    def test_empty_sweeps(self, canonical_scene, canonical_grid_64, q_assemblies):
        assert xi_rel_many(canonical_scene, canonical_grid_64, []) == []
        vals = xi_on_ray(canonical_scene, canonical_grid_64, np.pi / 8, [])
        assert vals.shape == (0,) and vals.dtype == complex
        assert q_assemblies[0] == 0

    @settings(max_examples=5, deadline=None)
    @given(lams=st.lists(st.floats(0.3, 3.0), min_size=1, max_size=3))
    def test_batch_matches_ray_richardson_within_err_est(
            self, canonical_scene, canonical_grid_32, lams):
        # an independent value: -(1/pi) Im Xi(lambda + i eta) on the rays
        # through eta in {4, 2, 1} * 1e-3 lambda, Richardson-extrapolated to
        # eta -> 0
        batch = xi_rel_many(canonical_scene, canonical_grid_32, lams)
        for lam, b in zip(lams, batch):
            f4, f2, f1 = (-_xi_at(canonical_scene, canonical_grid_32,
                                  lam + 1j * k * 1e-3 * lam).imag / np.pi
                          for k in (4, 2, 1))
            g2, g1 = 2 * f2 - f4, 2 * f1 - f2
            rich = (4 * g1 - g2) / 3
            assert abs(b.xi_rel - rich) <= abs(rich - g1) + b.err_est
