import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import leggauss

from layerdet import (ConvergenceError, LayerDetError, PartialWaveConfig, QuadConfig,
                      SmoothFunctionSpec, UnresolvedGridError, birman_krein_trace,
                      casimir_energy, casimir_force, default_l_max, discretize,
                      make_circle, make_ellipse, make_scene, power_trace, trace_df,
                      xi_imag, xi_on_ray, xi_two_disks)
from layerdet.energy import _Levels
from layerdet.kernel import KAPPA_MIN_FACTOR
from layerdet.layer_ops import XiLevel
from layerdet.xi import _DELTA_PRIME_FRACTION, _xi_dsep_levels


def disk_pair(sep, radius=1.0):
    return make_scene([make_circle((0.0, 0.0), radius),
                       make_circle((sep, 0.0), radius)])


def default_kappa_range(scene):
    return KAPPA_MIN_FACTOR / scene.gap, 30.0 / (_DELTA_PRIME_FRACTION * scene.gap)


@pytest.fixture(scope="module")
def energy_gap2(canonical_scene, canonical_grid_64):
    return casimir_energy(canonical_scene, canonical_grid_64)


class TestCasimirEnergy:
    def test_negative_and_monotone_in_gap(self, energy_gap2):
        scene3 = disk_pair(5.0)   # gap 3
        e3 = casimir_energy(scene3, discretize(scene3, 64))
        assert energy_gap2.value < 0
        assert e3.value < 0
        assert abs(e3.value) < abs(energy_gap2.value)

    def test_scaling_halves(self, energy_gap2):
        big = make_scene([make_circle((0, 0), 2.0), make_circle((8, 0), 2.0)])
        e_big = casimir_energy(big, discretize(big, 64))
        assert e_big.value == pytest.approx(energy_gap2.value / 2.0, rel=1e-6)

    def test_single_obstacle_zero(self, single_disk):
        scene, grid = single_disk
        assert casimir_energy(scene, grid).value == 0.0

    def test_error_fields(self, canonical_scene, canonical_grid_64, q_assemblies):
        energy = casimir_energy(canonical_scene, canonical_grid_64)
        assert energy.quad_err >= 0
        assert energy.tail_bound >= 0
        assert np.isfinite(energy.value)
        # one sample per Xi evaluation, on distinct sorted nodes spanning
        # exactly [kappa_min, kappa_max]
        kappas = np.array([k for k, _ in energy.samples])
        assert kappas.size == q_assemblies[0]
        assert np.all(np.diff(kappas) > 0)
        assert (kappas[0], kappas[-1]) == default_kappa_range(canonical_scene)

    def test_evaluation_count_and_oracle_error(self, canonical_scene,
                                               canonical_grid_64, q_assemblies,
                                               partial_wave_energy):
        # nested Clenshaw-Curtis levels 16, 32, 64 and at most 128
        energy = casimir_energy(canonical_scene, canonical_grid_64)
        assert q_assemblies[0] <= 129
        # (1/pi) * integral of the partial-wave Xi over the same kappa range
        oracle = partial_wave_energy(2.0 + canonical_scene.gap,
                                     default_kappa_range(canonical_scene))
        true_err = abs(energy.value - oracle)
        assert true_err <= 1e-8
        assert energy.quad_err >= true_err

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_xi_fails_in_first_level(self, q_assemblies):
        # gap 0.05: kappa_max r reaches ~1370, past I0's overflow (~713);
        # the seed rule's 5 nodes include kappa_max
        scene = disk_pair(2.05)
        with pytest.raises(LayerDetError, match="not finite"):
            casimir_energy(scene, discretize(scene, 64))
        assert q_assemblies[0] <= 5

    def test_disagreeing_signs_raise(self, canonical_scene, canonical_grid_64,
                                     monkeypatch):
        # det Q and det Qtilde of opposite signs at every kappa
        kappas = []

        def xi_levels(grid, sp, subgrids=()):
            kappas.append(sp.value)
            return [XiLevel(0.5 + 0j, (1.0, -1.0), 1.0, 1.0)] * (1 + len(subgrids))

        monkeypatch.setattr("layerdet.xi.xi_levels", xi_levels)
        with pytest.raises(LayerDetError, match=r"\(signs 1\.0, -1\.0\)"):
            xi_imag(canonical_scene, canonical_grid_64, 1.0)
        kappas.clear()
        with pytest.raises(LayerDetError) as info:
            casimir_energy(canonical_scene, canonical_grid_64)
        assert len(kappas) == 1
        assert str(info.value).endswith(f"on the imaginary axis at kappa = {kappas[0]}")

    def test_tail_honesty(self, canonical_scene, canonical_grid_64, energy_gap2):
        # the integral over the next half of kappa_max, by a 32-node Gauss
        # rule, stays within tail_bound
        _, kappa_max = default_kappa_range(canonical_scene)
        x, w = leggauss(32)
        kappas = kappa_max * (1.25 + 0.25 * x)
        xi = [xi_imag(canonical_scene, canonical_grid_64, k).xi.real for k in kappas]
        extension = 0.25 * kappa_max * np.dot(w, xi) / np.pi
        assert abs(extension) <= energy_gap2.tail_bound

    def test_quadrature_self_consistency(self, canonical_scene, canonical_grid_64,
                                         energy_gap2):
        # an independent 96-node Gauss rule in log kappa on the same samples
        # of xi_imag agrees within quad_err
        lo, hi = np.log(default_kappa_range(canonical_scene))
        x, w = leggauss(96)
        kappas = np.exp(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
        xi = [xi_imag(canonical_scene, canonical_grid_64, k).xi.real for k in kappas]
        gauss = 0.5 * (hi - lo) * np.dot(w, kappas * np.array(xi)) / np.pi
        assert abs(gauss - energy_gap2.value) <= energy_gap2.quad_err


class TestDiscretizationError:
    # each node is evaluated on the coarsest embedded grid whose estimate
    # |v_m - v_{m/2}| resolves it; disc_err integrates those estimates
    @pytest.mark.parametrize("n", [64, 128])
    def test_error_terms_cover_the_oracle(self, canonical_scene, n,
                                          partial_wave_energy):
        energy = casimir_energy(canonical_scene, discretize(canonical_scene, n))
        oracle = partial_wave_energy(2.0 + canonical_scene.gap,
                                     default_kappa_range(canonical_scene))
        assert energy.disc_err > 0
        assert abs(energy.value - oracle) <= \
            energy.quad_err + energy.disc_err + energy.tail_bound

    def test_force_error_terms_cover_the_reference(self, canonical_scene,
                                                   canonical_force_reference):
        force = casimir_force(canonical_scene, discretize(canonical_scene, 128))
        assert abs(force.value - canonical_force_reference) <= \
            force.quad_err + force.disc_err + force.tail_bound

    def test_bounds_the_grid_error(self, mixed_scene, partial_wave_energy):
        # kite + circle against n = 256; unit disks at gap 1 against the
        # partial-wave energy (n = 256 does not resolve them everywhere)
        e64 = casimir_energy(mixed_scene, discretize(mixed_scene, 64))
        e256 = casimir_energy(mixed_scene, discretize(mixed_scene, 256))
        assert e64.disc_err >= abs(e64.value - e256.value)
        disks = disk_pair(3.0)
        e64 = casimir_energy(disks, discretize(disks, 64))
        oracle = partial_wave_energy(3.0, default_kappa_range(disks))
        assert e64.disc_err >= abs(e64.value - oracle)

    def test_no_sub_grid_no_estimate(self, canonical_scene, q_assemblies):
        # halving 18 gives an odd count and 20 one below 16: every node
        # stays on the caller's grid, and disc_err says it was not estimated
        for ns in ((40, 18), (32, 20)):
            grid = discretize(canonical_scene, ns)
            q_assemblies[0] = 0
            energy = casimir_energy(canonical_scene, grid)
            assert energy.disc_err is None
            assert q_assemblies[0] == len(energy.samples)
            assert all(v == xi_imag(canonical_scene, grid, k).xi.real
                       for k, v in energy.samples)
        assert casimir_force(canonical_scene, grid).disc_err is None

    @pytest.mark.parametrize("n, counts", [(64, {128: 17, 64: 48}),
                                           (128, {256: 5, 128: 12, 64: 48})],
                             ids=["64", "128"])
    def test_levelled_assemblies(self, canonical_scene, n, counts, q_assemblies):
        # Q assemblies by matrix size: the seed rule's 5 nodes on the
        # caller's grid, every other node on the grid its own estimates
        # resolve, down to a quarter of it
        casimir_energy(canonical_scene, discretize(canonical_scene, n))
        assert q_assemblies[1] == counts

    @pytest.mark.filterwarnings("ignore:negative LU pivot")
    @pytest.mark.parametrize("sep, n, nodes, kappas", [(2.5, 128, 18, "[7.072, 20.52]")])
    def test_unresolved_nodes_are_named(self, sep, n, nodes, kappas):
        # unit disks at gap 0.5: the nested rule fails because nodes stay
        # unresolved on the caller's grid, not because of the rule
        disks = disk_pair(sep)
        with pytest.raises(UnresolvedGridError) as info:
            casimir_energy(disks, discretize(disks, n))
        assert not isinstance(info.value, ConvergenceError)
        msg = str(info.value)
        assert f"{nodes} nodes at kappa in {kappas}" in msg
        assert f"grid of ({n}, {n}) nodes per obstacle" in msg

    @pytest.mark.filterwarnings("ignore:negative LU pivot")
    def test_gap_one_is_named_or_within_its_bars(self, partial_wave_energy):
        # unit disks at gap 1, n = 256: the estimates beyond kappa ~ 11 are
        # rounding noise, so which nodes count as resolved, and whether the
        # rule converges, moves with the BLAS thread count; either outcome
        # must be honest
        disks = disk_pair(3.0)
        kmin, kmax = default_kappa_range(disks)
        try:
            energy = casimir_energy(disks, discretize(disks, 256))
        except UnresolvedGridError as info:
            assert not isinstance(info, ConvergenceError)
            msg = str(info)
            assert "grid of (256, 256) nodes per obstacle" in msg
            lo, hi = map(float, re.search(r"at kappa in \[(\S+), (\S+)\]", msg).groups())
            assert kmin <= lo <= hi <= kmax
        else:
            oracle = partial_wave_energy(3.0, (kmin, kmax))
            assert abs(energy.value - oracle) <= \
                energy.quad_err + energy.disc_err + energy.tail_bound

    def test_later_node_refines_one_stride(self, canonical_scene):
        # v(x) on a grid is 1 from need[x] nodes per obstacle up, else 2, so
        # a node resolves on stride s once the grid at 2 s has need[x]
        # nodes.  The seeds resolve on every grid, down to the coarsest
        # stride 4 of n = 128; the later node fails on its neighbours'
        # stride 4 and settles at 2, at one more sample, whose estimate at
        # 4 is the one that already failed
        need, calls = {1.0: 16, 3.0: 16, 2.0: 32}, []

        def sample(x, g, subgrids):
            calls.append((x, g.n_per_obstacle[0], [h.n_per_obstacle[0] for h in subgrids]))
            return [1.0 if h.n_per_obstacle[0] >= need[x] else 2.0 for h in (g, *subgrids)]

        levels = _Levels(discretize(canonical_scene, 128), np.array([1.0, 3.0]),
                         lambda x: 1.0, 1e-8)
        assert levels.evaluate([1.0, 3.0], sample).tolist() == [1.0, 1.0]
        assert levels.evaluate([2.0], sample).tolist() == [1.0]
        assert levels.level == {1.0: 4, 3.0: 4, 2.0: 2}
        assert calls == [(1.0, 128, [64, 32, 16]), (3.0, 128, [64, 32, 16]),
                         (2.0, 32, [16]), (2.0, 64, [32, 16])]
        assert levels.disc[2.0] == 0.0 and not levels.unresolved
        # nothing unresolved: the nested rule's own failure, unqualified
        err = levels.failure("spectral quadrature did not converge")
        assert type(err) is ConvergenceError
        assert str(err) == "spectral quadrature did not converge"

    def test_later_node_records_what_its_estimates_show(self, canonical_scene):
        # seeds that need 64 nodes per obstacle stay on stride 1; the later
        # node between them differs by 1e-10 per halving, so both its
        # estimates at 2 and 4 resolve it: it records stride 2, with the
        # value and estimate of stride 1, from one sample
        calls = []

        def sample(x, g, subgrids):
            ns = [h.n_per_obstacle[0] for h in (g, *subgrids)]
            calls.append((x, ns))
            if x == 2.0:
                return [1.0 + 1e-10 * 128 / m for m in ns]
            return [1.0 if m >= 64 else 2.0 for m in ns]

        levels = _Levels(discretize(canonical_scene, 128), np.array([1.0, 3.0]),
                         lambda x: 1.0, 1e-8)
        levels.evaluate([1.0, 3.0], sample)
        assert levels.evaluate([2.0], sample).tolist() == [1.0 + 1e-10]
        assert levels.level == {1.0: 1, 3.0: 1, 2.0: 2}
        assert calls[2:] == [(2.0, [128, 64, 32])]
        assert levels.disc[2.0] == (1.0 + 2e-10) - (1.0 + 1e-10)
        assert not levels.unresolved

    def test_exact_zero_has_no_error(self, single_disk):
        scene, grid = single_disk
        assert casimir_energy(scene, grid).disc_err == 0.0


class TestPowerTrace:
    def test_half_equals_casimir(self, canonical_scene, canonical_grid_64,
                                 energy_gap2):
        p = power_trace(canonical_scene, canonical_grid_64, 0.5)
        assert p.value == pytest.approx(energy_gap2.value, rel=1e-10)

    def test_s_one_exactly_zero(self, canonical_scene, canonical_grid_64):
        assert power_trace(canonical_scene, canonical_grid_64, 1.0).value == 0.0

    def test_sin_prefactor_vanishing(self, canonical_scene, canonical_grid_64):
        v90 = power_trace(canonical_scene, canonical_grid_64, 0.90).value
        v99 = power_trace(canonical_scene, canonical_grid_64, 0.99).value
        # the expected sin(pi s) * 2s / pi prefactor ratio, with room for the
        # drift of the underlying integral between the two exponents
        pref = (np.sin(0.99 * np.pi) * 0.99) / (np.sin(0.90 * np.pi) * 0.90)
        assert v99 / v90 == pytest.approx(pref, rel=0.5)
        assert abs(v99) < abs(v90)

    def test_s_quarter_stable_under_refinement(self, canonical_scene,
                                               canonical_grid_64,
                                               partial_wave_energy):
        # the kappa^{-1/2} weight stresses the small-kappa end; the oracle
        # integrates the partial-wave Xi by its own Gauss rule
        s = 0.25
        got = power_trace(canonical_scene, canonical_grid_64, s)
        oracle = partial_wave_energy(
            2.0 + canonical_scene.gap, default_kappa_range(canonical_scene),
            weight=lambda k: (2 * s / np.pi) * np.sin(np.pi * s) * k ** (2 * s - 1))
        assert got.value == pytest.approx(oracle, rel=1e-6)

    def test_rejects_bad_s(self, canonical_scene, canonical_grid_64):
        with pytest.raises(ValueError):
            power_trace(canonical_scene, canonical_grid_64, 0.0)
        with pytest.raises(ValueError):
            power_trace(canonical_scene, canonical_grid_64, 1.5)


class TestMalformedInputs:
    # rejected when constructed, before any assembly
    @pytest.mark.parametrize("tol", [-1.0, 0.0, np.nan, np.inf])
    def test_quadrature_tolerance(self, canonical_scene, canonical_grid_64,
                                  q_assemblies, tol):
        with pytest.raises(ValueError, match="tol must be positive and finite"):
            casimir_energy(canonical_scene, canonical_grid_64, QuadConfig(tol=tol))
        assert q_assemblies[0] == 0

    @pytest.mark.parametrize("a, t", [(np.nan, 1.0), (np.inf, 1.0),
                                      (1.0, np.nan), (1.0, np.inf)])
    def test_trace_function(self, canonical_scene, canonical_grid_64,
                            q_assemblies, a, t):
        with pytest.raises(ValueError, match="finite"):
            trace_df(canonical_scene, canonical_grid_64, SmoothFunctionSpec(a=a, t=t))
        assert q_assemblies[0] == 0


class TestTraceDf:
    def test_single_obstacle_zero(self, single_disk):
        scene, grid = single_disk
        spec = SmoothFunctionSpec(a=1.0, t=1.0)
        assert trace_df(scene, grid, spec).value == 0.0

    def test_rejects_bad_config(self, canonical_scene, canonical_grid_64):
        with pytest.raises(LayerDetError):
            trace_df(canonical_scene, canonical_grid_64,
                     SmoothFunctionSpec(a=1.0, t=0.0))
        with pytest.raises(LayerDetError):
            trace_df(canonical_scene, canonical_grid_64,
                     SmoothFunctionSpec(a=1.0, t=1.0), theta=0.9)

    def test_rejects_grid_of_another_scene(self, canonical_scene, q_assemblies):
        # a grid of the disks 3 apart would give their trace over the
        # canonical pair's range of |lambda|
        other = discretize(disk_pair(3.0), 32)
        with pytest.raises(LayerDetError, match="grid was built for a different scene"):
            trace_df(canonical_scene, other, SmoothFunctionSpec(a=1.0, t=1.0))
        assert q_assemblies[0] == 0

    def test_function_family_values(self):
        f = SmoothFunctionSpec(a=1.0, t=2.0)
        lam = 0.7
        assert f.f(lam) == pytest.approx(lam**2 * np.exp(-2 * lam**2), rel=1e-14)
        h = 1e-6
        fd = (f.f(lam + h) - f.f(lam - h)) / (2 * h)
        assert f.f_prime(lam) == pytest.approx(fd, rel=1e-8)

    #: trace_df of a = 1, t = 4, tol 1e-9 on the canonical disks at n = 96
    #: with every node on the 96-node grid, before the contour was levelled
    UNLEVELLED_96 = -0.011650893672630589

    def test_levelled_assemblies(self, canonical_scene, canonical_grid_96,
                                 q_assemblies):
        # the arc's 3 nodes and the seed rule's 9 at 96 nodes per disk, the
        # 120 later nodes at 48, resolved there by their own estimates
        trace_df(canonical_scene, canonical_grid_96,
                 SmoothFunctionSpec(a=1.0, t=4.0), QuadConfig(tol=1e-9))
        assert q_assemblies[1] == {192: 12, 96: 120}

    def test_error_terms_cover_the_unlevelled_value(self, canonical_scene,
                                                    canonical_grid_96):
        td = trace_df(canonical_scene, canonical_grid_96,
                      SmoothFunctionSpec(a=1.0, t=4.0), QuadConfig(tol=1e-9))
        assert td.disc_err > 0
        assert abs(td.value - self.UNLEVELLED_96) <= td.quad_err + td.disc_err

    def test_no_sub_grid_no_estimate(self, canonical_scene, q_assemblies):
        # as for the energy: every node on the caller's grid, on the branch
        # xi_on_ray walks to, and disc_err says it was not estimated
        spec = SmoothFunctionSpec(a=1.0, t=4.0)
        for ns in ((40, 18), (32, 20)):
            grid = discretize(canonical_scene, ns)
            q_assemblies[1].clear()
            td = trace_df(canonical_scene, grid, spec, QuadConfig(tol=1e-9))
            assert td.disc_err is None
            assert list(q_assemblies[1]) == [grid.size]
            us, vals = np.array(td.samples).T
            assert np.array_equal(vals, xi_on_ray(canonical_scene, grid,
                                                  np.pi / 8, us.real))

    @pytest.mark.parametrize("scene, n, t, rel", [
        ("canonical_scene", 96, 4.0, 1e-10),
        ("mixed_scene", 64, 4.0, 1e-10),
        # L = sqrt(45 / t) < 2 / gap: the real-axis pieces split at L / 2
        ("canonical_scene", 96, 64.0, 1e-6)], ids=["disks", "kite+circle", "disks-t64"])
    def test_birman_krein_cross_check(self, request, scene, n, t, rel):
        # -integral f' xi_rel on the real axis and the contour integral on
        # the ray are one trace (modified Birman-Krein), from separate walks
        scene = request.getfixturevalue(scene)
        grid, spec = discretize(scene, n), SmoothFunctionSpec(a=1.0, t=t)
        td = trace_df(scene, grid, spec, QuadConfig(tol=1e-9))
        bk = birman_krein_trace(scene, grid, spec)
        assert bk == pytest.approx(td.value, rel=rel, abs=0)

    def test_continuity_to_power_trace(self, canonical_scene, canonical_grid_64):
        # a = 1/2, t -> 0+ approaches the s = 1/2 power trace
        gap = canonical_scene.gap
        spec = SmoothFunctionSpec(a=0.5, t=1e-3 * gap**2)
        td = trace_df(canonical_scene, canonical_grid_64, spec,
                      QuadConfig(tol=1e-9))
        pt = power_trace(canonical_scene, canonical_grid_64, 0.5)
        assert td.value == pytest.approx(pt.value, rel=1e-3)


@pytest.fixture(scope="module")
def force_48(canonical_scene):
    return casimir_force(canonical_scene, discretize(canonical_scene, 48))


def circle_ellipse(r, a, b, rot, sep, bearing, shift=(0.0, 0.0), phi=0.0,
                   c=1.0, swap=False):
    """A circle at the origin and an ellipse sep away along bearing, then
    scaled by c, turned by phi and shifted; swap lists the ellipse first."""
    turn = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])

    def place(p):
        return c * (turn @ np.asarray(p)) + shift

    curves = [make_circle(place((0.0, 0.0)), c * r),
              make_ellipse(place((sep * np.cos(bearing), sep * np.sin(bearing))),
                           c * a, c * b, rot + phi)]
    return make_scene(curves[::-1] if swap else curves)


class TestForce:
    def test_attractive_and_richardson(self, force_48, canonical_force_reference):
        # exact in the separation: the Richardson difference in d of the
        # partial-wave energy over the same kappa range is within quad_err
        assert force_48.value < 0  # attraction pulls the obstacles together
        diff = abs(force_48.value - canonical_force_reference)
        assert diff <= 1e-9
        assert diff <= force_48.quad_err

    def test_mirror_symmetry(self, canonical_scene, force_48):
        # swapping the two obstacles must flip nothing in the scalar force
        swapped = make_scene(canonical_scene.obstacles[::-1])
        f2 = casimir_force(swapped, discretize(swapped, 48))
        assert f2.value == pytest.approx(force_48.value, rel=1e-10)

    def test_needs_two_obstacles(self, single_disk):
        scene, grid = single_disk
        with pytest.raises(LayerDetError):
            casimir_force(scene, grid)

    def test_one_q_assembly_per_sample(self, canonical_scene, q_assemblies):
        force = casimir_force(canonical_scene, discretize(canonical_scene, 32))
        assert q_assemblies[0] == len(force.samples)

    @pytest.mark.parametrize("kappa", [0.3, 2.0, 5.0, 8.0, 12.0])
    def test_xi_dsep_vs_partial_wave(self, canonical_scene, kappa):
        # Richardson difference in d of the partial-wave Xi; at kappa >= 8
        # xi_imag itself is exactly 0.0, the derivative stays relative
        def pw(d):
            return xi_two_disks(PartialWaveConfig(default_l_max(kappa, 1.0, 1.0) + 16,
                                                  1.0, 1.0, d, kappa))

        h = 1e-4
        c1 = (pw(4.0 + h) - pw(4.0 - h)) / (2 * h)
        c2 = (pw(4.0 + h / 2) - pw(4.0 - h / 2)) / h
        got = _xi_dsep_levels(canonical_scene, discretize(canonical_scene, 128),
                              kappa, ())[0]
        assert got == pytest.approx((4 * c2 - c1) / 3, rel=1e-8, abs=0)

    @settings(max_examples=5, deadline=None)
    @given(r=st.floats(0.5, 1.5), a=st.floats(0.5, 1.5), b=st.floats(0.5, 1.5),
           rot=st.floats(0.0, np.pi), gap=st.floats(1.0, 3.0),
           bearing=st.floats(0.0, 2 * np.pi),
           shift=st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
           turns=st.integers(1, 31), c=st.floats(0.5, 2.0))
    # n = 32 does not resolve this scene: 121 nodes in [1.2e-4, 8.76]
    @example(r=1.5, a=1.40625, b=1.5, rot=0.25, gap=1.0, bearing=1.0,
             shift=(1.0, -2.0), turns=3, c=1.5)
    def test_invariances(self, r, a, b, rot, gap, bearing, shift, turns, c):
        # disjoint: the centre distance exceeds both outer radii by gap
        sep, n = r + max(a, b) + gap, 32

        def force(c=1.0, **motion):
            scene = circle_ellipse(r, a, b, rot, sep, bearing, c=c, **motion)
            # the tolerance is absolute and the force scales as 1 / c^2, so
            # the quadrature stops at the same level
            return casimir_force(scene, discretize(scene, n),
                                 QuadConfig(tol=1e-6 / c ** 2)).value

        # a circle's nodes start at angle 0 whatever its centre: turning by
        # whole node spacings maps them onto themselves, any other angle
        # moves the discretization (rel 2e-6 at n = 32, radii 1.5, gap 1)
        moves = [({"shift": shift}, 1.0), ({"phi": 2 * np.pi * turns / n}, 1.0),
                 ({"swap": True}, 1.0), ({"c": c}, 1.0 / c ** 2)]
        try:
            base = force()
        except UnresolvedGridError:
            # the outcome is invariant too: no moved copy resolves either
            for motion, _ in moves:
                with pytest.raises(UnresolvedGridError):
                    force(**motion)
            return
        for motion, scale in moves:
            assert force(**motion) == pytest.approx(base * scale, rel=1e-10)
