"""The benchmark workloads: seeded inputs, the timed library calls, and the
correctness gates that run outside the timed region.

Every workload calls the public layerdet API at library defaults.  The seed
draws the inputs and the library receives only the generated values;
`DEFAULT_SEED` gives the canonical configuration of the ROADMAP baselines.
`check` returns `(label, detail, ok)` gates for the output of one
solution; `design` returns gates of the same form on the per-layer metrics
of one traced solution.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from numpy.polynomial.legendre import leggauss

import layerdet as ld

DEFAULT_SEED = 0
#: trace_df reference, recorded once by record_reference.py
REFERENCE = Path(__file__).with_name("reference.json")


def _rng(seed: int):
    return None if seed == DEFAULT_SEED else np.random.default_rng(seed)


def two_disks(gap: float):
    return ld.make_scene([ld.make_circle((0.0, 0.0), 1.0),
                          ld.make_circle((2.0 + gap, 0.0), 1.0)])


def _gate(label: str, value: float, bound: float):
    return label, f"{value:.3e} <= {bound:.0e}", bool(value <= bound)


def oracle_energy(gap: float, nodes: int = 96) -> float:
    """(1/pi) * integral of the partial-wave Xi(i kappa) over the library's
    kappa range [1e-6/gap, 30/(0.9 gap)], by one Gauss-Legendre rule in
    u = log kappa."""
    lo, hi = np.log(1e-6 / gap), np.log(30.0 / (0.9 * gap))
    x, w = leggauss(nodes)
    kap = np.exp(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
    xi = [ld.xi_two_disks(ld.PartialWaveConfig(ld.default_l_max(k, 1.0, 1.0) + 16,
                                               1.0, 1.0, 2.0 + gap, k))
          for k in kap]
    return float(0.5 * (hi - lo) * np.dot(w, kap * np.array(xi))) / np.pi


def richardson_slope(f, x: float, h: float) -> complex:
    """df/dx from central differences at steps h and h/2, Richardson
    combined (error O(h^4)); f maps an array of abscissae to values."""
    fm2, fm1, fp1, fp2 = f(np.array([x - h, x - h / 2, x + h / 2, x + h]))
    return (4 * (fp1 - fm1) / h - (fp2 - fm2) / (2 * h)) / 3


class EnergyDisks:
    """casimir_energy on two unit disks: real imaginary-axis assembly and LU,
    no solves.  Gate: the partial-wave oracle energy to 1e-8."""

    n, tol = 128, 1e-8

    def __init__(self, seed: int):
        rng = _rng(seed)
        self.gap = 2.0 if rng is None else float(rng.uniform(1.8, 2.2))

    def describe(self) -> str:
        return f"two unit disks, gap {self.gap!r}, n {self.n}, tol {self.tol:g}"

    def setup(self):
        self.scene = two_disks(self.gap)
        self.grid = ld.discretize(self.scene, self.n)

    def solve(self):
        return ld.casimir_energy(self.scene, self.grid, ld.QuadConfig(tol=self.tol))

    def reference(self):
        self.e_oracle = oracle_energy(self.gap)

    def check(self, res):
        return [_gate("|E - E_oracle|", abs(res.value - self.e_oracle), 1e-8)]

    def design(self, m):
        n = m["layer_ops.solve_calls"]
        return [("layer_ops.solve_calls == 0", f"{n} solves", n == 0)]


class ShiftContour:
    """A 16-point xi_rel_many sweep plus trace_df on the canonical disks:
    complex Hankel assembly and the branch walkers, no Bessel-K calls and no
    solves.  Gates: single-point xi_rel within err_est, and the recorded
    trace_df reference."""

    n, gap, tol = 96, 2.0, 1e-9
    #: |trace_df - reference|; ten times the requested contour tolerance
    ref_tol = 1e-8

    def __init__(self, seed: int):
        rng = _rng(seed)
        if rng is None:
            self.lams = np.linspace(0.5, 3.0, 16)
            self.check_idx = (0, 15)
        else:
            self.lams = np.sort(rng.uniform(0.5, 3.0, 16))
            self.check_idx = tuple(int(i) for i in
                                   np.sort(rng.choice(16, 2, replace=False)))
        self.spec = ld.SmoothFunctionSpec(a=1.0, t=self.gap ** 2)

    def describe(self) -> str:
        return (f"two unit disks, gap {self.gap}, n {self.n}; 16-point sweep on "
                f"[{self.lams[0]:.4f}, {self.lams[-1]:.4f}]; trace_df a=1 "
                f"t={self.spec.t:g} tol {self.tol:g}")

    def setup(self):
        self.scene = two_disks(self.gap)
        self.grid = ld.discretize(self.scene, self.n)

    def solve(self):
        shifts = ld.xi_rel_many(self.scene, self.grid, self.lams)
        tdf = ld.trace_df(self.scene, self.grid, self.spec, ld.QuadConfig(tol=self.tol))
        return shifts, tdf

    def reference(self):
        self.singles = {i: ld.xi_rel(self.scene, self.grid, float(self.lams[i]))
                        for i in self.check_idx}
        self.tdf_ref = json.loads(REFERENCE.read_text())["trace_df"]["value"]

    def check(self, res):
        shifts, tdf = res
        gates = []
        for i, single in self.singles.items():
            many = shifts[i]
            diff = abs(many.xi_rel - single.xi_rel)
            err = many.err_est + single.err_est
            gates.append((f"xi_rel_many[{i}] vs xi_rel within err_est",
                          f"|{many.xi_rel:.10f} - {single.xi_rel:.10f}| = "
                          f"{diff:.1e} <= {err:.1e}", bool(diff <= err)))
        gates.append(_gate("|trace_df - reference|", abs(tdf.value - self.tdf_ref),
                           self.ref_tol))
        return gates

    def design(self, m):
        # the only imaginary-axis points are the three descent anchors at
        # i*Lambda of the sweep; they must stay a negligible share of the
        # cross-block kernel work
        n, cross = m["specfun.bessel_k_calls"], m["kernel.offdiag_kernel_calls"]
        return [("specfun.bessel_k_calls <= 1% of kernel.offdiag_kernel_calls",
                 f"{n} of {cross}", n <= cross / 100)]


class DerivativeFields:
    """trace_rrel, xi_prime on a ray and the field kernels on a kite plus a
    circle: dominated by solves with many right-hand sides.  Gates: dual-path
    traces, Richardson finite differences, and kernel symmetry."""

    n, theta = 128, np.pi / 8
    n_pairs = 11

    def __init__(self, seed: int):
        rng = _rng(seed)
        if rng is None:
            self.kappas = np.linspace(0.1, 5.0, 16)
            self.ray_u = np.linspace(0.5, 3.0, 4)
            self.field_kappas = np.linspace(0.5, 3.0, 6)
            self.line_y = 2.5
            self.kappa_fd = 0.5
        else:
            self.kappas = np.sort(rng.uniform(0.1, 5.0, 16))
            self.ray_u = np.sort(rng.uniform(0.5, 3.0, 4))
            self.field_kappas = np.sort(rng.uniform(0.5, 3.0, 6))
            self.line_y = float(rng.uniform(2.2, 3.5))
            # finite differences of Xi lose relative accuracy once Xi
            # decays to the rounding floor, so the check stays below 1.5
            self.kappa_fd = float(rng.uniform(0.2, 1.5))
        self.field_xy = [(x, self.line_y)
                         for x in np.linspace(-2.0, 6.0, self.n_pairs + 1)]

    def describe(self) -> str:
        return (f"kite + unit circle, gap 2, n {self.n}; trace_rrel at 16 kappa "
                f"in [{self.kappas[0]:.4f}, {self.kappas[-1]:.4f}]; xi_prime at "
                f"4 ray points; field kernels at 6 kappa x {self.n_pairs} pairs "
                f"on y = {self.line_y:.4f}")

    def setup(self):
        self.scene = ld.make_scene([ld.make_kite((0.0, 0.0), 1.0),
                                    ld.make_circle((4.0, 0.0), 1.0)])
        self.grid = ld.discretize(self.scene, self.n)

    def solve(self):
        sc, g = self.scene, self.grid
        traces = [ld.trace_rrel(sc, g, ld.SpectralPoint.imaginary(k), both_paths=True)
                  for k in self.kappas]
        primes = [ld.xi_prime(sc, g, ld.SpectralPoint.ray(u, self.theta))
                  for u in self.ray_u]
        pts = [ld.field_point(sc, xy) for xy in self.field_xy]
        fields = []
        for k in self.field_kappas:
            ev = ld.FieldEvaluator(sc, g, ld.SpectralPoint.imaginary(k))
            fields.append([(ev.resolvent_diff(pts[i], pts[i + 1]),
                            ev.rel_resolvent(pts[i], pts[i + 1]))
                           for i in range(self.n_pairs)])
        return traces, primes, fields

    def reference(self):
        sc, g = self.scene, self.grid
        h = 2e-3
        self.fd_imag = richardson_slope(
            lambda ks: np.array([ld.xi_imag(sc, g, k).xi.real for k in ks]),
            self.kappa_fd, h)
        self.xp_imag = ld.xi_prime(sc, g, ld.SpectralPoint.imaginary(self.kappa_fd))
        # Xi along the ray, branch tracked by xi_on_ray; Xi'(lambda) is
        # e^{-i theta} d/du Xi(u e^{i theta})
        offsets = np.array([-h, -h / 2, h / 2, h])
        nodes = np.concatenate([u + offsets for u in self.ray_u])
        on_ray = dict(zip(nodes.tolist(), ld.xi_on_ray(sc, g, self.theta, nodes)))
        self.fd_ray = [np.exp(-1j * self.theta) * richardson_slope(
            lambda us: np.array([on_ray[v] for v in us.tolist()]), u, h)
            for u in self.ray_u]
        pts = [ld.field_point(sc, xy) for xy in self.field_xy]
        self.reversed = []
        for k in self.field_kappas:
            ev = ld.FieldEvaluator(sc, g, ld.SpectralPoint.imaginary(k))
            self.reversed.append([ev.resolvent_diff(pts[i + 1], pts[i])
                                  for i in range(self.n_pairs)])

    def check(self, res):
        traces, primes, fields = res
        dual = max(abs(p - a) / abs(a) for p, a in traces)
        fd_imag = abs((1j * self.xp_imag).real - self.fd_imag) / abs(self.fd_imag)
        fd_ray = max(abs(p - f) / abs(f) for p, f in zip(primes, self.fd_ray))
        sym = max(abs(fwd - rev) / abs(rev)
                  for row, rev_row in zip(fields, self.reversed)
                  for (fwd, _), rev in zip(row, rev_row))
        return [_gate("trace_rrel dual paths, worst rel", dual, 1e-9),
                _gate(f"xi_prime(i {self.kappa_fd:.4f}) vs Richardson FD of "
                      "xi_imag, rel", fd_imag, 1e-6),
                _gate("xi_prime on the ray vs Richardson FD of xi_on_ray, worst rel",
                      fd_ray, 1e-6),
                _gate("resolvent_diff(x, y) vs (y, x), worst rel", sym, 1e-10)]

    def design(self, m):
        return []


WORKLOADS = {"energy_disks": EnergyDisks,
             "shift_contour": ShiftContour,
             "derivative_fields": DerivativeFields}
