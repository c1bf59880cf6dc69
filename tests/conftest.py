import sys
from collections import Counter

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import special

from layerdet import (PartialWaveConfig, default_l_max, discretize, layer_ops,
                      make_circle, make_ellipse, make_kite, make_scene, xi_two_disks)


@pytest.fixture
def q_assemblies(monkeypatch):
    """Counts full Q assemblies at layer_ops._assemble, the point where the
    benchmark counts determinant evaluations: [0] all of them, [1] a
    Counter of them by matrix size."""
    count = [0, Counter()]
    assemble = layer_ops._assemble

    def counted(grid, sp, deriv, diagonal_only):
        if deriv == "none" and not diagonal_only:
            count[0] += 1
            count[1][grid.size] += 1
        return assemble(grid, sp, deriv, diagonal_only)

    monkeypatch.setattr(layer_ops, "_assemble", counted)
    return count


@pytest.fixture
def lu_solves(monkeypatch):
    """Counts `layer_ops.factorize` and `layer_ops.solve` calls, the LUs and
    solves the benchmark's spans count, at every binding in the package:
    [0] a Counter of LUs by matrix size, [1] a Counter of solves by the
    size of the factored matrix."""
    count = (Counter(), Counter())
    factorize, solve = layer_ops.factorize, layer_ops.solve

    def counted_factorize(m):
        f = factorize(m)
        count[0][f.lu.shape[0]] += 1
        return f

    def counted_solve(f, rhs):
        count[1][f.lu.shape[0]] += 1
        return solve(f, rhs)

    for mod in [m for k, m in sys.modules.items() if k.startswith("layerdet.")]:
        for orig, counted in ((factorize, counted_factorize), (solve, counted_solve)):
            if getattr(mod, orig.__name__, None) is orig:
                monkeypatch.setattr(mod, orig.__name__, counted)
    return count


@pytest.fixture(scope="session")
def canonical_scene():
    """Two unit disks, centres 4 apart: gap 2."""
    return make_scene([make_circle((0.0, 0.0), 1.0), make_circle((4.0, 0.0), 1.0)])


@pytest.fixture(scope="session")
def canonical_grid_64(canonical_scene):
    return discretize(canonical_scene, 64)


@pytest.fixture(scope="session")
def canonical_grid_96(canonical_scene):
    return discretize(canonical_scene, 96)


@pytest.fixture(scope="session")
def canonical_grid_256(canonical_scene):
    return discretize(canonical_scene, 256)


@pytest.fixture(scope="session")
def single_disk():
    scene = make_scene([make_circle((0.0, 0.0), 1.0)])
    return scene, discretize(scene, 96)


@pytest.fixture(scope="session")
def mixed_scene():
    """Kite and circle with a moderate gap (smooth but not circular)."""
    return make_scene([make_kite((0.0, 0.0), 1.0), make_circle((4.0, 0.0), 1.0)])


@pytest.fixture(scope="session")
def three_scene():
    """A circle, a kite and an ellipse: three pairs, unlike blocks."""
    return make_scene([make_circle((0.0, 0.0), 1.0), make_kite((4.0, 0.0), 1.0),
                       make_ellipse((0.0, 5.0), 1.5, 0.7)])


@pytest.fixture(scope="session")
def three_disks():
    """Radii 1, 0.8, 0.6 at (0, 0), (4, 0), (1, 3.5), as (centre, radius)
    pairs, and their scene."""
    disks = [((0.0, 0.0), 1.0), ((4.0, 0.0), 0.8), ((1.0, 3.5), 0.6)]
    return disks, make_scene([make_circle(c, a) for c, a in disks])


@pytest.fixture(scope="session")
def far_scene():
    """Two unit disks, centres 12 apart: gap 10 (weak coupling)."""
    return make_scene([make_circle((0.0, 0.0), 1.0), make_circle((12.0, 0.0), 1.0)])


def _partial_wave_energy(d, kappa_range, nodes=96, weight=lambda k: 1.0 / np.pi):
    """Integral of weight(kappa) times the partial-wave Xi(i kappa) of two
    unit disks with centres d apart over kappa_range, by one Gauss-Legendre
    rule in log kappa (independent of the library's Clenshaw-Curtis
    driver); the default weight 1/pi gives the Casimir energy."""
    lo, hi = np.log(kappa_range)
    x, w = leggauss(nodes)
    kappas = np.exp(0.5 * (hi - lo) * x + 0.5 * (hi + lo))
    xi = [xi_two_disks(PartialWaveConfig(default_l_max(k, 1.0, 1.0) + 16,
                                         1.0, 1.0, d, k)) for k in kappas]
    return 0.5 * (hi - lo) * np.dot(w, weight(kappas) * kappas * np.array(xi))


@pytest.fixture(scope="session")
def partial_wave_energy():
    return _partial_wave_energy


@pytest.fixture(scope="session")
def canonical_force_reference(canonical_scene):
    """-dE/dd of the canonical disks over the fixed kappa range
    [1e-6 / gap, 30 / (0.9 gap)] of d = 4: central differences of the
    partial-wave energy at steps h = 0.005 and h / 2, Richardson combined
    (error O(h^4): 6e-12 at h = 0.01, 4e-13 here)."""
    gap, h = canonical_scene.gap, 0.005
    kappa_range = (1e-6 / gap, 30.0 / (0.9 * gap))
    e = {s: _partial_wave_energy(4.0 + s, kappa_range) for s in (-h, -h / 2, h / 2, h)}
    d1, d2 = (e[h] - e[-h]) / (2 * h), (e[h / 2] - e[-h / 2]) / h
    return -(4 * d2 - d1) / 3


def _tmatrix_xi(disks, lam, L):
    """Xi(lam) = log det(I + B) at real lam for disks [(centre, radius), ...],
    on the principal branch: B_ij = sqrt(T_i) U_ij sqrt(T_j) for i != j,
    T_i = diag(J_m(lam a_i) / H1_m(lam a_i)), (U_ij)_mn = H1_{m-n}(lam |c_j -
    c_i|) e^{i (m-n) phi_ij}, phi_ij the angle of c_j - c_i, m = -L..L (the
    T-matrix form of Emig, Graham, Jaffe & Kardar, PRL 99, 170403, 2007)."""
    m = np.arange(-L, L + 1)
    dm = np.subtract.outer(m, m)
    roots = [np.sqrt(special.jv(m, lam * a) / special.hankel1(m, lam * a)) for _, a in disks]
    B = np.zeros((len(disks), m.size, len(disks), m.size), dtype=complex)
    for i, (ci, _) in enumerate(disks):
        for j, (cj, _) in enumerate(disks):
            if i != j:
                dx, dy = np.subtract(cj, ci)
                u = special.hankel1(dm, lam * np.hypot(dx, dy)) * np.exp(1j * dm * np.arctan2(dy, dx))
                B[i, :, j, :] = roots[i][:, None] * u * roots[j][None, :]
    size = len(disks) * m.size
    sign, logabs = np.linalg.slogdet(np.eye(size) + B.reshape(size, size))
    return complex(logabs, np.angle(sign))


@pytest.fixture(scope="session")
def tmatrix_xi_rel():
    """xi_rel(lam) = -(1/pi) Im Xi(lam) of disks from `_tmatrix_xi`, at L =
    ceil(8 + 3 lam max a_i), certified as `xi_two_disks` is: it raises when
    the value at L + 4 differs by more than 1e-13."""
    def xi_rel(disks, lam):
        L = int(np.ceil(8 + 3 * lam * max(a for _, a in disks)))
        val, richer = (-_tmatrix_xi(disks, lam, l).imag / np.pi for l in (L, L + 4))
        if abs(val - richer) > 1e-13:
            raise AssertionError(f"T-matrix truncation not converged at L = {L}")
        return val
    return xi_rel


@pytest.fixture(scope="session")
def tmatrix_xi():
    """Xi(lam) of disks from `_tmatrix_xi` at complex lam, Im on the principal
    branch, at L = ceil(16 + 3 |lam| max a_i), certified against L + 4 to
    1e-13 in Re and in Im modulo 2 pi.  `tmatrix_xi_rel`'s smaller L leaves
    Re 7e-13 off at 0.7 e^{i pi/8} on the canonical disks, 2e-16 here."""
    def xi(disks, lam):
        L = int(np.ceil(16 + 3 * abs(lam) * max(a for _, a in disks)))
        val, richer = (_tmatrix_xi(disks, lam, l) for l in (L, L + 4))
        if max(abs(val.real - richer.real),
               abs(np.angle(np.exp(1j * (val.imag - richer.imag))))) > 1e-13:
            raise AssertionError(f"T-matrix truncation not converged at L = {L}")
        return val
    return xi
