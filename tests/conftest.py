import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from layerdet import (PartialWaveConfig, default_l_max, discretize, layer_ops,
                      make_circle, make_kite, make_scene, xi_two_disks)


@pytest.fixture
def q_assemblies(monkeypatch):
    """Counts full Q assemblies at layer_ops._assemble, the point where the
    benchmark counts determinant evaluations."""
    count = [0]
    assemble = layer_ops._assemble

    def counted(grid, sp, deriv, diagonal_only):
        if deriv == "none" and not diagonal_only:
            count[0] += 1
        return assemble(grid, sp, deriv, diagonal_only)

    monkeypatch.setattr(layer_ops, "_assemble", counted)
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
