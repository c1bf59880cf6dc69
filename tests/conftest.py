import pytest

from layerdet import discretize, layer_ops, make_circle, make_kite, make_scene


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
