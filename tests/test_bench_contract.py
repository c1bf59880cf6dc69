"""The benchmark's contract with the library.

bench/run.py counts Q assemblies by wrapping `layer_ops._assemble`, and
bench/spans.py wraps every public function of the computing modules plus a
few named methods.  A rename or a changed return type would otherwise show
only in a traced benchmark run; this test runs both wrappers, read from
bench/ and not modified, around a tiny solve on the canonical disks.  The
workloads call the package as `ld.<name>`: every such name must exist, the
call forms of the calls not made here must bind, and every workload's
setup must build for the held-out seed as well as the default one.
"""

import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

import layerdet
from layerdet import SpectralPoint, discretize, layer_ops

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod
    spec.loader.exec_module(mod)
    return mod


def _bindings(spans):
    """Every attribute of every layerdet module, and the wrapped methods."""
    out = {}
    for key, mod in list(sys.modules.items()):
        if key == "layerdet" or key.startswith("layerdet."):
            out.update(((key, attr), val) for attr, val in vars(mod).items())
    for layer, cls_name, meth in spans.METHODS:
        cls = getattr(sys.modules[f"layerdet.{layer}"], cls_name)
        out[(layer, cls_name, meth)] = vars(cls)[meth]
    return out


def test_counter_and_tracer_on_a_small_solve(canonical_scene):
    run, spans = _bench_module("run"), _bench_module("spans")
    grid = discretize(canonical_scene, 32)
    before = _bindings(spans)
    counter = run.QCounter(layer_ops)
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    tracer.install()
    try:
        root = rec.open("bench.solve", "bench")
        # calls go through the package attributes, which the tracer patched
        layerdet.xi_imag(canonical_scene, grid, 1.0)
        layerdet.xi_rel_many(canonical_scene, grid, [0.5, 1.0])
        sp = SpectralPoint.imaginary(1.0)
        layerdet.trace_rrel(canonical_scene, grid, sp, both_paths=True)
        ev = layerdet.FieldEvaluator(canonical_scene, grid, sp)
        x = layerdet.field_point(canonical_scene, (2.0, 2.5))
        y = layerdet.field_point(canonical_scene, (1.0, -2.0))
        ev.resolvent_diff(x, y)
        ev.rel_resolvent(x, y)
        rec.close(root)
    finally:
        tracer.uninstall()
        counter.close()
    m = spans.root_metrics(rec.spans, root, len(rec.spans))
    assert counter.count > 0
    assert m["layer_ops.assemble_calls"] == counter.count
    assert m["xi.walker_evals"] > 0
    assert m["fields.kernel_evals"] == 2
    # shift_contour's design gate counts these: keep it on a live function
    assert m["specfun.bessel_k_calls"] > 0
    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_bench_names_exist():
    for script in ("workloads.py", "record_reference.py"):
        used = set(re.findall(r"\bld\.(\w+)", (BENCH / script).read_text()))
        assert used
        assert sorted(n for n in used if not hasattr(layerdet, n)) == [], script


def test_bench_call_forms_bind():
    scene, grid, spec, cfg = object(), object(), object(), layerdet.QuadConfig(tol=1e-8)
    assert layerdet.SmoothFunctionSpec(a=1.0, t=4.0).t == 4.0
    for fn, args in [(layerdet.casimir_energy, (scene, grid, cfg)),
                     (layerdet.trace_df, (scene, grid, spec, cfg)),
                     (layerdet.birman_krein_trace, (scene, grid, spec)),
                     (layerdet.xi_rel, (scene, grid, 1.0)),
                     (layerdet.xi_rel_many, (scene, grid, [1.0])),
                     (layerdet.xi_on_ray, (scene, grid, 0.4, [1.0])),
                     (layerdet.xi_imag, (scene, grid, 1.0)),
                     (layerdet.xi_prime, (scene, grid, spec))]:
        inspect.signature(fn).bind(*args)
    inspect.signature(layerdet.trace_rrel).bind(scene, grid, spec, both_paths=True)


@pytest.mark.parametrize("seed", [0, 7])
def test_workload_setup(seed):
    workloads = _bench_module("workloads")
    for cls in workloads.WORKLOADS.values():
        wl = cls(seed)
        wl.setup()
        assert wl.grid.scene is wl.scene and wl.scene.n_obstacles == 2


def test_design_gates_hold_on_a_traced_solve(canonical_scene):
    # every design gate of the workloads that have them, on the traced
    # metrics of a small solve of each: a solve under casimir_energy, or a
    # Bessel-K call on the sweep's cross blocks, fails here before it shows
    # in a traced benchmark run
    spans, workloads = _bench_module("spans"), _bench_module("workloads")
    grid = discretize(canonical_scene, 64)
    spec, cfg = layerdet.SmoothFunctionSpec(a=1.0, t=4.0), layerdet.QuadConfig(tol=1e-6)
    solves = {workloads.EnergyDisks: lambda: layerdet.casimir_energy(canonical_scene, grid),
              workloads.ShiftContour: lambda: (
                  layerdet.xi_rel_many(canonical_scene, grid, [0.5, 1.5, 3.0]),
                  layerdet.trace_df(canonical_scene, grid, spec, cfg))}
    rec = spans.Recorder()
    tracer = spans.Tracer(rec)
    roots = {}
    tracer.install()
    try:
        for cls, call in solves.items():
            root = rec.open("bench.solve", "bench")
            call()
            rec.close(root)
            roots[cls] = (root, len(rec.spans))
    finally:
        tracer.uninstall()
    for cls, (root, end) in roots.items():
        gates = cls(0).design(spans.root_metrics(rec.spans, root, end))
        assert gates and all(ok for _, _, ok in gates), gates


@pytest.mark.parametrize("seed", [0, 7])
def test_workload_xi_evals(seed):
    # each workload's Q assemblies per solution, counted as bench/run.py
    # counts them, are the recorded xi_evals: a quadrature or level policy
    # that adds evaluations fails here before it shows in a benchmark run
    run, workloads = _bench_module("run"), _bench_module("workloads")
    counts = {}
    counter = run.QCounter(layer_ops)
    try:
        for name, cls in workloads.WORKLOADS.items():
            wl = cls(seed)
            wl.setup()
            counter.count = 0
            wl.solve()
            counts[name] = counter.count
    finally:
        counter.close()
    assert counts == {"energy_disks": 65, "shift_contour": 87, "derivative_fields": 26}


@pytest.mark.parametrize("seed", [0, 7])
def test_energy_disks_levels(seed, q_assemblies):
    # energy_disks' Q assemblies by matrix size: no node of the n = 128
    # grid is assembled on it, the seeds included; a level policy that
    # starts nodes on the caller's grid fails here at the same xi_evals
    wl = _bench_module("workloads").EnergyDisks(seed)
    wl.setup()
    wl.solve()
    assert q_assemblies[1] == {128: 17, 64: 48}
