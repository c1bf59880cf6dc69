"""The benchmark's contract with the library.

bench/run.py counts Q assemblies by wrapping `layer_ops._assemble`, and
bench/spans.py wraps every public function of the computing modules plus a
few named methods.  A rename or a changed return type would otherwise show
only in a traced benchmark run; this test runs both wrappers, read from
bench/ and not modified, around a tiny solve on the canonical disks.
"""

import importlib.util
import sys
from pathlib import Path

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
    after = _bindings(spans)
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
