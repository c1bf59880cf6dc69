"""Span recorder for the traced benchmark run.

The tracer wraps the public functions of every computing layerdet module
from outside the package.  The package binds names with `from .x import y`,
so one function object can sit under several module attributes (for example
`layer_ops.assemble_q` is also `xi.assemble_q`, `fields.assemble_q` and
`layerdet.assemble_q`); every binding is replaced, and all of them are
restored on `uninstall`.  A span is (name, layer, start, end, parent); spans
stay in memory and are written out once, at the end of the run.

Layers are modules.  A layer's self time is the duration of its spans minus
the part covered by their child spans, so the self times of all spans under
one root add up to the root's duration.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

#: modules whose public functions are wrapped.  `oracle` is the correctness
#: reference and runs outside the timed region; `cli` and `errors` do no
#: measurable work.
LAYERS = ("geometry", "kernel", "specfun", "layer_ops", "xi", "energy", "fields")

#: methods and private call sites that carry layer work: the branch
#: walker's evaluation step and the field evaluator's entry points
METHODS = (("xi", "_Unwrapper", "_eval"),
           ("fields", "FieldEvaluator", "__init__"),
           ("fields", "FieldEvaluator", "resolvent_diff"),
           ("fields", "FieldEvaluator", "rel_resolvent"))

ASSEMBLE_Q = "layer_ops.assemble_q"
ASSEMBLE_DQ = ("layer_ops.assemble_dq", "layer_ops.assemble_dq_dkappa")


def _matrix_bytes(res):
    return {"bytes": res.entries.nbytes}


def _lu_flop(res):
    # partial-pivoting LU of an N x N matrix: 2/3 N^3 real flops, and
    # 8/3 N^3 real flops when the entries are complex
    n = res.lu.shape[0]
    return {"flop": (8.0 if res.is_complex else 2.0) / 3.0 * n ** 3}


def _rhs_cols(res):
    return {"cols": 1 if res.ndim == 1 else res.shape[1]}


def _kept(res):
    samples = getattr(res, "samples", None)
    return {} if samples is None else {"kept": len(samples)}


#: computed attributes recorded from a wrapped call's result
ATTRS = {"layer_ops.assemble_q": _matrix_bytes,
         "layer_ops.assemble_q_diag": _matrix_bytes,
         "layer_ops.assemble_dq": _matrix_bytes,
         "layer_ops.assemble_dq_dkappa": _matrix_bytes,
         "layer_ops.factorize": _lu_flop,
         "layer_ops.solve": _rhs_cols,
         "energy.casimir_energy": _kept,
         "energy.power_trace": _kept,
         "energy.trace_df": _kept}


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float = 0.0
    parent: int = -1
    attrs: dict | None = None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list with a stack of open spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def open(self, name: str, layer: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append(Span(name, layer, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._open.pop()

    def innermost(self) -> str | None:
        return self.spans[self._open[-1]].name if self._open else None

    def dump(self, path) -> None:
        rows = [[s.name, s.start, s.end, s.parent, s.attrs] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "attrs"],
                       "spans": rows}, fh)


class Tracer:
    """Installs span-recording wrappers on every binding of the wrapped
    functions and restores the originals on uninstall."""

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn):
        rec, attrs = self.rec, ATTRS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.innermost() == name:
                # self-recursion (split_block's imaginary-axis lambda mode)
                # stays inside the outer span
                return fn(*args, **kwargs)
            idx = rec.open(name, layer)
            try:
                res = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if attrs is not None:
                rec.spans[idx].attrs = attrs(res)
            return res

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        package = [m for k, m in sys.modules.items()
                   if k == "layerdet" or k.startswith("layerdet.")]
        for layer in LAYERS:
            mod = sys.modules[f"layerdet.{layer}"]
            for name, fn in list(vars(mod).items()):
                if name.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{name}", layer, fn)
                for m in package:
                    for attr, val in list(vars(m).items()):
                        if val is fn:
                            self._set(m, attr, wrapper)
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"layerdet.{layer}"], cls_name)
            self._set(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", layer,
                                            vars(cls)[meth]))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def span_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a plain call, on a no-op function."""
    def noop():
        return None

    wrapped = Tracer(Recorder())._wrap("bench.noop", "bench", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    t1 = time.perf_counter()
    for _ in range(calls):
        noop()
    t2 = time.perf_counter()
    return ((t1 - t0) - (t2 - t1)) / calls


# ---------------------------------------------------------------------------
# per-layer metrics of one root span
# ---------------------------------------------------------------------------

def _tail(values):
    """The highest order statistic with at least ten samples beyond it (the
    maximum when there are fewer than eleven samples)."""
    v = sorted(values)
    return v[len(v) - 11] if len(v) >= 11 else v[-1]


def root_metrics(spans: list[Span], root: int, end: int) -> dict:
    """Per-layer figures of the spans[root:end] subtree (root first)."""
    sub = range(root, end)
    child = defaultdict(float)
    for i in sub:
        if i != root:
            child[spans[i].parent] += spans[i].dur
    self_t = {i: spans[i].dur - child[i] for i in sub}

    # nearest enclosing assemble_q and energy span of every span
    in_asm, in_energy = {root: -1}, {root: -1}
    for i in sub:
        if i == root:
            continue
        s, p = spans[i], spans[i].parent
        in_asm[i] = i if s.name == ASSEMBLE_Q else in_asm[p]
        in_energy[i] = i if s.layer == "energy" else in_energy[p]

    def named(*names):
        return [spans[i] for i in sub if spans[i].name in names]

    def total(*names):
        return sum(s.dur for s in named(*names))

    def attr_sum(key, *names):
        return sum((s.attrs or {}).get(key, 0) for s in named(*names))

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for i in sub:
        if i != root:
            m[f"{spans[i].layer}.self_s"] += self_t[i]

    asm = named(ASSEMBLE_Q)
    asm_ms = [1e3 * s.dur for s in asm] or [0.0]
    energy_evals = sum(1 for i in sub if spans[i].name == ASSEMBLE_Q
                       and in_energy[i] != -1)
    kept = sum((spans[i].attrs or {}).get("kept", 0) for i in sub
               if spans[i].layer == "energy")
    m.update({
        "geometry.make_scene_s": total("geometry.make_scene"),
        "geometry.discretize_s": total("geometry.discretize"),
        "kernel.split_block_s": total("kernel.split_block"),
        "kernel.split_block_calls": len(named("kernel.split_block")),
        "kernel.offdiag_kernel_s": total("kernel.offdiag_kernel"),
        "kernel.offdiag_kernel_calls": len(named("kernel.offdiag_kernel")),
        "specfun.bessel_k_s": total("specfun.bessel_k"),
        "specfun.bessel_k_calls": len(named("specfun.bessel_k")),
        "layer_ops.assemble_s": total(ASSEMBLE_Q),
        "layer_ops.assemble_calls": len(asm),
        "layer_ops.assemble_self_s": sum(
            self_t[i] for i in sub
            if spans[i].layer == "layer_ops" and in_asm[i] != -1),
        "layer_ops.assemble_ms_p50": statistics.median(asm_ms),
        "layer_ops.assemble_ms_tail": _tail(asm_ms),
        "layer_ops.assemble_dq_s": total(*ASSEMBLE_DQ),
        "layer_ops.assemble_dq_calls": len(named(*ASSEMBLE_DQ)),
        "layer_ops.factorize_s": total("layer_ops.factorize"),
        "layer_ops.lu_count": len(named("layer_ops.factorize")),
        "layer_ops.lu_gflop": attr_sum("flop", "layer_ops.factorize") / 1e9,
        "layer_ops.matrix_mb": attr_sum(
            "bytes", ASSEMBLE_Q, "layer_ops.assemble_q_diag", *ASSEMBLE_DQ) / 2 ** 20,
        "layer_ops.solve_s": total("layer_ops.solve"),
        "layer_ops.solve_calls": len(named("layer_ops.solve")),
        "layer_ops.solve_rhs_cols": attr_sum("cols", "layer_ops.solve"),
        "xi.walker_evals": len(named("xi._Unwrapper._eval")),
        "xi.trace_s": total("xi.xi_prime", "xi.trace_rrel"),
        "energy.kept_ratio": kept / energy_evals if energy_evals else 0.0,
        "fields.evaluator_init_s": total("fields.FieldEvaluator.__init__"),
        "fields.kernel_eval_s": total("fields.FieldEvaluator.resolvent_diff",
                                      "fields.FieldEvaluator.rel_resolvent"),
        "fields.kernel_evals": len(named("fields.FieldEvaluator.resolvent_diff",
                                         "fields.FieldEvaluator.rel_resolvent")),
        "bench.unattributed_s": self_t[root],
    })
    return m
