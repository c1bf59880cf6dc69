"""layerdet benchmark: one seeded workload per process.

    python3 bench/run.py --workload energy_disks --seed 0 --seconds 20 --trace 0

Workloads are defined in workloads.py.  The run sets up the workload, then
runs whole solutions back to back until --seconds have passed.  With
--trace 0 it prints the end-to-end metrics; with --trace 1 it spends half
the budget untraced and half traced (spans.py) and prints the per-layer
metrics.  Every solution's output is checked by the workload's gates
outside the timed region.  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
#: fresh-interpreter set-ups per run (this process plus probes)
SETUP_SAMPLES = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def timed_setup(workload: str, seed: int):
    """Import layerdet, draw the inputs and build scene and grid; in a fresh
    interpreter this is the set-up a user pays."""
    t0 = time.perf_counter()
    import layerdet  # noqa: F401
    from workloads import WORKLOADS
    if workload not in WORKLOADS:
        sys.exit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[workload](seed)
    wl.setup()
    return wl, time.perf_counter() - t0


def probe_setup(workload: str, seed: int) -> float:
    res = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                          "--workload", workload, "--seed", str(seed),
                          "--setup-probe"],
                         capture_output=True, text=True, timeout=120, check=True)
    return float(res.stdout.split()[-1])


class QCounter:
    """Counts Q assemblies, i.e. determinant evaluations, at
    layer_ops._assemble, which every assembly path calls through the module
    global.  One integer increment per assembly; active with tracing on and
    off."""

    def __init__(self, layer_ops):
        self.count = 0
        self._mod, orig = layer_ops, layer_ops._assemble

        def counted(grid, sp, deriv, diagonal_only):
            if deriv == "none" and not diagonal_only:
                self.count += 1
            return orig(grid, sp, deriv, diagonal_only)

        self._orig = orig
        layer_ops._assemble = counted

    def close(self):
        self._mod._assemble = self._orig


def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0))}
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for lib in sorted(libdir.glob("*openblas*")):
            cdll = ctypes.CDLL(str(lib))
            for suffix in ("", "64_"):
                get = getattr(cdll, f"scipy_openblas_get_num_threads{suffix}", None)
                cfg = getattr(cdll, f"scipy_openblas_get_config{suffix}", None)
                if get is not None and cfg is not None:
                    get.restype, cfg.restype = ctypes.c_int, ctypes.c_char_p
                    env[f"blas_{pkg.__name__}"] = cfg().decode()
                    env[f"blas_{pkg.__name__}_threads"] = get()
    return env


def describe_timing(values) -> str:
    """Median, and the highest percentile with at least ten samples beyond
    it, with the sample count."""
    v = sorted(values)
    text = f"median of {len(v)}"
    if len(v) >= 11:
        q = 100.0 * (len(v) - 10) / len(v)
        text += f", p{q:.1f} {v[len(v) - 11]:.4f}"
    return text


class Run:
    """One benchmark run: the timed solutions and the tally of gates."""

    def __init__(self, wl, counter):
        self.wl, self.counter = wl, counter
        self.attempted = 0
        self.failed = 0
        self.gate_lines: dict[str, tuple[list, list]] = {}

    def solutions(self, budget: float, rec=None):
        """Whole solutions back to back until budget seconds have passed;
        returns (seconds, outputs, Q assemblies, root spans)."""
        times, outs, evals, roots = [], [], [], []
        start = time.perf_counter()
        while time.perf_counter() - start < budget:
            self.attempted += 1
            self.counter.count = 0
            try:
                if rec is None:
                    t0 = time.perf_counter()
                    out = self.wl.solve()
                    times.append(time.perf_counter() - t0)
                else:
                    idx = rec.open("bench.solve", "bench")
                    try:
                        out = self.wl.solve()
                    finally:
                        rec.close(idx)
                    times.append(rec.spans[idx].dur)
                    roots.append((idx, len(rec.spans)))
            except Exception:
                # a library failure ends the measurement and counts as failed
                traceback.print_exc()
                self.failed += 1
                break
            outs.append(out)
            evals.append(self.counter.count)
        return times, outs, evals, roots

    def gate(self, checks) -> None:
        """Record one solution's (label, detail, ok) checks; the solution
        fails if any check fails."""
        for label, detail, ok in checks:
            oks, details = self.gate_lines.setdefault(label, ([], []))
            oks.append(ok)
            details.append(detail)
        self.failed += not all(ok for _, _, ok in checks)

    def report_gates(self) -> None:
        for label, (oks, details) in self.gate_lines.items():
            shown = details[oks.index(False)] if False in oks else details[-1]
            print(f"gate {'PASS' if all(oks) else 'FAIL'} {label}: {shown} "
                  f"({sum(oks)}/{len(oks)} solutions)")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "layerdet" / "__init__.py").is_file():
        print(f"layerdet sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(repr(timed_setup(args.workload, args.seed)[1]))
        return 0
    return run(args)


def run(args) -> int:
    wl, first = timed_setup(args.workload, args.seed)
    setups = [first] + [probe_setup(args.workload, args.seed)
                        for _ in range(SETUP_SAMPLES - 1)]
    env = environment()
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{wl.describe()}")
    print("environment " + json.dumps(env))
    if any(v > env["nproc"] for k, v in env.items() if k.endswith("_threads")):
        print("warning: BLAS thread count exceeds nproc")

    import layerdet.layer_ops
    counter = QCounter(layerdet.layer_ops)
    bench = Run(wl, counter)
    budget = args.seconds / 2 if args.trace else args.seconds
    traced = None
    try:
        times, outs, evals, _ = bench.solutions(budget)
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace and times:
            traced = traced_phase(args, wl, bench, budget)
    finally:
        counter.close()
    if not times or (args.trace and not traced[0]):
        print("no solution completed", file=sys.stderr)
        return 1

    wl.reference()
    for out, n_q in zip(outs, evals):
        bench.gate(wl.check(out) + [("xi_evals repeats exactly",
                                     f"{n_q} vs {evals[0]}", n_q == evals[0])])
    if args.trace:
        per_root, traced_times, traced_outs, traced_evals = traced
        for m, out, n_q in zip(per_root, traced_outs, traced_evals):
            n_asm = m["layer_ops.assemble_calls"]
            bench.gate(wl.check(out) + wl.design(m) + [
                ("layer_ops.assemble_calls == xi_evals",
                 f"{n_asm} vs {n_q} (untraced {evals[0]})", n_asm == n_q == evals[0])])
    bench.report_gates()

    if args.trace:
        metrics = trace_metrics(per_root, times, traced_times)
    else:
        solve, setup = statistics.median(times), statistics.median(setups)
        xi_evals = statistics.median_low(evals)
        print(f"solve_s      {solve:12.4f} s      {describe_timing(times)}")
        print(f"setup_s      {setup:12.4f} s      {describe_timing(setups)}")
        print(f"xi_evals     {xi_evals:12.0f} count  exact, "
              f"{evals.count(evals[0])} of {len(evals)} solutions equal")
        print(f"peak_rss_mb  {peak_mb:12.2f} MB     1 sample (ru_maxrss after "
              "the timed solutions)")
        metrics = {"solve_s": (solve, "s"), "setup_s": (setup, "s"),
                   "xi_evals": (xi_evals, "count"), "peak_rss_mb": (peak_mb, "MB")}
    print(json.dumps({"correct": bench.failed == 0, "attempted": bench.attempted,
                      "failed": bench.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


def traced_phase(args, wl, bench, budget):
    """Traced set-up and solutions.  Returns per-solution layer metrics (the
    set-up's geometry figures merged in), solve times, outputs and Q
    assembly counts; the spans are written to bench/out."""
    from spans import Recorder, Tracer, root_metrics, span_cost
    rec = Recorder()
    tracer = Tracer(rec)
    tracer.install()
    try:
        idx = rec.open("bench.setup", "bench")
        try:
            wl.setup()
        finally:
            rec.close(idx)
        setup_root = (idx, len(rec.spans))
        times, outs, evals, roots = bench.solutions(budget, rec)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    rec.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")
    if not roots:
        return [], times, outs, evals

    setup_m = root_metrics(rec.spans, *setup_root)
    cost = span_cost()
    per_root = []
    for (idx, end), secs in zip(roots, times):
        m = root_metrics(rec.spans, idx, end)
        for k in ("geometry.make_scene_s", "geometry.discretize_s"):
            m[k] = setup_m[k]
        m["bench.spans"] = end - idx - 1
        m["bench.span_cost_frac"] = (end - idx - 1) * cost / secs
        per_root.append(m)
    print(f"span cost {1e6 * cost:.2f} us (calibrated on a no-op function)")
    return per_root, times, outs, evals


def trace_metrics(per_root, untraced, traced) -> dict:
    """Per-layer metrics with units of the traced solution with the (lower)
    median duration, so that its self times add up to its solve time, plus
    the tracing overhead."""
    pick = sorted(range(len(traced)), key=traced.__getitem__)[(len(traced) - 1) // 2]
    layer = dict(per_root[pick])
    base, tr = statistics.median(untraced), traced[pick]
    layer["bench.untraced_solve_s"] = base
    layer["bench.traced_solve_s"] = tr
    layer["bench.trace_overhead_frac"] = (tr - base) / base
    parts = {k: v for k, v in layer.items() if k.endswith(".self_s")}
    print(f"layer self-times sum {sum(parts.values()):.4f} s of traced solve_s "
          f"{tr:.4f} s (unattributed {layer['bench.unattributed_s']:.4f} s); "
          f"untraced solve_s {base:.4f} s, tracing overhead "
          f"{100 * (tr - base) / base:+.2f}% measured, "
          f"{100 * layer['bench.span_cost_frac']:.2f}% from span cost x "
          f"{layer['bench.spans']} spans")
    parts["layer_ops.self_s"] -= layer["layer_ops.solve_s"]
    parts["layer_ops.solve_s"] = layer["layer_ops.solve_s"]
    for k, v in sorted(parts.items(), key=lambda kv: -kv[1]):
        label = "layer_ops.self_s - solve" if k == "layer_ops.self_s" else k
        print(f"  {label:<26} {v:10.4f} s  {100 * v / tr:5.1f}%")
    print(f"largest self time: {max(parts, key=parts.get)}")
    for k in sorted(layer):
        print(f"{k:<32} {layer[k]:.6g}")
    return {k: (v, unit_of(k)) for k, v in layer.items()}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ms_p50", "_ms_tail")):
        return "ms"
    for suffix, unit in (("_gflop", "GFLOP"), ("_mb", "MB"), ("_frac", "fraction"),
                         ("_ratio", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
