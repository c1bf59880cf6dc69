"""Command-line front end: scene files in, CSV/JSON results out.

Scene files are strict JSON: a version field, dimension 2, a default node
count, and a list of obstacles; unknown keys are errors, not warnings.
Numeric output is deterministic (17 significant digits, LF endings, no
timestamps) so runs can be diffed and used as golden references.

Exit codes: 0 success, 2 parse error, 3 numerical failure, 4 validation
failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Sequence

import numpy as np

from . import specfun
from .energy import (QuadConfig, SmoothFunctionSpec, casimir_energy,
                     casimir_force, power_trace, trace_df)
from .errors import LayerDetError, SceneError, SceneFileError
from .geometry import discretize, make_circle, make_ellipse, make_kite, \
    make_polar_fourier, make_scene
from .oracle import PartialWaveConfig, xi_two_disks
from .xi import _DELTA_PRIME_FRACTION, xi_imag, xi_real, xi_rel_many

_SCENE_KEYS = {"version", "dimension", "n", "obstacles"}
_OBSTACLE_KEYS = {
    "circle": {"kind", "center", "radius", "n"},
    "ellipse": {"kind", "center", "a", "b", "rotation", "n"},
    "kite": {"kind", "center", "scale", "n"},
    "polar_fourier": {"kind", "center", "cos", "sin", "n"},
}


def _node_count(value, where: str) -> int:
    # JSON true/false are ints to Python; int() would truncate 100.7
    if isinstance(value, bool) or not isinstance(value, int):
        raise SceneFileError(f"{where}: \"n\" must be an integer, got {value!r}")
    return value


def _check_numbers(value, where: str, size=None) -> None:
    # JSON true/false are ints to Python; NaN, Infinity and overflowing
    # literals such as 1e400 load as non-finite floats
    items = value if isinstance(value, list) else [value]
    shape_ok = size is None or (items is value and len(items) == size)
    if not shape_ok or not all(isinstance(v, (int, float)) and not isinstance(v, bool)
                               and np.isfinite(v) for v in items):
        count = f"a list of {size} " if size else ""
        raise SceneFileError(f"{where} must be {count}finite numbers, got {value!r}")


def parse_scene_file(path: str):
    """Parse a strict-schema scene file; returns (Scene, node counts)."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise SceneFileError(f"cannot read scene file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SceneFileError(f"scene file is not valid JSON "
                             f"(line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise SceneFileError("scene file must hold a JSON object")
    unknown = set(doc) - _SCENE_KEYS
    if unknown:
        raise SceneFileError(f"unknown scene keys: {sorted(unknown)}")
    if doc.get("version") != 1:
        raise SceneFileError("scene file needs \"version\": 1")
    if doc.get("dimension") != 2:
        raise SceneFileError("only dimension 2 is supported")
    obstacles = doc.get("obstacles")
    if not isinstance(obstacles, list) or not obstacles:
        raise SceneFileError("scene needs a non-empty obstacle list")
    default_n = _node_count(doc.get("n", 128), "scene")
    curves, ns = [], []
    for i, ob in enumerate(obstacles):
        if not isinstance(ob, dict) or "kind" not in ob:
            raise SceneFileError(f"obstacle {i}: needs a \"kind\"")
        kind = ob["kind"]
        if not isinstance(kind, str) or kind not in _OBSTACLE_KEYS:
            raise SceneFileError(f"obstacle {i}: unknown kind {kind!r}")
        unknown = set(ob) - _OBSTACLE_KEYS[kind]
        if unknown:
            raise SceneFileError(f"obstacle {i}: unknown keys {sorted(unknown)}")
        for key in sorted(set(ob) - {"kind", "n"}):
            _check_numbers(ob[key], f"obstacle {i}: \"{key}\"",
                           2 if key == "center" else None)
        try:
            center = ob["center"]
            if kind == "circle":
                curves.append(make_circle(center, ob["radius"]))
            elif kind == "ellipse":
                curves.append(make_ellipse(center, ob["a"], ob["b"],
                                           ob.get("rotation", 0.0)))
            elif kind == "kite":
                curves.append(make_kite(center, ob["scale"]))
            else:
                curves.append(make_polar_fourier(center, ob["cos"],
                                                 ob.get("sin", ())))
        except KeyError as exc:
            raise SceneFileError(f"obstacle {i}: missing key {exc}") from exc
        except (TypeError, IndexError, ValueError) as exc:
            # SceneError is a ValueError: bad parameters land here as well
            raise SceneFileError(f"obstacle {i}: {exc}") from exc
        ns.append(_node_count(ob.get("n", default_n), f"obstacle {i}"))
    try:
        return make_scene(curves), ns
    except SceneError as exc:
        raise SceneFileError(str(exc)) from exc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path, header: Sequence[str], rows) -> None:
    out = sys.stdout if path in (None, "-") else open(path, "w", newline="\n")
    try:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) if isinstance(v, float) else str(v)
                               for v in row) + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _write_json(path, payload: dict) -> None:
    text = json.dumps(payload, indent=2, sort_keys=True)
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text + "\n")


_PLOT_TEMPLATE = """\
#!/usr/bin/env python3
# Companion plot script; reads the CSV written alongside it.
import csv
import sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open({csv!r})))
x = [float(r[{xcol!r}]) for r in rows]
y = [float(r[{ycol!r}]) for r in rows]
plt.semilogy(x, [abs(v) for v in y], "o-")
plt.xlabel({xcol!r})
plt.ylabel("|" + {ycol!r} + "|")
plt.tight_layout()
plt.savefig({png!r}, dpi=160)
print("wrote", {png!r})
"""


def _emit_plot(csv_path: str, xcol: str, ycol: str) -> None:
    if csv_path in (None, "-"):
        return
    script = csv_path + ".plot.py"
    with open(script, "w", newline="\n") as fh:
        fh.write(_PLOT_TEMPLATE.format(csv=csv_path, xcol=xcol, ycol=ycol,
                                       png=csv_path + ".png"))


def _spectral_grid(args) -> np.ndarray:
    if not 0 < args.kappa_min < args.kappa_max < np.inf:
        raise SceneFileError("need 0 < --kappa-min < --kappa-max < inf")
    return np.geomspace(args.kappa_min, args.kappa_max, args.kappa_count)


def _load(args):
    scene, ns = parse_scene_file(args.scene)
    if args.n is not None:
        ns = [args.n] * scene.n_obstacles
    try:
        return scene, discretize(scene, ns)
    except SceneError as exc:
        raise SceneFileError(str(exc)) from exc


def cmd_xi(args) -> int:
    scene, grid = _load(args)
    kappas = _spectral_grid(args)
    xi = xi_imag if args.axis == "imag" else xi_real
    samples = [xi(scene, grid, k) for k in kappas]
    rows = [(float(k), s.xi.real, s.xi.imag, s.branch_offset, s.err_est)
            for k, s in zip(kappas, samples)]
    _write_csv(args.output, ["kappa_or_lambda", "xi_re", "xi_im",
                             "branch_offset", "err_est"], rows)
    if args.emit_plot:
        _emit_plot(args.output, "kappa_or_lambda", "xi_re")
    return 0


def cmd_shift(args) -> int:
    scene, grid = _load(args)
    lams = _spectral_grid(args)
    shifts = xi_rel_many(scene, grid, lams)
    rows = [(s.lam, s.xi_rel, s.eta_used, s.err_est) for s in shifts]
    _write_csv(args.output, ["lambda", "xi_rel", "eta_used", "err_est"], rows)
    if args.emit_plot:
        _emit_plot(args.output, "lambda", "xi_rel")
    return 0


def _energy_payload(args, result, extra_cfg: dict) -> dict:
    payload = {
        "value": result.value,
        "quad_err": result.quad_err,
        "tail_bound": result.tail_bound,
        "config": {"scene": args.scene, "n": args.n, "tol": args.tol,
                   **extra_cfg},
    }
    if getattr(args, "samples", False):
        payload["samples"] = [[k, getattr(v, "real", v)] for k, v in result.samples]
    return payload


def cmd_energy(args) -> int:
    scene, grid = _load(args)
    res = casimir_energy(scene, grid, QuadConfig(tol=args.tol))
    _write_json(args.output, _energy_payload(args, res, {"kind": "casimir"}))
    return 0


def cmd_power(args) -> int:
    scene, grid = _load(args)
    res = power_trace(scene, grid, args.s, QuadConfig(tol=args.tol))
    _write_json(args.output, _energy_payload(args, res,
                                             {"kind": "power", "s": args.s}))
    return 0


def cmd_tracedf(args) -> int:
    scene, grid = _load(args)
    spec = SmoothFunctionSpec(a=args.a, t=args.t)
    res = trace_df(scene, grid, spec, QuadConfig(tol=args.tol), theta=args.theta)
    _write_json(args.output, _energy_payload(
        args, res, {"kind": "tracedf", "a": args.a, "t": args.t,
                    "theta": args.theta}))
    return 0


def cmd_force(args) -> int:
    scene, grid = _load(args)
    res = casimir_force(scene, grid, QuadConfig(tol=args.tol))
    axis = np.subtract(scene.obstacles[1].center, scene.obstacles[0].center)
    _write_json(args.output, _energy_payload(
        args, res, {"kind": "force", "separation": float(np.hypot(*axis)),
                    "sign_convention": "negative = attractive"}))
    return 0


# ---------------------------------------------------------------------------
# validation suites
# ---------------------------------------------------------------------------

def _suite_specfun(report):
    ok = True
    for n in range(0, 51, 5):
        for x in (0.1, 1.0, 10.0, 100.0):
            wjy = specfun.bessel_j(n + 1, x) * specfun.bessel_y(n, x) \
                - specfun.bessel_j(n, x) * specfun.bessel_y(n + 1, x) \
                - 2.0 / (np.pi * x)
            wik = specfun.bessel_i(n, x) * specfun.bessel_k(n + 1, x) \
                + specfun.bessel_i(n + 1, x) * specfun.bessel_k(n, x) - 1.0 / x
            scale = abs(2.0 / (np.pi * x))
            if abs(wjy) > 1e-13 * scale or abs(wik) > 1e-13 * abs(1.0 / x):
                ok = False
                report.append(f"FAIL specfun wronskian n={n} x={x}")
    report.append(f"{'PASS' if ok else 'FAIL'} specfun: Wronskian residuals")
    return ok


def _canonical():
    scene = make_scene([make_circle((0.0, 0.0), 1.0), make_circle((4.0, 0.0), 1.0)])
    return scene, discretize(scene, 96)


def _suite_nullity(report):
    ok = True
    for maker in (lambda: make_circle((0, 0), 1.0),
                  lambda: make_kite((0, 0), 1.0)):
        scene = make_scene([maker()])
        grid = discretize(scene, 96)
        for k in (0.3, 1.0, 2.0):
            v = abs(xi_imag(scene, grid, k).xi)
            if v > 1e-12:
                ok = False
                report.append(f"FAIL nullity |Xi| = {v:.2e}")
    report.append(f"{'PASS' if ok else 'FAIL'} nullity: single-obstacle Xi == 0")
    return ok


def _suite_scaling(report):
    scene, grid = _canonical()
    big = make_scene([make_circle((0.0, 0.0), 2.0), make_circle((8.0, 0.0), 2.0)])
    big_grid = discretize(big, 96)
    ok = True
    for k in (0.5, 1.0, 2.0):
        a = xi_imag(big, big_grid, k).xi.real
        b = xi_imag(scene, grid, 2.0 * k).xi.real
        if abs(a - b) > 1e-10 * (1 + abs(b)):
            ok = False
            report.append(f"FAIL scaling k={k}: {a} vs {b}")
    report.append(f"{'PASS' if ok else 'FAIL'} scaling: Xi_(2 scene)(i k) == Xi(2 i k)")
    return ok


def _suite_decay(report):
    scene, grid = _canonical()
    dprime = _DELTA_PRIME_FRACTION * scene.gap
    ks = np.linspace(8 / scene.gap, 16 / scene.gap, 5)
    vals = [abs(xi_imag(scene, grid, k).xi.real) for k in ks]
    ok = all(vals[i + 1] <= vals[i] * np.exp(-dprime * (ks[i + 1] - ks[i])) + 1e-14
             for i in range(len(ks) - 1))
    report.append(f"{'PASS' if ok else 'FAIL'} decay: exponential envelope")
    return ok


def _suite_oracle(report):
    scene, grid = _canonical()
    ok = True
    for k in (0.1, 1.0, 3.0):
        bem = xi_imag(scene, grid, k).xi.real
        pw = xi_two_disks(PartialWaveConfig(40, 1.0, 1.0, 4.0, k))
        if abs(bem - pw) > 1e-8 * (1 + abs(pw)):
            ok = False
            report.append(f"FAIL oracle k={k}: {bem} vs {pw}")
    report.append(f"{'PASS' if ok else 'FAIL'} oracle: partial-wave agreement")
    return ok


_SUITES = {
    "specfun": _suite_specfun,
    "nullity": _suite_nullity,
    "scaling": _suite_scaling,
    "decay": _suite_decay,
    "oracle": _suite_oracle,
}


def cmd_validate(args) -> int:
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    report: List[str] = []
    ok = True
    for name in names:
        ok = _SUITES[name](report) and ok
    text = "\n".join(report) + "\n"
    if args.output in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)
    return 0 if ok else 4


# ---------------------------------------------------------------------------

def _checked(kind, ok, domain: str):
    """argparse type: kind(text), rejected with exit 2 unless ok(value)."""
    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {domain}, got {text}")
        return value
    parse.__name__ = kind.__name__      # argparse names it in "invalid ... value"
    return parse


_POSITIVE = _checked(float, lambda v: v > 0, "positive")
_COUNT = _checked(int, lambda v: v >= 1, "at least 1")


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="layerdet")
    sub = p.add_subparsers(dest="command", required=True)

    optional = {
        "tol": dict(type=_POSITIVE, default=1e-8),
        "emit-plot": dict(action="store_true"),
        "samples": dict(action="store_true",
                        help="include the spectral samples in JSON output"),
    }

    def common(sp, *flags):
        sp.add_argument("--scene", required=True)
        sp.add_argument("--n", type=int, default=None)
        sp.add_argument("--output", default=None)
        for flag in flags:
            sp.add_argument(f"--{flag}", **optional[flag])

    sp = sub.add_parser("xi", help="Xi along a spectral grid")
    common(sp, "emit-plot")
    sp.add_argument("--axis", choices=("imag", "real"), default="imag")
    sp.add_argument("--kappa-min", type=float, default=0.1)
    sp.add_argument("--kappa-max", type=float, default=10.0)
    sp.add_argument("--kappa-count", type=_COUNT, default=32)
    sp.set_defaults(fn=cmd_xi)

    sp = sub.add_parser("shift", help="relative spectral shift on a lambda grid")
    common(sp, "emit-plot")
    sp.add_argument("--kappa-min", type=float, default=0.1)
    sp.add_argument("--kappa-max", type=float, default=5.0)
    sp.add_argument("--kappa-count", type=_COUNT, default=16)
    sp.set_defaults(fn=cmd_shift)

    sp = sub.add_parser("energy", help="Casimir energy")
    common(sp, "tol", "samples")
    sp.set_defaults(fn=cmd_energy)

    sp = sub.add_parser("power", help="fractional power trace")
    common(sp, "tol", "samples")
    sp.add_argument("--s", type=_checked(float, lambda v: 0 < v <= 1, "in (0, 1]"),
                    required=True)
    sp.set_defaults(fn=cmd_power)

    sp = sub.add_parser("tracedf", help="smoothed relative trace Tr D_f")
    common(sp, "tol", "samples")
    sp.add_argument("--a", type=_POSITIVE, required=True)
    sp.add_argument("--t", type=_POSITIVE, required=True)
    sp.add_argument("--theta", default=np.pi / 8,
                    type=_checked(float, lambda v: 0 < v < np.pi / 4, "in (0, pi/4)"))
    sp.set_defaults(fn=cmd_tracedf)

    about = ("Casimir force on obstacle 1 of two, along the line from obstacle "
             "0's centre, exact in the separation: -(1/pi) times the integral "
             "of Tr[Q^-1 dT/ds] over kappa; negative = attractive")
    sp = sub.add_parser("force", help=about, description=about)
    common(sp, "tol")
    sp.set_defaults(fn=cmd_force)

    sp = sub.add_parser("validate", help="run an invariant suite")
    sp.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    sp.add_argument("--output", default=None)
    sp.set_defaults(fn=cmd_validate)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except SceneFileError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except LayerDetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
