"""Command-line front end: scene files in, CSV/JSON results out.

Scene files are strict JSON: a version field, dimension 2, a default node
count, and a list of obstacles; unknown keys are errors, not warnings.
Numeric output is deterministic (17 significant digits, LF endings, no
timestamps) so runs can be diffed and used as golden references.

Exit codes: 0 success, 2 parse error, 3 numerical failure, 4 validation
failure, 5 a spectral integral failed on nodes the boundary grid does not
resolve.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

import numpy as np

from . import specfun
from .energy import (QuadConfig, SmoothFunctionSpec, casimir_energy,
                     casimir_force, power_trace, trace_df)
from .errors import LayerDetError, SceneError, SceneFileError, UnresolvedGridError
from .geometry import discretize, make_circle, make_ellipse, make_kite, \
    make_polar_fourier, make_scene
from .oracle import PartialWaveConfig, xi_two_disks
from .xi import _DELTA_PRIME_FRACTION, xi_imag, xi_real, xi_rel_many

_SCENE_KEYS = {"version", "dimension", "n", "obstacles"}
#: kind -> (factory, required keys, optional keys with their defaults), the
#: keys in the factory's argument order; "kind" and "n" are allowed on all
_OBSTACLES = {
    "circle": (make_circle, ("center", "radius"), {}),
    "ellipse": (make_ellipse, ("center", "a", "b"), {"rotation": 0.0}),
    "kite": (make_kite, ("center", "scale"), {}),
    "polar_fourier": (make_polar_fourier, ("center", "cos"), {"sin": ()}),
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
        if not isinstance(kind, str) or kind not in _OBSTACLES:
            raise SceneFileError(f"obstacle {i}: unknown kind {kind!r}")
        factory, required, optional = _OBSTACLES[kind]
        unknown = set(ob) - {"kind", "n", *required, *optional}
        if unknown:
            raise SceneFileError(f"obstacle {i}: unknown keys {sorted(unknown)}")
        for key in sorted(set(ob) - {"kind", "n"}):
            _check_numbers(ob[key], f"obstacle {i}: \"{key}\"",
                           2 if key == "center" else None)
        try:
            curves.append(factory(*(ob[key] for key in required),
                                  *(ob.get(key, v) for key, v in optional.items())))
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


def _write_text(path, text: str) -> None:
    """text to stdout for path None or "-", else to the file, LF endings."""
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)


def _write_csv(path, header: Sequence[str], rows) -> None:
    lines = [",".join(header)] + [",".join(_fmt(v) if isinstance(v, float) else str(v)
                                           for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _write_json(path, payload: dict) -> None:
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


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
    if csv_path not in (None, "-"):
        _write_text(csv_path + ".plot.py", _PLOT_TEMPLATE.format(
            csv=csv_path, xcol=xcol, ycol=ycol, png=csv_path + ".png"))


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
        "disc_err": result.disc_err,
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

def _canonical():
    scene = make_scene([make_circle((0.0, 0.0), 1.0), make_circle((4.0, 0.0), 1.0)])
    return scene, discretize(scene, 96)


def _wronskian():
    # J/Y and I/K Wronskians, each relative to its exact value
    worst = 0.0
    for n in range(0, 51, 5):
        for x in (0.1, 1.0, 10.0, 100.0):
            wjy = specfun.bessel_j(n + 1, x) * specfun.bessel_y(n, x) \
                - specfun.bessel_j(n, x) * specfun.bessel_y(n + 1, x) \
                - 2.0 / (np.pi * x)
            wik = specfun.bessel_i(n, x) * specfun.bessel_k(n + 1, x) \
                + specfun.bessel_i(n + 1, x) * specfun.bessel_k(n, x) - 1.0 / x
            worst = max(worst, abs(wjy) / (2.0 / (np.pi * x)), abs(wik) / (1.0 / x))
    return worst


def _nullity():
    grids = [discretize(make_scene([make((0, 0), 1.0)]), 96)
             for make in (make_circle, make_kite)]
    return max(abs(xi_imag(g.scene, g, k).xi) for g in grids for k in (0.3, 1.0, 2.0))


def _scaling():
    scene, grid = _canonical()
    big = make_scene([make_circle((0.0, 0.0), 2.0), make_circle((8.0, 0.0), 2.0)])
    big_grid = discretize(big, 96)
    a = [xi_imag(big, big_grid, k).xi.real for k in (0.5, 1.0, 2.0)]
    b = [xi_imag(scene, grid, 2.0 * k).xi.real for k in (0.5, 1.0, 2.0)]
    return max(abs(x - y) / (1 + abs(y)) for x, y in zip(a, b))


def _decay():
    scene, grid = _canonical()
    dprime = _DELTA_PRIME_FRACTION * scene.gap
    ks = np.linspace(8 / scene.gap, 16 / scene.gap, 5)
    vals = [abs(xi_imag(scene, grid, k).xi.real) for k in ks]
    return max(vals[i + 1] - vals[i] * np.exp(-dprime * (ks[i + 1] - ks[i]))
               for i in range(len(ks) - 1))


def _oracle():
    scene, grid = _canonical()
    bem = [xi_imag(scene, grid, k).xi.real for k in (0.1, 1.0, 3.0)]
    pw = [xi_two_disks(PartialWaveConfig(40, 1.0, 1.0, 4.0, k)) for k in (0.1, 1.0, 3.0)]
    return max(abs(x - y) / (1 + abs(y)) for x, y in zip(bem, pw))


#: suite: (worst residual, its bound, what the residual measures)
_SUITES = {
    "specfun": (_wronskian, 1e-13, "relative Wronskian residual"),
    "nullity": (_nullity, 1e-12, "single-obstacle |Xi|"),
    "scaling": (_scaling, 1e-10, "Xi_(2 scene)(i k) - Xi(2 i k), relative"),
    "decay": (_decay, 1e-14, "excess over the exponential envelope"),
    "oracle": (_oracle, 1e-8, "partial-wave difference, relative"),
}


def cmd_validate(args) -> int:
    lines, ok = [], True
    for name in (list(_SUITES) if args.suite == "all" else [args.suite]):
        residual, bound, label = _SUITES[name]
        worst = residual()
        passed = worst <= bound
        ok = ok and passed
        lines.append(f"{'PASS' if passed else 'FAIL'} {name}: {label} {worst:.2e} "
                     f"{'<=' if passed else '>'} {bound:.0e}")
    _write_text(args.output, "\n".join(lines) + "\n")
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


_POSITIVE = _checked(float, lambda v: 0 < v < np.inf, "positive and finite")
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
    except UnresolvedGridError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 5
    except LayerDetError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
