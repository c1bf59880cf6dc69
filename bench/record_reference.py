"""Record the trace_df reference used by the shift_contour gate.

Computes Tr D_f for f(lambda) = lambda^2 e^{-4 lambda^2} on the canonical
two disks (gap 2, n = 96, contour tol 1e-9), cross-checks it against the
real-axis Birman-Krein representation at acceptance criterion 08's relative
1e-3, and writes bench/reference.json only if the cross-check holds.

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import layerdet as ld  # noqa: E402

from workloads import REFERENCE, ShiftContour, two_disks  # noqa: E402

BK_REL = 1e-3


def main() -> int:
    wl = ShiftContour(0)
    scene = two_disks(wl.gap)
    grid = ld.discretize(scene, wl.n)
    value = ld.trace_df(scene, grid, wl.spec, ld.QuadConfig(tol=wl.tol)).value
    bk = ld.birman_krein_trace(scene, grid, wl.spec)
    rel = abs(value - bk) / abs(bk)
    print(f"trace_df {value!r}  birman_krein {bk!r}  rel {rel:.2e} (<= {BK_REL:g})")
    if not rel <= BK_REL:
        print("cross-check failed; reference not written", file=sys.stderr)
        return 1
    REFERENCE.write_text(json.dumps({"trace_df": {
        "scene": "two unit disks, gap 2", "n": wl.n, "a": wl.spec.a,
        "t": wl.spec.t, "theta": "pi/8", "tol": wl.tol, "value": value,
        "birman_krein": bk, "rel_diff": rel, "rel_bound": BK_REL,
    }}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
