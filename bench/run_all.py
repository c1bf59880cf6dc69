"""Run every workload untraced, one process each, on one seed.

    python3 bench/run_all.py [--seed N] [--seconds S]

Streams each run's report (every end-to-end metric by name, with unit and
sample count, and the correctness gates) and exits non-zero if any run fails
or reports an incorrect result.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("energy_disks", "shift_contour", "derivative_fields")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=int, default=20)
    args = p.parse_args()
    run = Path(__file__).resolve().with_name("run.py")
    ok = True
    for w in WORKLOADS:
        res = subprocess.run([sys.executable, str(run), "--workload", w,
                              "--seed", str(args.seed), "--seconds",
                              str(args.seconds), "--trace", "0"],
                             capture_output=True, text=True, timeout=180)
        sys.stdout.write(res.stdout)
        sys.stderr.write(res.stderr)
        lines = res.stdout.strip().splitlines()
        good = res.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
        print(f"== {w}: {'ok' if good else 'FAILED'}\n")
        ok &= good
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
