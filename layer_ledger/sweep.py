"""Run a workload over several seeds and save each run's output.

Usage (from the repository root)::

    python3 layer_ledger/sweep.py --workload enum-heavy --seeds 1-10 \\
        --seconds 10 --out ledger-runs/head

Each run's standard output lands in ``OUT/<workload>.<trace>.<seed>.out``
(the format ``compare.py`` reads).  Runs are sequential, so they never
compete with each other for the machine.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, action="append",
                        help="repeatable")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for workload in args.workload:
        for seed in parse_seeds(args.seeds):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(args.seconds), "--trace", str(args.trace)],
                capture_output=True, text=True, check=False)
            path = out / f"{workload}.{args.trace}.{seed}.out"
            path.write_text(proc.stdout)
            if proc.returncode != 0:
                status = 1
                sys.stderr.write(proc.stderr[-2000:])
            print(f"{workload} seed {seed}: rc={proc.returncode} "
                  f"{time.perf_counter() - t0:.1f}s -> {path}",
                  flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
