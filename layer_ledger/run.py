"""Run one layer-ledger workload and print its payload.

Usage (from the repository root)::

    python3 layer_ledger/run.py --workload enum-heavy --seed 1 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The line before it starts with ``LEDGER_DETAIL`` and carries the rest
of the record (machine, join lane, tail percentile and sample count,
simulated-cost digest, workload-specific figures) as JSON; ``compare.py``
reads both.  The exit code is 0 when the run completed, 1 when an
output check failed, 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import importlib
import json
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETAIL_PREFIX = "LEDGER_DETAIL "


def _prepare_imports() -> list:
    """Strip ``GSI_*`` overrides and put the checkout's sources first."""
    from layer_ledger.common import strip_gsi_env

    removed = strip_gsi_env()
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"layer_ledger: no program sources under {src}; run from "
              f"a full checkout of the repository", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    return removed


def _check_spec(declared: dict, trace: int, workload: str) -> None:
    """Refuse to print metrics that drift from ``BENCHMARK.json`` for a
    workload it lists (names and units must match exactly)."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        return
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: unit for name, (unit, _) in declared.items()}
    if got != expected:
        print(f"layer_ledger: metrics drift from {path.name}: "
              f"{sorted(set(got) ^ set(expected))}", file=sys.stderr)
        raise SystemExit(2)


def _raise_exit(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from layer_ledger import catalog

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(catalog.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    declared = dict(catalog.PER_LAYER if args.trace else catalog.END_TO_END)
    if args.trace and args.workload == "serve-tcp":
        declared.update(catalog.SERVE_LAYER)
    _check_spec(declared, args.trace, args.workload)

    removed = _prepare_imports()
    from layer_ledger import common

    # A SIGTERM unwinds like an exception so the processes are stopped.
    signal.signal(signal.SIGTERM, _raise_exit)
    try:
        workload = importlib.import_module(
            "layer_ledger." + args.workload.replace("-", "_"))
        result = workload.run(args.seed, args.seconds, bool(args.trace))
    finally:
        common.stop_children()

    unknown = sorted(set(result.metrics) - set(declared))
    if unknown:
        raise common.BenchError(f"undeclared metrics {unknown}")
    metrics = {}
    for name, (unit, _) in declared.items():
        # A layer the workload never enters did no work on it.
        value = float(result.metrics.get(name, 0.0))
        metrics[name] = {"value": value, "unit": unit}

    detail = dict(result.detail)
    detail.update(workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  machine=common.machine_info(),
                  stripped_env=removed,
                  mismatches=result.mismatches[:20])
    print(DETAIL_PREFIX + json.dumps(detail, sort_keys=True,
                                     default=str))
    for line in result.mismatches[:20]:
        print(f"MISMATCH {line}", file=sys.stderr)
    print(json.dumps({"correct": bool(result.correct),
                      "attempted": int(result.attempted),
                      "failed": int(result.failed),
                      "metrics": metrics}))
    sys.stdout.flush()
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
