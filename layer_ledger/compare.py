"""Spread and diff of saved layer-ledger runs.

Usage (from the repository root)::

    python3 layer_ledger/compare.py spread RUNS_DIR
    python3 layer_ledger/compare.py diff BASE_DIR NEW_DIR

``RUNS_DIR`` holds run outputs as ``sweep.py`` writes them.  ``spread``
prints, per workload and end-to-end metric, the median and the distance
between the first and third quartile as a share of the median, next to
the metric's bound from ``BENCHMARK.json``.  ``diff`` compares two sets
workload by workload: a metric is a regression when the new median is
worse than the base median by more than its bound, and unresolved when
either side's spread exceeds the bound (unless every new run beats every
base run).  For each end-to-end change it names the per-layer metric
(from the ``--trace 1`` runs in both sets) that moved most, and flags
simulated-cost digests that differ for the same seed.  Exit code 1 when
a regression or digest change is found.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
DETAIL_PREFIX = "LEDGER_DETAIL "

Run = Dict[str, Any]


def load_runs(directory: Path) -> Dict[Tuple[str, int], List[Run]]:
    """(workload, trace) -> runs, each {seed, payload, detail}."""
    out: Dict[Tuple[str, int], List[Run]] = defaultdict(list)
    for path in sorted(directory.glob("*.out")):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        if not lines:
            continue
        try:
            payload = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"skipping {path}: no payload line", file=sys.stderr)
            continue
        detail = next((json.loads(ln[len(DETAIL_PREFIX):])
                       for ln in lines if ln.startswith(DETAIL_PREFIX)),
                      {})
        key = (detail.get("workload", path.name.split(".")[0]),
               int(detail.get("trace", 0)))
        out[key].append({"seed": detail.get("seed"), "payload": payload,
                         "detail": detail, "path": str(path)})
    return out


def load_bounds(path: Path = ROOT / "BENCHMARK.json"
                ) -> Dict[str, Dict[str, Any]]:
    spec = json.loads(path.read_text())
    return {m["name"]: m for m in spec["end_to_end"]}


def values(runs: List[Run], metric: str) -> List[float]:
    return [float(r["payload"]["metrics"][metric]["value"]) for r in runs
            if metric in r["payload"]["metrics"]]


def spread(vals: List[float]) -> Tuple[float, float, float, float]:
    """(median, q1, q3, (q3 - q1) / median)."""
    med = statistics.median(vals)
    if len(vals) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return med, q1, q3, ((q3 - q1) / med if med else float("inf"))


def worse_share(base: float, new: float, better: str) -> float:
    """How much worse ``new`` is than ``base`` (negative = better)."""
    if base == 0:
        return 0.0
    change = (new - base) / base
    return change if better == "lower" else -change


def cmd_spread(directory: Path) -> int:
    bounds = load_bounds()
    runs = load_runs(directory)
    status = 0
    for (workload, trace), group in sorted(runs.items()):
        if trace:
            continue
        correct = sum(bool(r["payload"]["correct"]) for r in group)
        print(f"{workload}: {len(group)} runs, {correct} correct")
        for name, spec in bounds.items():
            vals = values(group, name)
            if not vals:
                continue
            med, q1, q3, share = spread(vals)
            limit = spec["bound"]
            verdict = ("ok" if share <= limit / 3 else
                       "within bound" if share <= limit else "UNSTEADY")
            if name == "setup_s":
                verdict = "not gated"
            elif verdict == "UNSTEADY":
                status = 1
            print(f"  {name:18s} median {med:12.4f}  q1 {q1:12.4f}  "
                  f"q3 {q3:12.4f}  spread {share:7.2%}  bound "
                  f"{limit:.0%}  {verdict}")
        digests = defaultdict(set)
        for r in group:
            digests[r["seed"]].add(r["detail"].get("cost_digest"))
        unstable = [s for s, d in digests.items() if len(d) > 1]
        if unstable:
            status = 1
            print(f"  cost digest differs between runs of seeds "
                  f"{unstable}")
    return status


def _layer_medians(runs: List[Run]) -> Dict[str, float]:
    names = set()
    for r in runs:
        names.update(r["payload"]["metrics"])
    return {n: statistics.median(values(runs, n)) for n in names
            if values(runs, n)}


def _top_mover(base: List[Run], new: List[Run]) -> Optional[str]:
    if not base or not new:
        return None
    b, n = _layer_medians(base), _layer_medians(new)
    moves = []
    for name in b.keys() & n.keys():
        if name.startswith(("gpusim.", "obs.")) or b[name] == 0:
            continue
        moves.append((abs(n[name] - b[name]) / abs(b[name]), name,
                      (n[name] - b[name]) / abs(b[name])))
    if not moves:
        return None
    _, name, change = max(moves)
    return f"{name} {change:+.1%}"


def cmd_diff(base_dir: Path, new_dir: Path) -> int:
    bounds = load_bounds()
    base_runs, new_runs = load_runs(base_dir), load_runs(new_dir)
    status = 0
    workloads = sorted({w for w, t in base_runs} | {w for w, t in new_runs})
    for workload in workloads:
        base = base_runs.get((workload, 0), [])
        new = new_runs.get((workload, 0), [])
        print(f"{workload}: {len(base)} base runs, {len(new)} new runs")
        if not base or not new:
            continue
        mover = _top_mover(base_runs.get((workload, 1), []),
                           new_runs.get((workload, 1), []))
        for name, spec in bounds.items():
            bv, nv = values(base, name), values(new, name)
            if not bv or not nv:
                continue
            bmed, _, _, bspread = spread(bv)
            nmed, _, _, nspread = spread(nv)
            worse = worse_share(bmed, nmed, spec["better"])
            limit = spec["bound"]
            lower = spec["better"] == "lower"
            all_better = (max(nv) < min(bv)) if lower else \
                (min(nv) > max(bv))
            if max(bspread, nspread) > limit and not all_better:
                verdict = "unresolved (spread above bound)"
            elif worse > limit:
                verdict = "REGRESSION"
                status = 1
            elif -worse > max(bspread, nspread):
                verdict = "improved"
            else:
                verdict = "unchanged"
            why = f"  <- {mover}" if mover and verdict != "unchanged" \
                else ""
            print(f"  {name:18s} {bmed:12.4f} -> {nmed:12.4f}  "
                  f"worse {worse:+7.2%} (bound {limit:.0%}, spreads "
                  f"{bspread:.1%}/{nspread:.1%})  {verdict}{why}")
        pcts = {r["detail"].get("latency", {}).get("tail_percentile")
                for r in base + new}
        if len(pcts) > 1:
            print(f"  latency_ms.tail mixes percentiles {sorted(pcts)}: "
                  f"some runs collected too few samples for the pinned "
                  f"one")
        base_digest = {r["seed"]: r["detail"].get("cost_digest")
                       for r in base}
        for r in new:
            old = base_digest.get(r["seed"])
            if old is not None and old != r["detail"].get("cost_digest"):
                status = 1
                print(f"  seed {r['seed']}: simulated-cost digest "
                      f"changed {old} -> {r['detail'].get('cost_digest')}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sp = sub.add_parser("spread")
    sp.add_argument("runs", type=Path)
    df = sub.add_parser("diff")
    df.add_argument("base", type=Path)
    df.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    if args.command == "spread":
        return cmd_spread(args.runs)
    return cmd_diff(args.base, args.new)


if __name__ == "__main__":
    sys.exit(main())
