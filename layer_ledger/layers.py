"""Per-layer figures from a recorded span list.

A traced run yields span dicts (``repro.obs`` format: name, span_id,
parent_id, start_ms, duration_ms, pid, attrs).  This module turns them
into the per-layer ledger:

* **Self time, exactly partitioned.**  For the spans of one process, every
  instant inside a root span is charged to the innermost spans active at
  that instant, split evenly when several run at once (thread pools).
  Children are first clipped to their parent's interval, so the charges
  sum to the roots' total duration: layer self times plus the
  ``unattributed`` remainder (time no program span covers) account for
  the traced wall time.
* **Span totals** by name, across every process (pool workers included).

Spans recorded by other processes (process-pool workers) run in
parallel with the coordinator; they are reported through the span
totals and left out of the coordinator's partition.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: span-name prefix -> repo module (the layer it is charged to)
LAYER_OF_PREFIX = {
    "gsi": "core",
    "kernel": "core",
    "batch": "service",
    "executor": "service",
    "stream": "dynamic",
    "shm": "storage",
    "serve": "serve",
}

#: the layers the self-time partition reports, plus the remainder
PARTITION_LAYERS = ("core", "service", "dynamic", "storage", "serve",
                    "unattributed")

Span = Dict[str, Any]


def layer_of(name: str) -> str:
    """The layer a span name belongs to; benchmark and CLI root spans
    (and anything unknown) are the ``unattributed`` remainder."""
    return LAYER_OF_PREFIX.get(name.split(".", 1)[0], "unattributed")


def _interval(span: Span) -> Tuple[float, float]:
    start = float(span["start_ms"])
    return start, start + max(0.0, float(span["duration_ms"]))


#: slack (ms) when testing whether a parent's interval holds a child's:
#: start times come from the wall clock, durations from perf_counter
CONTAIN_SLACK_MS = 0.05


def _containing_ancestor(sid: str, by_id: Dict[str, Span],
                         declared: Dict[str, Optional[str]]
                         ) -> Optional[str]:
    """The nearest declared ancestor whose interval holds the span.

    A span can name a parent that ran before it (``gsi.execute`` is
    parented to the ``gsi.prepare`` that produced its query); its time
    belongs to the ancestor that was running when it ran.  Falls back
    to the outermost ancestor.
    """
    lo, hi = _interval(by_id[sid])
    cur = declared[sid]
    outermost = cur
    while cur is not None:
        plo, phi = _interval(by_id[cur])
        if plo - CONTAIN_SLACK_MS <= lo and hi <= phi + CONTAIN_SLACK_MS:
            return cur
        outermost = cur
        cur = declared[cur]
    return outermost


def _clipped_intervals(spans: Sequence[Span]
                       ) -> Tuple[Dict[str, Tuple[float, float]],
                                  Dict[str, Optional[str]],
                                  Dict[str, int]]:
    """Intervals clipped into their parents, parent links restricted to
    ``spans``, and depths (roots are depth 0)."""
    by_id = {s["span_id"]: s for s in spans}
    declared = {sid: (s.get("parent_id") if s.get("parent_id") in by_id
                      else None) for sid, s in by_id.items()}
    parent = {sid: _containing_ancestor(sid, by_id, declared)
              for sid in by_id}
    clipped: Dict[str, Tuple[float, float]] = {}
    depth: Dict[str, int] = {}

    def resolve(sid: str) -> None:
        chain = []
        cur: Optional[str] = sid
        while cur is not None and cur not in clipped:
            chain.append(cur)
            cur = parent[cur]
        for node in reversed(chain):
            lo, hi = _interval(by_id[node])
            p = parent[node]
            if p is None:
                depth[node] = 0
            else:
                plo, phi = clipped[p]
                lo = min(max(lo, plo), phi)
                hi = min(max(hi, lo), phi)
                depth[node] = depth[p] + 1
            clipped[node] = (lo, hi)

    for sid in by_id:
        resolve(sid)
    return clipped, parent, depth


def partition_self_ms(spans: Sequence[Span]) -> Tuple[Dict[str, float],
                                                      float]:
    """Exact self-time partition of one process's spans.

    Returns ``(ms charged per span name, total root wall ms)``; the
    charges sum to the root total up to float rounding.
    """
    if not spans:
        return {}, 0.0
    clipped, parent, depth = _clipped_intervals(spans)
    name = {s["span_id"]: s["name"] for s in spans}
    events = []
    for sid, (lo, hi) in clipped.items():
        if hi <= lo:
            continue
        # at equal times: ends (children first) before starts (parents
        # first), so the active-children counts never go negative
        events.append((hi, 0, -depth[sid], sid))
        events.append((lo, 1, depth[sid], sid))
    events.sort()
    charged: Dict[str, float] = defaultdict(float)
    active_children: Dict[str, int] = defaultdict(int)
    active = set()
    leaves = set()
    last_t = None
    for t, kind, _, sid in events:
        if last_t is not None and leaves and t > last_t:
            share = (t - last_t) / len(leaves)
            for leaf in leaves:
                charged[name[leaf]] += share
        last_t = t
        p = parent[sid]
        if kind == 1:
            active.add(sid)
            leaves.add(sid)
            if p is not None and p in active:
                active_children[p] += 1
                leaves.discard(p)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if p is not None and p in active:
                active_children[p] -= 1
                if active_children[p] == 0:
                    leaves.add(p)
    root_total = 0.0
    for sid, (lo, hi) in clipped.items():
        if parent[sid] is None:
            root_total += hi - lo
    return dict(charged), root_total


def partition_by_layer(spans: Sequence[Span], pid: int
                       ) -> Tuple[Dict[str, float], float]:
    """Self ms per layer for the spans of process ``pid``."""
    own = [s for s in spans if s.get("pid") == pid]
    by_name, wall = partition_self_ms(own)
    layers = {layer: 0.0 for layer in PARTITION_LAYERS}
    for span_name, ms in by_name.items():
        layer = layer_of(span_name)
        layers[layer if layer in layers else "unattributed"] += ms
    return layers, wall


def totals_by_name(spans: Iterable[Span]) -> Dict[str, float]:
    """Summed durations (ms) per span name, across all processes."""
    out: Dict[str, float] = defaultdict(float)
    for s in spans:
        out[s["name"]] += float(s["duration_ms"])
    return dict(out)


def self_outside_children(spans: Sequence[Span], parent_name: str,
                          child_name: str) -> float:
    """Σ over ``parent_name`` spans of their duration minus the union of
    their direct ``child_name`` children's intervals (ms)."""
    children: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s["name"] == child_name and s.get("parent_id"):
            children[s["parent_id"]].append(_interval(s))
    total = 0.0
    for s in spans:
        if s["name"] != parent_name:
            continue
        lo, hi = _interval(s)
        covered = 0.0
        cur_lo = cur_hi = None
        for clo, chi in sorted(children.get(s["span_id"], [])):
            clo, chi = max(clo, lo), min(chi, hi)
            if chi <= clo:
                continue
            if cur_hi is None or clo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = clo, chi
            else:
                cur_hi = max(cur_hi, chi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        total += (hi - lo) - covered
    return total


def ledger_from_spans(spans: Sequence[Span], pid: int, ops: int
                      ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """The span-derived per-layer figures common to every workload.

    Returns ``(metrics per op, raw span totals)``.  ``ops`` is the
    number of benchmark operations the spans cover.
    """
    if ops < 1:
        raise ValueError("need at least one traced operation")
    totals = totals_by_name(spans)
    layers, wall = partition_by_layer(spans, pid)

    def per_op(ms: float) -> float:
        return ms / ops

    metrics = {
        "core.prepare_ms": per_op(totals.get("gsi.prepare", 0.0)),
        "core.filter_ms": per_op(totals.get("gsi.filter", 0.0)),
        "core.plan_ms": per_op(totals.get("gsi.plan", 0.0)),
        "core.execute_ms": per_op(totals.get("gsi.execute", 0.0)),
        "core.join_kernel_ms": per_op(
            totals.get("kernel.join_phase", 0.0)),
        "core.materialize_ms": per_op(self_outside_children(
            spans, "gsi.execute", "kernel.join_phase")),
        "obs.traced_wall_ms": per_op(wall),
    }
    for layer in PARTITION_LAYERS:
        metrics[f"self.{layer}_ms"] = per_op(layers[layer])
    return metrics, totals


def check_partition(metrics: Dict[str, float],
                    tolerance: float = 1e-6) -> Optional[str]:
    """An error message when layer self times plus the remainder do not
    add up to the traced wall time, else None."""
    parts = sum(metrics[f"self.{layer}_ms"] for layer in PARTITION_LAYERS)
    wall = metrics["obs.traced_wall_ms"]
    if abs(parts - wall) > tolerance * max(1.0, wall):
        return (f"self-time partition {parts:.6f} ms/op != traced wall "
                f"{wall:.6f} ms/op")
    return None
