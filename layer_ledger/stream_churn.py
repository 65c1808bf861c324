"""``stream-churn``: the write path beside the reads.

Continuous queries are registered on ``StreamEngine(gowalla_like(),
GSIConfig.gsi_opt())``; one caller applies ``random_update_stream``
batches of 64 ops back to back.  Half the ops are deletes, so |E| stays
near its starting size and per-batch cost does not drift with run
length.  Exercises PCSR in-place maintenance, CSR-splice commits and
delta matching on the same storage and core layers.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterator, List, Tuple

import numpy as np

from layer_ledger import common, tracing
from layer_ledger.common import OpLog, RunResult

from repro import GSIConfig, GSIEngine, StreamEngine
from repro.dynamic import random_update_stream
from repro.graph import datasets
from repro.graph.generators import random_walk_query
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.trace import tracing_active

BATCH_OPS = 64
DELETE_FRACTION = 0.5
#: batches generated per call of random_update_stream (outside timing)
SEGMENT = 50
WARMUP_BATCHES = 16
#: (query vertices, count) of the registered continuous queries
QUERY_SIZES = ((4, 4), (5, 4))
#: the upper quartile: over twelve 12 s runs on a shared 2-core host the
#: quartile spread of this 13 ms call's p90 and p95 was 21-23% (short
#: calls lose whole scheduler slices), against 11% for p75
TAIL_PCT = 75.0
#: batches per slice of the median-of-slices throughput
RATE_CHUNK = 50
#: batches per pass of the traced run
TRACE_PASS_BATCHES = 25


def catalogue(graph: LabeledGraph) -> List[LabeledGraph]:
    """The fixed continuous-query catalogue (``CATALOGUE_SEED``)."""
    rng = np.random.default_rng(common.CATALOGUE_SEED)
    return [random_walk_query(graph, size, seed=int(rng.integers(2 ** 31)))
            for size, count in QUERY_SIZES for _ in range(count)]


class UpdateFeed:
    """The seeded update stream, generated a segment at a time against
    the engine's current snapshot (so deletes always name live edges)."""

    def __init__(self, engine: StreamEngine, seed: int) -> None:
        self.engine = engine
        self.seed = seed
        self.segment = 0
        self._pending: Iterator[Any] = iter(())

    def next(self) -> Any:
        delta = next(self._pending, None)
        if delta is None:
            self._pending = iter(random_update_stream(
                self.engine.graph, SEGMENT, BATCH_OPS,
                seed=common.derive_seed(self.seed, self.segment),
                delete_fraction=DELETE_FRACTION))
            self.segment += 1
            delta = next(self._pending)
        return delta


def _report_entry(report: Any) -> Tuple[Any, ...]:
    m = report.maintenance
    return (report.num_inserted, report.num_deleted,
            report.num_new_vertices, report.commit_transactions,
            int(m.gld), int(m.gst), int(m.kernel_launches),
            report.rebuilds, report.compactions,
            report.total_created, report.total_destroyed)


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    config = GSIConfig.gsi_opt()
    queries = catalogue(datasets.gowalla_like())
    digests: List[str] = []
    entries: List[Tuple[Any, ...]] = []

    def setup() -> Tuple[StreamEngine, UpdateFeed]:
        engine = StreamEngine(datasets.gowalla_like(), config)
        qids = [engine.register(q) for q in queries]
        registered = [common.cost_entry(engine.initial_result(qid))
                      for qid in qids]
        feed = UpdateFeed(engine, seed)
        warm = [_report_entry(engine.apply_batch(feed.next()))
                for _ in range(WARMUP_BATCHES)]
        entries[:] = registered
        digests.append(common.cost_digest(registered + warm))
        return engine, feed

    setup_s, (engine, feed) = common.median_setup(setup)
    mismatches: List[str] = []
    if len(set(digests)) != 1:
        mismatches.append(f"set-up repeats disagree: {digests}")

    errors: List[str] = []
    counters: Dict[str, float] = dict.fromkeys(
        ("commit_tx", "gld", "gst", "compactions", "rebuilds",
         "invalidated"), 0.0)

    def one_batch(arm: OpLog) -> None:
        delta = feed.next()
        arm.attempted += 1
        t = time.perf_counter()
        try:
            with tracing.op_span("ledger.stream.apply_batch"):
                report = engine.apply_batch(delta)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            arm.failed += 1
            errors.append(repr(exc))
            return
        arm.record(time.perf_counter() - t, work=delta.num_ops,
                   units=report.total_created + report.total_destroyed)
        if tracing_active():
            counters["commit_tx"] += report.commit_transactions
            counters["gld"] += report.maintenance.gld
            counters["gst"] += report.maintenance.gst
            counters["compactions"] += report.compactions
            counters["rebuilds"] += report.rebuilds
            counters["invalidated"] += report.plans_invalidated

    layer: Dict[str, float] = {}
    if trace:
        layer.update(tracing.setup_layers(datasets.gowalla_like, config))

        def one_pass(_pass_index: int, arm: OpLog) -> None:
            for _ in range(TRACE_PASS_BATCHES):
                one_batch(arm)

        arms = tracing.alternate_arms(one_pass, seconds)
        spans = arms.tracer.finished()
        ops = len(arms.traced.durations_ms)
        ledger, totals = tracing.ledger(spans, ops)
        layer.update(ledger)
        apply_ms = totals.get("stream.apply_batch", 0.0)
        delta_ms = totals.get("stream.query_delta", 0.0)
        layer.update({
            "dynamic.apply_ms": apply_ms / ops,
            "dynamic.delta_ms": delta_ms / ops,
            "dynamic.maintain_ms": (apply_ms - delta_ms) / ops,
            "dynamic.commit_tx": counters["commit_tx"] / ops,
            "dynamic.maintain_gld": counters["gld"] / ops,
            "dynamic.maintain_gst": counters["gst"] / ops,
            "dynamic.compactions": counters["compactions"] / ops,
            "dynamic.rebuilds": counters["rebuilds"] / ops,
            "dynamic.plans_invalidated": counters["invalidated"] / ops,
            "dynamic.delta_matches": sum(arms.traced.units) / ops,
            "obs.trace_overhead": arms.overhead,
        })
        log = arms.untraced
        attempted = log.attempted + arms.traced.attempted
        failed = log.failed + arms.traced.failed
    else:
        log = OpLog()
        while log.busy_s < seconds:
            one_batch(log)
        attempted, failed = log.attempted, log.failed
    peak_rss = common.self_peak_rss_mb()
    stats = engine.index.storage.stats()
    layer["storage.pcsr_occupancy"] = float(stats["max_occupancy"])
    layer["storage.pcsr_dead_ratio"] = float(stats["dead_ratio"])
    layer.update(common.cost_totals(entries))

    # The live sets must equal a fresh engine on the final snapshot.
    final = engine.graph
    fresh = GSIEngine(final, config)
    for qid, query in enumerate(queries):
        if engine.matches(qid) != fresh.match(query).match_set():
            mismatches.append(f"query {qid}: live set != fresh engine "
                              f"after {engine.batches_applied} batches")

    lat = common.tail_summary(log.durations_ms, TAIL_PCT)
    ops_rate, _ = log.chunk_rates(RATE_CHUNK)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "latency_ms.p50": lat["p50"],
        "latency_ms.tail": lat["tail"],
        "ops_per_s": ops_rate,
    }
    detail = {
        "op": f"one StreamEngine.apply_batch call of {BATCH_OPS} ops",
        "latency": lat,
        "updates_per_s": metrics["ops_per_s"],
        "failed_share": failed / attempted,
        "registered": len(queries),
        "errors": errors[:20],
        "batches_applied": engine.batches_applied,
        "final_edges": final.num_edges,
        "cost_digest": digests[0],
        "join_kernel": config.join_kernel,
        "matches_per_s": sum(log.units) / log.busy_s,
        "end_to_end": metrics,
    }
    return RunResult(correct=not mismatches, attempted=attempted,
                     failed=failed, metrics=layer if trace else metrics,
                     detail=detail, mismatches=mismatches)

