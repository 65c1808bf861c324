"""``batch-paper``: the paper's query shape through the batch service.

Selective 12-vertex ``random_walk_query`` shapes on ``gowalla_like()``,
requested Zipf-skewed from a 48-shape catalogue in batches of 64
through ``BatchEngine`` on ``make_executor("process", 2)`` (shm data
plane).  The loop is closed: the next batch goes when the previous one
returns.  Joins are small, so serial prepare, the plan and shape caches
and the executor hop dominate.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

import numpy as np

from layer_ledger import common, layers, tracing
from layer_ledger.common import OpLog, RunResult

from repro import BatchEngine, GSIConfig, GSIEngine
from repro.baselines.turbo_iso import TurboISOEngine
from repro.graph import datasets
from repro.graph.generators import random_walk_query
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.metrics import get_registry
from repro.obs.trace import Tracer, set_tracer, tracing_active
from repro.service.executors import make_executor

QUERY_VERTICES = 12
CATALOGUE_SIZE = 48
BATCH = 64
WORKERS = 2
ZIPF_EXPONENT = 1.1
#: a shape is "selective" when its join never holds more than this many
#: intermediate rows and it has at most MAX_EMBEDDINGS embeddings
MAX_INTERMEDIATE_ROWS = 4000
MAX_EMBEDDINGS = 1000
#: p90 keeps >= 10 batches beyond it down to 5 batches/s over a run
TAIL_PCT = 90.0
#: batches per slice of the median-of-slices throughput
RATE_CHUNK = 10
#: batches per pass of the traced run (same batches in both arms)
TRACE_PASS_BATCHES = 3


def catalogue(graph: LabeledGraph, config: GSIConfig
              ) -> List[LabeledGraph]:
    """The fixed catalogue of selective shapes (``CATALOGUE_SEED``)."""
    sizing = GSIEngine(graph, replace(
        config, max_intermediate_rows=MAX_INTERMEDIATE_ROWS))
    rng = np.random.default_rng(common.CATALOGUE_SEED)
    out: List[LabeledGraph] = []
    while len(out) < CATALOGUE_SIZE:
        query = random_walk_query(graph, QUERY_VERTICES,
                                  seed=int(rng.integers(2 ** 31)))
        result = sizing.match(query)
        if not result.timed_out and result.num_matches <= MAX_EMBEDDINGS:
            out.append(query)
    return out


def batch_picks(seed: int, batch_index: int) -> List[int]:
    """Catalogue indices of one batch, Zipf-skewed by catalogue rank."""
    weights = 1.0 / np.arange(1, CATALOGUE_SIZE + 1,
                              dtype=np.float64) ** ZIPF_EXPONENT
    rng = np.random.default_rng(common.derive_seed(seed, batch_index))
    return rng.choice(CATALOGUE_SIZE, size=BATCH,
                      p=weights / weights.sum()).tolist()


class _Checker:
    """Every result must equal the reference fingerprint of its shape,
    and repeat the simulated costs its shape had during warm-up."""

    def __init__(self, shapes: List[LabeledGraph]) -> None:
        self.shapes = shapes
        self.costs: Dict[int, Tuple[Any, ...]] = {}
        self.seen: Dict[int, Tuple[int, int]] = {}
        self.mismatches: List[str] = []

    def observe(self, picks: List[int], report: Any,
                warmup: bool = False) -> None:
        for index, item in zip(picks, report.items):
            if item.error is not None or item.result.timed_out:
                self.mismatches.append(
                    f"shape {index}: {item.error or 'timed out'}")
                continue
            entry = common.cost_entry(item.result)
            if warmup:
                self.costs[index] = entry
            elif self.costs.get(index) != entry:
                self.mismatches.append(
                    f"shape {index}: simulated costs "
                    f"{self.costs.get(index)} -> {entry}")
            fp = common.match_fingerprint(item.result.matches,
                                          QUERY_VERTICES)
            if self.seen.setdefault(index, fp) != fp:
                self.mismatches.append(f"shape {index}: matches changed")

    def finish(self, graph: LabeledGraph) -> str:
        reference = TurboISOEngine(graph, wall_budget_s=None)
        for index, shape in enumerate(self.shapes):
            expected = common.match_fingerprint(
                reference.match(shape).matches, QUERY_VERTICES)
            if self.seen.get(index) != expected:
                self.mismatches.append(
                    f"shape {index}: GSI {self.seen.get(index)} != "
                    f"reference {expected}")
        return common.cost_digest(
            self.costs.get(i) for i in range(len(self.shapes)))

    def cost_entries(self) -> List[Tuple[Any, ...]]:
        return [self.costs[i] for i in range(len(self.shapes))]


def _shipped_bytes() -> float:
    snap = get_registry().snapshot()
    total = 0.0
    for name in ("gsi_shipped_bytes_total", "gsi_shm_published_bytes_total"):
        for entry in snap.get(name, {}).get("values", []):
            total += float(entry["value"])
    return total


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    config = GSIConfig.gsi_opt()
    graph = datasets.gowalla_like()
    shapes = catalogue(graph, config)
    checker = _Checker(shapes)
    warm_picks = list(range(len(shapes)))
    executors: List[Any] = []

    def setup() -> BatchEngine:
        for old in executors:
            old.shutdown()
        executors.clear()
        g = datasets.gowalla_like()
        executor = make_executor("process", WORKERS)
        executors.append(executor)
        engine = BatchEngine(g, config, executor=executor)
        checker.observe(warm_picks, engine.run_batch(
            [shapes[i] for i in warm_picks]), warmup=True)
        return engine

    try:
        setup_s, engine = common.median_setup(setup)
        measured = _measure(engine, shapes, checker, seed, seconds, trace,
                            config)
    finally:
        for executor in executors:
            executor.shutdown()
    peak_rss = max(measured.self_rss_mb, common.children_peak_rss_mb())
    digest = checker.finish(graph)
    layer = measured.layer
    layer.update(common.cost_totals(checker.cost_entries()))
    log = measured.log

    lat = common.tail_summary(log.durations_ms, TAIL_PCT)
    ops_rate, match_rate = log.chunk_rates(RATE_CHUNK)
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "latency_ms.p50": lat["p50"],
        "latency_ms.tail": lat["tail"],
        "ops_per_s": ops_rate,
    }
    detail = {
        "op": f"one BatchEngine.run_batch call of {BATCH} queries",
        "latency": lat,
        "queries_per_s": metrics["ops_per_s"],
        "failed_share": measured.failed / measured.attempted,
        "catalogue": len(shapes),
        "cost_digest": digest,
        "join_kernel": config.join_kernel,
        "executor": f"process x{WORKERS} (shm plane)",
        "matches_per_s": match_rate,
        "end_to_end": metrics,
    }
    return RunResult(correct=not checker.mismatches,
                     attempted=measured.attempted, failed=measured.failed,
                     metrics=layer if trace else metrics,
                     detail=detail, mismatches=checker.mismatches)


@dataclass
class _Measured:
    log: OpLog            # the untraced calls the end-to-end figures use
    layer: Dict[str, float]
    attempted: int
    failed: int
    self_rss_mb: float


def _measure(engine: BatchEngine, shapes: List[LabeledGraph],
             checker: _Checker, seed: int, seconds: float, trace: bool,
             config: GSIConfig) -> _Measured:
    cache = {"hits": 0, "lookups": 0, "shape_hits": 0, "shape_lookups": 0}

    def one_batch(batch_index: int, arm: OpLog) -> None:
        picks = batch_picks(seed, batch_index)
        queries = [shapes[i] for i in picks]
        arm.attempted += 1
        t = time.perf_counter()
        with tracing.op_span("ledger.batch.run_batch"):
            report = engine.run_batch(queries)
        arm.record(time.perf_counter() - t, work=BATCH,
                   units=report.total_matches)
        if report.errors:
            arm.failed += 1
        arm.candidates += sum(sum(r.candidate_sizes.values())
                              for r in report.results)
        if tracing_active():
            c = report.cache
            cache["hits"] += c.hits
            cache["lookups"] += c.lookups
            cache["shape_hits"] += c.shape_hits
            cache["shape_lookups"] += c.shape_hits + c.shape_misses
        checker.observe(picks, report)

    if not trace:
        log = OpLog()
        while log.busy_s < seconds:
            one_batch(log.attempted, log)
        return _Measured(log, {}, log.attempted, log.failed,
                         common.self_peak_rss_mb())

    layer = _setup_layers(config, shapes)
    shipped_before = _shipped_bytes()

    def one_pass(pass_index: int, arm: OpLog) -> None:
        for k in range(TRACE_PASS_BATCHES):
            one_batch(pass_index * TRACE_PASS_BATCHES + k, arm)

    arms = tracing.alternate_arms(one_pass, seconds)
    shipped = _shipped_bytes() - shipped_before
    spans = arms.tracer.finished()
    ops = len(arms.traced.durations_ms)
    ledger, totals = tracing.ledger(spans, ops)
    layer.update(ledger)
    executor_ms = totals.get("executor.execute_prepared", 0.0)
    layer.update({
        "core.candidates_per_match":
            arms.traced.candidates / max(1, sum(arms.traced.units)),
        "service.plan_hit_rate": cache["hits"] / max(1, cache["lookups"]),
        "service.shape_hit_rate":
            cache["shape_hits"] / max(1, cache["shape_lookups"]),
        "service.prepare_phase_ms": layers.self_outside_children(
            spans, "batch.run", "executor.execute_prepared") / ops,
        "service.executor_ms": executor_ms / ops,
        "service.executor_hop_ms":
            (executor_ms - totals.get("gsi.execute", 0.0) / WORKERS) / ops,
        # both arms ship; the untraced arm ran the same batches
        "service.shipped_bytes": shipped / (2 * ops),
        "obs.trace_overhead": arms.overhead,
    })
    untraced, traced = arms.untraced, arms.traced
    return _Measured(untraced, layer,
                     untraced.attempted + traced.attempted,
                     untraced.failed + traced.failed,
                     common.self_peak_rss_mb())


def _setup_layers(config: GSIConfig, shapes: List[LabeledGraph]
                  ) -> Dict[str, float]:
    """Set-up split, including one traced pool start for the shm
    publication time."""
    out = tracing.setup_layers(datasets.gowalla_like, config)
    tracer = Tracer()
    executor = make_executor("process", WORKERS)
    previous = set_tracer(tracer)
    try:
        BatchEngine(datasets.gowalla_like(), config,
                    executor=executor).run_batch(shapes[:2])
    finally:
        set_tracer(previous)
        executor.shutdown()
    out["storage.shm_publish_ms"] = sum(
        s["duration_ms"] for s in tracer.finished()
        if s["name"] == "shm.publish_engine")
    return out
