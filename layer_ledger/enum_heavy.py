"""``enum-heavy``: output-bound star enumeration through bare ``GSIEngine``.

One caller runs star templates (4 and 5 leaves) on
``scale_free_graph(800, 4, 4, 4)`` in a closed loop through
``GSIEngine(GSIConfig.gsi_opt()).match``.  Each pass runs the whole
catalogue in an order drawn from the run seed.  Time goes to the join
kernel and to materializing result tuples, so this is where columnar
results and the choice of join lane show.
"""

from __future__ import annotations

import time
from collections import Counter
from math import perm
from typing import Any, Dict, List, Tuple

import numpy as np

from layer_ledger import common, tracing
from layer_ledger.common import OpLog, RunResult

from repro import GSIConfig, GSIEngine
from repro.baselines.turbo_iso import TurboISOEngine
from repro.graph.generators import scale_free_graph
from repro.graph.labeled_graph import LabeledGraph
from repro.graph.templates import sample_star

GRAPH_ARGS = (800, 4, 4, 4)
LEAVES = (4, 5)
TEMPLATES_PER_LEAF_COUNT = 10
#: templates with more embeddings than this are redrawn, so one
#: operation stays well under a second and a run holds many of them
MAX_EMBEDDINGS = 250_000
WARMUP_OPS = 3
#: p90 keeps >= 10 calls beyond it down to 7.5 calls/s over a run
TAIL_PCT = 90.0


def build_graph() -> LabeledGraph:
    return scale_free_graph(*GRAPH_ARGS)


def star_embeddings(graph: LabeledGraph, star: LabeledGraph) -> int:
    """Exact embedding count of a star (center = vertex 0).

    Leaves of one (vertex label, edge label) type map injectively onto
    the center's neighbours of that type, and types never share a
    neighbour, so the count per center is a product of falling
    factorials.
    """
    types = Counter((star.vertex_label(w), star.edge_label(0, w))
                    for w in range(1, star.num_vertices))
    labels, degrees, nbrs, elabs = graph.csr_arrays()
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    total = 0
    for v in np.flatnonzero(labels == star.vertex_label(0)):
        lo, hi = int(offsets[v]), int(offsets[v + 1])
        seen = Counter(zip(labels[nbrs[lo:hi]].tolist(),
                           elabs[lo:hi].tolist()))
        count = 1
        for key, m in types.items():
            count *= perm(seen.get(key, 0), m)
            if count == 0:
                break
        total += count
    return total


def catalogue(graph: LabeledGraph) -> List[LabeledGraph]:
    """The fixed template catalogue (drawn from ``CATALOGUE_SEED``)."""
    rng = np.random.default_rng(common.CATALOGUE_SEED)
    out = []
    for leaves in LEAVES:
        kept = 0
        while kept < TEMPLATES_PER_LEAF_COUNT:
            star = sample_star(graph, leaves,
                               seed=int(rng.integers(2 ** 31)))
            if 0 < star_embeddings(graph, star) <= MAX_EMBEDDINGS:
                out.append(star)
                kept += 1
    return out


class _Checker:
    """Per-template output record: the first execution's fingerprint
    and costs; every later execution must repeat them exactly."""

    def __init__(self, templates: List[LabeledGraph]) -> None:
        self.templates = templates
        self.first: Dict[int, Tuple[Any, ...]] = {}
        self.mismatches: List[str] = []

    def observe(self, index: int, result: Any) -> None:
        ordered = hash(tuple(result.matches))
        entry = common.cost_entry(result)
        if index not in self.first:
            width = self.templates[index].num_vertices
            self.first[index] = (
                ordered, entry,
                common.match_fingerprint(result.matches, width))
            return
        first_ordered, first_entry = self.first[index][:2]
        if ordered != first_ordered:
            self.mismatches.append(
                f"template {index}: match list changed between runs")
        if entry != first_entry:
            self.mismatches.append(
                f"template {index}: simulated costs changed "
                f"{first_entry} -> {entry}")

    def finish(self, engine: GSIEngine, graph: LabeledGraph) -> str:
        """Fill never-run templates, compare with the reference engine,
        and return the simulated-cost digest over the catalogue."""
        for index, template in enumerate(self.templates):
            if index not in self.first:
                self.observe(index, engine.match(template))
        reference = TurboISOEngine(graph, wall_budget_s=None)
        for index, template in enumerate(self.templates):
            expected = common.match_fingerprint(
                reference.match(template).matches, template.num_vertices)
            if self.first[index][2] != expected:
                self.mismatches.append(
                    f"template {index}: GSI {self.first[index][2]} != "
                    f"reference {expected}")
        return common.cost_digest(
            self.first[i][1] for i in range(len(self.templates)))

    def cost_entries(self) -> List[Tuple[Any, ...]]:
        return [self.first[i][1] for i in range(len(self.templates))]


def _schedule(seed: int, size: int, pass_index: int) -> List[int]:
    rng = np.random.default_rng(common.derive_seed(seed, pass_index))
    return rng.permutation(size).tolist()


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    config = GSIConfig.gsi_opt()

    templates = catalogue(build_graph())
    checker = _Checker(templates)

    def setup() -> Tuple[LabeledGraph, GSIEngine]:
        graph = build_graph()
        engine = GSIEngine(graph, config)
        for template in templates[:WARMUP_OPS]:
            engine.match(template)
        return graph, engine

    setup_s, (graph, engine) = common.median_setup(setup)

    errors: List[str] = []

    def one_pass(pass_index: int, arm: OpLog) -> None:
        for index in _schedule(seed, len(templates), pass_index):
            arm.attempted += 1
            t = time.perf_counter()
            try:
                with tracing.op_span("ledger.enum.match"):
                    result = engine.match(templates[index])
            except Exception as exc:  # noqa: BLE001 - counted, reported
                arm.failed += 1
                errors.append(f"template {index}: {exc!r}")
                continue
            arm.record(time.perf_counter() - t, units=result.num_matches,
                       key=index)
            arm.candidates += sum(result.candidate_sizes.values())
            checker.observe(index, result)
            # the previous result must not inflate the next op's memory
            del result

    layer: Dict[str, float] = {}
    if trace:
        layer.update(tracing.setup_layers(build_graph, config))
        arms = tracing.alternate_arms(one_pass, seconds)
        ledger, _ = tracing.ledger(arms.tracer.finished(),
                                   len(arms.traced.durations_ms))
        layer.update(ledger)
        layer["core.candidates_per_match"] = (
            arms.traced.candidates / max(1, sum(arms.traced.units)))
        layer["obs.trace_overhead"] = arms.overhead
        log = arms.untraced
        attempted = log.attempted + arms.traced.attempted
        failed = log.failed + arms.traced.failed
    else:
        log = OpLog()
        pass_index = 0
        while log.busy_s < seconds:
            one_pass(pass_index, log)
            pass_index += 1
        attempted, failed = log.attempted, log.failed
    peak_rss = common.self_peak_rss_mb()
    digest = checker.finish(engine, graph)
    layer.update(common.cost_totals(checker.cost_entries()))

    lat = common.tail_summary(
        _per_template_medians(log.durations_ms, log.keys), TAIL_PCT)
    ops_rate, match_rate = log.chunk_rates(len(templates))
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "latency_ms.p50": lat["p50"],
        "latency_ms.tail": lat["tail"],
        "ops_per_s": ops_rate,
    }
    detail = {
        "op": "one GSIEngine.match call",
        "latency": lat,
        "queries_per_s": metrics["ops_per_s"],
        "failed_share": failed / attempted,
        "catalogue": len(templates),
        "errors": errors[:20],
        "cost_digest": digest,
        "join_kernel": config.join_kernel,
        "matches_per_s": match_rate,
        "end_to_end": metrics,
    }
    return RunResult(correct=not checker.mismatches,
                     attempted=attempted, failed=failed,
                     metrics=layer if trace else metrics,
                     detail=detail, mismatches=checker.mismatches)


def _per_template_medians(durations_ms: List[float],
                          templates: List[int]) -> List[float]:
    """Each operation's duration replaced by the median over its
    template's executions in this run.

    Every pass runs the same templates, so the pooled distribution is a
    fixed mixture; without this, its percentiles sit between two
    templates and take the extreme execution of each.
    """
    by_template: Dict[int, List[float]] = {}
    for ms, index in zip(durations_ms, templates):
        by_template.setdefault(index, []).append(ms)
    medians = {i: float(np.median(v)) for i, v in by_template.items()}
    return [medians[i] for i in templates]

