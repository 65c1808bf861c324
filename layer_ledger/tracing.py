"""The traced run: the benchmark's own spans and the untraced/traced arms.

Every timed operation is wrapped in a benchmark span (``ledger.*``),
which is the root the program's own spans nest under.  With the null
tracer installed (end-to-end runs) the wrapper is the program's inert
span, so both kinds of run execute the same code.

``alternate_arms`` runs identical passes of work with tracing off and
on, alternating which arm goes first, so ``obs.trace_overhead`` compares
like with like.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Sequence, Tuple

from layer_ledger import layers
from layer_ledger.common import BenchError, OpLog

from repro.core.config import GSIConfig
from repro.core.signature_table import SignatureTable
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.trace import Span, Tracer, get_tracer, set_tracer
from repro.storage.factory import build_storage


def op_span(name: str, **attrs: Any) -> Span:
    """The benchmark's span around one public call."""
    return get_tracer().span(name, **attrs)


@dataclass
class Arms:
    untraced: OpLog
    traced: OpLog
    tracer: Tracer

    @property
    def overhead(self) -> float:
        """Traced busy time over untraced busy time, same passes."""
        return self.traced.busy_s / self.untraced.busy_s


def alternate_arms(one_pass: Callable[[int, OpLog], None],
                   seconds: float, min_pairs: int = 2) -> Arms:
    """Run pass ``i`` once per arm, alternating the order, until the two
    arms together have been busy for ``seconds``."""
    arms = Arms(OpLog(), OpLog(), Tracer())
    pass_index = 0
    while (pass_index < min_pairs
           or arms.untraced.busy_s + arms.traced.busy_s < seconds):
        order = (False, True) if pass_index % 2 == 0 else (True, False)
        for traced in order:
            if traced:
                previous = set_tracer(arms.tracer)
                try:
                    one_pass(pass_index, arms.traced)
                finally:
                    set_tracer(previous)
            else:
                one_pass(pass_index, arms.untraced)
        pass_index += 1
    return arms


def ledger(spans: Sequence[Dict[str, Any]], ops: int, pid: int = 0
           ) -> Tuple[Dict[str, float], Dict[str, float]]:
    """Span-derived per-layer metrics for ``ops`` traced operations,
    with the self-time partition checked against the traced wall."""
    metrics, totals = layers.ledger_from_spans(
        spans, pid or os.getpid(), ops)
    problem = layers.check_partition(metrics)
    if problem is not None:
        raise BenchError(problem)
    return metrics, totals



def setup_layers(build_graph: Callable[[], LabeledGraph],
                 config: GSIConfig) -> Dict[str, float]:
    """Set-up split: the data graph, then the offline artifacts an
    engine builds from it (signature table and neighbour store)."""
    t0 = time.perf_counter()
    graph = build_graph()
    t1 = time.perf_counter()
    SignatureTable.build(graph, config.signature_bits, config.label_bits,
                         column_first=config.column_first_signatures)
    build_storage(config.storage_kind, graph, gpn=config.gpn)
    t2 = time.perf_counter()
    return {"graph.build_ms": (t1 - t0) * 1000.0,
            "storage.build_ms": (t2 - t1) * 1000.0}
