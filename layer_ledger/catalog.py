"""The ledger's vocabulary: workloads, metrics and their units.

``BENCHMARK.json`` at the repo root mirrors these tables; ``run.py``
refuses to print a payload whose metric names drift from it.  The
layer-to-metric map and each workload's reason are in README.md; changes
name workloads and metrics by the names below.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: workload -> one sentence on why it exists
WORKLOADS: Dict[str, str] = {
    "enum-heavy": (
        "Output-bound star enumeration through bare GSIEngine: the join "
        "kernel and tuple materialization dominate."),
    "batch-paper": (
        "The paper's selective 12-vertex queries in Zipf-skewed batches "
        "on the process pool: prepare, plan and shape caches and the "
        "executor hop dominate, not the join."),
    "stream-churn": (
        "The write path: update batches through StreamEngine exercise "
        "PCSR in-place maintenance, CSR-splice commits and delta "
        "matching on the same storage and core layers."),
    "serve-tcp": (
        "The only path with queueing, dedup, micro-batching, response "
        "encoding and TCP framing: a real serve subprocess under an "
        "open loop of pipelined clients."),
}

#: end-to-end metric -> (unit, what one value is)
END_TO_END: Dict[str, Tuple[str, str]] = {
    "setup_s": ("s", "start to first timed operation: median of the "
                "repeated builds plus warm-up"),
    "peak_rss_mb": ("MB", "peak RSS of the program's largest process"),
    "latency_ms.p50": ("ms", "median duration of one operation"),
    "latency_ms.tail": ("ms", "highest ladder percentile with >=10 "
                        "samples beyond it (percentile and count in the "
                        "detail line)"),
    "ops_per_s": ("1/s", "operations completed per busy second: "
                  "queries (enum-heavy, batch-paper), update ops "
                  "(stream-churn), requests answered ok per second of "
                  "offered load (serve-tcp)"),
}

#: per-layer metric -> (unit, source)
PER_LAYER: Dict[str, Tuple[str, str]] = {
    "graph.build_ms": ("ms", "timed data-graph construction"),
    "storage.build_ms": ("ms", "timed SignatureTable.build + "
                         "build_storage"),
    "storage.shm_publish_ms": ("ms", "shm.publish_engine spans"),
    "core.prepare_ms": ("ms/op", "gsi.prepare spans"),
    "core.filter_ms": ("ms/op", "gsi.filter spans"),
    "core.plan_ms": ("ms/op", "gsi.plan spans"),
    "core.execute_ms": ("ms/op", "gsi.execute spans (all processes)"),
    "core.join_kernel_ms": ("ms/op", "kernel.join_phase spans"),
    "core.materialize_ms": ("ms/op", "gsi.execute time outside "
                            "kernel.join_phase"),
    "core.candidates_per_match": ("ratio", "sum of candidate-set sizes "
                                  "over matches returned"),
    "gpusim.gld": ("count", "simulated loads over the catalogue"),
    "gpusim.gst": ("count", "simulated stores over the catalogue"),
    "gpusim.kernel_launches": ("count", "simulated launches over the "
                               "catalogue"),
    "gpusim.sim_ms": ("sim_ms", "simulated device milliseconds over the "
                      "catalogue (deterministic, not wall time)"),
    "service.plan_hit_rate": ("ratio", "BatchReport.cache plan hits"),
    "service.shape_hit_rate": ("ratio", "BatchReport.cache shape hits"),
    "service.prepare_phase_ms": ("ms/op", "batch.run time outside the "
                                 "executor span"),
    "service.executor_ms": ("ms/op", "executor.execute_prepared spans"),
    "service.executor_hop_ms": ("ms/op", "executor span minus worker-"
                                "side gsi.execute over worker count"),
    "service.shipped_bytes": ("B/op", "gsi_shipped_bytes_total + "
                              "gsi_shm_published_bytes_total growth"),
    "dynamic.apply_ms": ("ms/op", "stream.apply_batch spans"),
    "dynamic.delta_ms": ("ms/op", "stream.query_delta spans"),
    "dynamic.maintain_ms": ("ms/op", "apply_batch minus delta matching "
                            "(commit plus index)"),
    "dynamic.commit_tx": ("count/op", "StreamBatchReport."
                          "commit_transactions"),
    "dynamic.maintain_gld": ("count/op", "StreamBatchReport.maintenance"),
    "dynamic.maintain_gst": ("count/op", "StreamBatchReport.maintenance"),
    "dynamic.compactions": ("count/op", "StreamBatchReport.compactions"),
    "dynamic.rebuilds": ("count/op", "StreamBatchReport.rebuilds"),
    "dynamic.plans_invalidated": ("count/op", "StreamBatchReport."
                                  "plans_invalidated"),
    "dynamic.delta_matches": ("count/op", "created + destroyed per "
                              "batch"),
    "storage.pcsr_occupancy": ("ratio", "NeighborStore.stats() "
                               "max_occupancy at run end"),
    "storage.pcsr_dead_ratio": ("ratio", "NeighborStore.stats() "
                                "dead_ratio at run end"),
    "self.core_ms": ("ms/op", "self-time partition: core spans"),
    "self.service_ms": ("ms/op", "self-time partition: service spans"),
    "self.dynamic_ms": ("ms/op", "self-time partition: dynamic spans"),
    "self.storage_ms": ("ms/op", "self-time partition: storage spans"),
    "self.serve_ms": ("ms/op", "self-time partition: serve spans"),
    "self.unattributed_ms": ("ms/op", "time no program span covers"),
    "obs.traced_wall_ms": ("ms/op", "benchmark root spans (the "
                           "partition's total)"),
    "obs.trace_overhead": ("ratio", "traced busy time over untraced, "
                           "same work"),
}

#: per-layer metrics only serve-tcp prints (the serve layer is on no
#: other workload's path)
SERVE_LAYER: Dict[str, Tuple[str, str]] = {
    "serve.batch_ms": ("ms", "mean serve.batch span"),
    "serve.outside_batch_ms": ("ms", "mean client latency minus mean "
                               "serve.batch span"),
    "serve.mean_batch": ("queries", "stats RPC batches.mean_size"),
    "serve.dedup_rate": ("ratio", "stats RPC deduped / received"),
    "serve.queue_depth_max": ("count", "stats RPC queue.max_depth"),
    "serve.shed": ("count", "stats RPC requests.shed"),
    "serve.response_bytes.p50": ("B", "client-measured frame size"),
    "serve.response_bytes.max": ("B", "client-measured frame size"),
}
