"""``serve-tcp``: a real ``python -m repro.cli serve`` under an open loop.

The server runs with its defaults (thread executor with 4 workers,
``max_batch`` 16, 2 ms delay) on ``--dataset gowalla``.  Two pipelined
``GSIClient`` connections send a Zipf-skewed stream over a 48-shape
catalogue of 12-vertex shapes, across four tenants, a quarter of them
renumbered isomorphic copies, at a few fixed Poisson rates.

Accounting is from the client's side: each request is timed from its
due time, has a deadline, and a request unanswered at its deadline, or
in flight on a connection that drops, counts as failed.  The catalogue
is not filtered by response size; responses larger than the client's
64 KiB line limit kill that connection's reader, and the generator
reconnects.
"""

from __future__ import annotations

import asyncio
import os
import signal
import socket
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from layer_ledger import common, tracing
from layer_ledger.common import BenchError, RunResult

from repro import GSIConfig, GSIEngine
from repro.graph import datasets
from repro.graph.generators import random_walk_query
from repro.graph.labeled_graph import LabeledGraph
from repro.obs.export import read_spans_ndjson
from repro.serve.client import GSIClient
from repro.serve.protocol import encode_message

ROOT = Path(__file__).resolve().parent.parent
SCRATCH = ROOT / ".ledger_tmp"

QUERY_VERTICES = 12
CATALOGUE_SIZE = 48
ZIPF_EXPONENT = 1.1
TENANTS = ("t0", "t1", "t2", "t3")
RELABEL_SHARE = 0.25
RELABEL_VARIANTS = 3
CONNECTIONS = 2
#: (rate q/s, share of --seconds); the nominal step carries p50/tail
STEPS = ((40.0, 0.15), (80.0, 0.5), (160.0, 0.175), (320.0, 0.175))
NOMINAL_RATE = 80.0
TAIL_PCT = 95.0
#: a request unanswered this long after its due time has failed
REQUEST_DEADLINE_S = 3.0
#: the p99 limit a rate step must meet to count towards max_rate_qps
P99_LIMIT_MS = 250.0
BOOT_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 10.0
#: how long to wait for the server to go idle between steps
DRAIN_TIMEOUT_S = 30.0
#: a step starts only if it can finish within this many seconds of the
#: run's start, so a stalled server cannot push the run past 180 s
RUN_BUDGET_S = 110.0
#: the traced server writes its spans only once it exits
TRACED_STOP_TIMEOUT_S = 60.0
#: servers booted for the set-up median (each boot loads gowalla)
BOOTS = 3


def catalogue(graph: LabeledGraph) -> List[LabeledGraph]:
    """The fixed shape catalogue (``CATALOGUE_SEED``), unfiltered."""
    rng = np.random.default_rng(common.CATALOGUE_SEED)
    return [random_walk_query(graph, QUERY_VERTICES,
                              seed=int(rng.integers(2 ** 31)))
            for _ in range(CATALOGUE_SIZE)]


def relabel_query(query: LabeledGraph, seed: int) -> LabeledGraph:
    """An isomorphic copy of ``query`` under a seeded vertex renaming."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(query.num_vertices)
    labels = [0] * query.num_vertices
    for old, new in enumerate(perm):
        labels[new] = query.vertex_label(old)
    edges = [(int(perm[u]), int(perm[v]), lab)
             for u, v, lab in query.edges()]
    return LabeledGraph(labels, edges)


@dataclass
class Request:
    due: float            # seconds after the step start
    shape: int
    variant: int          # 0 = the catalogue shape itself
    tenant: str
    latency_ms: Optional[float] = None
    failure: Optional[str] = None
    frame_bytes: int = 0
    fingerprint: Optional[Tuple[int, int]] = None
    num_matches: int = 0


def step_requests(seed: int, step: int, rate: float, seconds: float
                  ) -> List[Request]:
    rng = np.random.default_rng(common.derive_seed(seed, step))
    count = max(1, int(round(rate * seconds)))
    dues = np.concatenate(
        [[0.0], np.cumsum(rng.exponential(1.0 / rate, count - 1))])
    weights = 1.0 / np.arange(1, CATALOGUE_SIZE + 1,
                              dtype=np.float64) ** ZIPF_EXPONENT
    shapes = rng.choice(CATALOGUE_SIZE, size=count,
                        p=weights / weights.sum())
    relabel = rng.random(count) < RELABEL_SHARE
    variants = rng.integers(1, RELABEL_VARIANTS + 1, size=count)
    tenants = rng.integers(0, len(TENANTS), size=count)
    return [Request(due=float(d), shape=int(s),
                    variant=int(v) if r else 0, tenant=TENANTS[int(t)])
            for d, s, r, v, t in zip(dues, shapes, relabel, variants,
                                     tenants)]


class QueryBook:
    """The exact query objects submitted, keyed by (shape, variant)."""

    def __init__(self, shapes: List[LabeledGraph]) -> None:
        self.shapes = shapes
        self._cache: Dict[Tuple[int, int], LabeledGraph] = {}

    def get(self, shape: int, variant: int) -> LabeledGraph:
        key = (shape, variant)
        if key not in self._cache:
            base = self.shapes[shape]
            self._cache[key] = (base if variant == 0 else relabel_query(
                base, common.derive_seed(shape, variant)))
        return self._cache[key]


# ----------------------------------------------------------------------
# the server subprocess
# ----------------------------------------------------------------------

def _free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return int(sock.getsockname()[1])


class Server:
    """One ``repro.cli serve`` subprocess with its defaults."""

    def __init__(self, tag: str, trace_out: Optional[Path] = None
                 ) -> None:
        SCRATCH.mkdir(exist_ok=True)
        self.port = _free_port()
        self.log_path = SCRATCH / f"serve-{tag}-{os.getpid()}.log"
        self.trace_out = trace_out
        env = dict(os.environ)
        common.strip_gsi_env(env)
        env["PYTHONPATH"] = str(ROOT / "src")
        cmd = [sys.executable, "-m", "repro.cli", "serve",
               "--dataset", "gowalla", "--port", str(self.port)]
        if trace_out is not None:
            cmd += ["--trace-out", str(trace_out)]
        self._log = open(self.log_path, "wb")
        self.proc = subprocess.Popen(cmd, cwd=str(ROOT), env=env,
                                     stdout=self._log,
                                     stderr=subprocess.STDOUT)

    def wait_ready(self) -> None:
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise BenchError(f"server exited during boot: "
                                 f"{self.log_path.read_text()[-2000:]}")
            if b"serving " in self.log_path.read_bytes():
                return
            time.sleep(0.01)
        raise BenchError("server did not come up in time")

    def stop(self, timeout: float = STOP_TIMEOUT_S) -> bool:
        """SIGTERM (graceful drain), SIGKILL after ``timeout``; True when
        the server drained and exited on its own."""
        graceful = True
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                graceful = False
                self.proc.kill()
                self.proc.wait()
        self._log.close()
        self.log_path.unlink(missing_ok=True)
        return graceful


# ----------------------------------------------------------------------
# the open-loop generator
# ----------------------------------------------------------------------

class Connection:
    """One pipelined client connection that reconnects after a drop."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.client: Optional[GSIClient] = None
        self.reconnects = 0
        self._lock = asyncio.Lock()

    async def ensure(self) -> GSIClient:
        async with self._lock:
            if self.client is None:
                self.client = await GSIClient(
                    "127.0.0.1", self.port).connect()
            return self.client

    async def drop(self, client: GSIClient) -> None:
        async with self._lock:
            if self.client is not client:
                return
            self.client = None
            self.reconnects += 1
        await _close_quietly(client)

    async def close(self) -> None:
        if self.client is not None:
            client, self.client = self.client, None
            await _close_quietly(client)


async def _close_quietly(client: GSIClient) -> None:
    try:
        await client.close()
    except (ValueError, ConnectionError, OSError):
        # close() re-raises what killed the reader (the oversize-frame
        # ValueError, or a reset) before it closes the socket.  Left
        # open, the server's writer blocks on the unread frame forever
        # and its graceful stop never returns, so close the transport
        # the client abandoned.
        writer = getattr(client, "_writer", None)
        if writer is not None:
            writer.close()


async def _send(conn: Connection, book: QueryBook, req: Request,
                start: float, lateness: List[float]) -> None:
    loop = asyncio.get_running_loop()
    delay = start + req.due - loop.time()
    if delay > 0:
        await asyncio.sleep(delay)
    lateness.append(max(0.0, loop.time() - (start + req.due)))
    client = None
    try:
        remaining = start + req.due + REQUEST_DEADLINE_S - loop.time()
        client = await asyncio.wait_for(conn.ensure(), remaining)
        remaining = start + req.due + REQUEST_DEADLINE_S - loop.time()
        response = await asyncio.wait_for(
            client.query(book.get(req.shape, req.variant),
                         tenant=req.tenant), max(0.0, remaining))
    except asyncio.TimeoutError:
        req.failure = "deadline"
        return
    except (ConnectionError, OSError) as exc:
        req.failure = f"connection: {type(exc).__name__}"
        if client is not None:
            await conn.drop(client)
        return
    req.latency_ms = (loop.time() - (start + req.due)) * 1000.0
    if response.get("status") != "ok":
        req.failure = f"status {response.get('status')}"
        return
    req.frame_bytes = len(encode_message(response))
    req.num_matches = int(response["num_matches"])
    req.fingerprint = common.match_fingerprint(
        response["matches"], QUERY_VERTICES)


async def _run_step(conns: List[Connection], book: QueryBook,
                    reqs: List[Request]) -> Dict[str, Any]:
    loop = asyncio.get_running_loop()
    lateness: List[float] = []
    start = loop.time() + 0.05
    tasks = [asyncio.create_task(
        _send(conns[i % len(conns)], book, req, start, lateness))
        for i, req in enumerate(reqs)]
    step_deadline = (start + reqs[-1].due + REQUEST_DEADLINE_S + 1.0)
    done, pending = await asyncio.wait(
        tasks, timeout=max(0.0, step_deadline - loop.time()))
    for task in pending:
        task.cancel()
    await asyncio.gather(*tasks, return_exceptions=True)
    for req in reqs:
        if req.latency_ms is None and req.failure is None:
            req.failure = "deadline"
    return {"generator_late_ms.max": 1000.0 * max(lateness, default=0.0),
            "generator_late_ms.p99": 1000.0 * float(np.percentile(
                lateness, 99)) if lateness else 0.0,
            "stalled": bool(pending)}


async def _warm(conns: List[Connection], book: QueryBook) -> int:
    """Closed-loop pass over the catalogue; returns failures."""
    failed = 0
    for shape in range(CATALOGUE_SIZE):
        req = Request(due=0.0, shape=shape, variant=0, tenant=TENANTS[0])
        await _send(conns[shape % len(conns)], book, req,
                    asyncio.get_running_loop().time(), [])
        failed += req.failure is not None
    return failed


async def _drain(port: int) -> float:
    """Seconds until every admitted request has been answered, polled
    over the ``stats`` RPC on a fresh connection: leftovers of one step
    (a long frame still being built) finish before the next starts.
    ``inf`` when the server is still busy after ``DRAIN_TIMEOUT_S``."""
    loop = asyncio.get_running_loop()
    t0 = loop.time()
    conn = Connection(port)
    try:
        while loop.time() - t0 < DRAIN_TIMEOUT_S:
            client = await asyncio.wait_for(conn.ensure(), DRAIN_TIMEOUT_S)
            stats = await asyncio.wait_for(client.stats(), DRAIN_TIMEOUT_S)
            requests = stats["metrics"]["requests"]
            if requests["admitted"] == requests["completed"]:
                return loop.time() - t0
            await asyncio.sleep(0.05)
    except (asyncio.TimeoutError, ConnectionError, OSError):
        pass
    finally:
        await conn.close()
    return float("inf")


async def _stats(conns: List[Connection]) -> Dict[str, Any]:
    try:
        client = await asyncio.wait_for(conns[0].ensure(), 10.0)
        stats = await asyncio.wait_for(client.stats(), 30.0)
        return dict(stats["metrics"])
    except (asyncio.TimeoutError, ConnectionError, OSError):
        return {}


def _step_summary(rate: float, reqs: List[Request], extra: Dict[str, Any]
                  ) -> Dict[str, Any]:
    ok = [r.latency_ms for r in reqs if r.failure is None]
    failed = sum(r.failure is not None for r in reqs)
    # a failed request misses every latency limit
    everything = np.asarray(ok + [np.inf] * failed, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        p99 = float(np.percentile(everything, 99, method="higher"))
    fifth = max(1, len(reqs) // 5)
    early = [r.latency_ms for r in reqs[:fifth] if r.failure is None]
    late = [r.latency_ms for r in reqs[-fifth:] if r.failure is None]
    growing = bool(early and late
                   and np.median(late) > 2.0 * np.median(early) + 5.0)
    summary = {
        "rate_qps": rate, "requests": len(reqs), "failed": failed,
        "failures": sorted({r.failure for r in reqs if r.failure}),
        "p50_ms": float(np.median(ok)) if ok else None,
        "p99_ms_failed_as_inf": p99 if np.isfinite(p99) else "inf",
        "growing_backlog": growing,
        "meets_limit": bool(np.isfinite(p99) and p99 <= P99_LIMIT_MS
                            and not growing and not extra["stalled"]),
    }
    summary.update(extra)
    return summary


# ----------------------------------------------------------------------

@dataclass
class Phase:
    """Requests and step summaries of one server's timed steps."""

    steps: List[Dict[str, Any]] = field(default_factory=list)
    #: step label ("80", or "80 traced" for the traced arm) -> requests
    requests: Dict[str, List[Request]] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    reconnects: int = 0
    #: rates not run because the run's time budget was spent
    skipped: List[float] = field(default_factory=list)


def _drive(server: Server, book: QueryBook, seed: int,
           steps: Tuple[Tuple[float, float], ...], seconds: float,
           run_start: float) -> Phase:
    phase = Phase()

    async def main() -> None:
        conns = [Connection(server.port) for _ in range(CONNECTIONS)]
        try:
            for index, (rate, share) in enumerate(steps):
                worst = (seconds * share + REQUEST_DEADLINE_S
                         + 2 * DRAIN_TIMEOUT_S)
                if time.monotonic() + worst > run_start + RUN_BUDGET_S:
                    phase.skipped.append(rate)
                    continue
                reqs = step_requests(seed, index, rate, seconds * share)
                drained = await _drain(server.port)
                if drained == float("inf"):
                    break  # still stalled from the previous step
                extra = await _run_step(conns, book, reqs)
                extra["drain_before_s"] = drained
                phase.requests[f"{rate:g}"] = reqs
                summary = _step_summary(rate, reqs, extra)
                phase.steps.append(summary)
                if extra["stalled"]:
                    break  # higher rates only stall longer
            if await _drain(server.port) != float("inf"):
                phase.stats = await _stats(conns)
        finally:
            phase.reconnects = sum(c.reconnects for c in conns)
            for conn in conns:
                await conn.close()

    asyncio.run(main())
    return phase


def _boot(tag: str, book: QueryBook, trace_out: Optional[Path] = None
          ) -> Tuple[Server, float, int]:
    """Start a server and warm it; returns (server, boot s, warm-up
    failures) with the warm-up time included in the boot seconds."""
    t0 = time.perf_counter()
    server = Server(tag, trace_out)
    try:
        server.wait_ready()

        async def warm() -> int:
            conns = [Connection(server.port) for _ in range(CONNECTIONS)]
            try:
                failed = await _warm(conns, book)
                await _drain(server.port)
                return failed
            finally:
                for conn in conns:
                    await conn.close()

        warm_failed = asyncio.run(warm())
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - t0, warm_failed


def run(seed: int, seconds: float, trace: bool) -> RunResult:
    run_start = time.monotonic()
    graph = datasets.gowalla_like()
    book = QueryBook(catalogue(graph))
    boots: List[float] = []
    warm_failures = 0
    servers: List[Server] = []
    try:
        for attempt in range(BOOTS):
            server, boot_s, warm_failures = _boot(f"setup{attempt}", book)
            servers.append(server)
            boots.append(boot_s)
            if attempt < BOOTS - 1:
                servers.pop().stop()
        setup_s = float(np.median(boots))
        if trace:
            phase, layer = _traced(servers, book, seed, seconds, run_start)
        else:
            phase = _drive(servers[0], book, seed, STEPS, seconds,
                           run_start)
            layer = {}
    finally:
        graceful = all([s.stop() for s in servers])
    peak_rss = common.children_peak_rss_mb()

    mismatches, digest, entries = _check(book, graph, phase)
    nominal = phase.requests.get(f"{NOMINAL_RATE:g}", [])
    attempted = sum(len(r) for r in phase.requests.values())
    failed = sum(s["failed"] for s in phase.steps)
    ok_nominal = [r for r in nominal if r.failure is None]
    if not ok_nominal:
        raise BenchError("no request at the nominal rate was answered")
    lat = common.tail_summary([r.latency_ms for r in ok_nominal], TAIL_PCT)
    window_s = len(nominal) / NOMINAL_RATE
    passing = [s["rate_qps"] for s in phase.steps if s["meets_limit"]]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss,
        "latency_ms.p50": lat["p50"],
        "latency_ms.tail": lat["tail"],
        "ops_per_s": len(ok_nominal) / window_s,
    }
    frames = [r.frame_bytes for reqs in phase.requests.values()
              for r in reqs if r.failure is None]
    layer.update(common.cost_totals(entries))
    if frames:
        layer["serve.response_bytes.p50"] = float(np.median(frames))
        layer["serve.response_bytes.max"] = float(max(frames))
    detail = {
        "op": "one query request over TCP, timed from its due time",
        "latency": lat,
        "latency_at": f"{NOMINAL_RATE:g} q/s (ok responses)",
        "failed_share": failed / attempted if attempted else 0.0,
        "nominal_failed_share": 1.0 - len(ok_nominal) / len(nominal),
        "max_rate_qps": max(passing, default=0.0),
        "p99_limit_ms": P99_LIMIT_MS,
        "steps": phase.steps,
        "reconnects": phase.reconnects,
        "skipped_rates": phase.skipped,
        "warmup_failures": warm_failures,
        "server_stopped_gracefully": graceful,
        "cost_digest": digest,
        "join_kernel": GSIConfig.gsi_opt().join_kernel,
        "matches_per_s": sum(r.num_matches for r in ok_nominal)
        / window_s,
        "end_to_end": metrics,
    }
    return RunResult(correct=not mismatches, attempted=attempted,
                     failed=failed, metrics=layer if trace else metrics,
                     detail=detail, mismatches=mismatches)


def _check(book: QueryBook, graph: LabeledGraph, phase: Phase
           ) -> Tuple[List[str], str, List[Tuple[Any, ...]]]:
    """Replay every exact submitted query that got an ``ok`` response
    in-process, and digest the simulated costs of the catalogue."""
    engine = GSIEngine(graph, GSIConfig.gsi_opt())
    mismatches: List[str] = []
    replayed: Dict[Tuple[int, int], Tuple[int, int]] = {}
    for reqs in phase.requests.values():
        for req in reqs:
            if req.fingerprint is None:
                continue
            key = (req.shape, req.variant)
            if key not in replayed:
                replayed[key] = common.match_fingerprint(
                    engine.match(book.get(*key)).matches, QUERY_VERTICES)
            if replayed[key] != req.fingerprint:
                mismatches.append(f"shape {key}: response "
                                  f"{req.fingerprint} != replay "
                                  f"{replayed[key]}")
    entries = [common.cost_entry(engine.match(shape))
               for shape in book.shapes]
    return mismatches, common.cost_digest(entries), entries


def _traced(servers: List[Server], book: QueryBook, seed: int,
            seconds: float, run_start: float
            ) -> Tuple[Phase, Dict[str, float]]:
    """Nominal-rate step on the untraced server, then the same step on
    a server started with ``--trace-out``."""
    nominal = ((NOMINAL_RATE, 0.5),)
    untraced = _drive(servers[0], book, seed, nominal, seconds, run_start)
    trace_path = SCRATCH / f"serve-trace-{os.getpid()}.ndjson"
    server, _, _ = _boot("traced", book, trace_out=trace_path)
    servers.append(server)
    traced = _drive(server, book, seed, nominal, seconds, run_start)
    if not server.stop(TRACED_STOP_TIMEOUT_S):
        raise BenchError("traced server did not drain; no trace written")
    spans = read_spans_ndjson(trace_path)
    trace_path.unlink()
    reqs = traced.requests[f"{NOMINAL_RATE:g}"]
    ok = [r.latency_ms for r in reqs if r.failure is None]
    base = [r.latency_ms for r in untraced.requests[f"{NOMINAL_RATE:g}"]
            if r.failure is None]
    pid = next(s["pid"] for s in spans if s["name"] == "cli.serve")
    metrics, totals = tracing.ledger(spans, len(reqs), pid=pid)
    batches = [s["duration_ms"] for s in spans if s["name"] == "serve.batch"]
    stats = traced.stats
    requests = stats.get("requests", {})
    cache = stats.get("cache", {})
    batch_ms = float(np.mean(batches)) if batches else 0.0
    metrics.update({
        "serve.batch_ms": batch_ms,
        "serve.outside_batch_ms": float(np.mean(ok)) - batch_ms,
        "serve.mean_batch": float(
            stats.get("batches", {}).get("mean_size", 0.0)),
        "serve.dedup_rate": requests.get("deduped", 0)
        / max(1, requests.get("received", 0)),
        "serve.queue_depth_max": float(
            stats.get("queue", {}).get("max_depth", 0.0)),
        "serve.shed": float(requests.get("shed", 0)),
        "service.plan_hit_rate": cache.get("hits", 0) / max(
            1, cache.get("hits", 0) + cache.get("misses", 0)
            + cache.get("uncacheable", 0)),
        "service.shape_hit_rate": cache.get("shape_hits", 0) / max(
            1, cache.get("shape_hits", 0) + cache.get("shape_misses", 0)),
        "service.executor_ms": totals.get("executor.execute_prepared",
                                          0.0) / len(reqs),
        "obs.trace_overhead": float(np.mean(ok)) / float(np.mean(base)),
    })
    label = f"{NOMINAL_RATE:g}"
    merged = Phase(steps=untraced.steps + traced.steps,
                   requests={label: untraced.requests[label],
                             f"{label} traced": reqs},
                   stats=stats,
                   reconnects=untraced.reconnects + traced.reconnects)
    return merged, metrics
