"""Shared plumbing for the layer-ledger workloads.

Everything here is the benchmark's own machinery: environment hygiene,
the closed-loop timer, latency summaries, peak-RSS probes, the
simulated-cost digest and the match-set fingerprints the output checks
compare.  Nothing here is imported by the program under test.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import platform
import resource
import signal
import sys
import time
from dataclasses import dataclass, field
from multiprocessing import forkserver, resource_tracker
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, \
    Tuple

import numpy as np

#: tail percentiles tried from the highest down; the first one with at
#: least TAIL_MIN_BEYOND samples above it is reported
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

#: set-up is repeated this many times per run and the median reported
SETUP_REPEATS = 5

#: the fixed seed every workload's query catalogue is drawn from; the
#: run's ``--seed`` drives the traffic over the catalogue (see README)
CATALOGUE_SEED = 20200420


class BenchError(RuntimeError):
    """A workload could not run as specified (not an output mismatch)."""


def strip_gsi_env(environ: Optional[Dict[str, str]] = None) -> List[str]:
    """Remove every ``GSI_*`` override so defaults are the code's own.

    Returns the names removed (recorded in the run's detail line).
    """
    env = os.environ if environ is None else environ
    removed = sorted(k for k in env if k.startswith("GSI_"))
    for key in removed:
        del env[key]
    return removed


def machine_info() -> Dict[str, Any]:
    """Core count and interpreter/library versions for like-for-like
    comparison of payloads."""
    return {
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": sys.platform,
    }


def derive_seed(seed: int, *salt: int) -> int:
    """A 31-bit sub-seed of ``seed`` (stable across Python versions)."""
    digest = hashlib.sha256(
        repr((seed,) + tuple(salt)).encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------

def median_setup(build: Callable[[], Any],
                 repeats: int = SETUP_REPEATS) -> tuple:
    """Run ``build`` ``repeats`` times; return (median seconds, last
    result).  Earlier results are dropped before the next build so
    only one copy is alive at a time."""
    times = []
    result = None
    for _ in range(repeats):
        result = None
        t0 = time.perf_counter()
        result = build()
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result


@dataclass
class OpLog:
    """Per-operation records of one timed window.

    ``busy_s`` is the sum of operation durations: the benchmark's own
    checks between operations are not part of any throughput figure.
    """

    durations_ms: List[float] = field(default_factory=list)
    #: operations each call stands for (queries in a batch, update ops)
    work: List[int] = field(default_factory=list)
    #: output volume of each call (matches returned or changed)
    units: List[int] = field(default_factory=list)
    #: what each call ran (a catalogue index), when calls repeat
    keys: List[Any] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Σ candidate-set sizes behind the outputs (attempted work)
    candidates: int = 0

    def record(self, seconds: float, work: int = 1, units: int = 0,
               key: Any = None) -> None:
        self.durations_ms.append(seconds * 1000.0)
        self.work.append(work)
        self.units.append(units)
        self.keys.append(key)

    @property
    def busy_s(self) -> float:
        return sum(self.durations_ms) / 1000.0

    def chunk_rates(self, chunk: int) -> Tuple[float, float]:
        """(work, units) per busy second, each the median over
        consecutive ``chunk``-call slices.

        A slice hit by a burst of load from outside the program moves
        one sample, not the reported median.
        """
        return (chunk_median(self.work, self.durations_ms, chunk),
                chunk_median(self.units, self.durations_ms, chunk))


def chunk_median(amounts: Sequence[float], durations_ms: Sequence[float],
                 chunk: int) -> float:
    """Median over consecutive ``chunk``-call slices of Σ amount per busy
    second (one slice when there are fewer than ``chunk`` calls)."""
    n = len(durations_ms)
    if n == 0:
        raise BenchError("no operations recorded")
    chunk = max(1, min(chunk, n))
    rates = []
    for lo in range(0, n - chunk + 1, chunk):
        busy = sum(durations_ms[lo:lo + chunk]) / 1000.0
        rates.append(sum(amounts[lo:lo + chunk]) / busy)
    return float(np.median(rates))


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q`` quantile.

    A Beta-weighted average of all order statistics instead of the one
    or two next to the cut, so a single sample moving across the cut
    moves the estimate a little, not by the gap between neighbours.
    """
    x = np.sort(np.asarray(values, dtype=np.float64))
    n = len(x)
    if n == 1:
        return float(x[0])
    a, b = q * (n + 1), (1.0 - q) * (n + 1)
    # Beta(a, b) CDF at i/n by integrating the density on a fine grid
    grid = np.linspace(0.0, 1.0, 40 * n + 1)
    inner = grid[1:-1]
    logpdf = (a - 1.0) * np.log(inner) + (b - 1.0) * np.log1p(-inner)
    pdf = np.concatenate([[0.0], np.exp(logpdf - logpdf.max()), [0.0]])
    cdf = np.concatenate(
        [[0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))])
    cdf /= cdf[-1]
    weights = np.diff(np.interp(np.arange(n + 1) / n, grid, cdf))
    return float(np.dot(weights, x))


def tail_summary(samples_ms: Sequence[float], tail_pct: float
                 ) -> Dict[str, Any]:
    """Median and tail (Harrell-Davis estimates) of one operation.

    ``tail_pct`` is the workload's pinned tail percentile: the highest
    ladder rung its run length supports with at least
    ``TAIL_MIN_BEYOND`` samples beyond it.  Pinning keeps a faster
    commit, which collects more samples, from being judged on a higher
    percentile than its parent.  When a run collects too few samples
    the next lower rung is used, and the detail line says so.
    """
    if not samples_ms:
        raise BenchError("no latency samples")
    n = len(samples_ms)
    pct = TAIL_LADDER[-1]
    for candidate in TAIL_LADDER:
        if (candidate <= tail_pct
                and n * (1.0 - candidate / 100.0) >= TAIL_MIN_BEYOND):
            pct = candidate
            break
    tail = hd_quantile(samples_ms, pct / 100.0)
    return {
        "p50": hd_quantile(samples_ms, 0.5),
        "tail": tail,
        "tail_percentile": pct,
        "tail_pinned": tail_pct,
        "samples": n,
        "beyond_tail": int(sum(1 for v in samples_ms if v > tail)),
        "estimator": "Harrell-Davis",
    }


# ----------------------------------------------------------------------
# memory
# ----------------------------------------------------------------------

def self_peak_rss_mb() -> float:
    """Peak RSS of this process so far (``VmHWM``)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Peak RSS of the largest waited-for child process."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# output fingerprints and the simulated-cost digest
# ----------------------------------------------------------------------

_MIX = np.uint64(0x9E3779B97F4A7C15)
_MUL = np.uint64(0xBF58476D1CE4E5B9)


def match_fingerprint(matches: Iterable[Sequence[int]], width: int
                      ) -> tuple:
    """Order-independent (count, hash) of a collection of embeddings.

    Two collections with equal fingerprints hold the same multiset of
    tuples up to a 2**-64 collision chance; duplicates change the count.
    """
    rows = np.asarray(list(matches), dtype=np.uint64)
    if rows.size == 0:
        return (0, 0)
    rows = rows.reshape(-1, width)
    h = np.zeros(rows.shape[0], dtype=np.uint64)
    with np.errstate(over="ignore"):
        for j in range(width):
            h = (h ^ (rows[:, j] + _MIX + (h << np.uint64(6))
                      + (h >> np.uint64(2)))) * _MUL
        h ^= h >> np.uint64(31)
        total = int(h.sum(dtype=np.uint64))
    return (int(rows.shape[0]), total)


def cost_entry(result: Any) -> tuple:
    """The simulated costs of one ``MatchResult``, exactly as recorded."""
    c = result.counters
    return (int(c.gld), int(c.gst), int(c.kernel_launches),
            repr(float(result.elapsed_ms)))


def cost_digest(entries: Iterable[Any]) -> str:
    """SHA-256 over the repr of simulated-cost entries, in order."""
    h = hashlib.sha256()
    for entry in entries:
        h.update(repr(entry).encode())
        h.update(b"\n")
    return h.hexdigest()[:32]


def cost_totals(entries: Sequence[tuple]) -> Dict[str, float]:
    """gld/gst/launch/simulated-ms totals over ``cost_entry`` tuples."""
    return {
        "gpusim.gld": float(sum(e[0] for e in entries)),
        "gpusim.gst": float(sum(e[1] for e in entries)),
        "gpusim.kernel_launches": float(sum(e[2] for e in entries)),
        "gpusim.sim_ms": float(sum(float(e[3]) for e in entries)),
    }


@dataclass
class RunResult:
    """What one workload run hands back to ``run.py``."""

    correct: bool
    attempted: int
    failed: int
    metrics: Dict[str, float]
    detail: Dict[str, Any] = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)


# ----------------------------------------------------------------------
# process hygiene
# ----------------------------------------------------------------------

#: how long a child may take to exit after SIGTERM before SIGKILL
REAP_GRACE_S = 5.0


def _child_pids() -> List[int]:
    """Live or zombie processes whose parent is this process."""
    me = str(os.getpid())
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the field after "(comm)" is the state, the next one the ppid
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and fields[1] == me:
            pids.append(int(entry))
    return pids


def _wait_gone(pid: int, deadline: float) -> bool:
    """Reap ``pid``; True once it has ended (or is not our child)."""
    while True:
        try:
            done, _ = os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            return True
        if done:
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.01)


def stop_children() -> None:
    """Stop every process this run started and wait for each to end.

    Process pools are shut down by the workloads themselves; what is
    left are ``multiprocessing``'s helpers (the shared-memory resource
    tracker, a fork server) that otherwise outlive the run, plus anything
    a failed run left behind.  Owned shared segments are unlinked first
    so the tracker has nothing left to clean up after we stop it.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(REAP_GRACE_S)
        if proc.is_alive():
            proc.kill()
            proc.join()
    # The program's own exit-time backstop, run now: an unlink after the
    # tracker has stopped would start a fresh tracker that outlives us.
    shm = sys.modules.get("repro.storage.shm")
    if shm is not None:
        shm._cleanup_owned_segments()
    # Closing each helper's pipe makes it exit; _stop() also reaps it.
    # The fork server is the default start method from Python 3.14 on.
    forkserver._forkserver._stop()
    resource_tracker._resource_tracker._stop()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        pids = _child_pids()
        if not pids:
            return
        for pid in pids:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        deadline = time.monotonic() + REAP_GRACE_S
        pids = [pid for pid in pids if not _wait_gone(pid, deadline)]
        if not pids:
            return
