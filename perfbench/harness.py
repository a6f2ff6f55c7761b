"""What every workload reports, and how layer spans become metrics."""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.exec.scheduler import nearest_rank_ms
from spans import LayerTotals, Span, layer_totals, top_level_s

#: Set-up repetitions per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3

#: The ledger counters summed over each workload's fixed statement
#: prefix: the simulated-clock fingerprint.  Two runs of one commit at
#: one seed must produce identical values.
FINGERPRINT_KEYS = ("sim.io_ms", "sim.cpu_ms", "storage.pages_read",
                    "storage.random_ios", "storage.seq_ios",
                    "storage.io_requests", "storage.buffer_hits",
                    "storage.buffer_misses")


def empty_fingerprint() -> dict[str, float]:
    return dict.fromkeys(FINGERPRINT_KEYS, 0)


def add_ledger(fingerprint: dict[str, float], ledger: dict) -> None:
    """Fold one statement's ledger (``CostLedger.to_dict()`` shape) in."""
    disk = ledger["disk"]
    fingerprint["sim.io_ms"] += ledger["io_ms"]
    fingerprint["sim.cpu_ms"] += ledger["cpu_ms"]
    fingerprint["storage.pages_read"] += disk["pages_read"]
    fingerprint["storage.random_ios"] += disk["rand_pages"]
    fingerprint["storage.seq_ios"] += disk["seq_pages"]
    fingerprint["storage.io_requests"] += disk["requests"]
    fingerprint["storage.buffer_hits"] += ledger["buffer_hits"]
    fingerprint["storage.buffer_misses"] += ledger["buffer_misses"]


@dataclass
class WorkloadRun:
    """One run of one workload, before it becomes metrics."""

    #: Wall seconds of each set-up repetition.
    setup_s: list[float] = field(default_factory=list)
    #: Per-statement latency (seconds) of the latency phase, in
    #: statement order.
    latencies_s: list[float] = field(default_factory=list)
    #: Statements per mix block: ``latency_p50_ms`` is the mean of the
    #: blocks' medians.
    block_len: int = 1
    throughput_sps: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    peak_rss_mb: float = 0.0
    fingerprint: dict[str, float] = field(default_factory=empty_fingerprint)
    #: Per-layer metrics (traced runs only).
    layers: dict[str, float] = field(default_factory=dict)
    #: Anything else worth recording (verdict counts, lateness, ...).
    notes: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failures.append(what)


def peak_rss_mb() -> float:
    """Peak resident memory of this process, in MiB.

    Read from ``VmHWM``: on Linux ``ru_maxrss`` carries the parent's
    resident size at ``fork`` across ``exec``, which would charge the
    load generator's memory to the server it started.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(n: int) -> float:
    """The highest of p99.9/p99/p90/p50 with at least ten samples
    beyond it."""
    for pct in (99.9, 99.0, 90.0):
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct
    return 50.0


def latency_summary(latencies_s: list[float], block_len: int) -> dict:
    """Median and tail (ms), the tail's percentile and the sample count.

    The median is estimated block by block: the mean over consecutive
    ``block_len``-statement mix blocks of each block's median.  The
    reference machine's speed shifts by up to 1.7x in stretches of
    seconds, and a pooled median whose rank sits near a gap between
    statement types (tpch-olap's does) flips between the stretches'
    modes, doubling its spread between runs; a block's statements share
    one stretch.  With
    a steady machine both estimate the same median.  The pooled median
    is recorded beside it.
    """
    pct = tail_percentile(len(latencies_s))
    blocks = [latencies_s[i:i + block_len] for i in
              range(0, len(latencies_s) - block_len + 1, block_len)]
    pooled_p50 = nearest_rank_ms(latencies_s, 50.0)
    return {
        "p50_ms": 1000.0 * (statistics.mean(nearest_rank_ms(b, 50.0)
                                            for b in blocks)
                            if blocks else pooled_p50),
        "pooled_p50_ms": 1000.0 * pooled_p50,
        "tail_ms": 1000.0 * nearest_rank_ms(latencies_s, pct),
        "tail_pct": pct,
        "samples": len(latencies_s),
    }


def probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work: build tuples,
    sort them, index them in a dict and look keys up (the machine-speed
    probe, 5-8 ms on the reference machine).

    The garbage collector is paused: a collection the probe's objects
    set off would time the engine's heap, not the machine.
    """
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        rows = [(i * 7919 % 10007, i, str(i)) for i in range(10_000)]
        rows.sort()
        index = {row[1]: row for row in rows}
        total = 0
        for i in range(0, 10_000, 3):
            total += index[i][0]
        return time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


def calibrate() -> float:
    """Seconds taken by sixteen probes (the machine record's calibration
    loop)."""
    return sum(probe() for _ in range(16))


#: The :func:`reading` (seconds) that scaled times are expressed at:
#: about the reference machine's (a 2-core Xeon at the commit that
#: defined the benchmark) between its two speed modes.
REFERENCE_PROBE_S = 0.006


def reading() -> float:
    """One speed reading: the faster of two probes, since a probe that
    loses the CPU part-way reads slow."""
    return min(probe(), probe())


def at_reference_speed(wall_s: float, before_s: float,
                       after_s: float) -> float:
    """``wall_s`` of work between two readings, in seconds at the
    reference machine's speed."""
    return wall_s * 2.0 * REFERENCE_PROBE_S / (before_s + after_s)


class Speedometer:
    """Converts wall seconds into seconds at the reference machine's
    speed.

    The reference machine's speed switches between two modes about 1.7x
    apart, every second or so and each core on its own, and every
    wall-clock timing moves with it.  A reading before and after a
    stretch of work, on the core that does it, brackets it (see
    :func:`at_reference_speed`).  Over 535 samples of one fixed set of
    micro statements and one of TPC-H statements, each between two
    readings, the spread (IQR/median) of their wall times was 0.32, and
    of their scaled times 0.08.  The probe does none of the engine's
    work, so a faster engine still shows as less scaled time.
    """

    def __init__(self, read: Callable[[], float] = reading) -> None:
        self.read = read
        self.last = read()
        #: Every reading's seconds, for the run record.
        self.readings_s = [self.last]

    def scale(self) -> float:
        """Read once; the factor for the work since the last reading."""
        now = self.read()
        self.readings_s.append(now)
        factor = at_reference_speed(1.0, self.last, now)
        self.last = now
        return factor


def machine_record() -> dict:
    """The machine a run was measured on."""
    import numpy
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "calibration_s": calibrate(),
    }


def end_to_end(run: WorkloadRun) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics ``BENCHMARK.json`` names, with units."""
    lat = latency_summary(run.latencies_s, run.block_len)
    return {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "throughput_sps": (run.throughput_sps, "statements/s"),
        "latency_p50_ms": (lat["p50_ms"], "ms"),
        "latency_tail_ms": (lat["tail_ms"], "ms"),
        "peak_rss_mb": (run.peak_rss_mb, "MiB"),
    }


# -- per-layer metrics -------------------------------------------------------

#: Every per-layer metric with its unit, in ``BENCHMARK.json`` order.
#: ``*_ms`` statement-path metrics are self time per statement.
PER_LAYER_UNITS: dict[str, str] = {
    "setup.generate_load_s": "s",
    "setup.index_build_s": "s",
    "setup.analyze_s": "s",
    "setup.advisor_s": "s",
    "setup.shard_s": "s",
    "setup.server_ready_s": "s",
    "sql.compile_ms": "ms/stmt",
    "sql.compile_calls_per_stmt": "calls/stmt",
    "optimizer.plan_ms": "ms/stmt",
    "optimizer.plan_calls_per_stmt": "calls/stmt",
    "optimizer.plan_cache_hit_ratio": "ratio",
    "server.admission_ms": "ms/stmt",
    "server.admission_calls": "calls/stmt",
    "server.verdict.admit": "count",
    "server.verdict.split": "count",
    "server.verdict.degrade": "count",
    "server.verdict.reject": "count",
    "server.handle_ms": "ms/stmt",
    "server.drain_step_ms": "ms/stmt",
    "server.encode_ms": "ms/stmt",
    "server.decode_ms": "ms/stmt",
    "server.bytes_out": "B/stmt",
    "exec.drain_ms": "ms/stmt",
    "exec.batches": "count/stmt",
    "exec.rows_out": "count/stmt",
    "api.fetch_self_ms": "ms/stmt",
    "sim.io_ms": "ms",
    "sim.cpu_ms": "ms",
    "storage.pages_read": "count",
    "storage.random_ios": "count",
    "storage.seq_ios": "count",
    "storage.io_requests": "count",
    "storage.buffer_hit_ratio": "ratio",
    "py.gc_ms": "ms/stmt",
    "py.gc_collections": "count/stmt",
    "harness.trace_overhead": "ratio",
    "harness.unattributed_share": "ratio",
    "harness.gen_lag_ms": "ms",
    "harness.fail_share": "ratio",
    "harness.calibration_s": "s",
}

#: Span name -> setup metric (seconds of self time).
_SETUP_LAYERS = {
    "setup.generate_load": "setup.generate_load_s",
    "setup.index_build": "setup.index_build_s",
    "setup.analyze": "setup.analyze_s",
    "setup.advisor": "setup.advisor_s",
    "setup.shard": "setup.shard_s",
}


def setup_layers(spans: list[Span]) -> dict[str, float]:
    """Set-up metrics (seconds of self time) from set-up spans."""
    totals = layer_totals(spans)
    return {metric: totals.get(name, LayerTotals()).self_s
            for name, metric in _SETUP_LAYERS.items()}


def statement_layers(spans: list[Span], gc_pauses: list[tuple],
                     statements: int, busy_s: float) -> dict[str, float]:
    """Statement-path metrics from the spans of a traced phase.

    ``busy_s`` is the wall time the phase's statements took (the
    denominator of ``harness.unattributed_share``).
    """
    totals = layer_totals(spans)
    n = max(statements, 1)

    def get(name: str) -> LayerTotals:
        return totals.get(name, LayerTotals())

    def ms(*names: str) -> float:
        return 1000.0 * sum(get(name).self_s for name in names) / n

    lookups = get("optimizer.cache_lookup")
    return {
        "sql.compile_ms": ms("sql.compile"),
        "sql.compile_calls_per_stmt": get("sql.compile").calls / n,
        "optimizer.plan_ms": ms("optimizer.plan", "optimizer.cache_lookup"),
        "optimizer.plan_calls_per_stmt": get("optimizer.plan").calls / n,
        "optimizer.plan_cache_hit_ratio":
            lookups.value / lookups.calls if lookups.calls else 0.0,
        "server.admission_ms": ms("server.admission"),
        "server.admission_calls": get("server.admission").calls / n,
        "server.handle_ms": ms("server.handle"),
        "server.drain_step_ms": ms("server.drain_step"),
        "server.encode_ms": ms("server.encode"),
        "server.decode_ms": ms("server.decode"),
        "server.bytes_out": get("server.encode").value / n,
        "exec.drain_ms": ms("exec.drain"),
        "exec.batches": sum(1 for s in spans
                            if s.name == "exec.drain" and s.value) / n,
        "exec.rows_out": get("exec.drain").value / n,
        "api.fetch_self_ms": ms("api.fetch"),
        "py.gc_ms": 1000.0 * sum(end - start for start, end in gc_pauses) / n,
        "py.gc_collections": len(gc_pauses) / n,
        "harness.unattributed_share":
            max(0.0, 1.0 - top_level_s(spans) / busy_s) if busy_s else 0.0,
    }


def fingerprint_layers(fingerprint: dict[str, float]) -> dict[str, float]:
    """The ``sim.*``/``storage.*`` per-layer metrics of a fingerprint."""
    hits = fingerprint["storage.buffer_hits"]
    lookups = hits + fingerprint["storage.buffer_misses"]
    out = {key: fingerprint[key] for key in FINGERPRINT_KEYS
           if key in PER_LAYER_UNITS}
    out["storage.buffer_hit_ratio"] = hits / lookups if lookups else 0.0
    return out
