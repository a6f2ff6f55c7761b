"""Batch execution cost and throughput on the Figure-5 selectivity sweep.

Runs the fig5 micro-benchmark plans (Full, Sort and Smooth Scan, with and
without the 100% point) and drains each one cold through ``batches()``,
recording the simulated io/cpu cost and the *real* wall-clock time of the
drain.  :meth:`BatchBenchResult.report` is the deterministic half — the
committed ``bench_results/batch_throughput.txt`` artifact, which only
changes when the engine's simulated behavior changes, never from runner
noise.  The wall-clock times feed the batch-throughput guardrail
(``benchmarks/test_batch_throughput.py``), which compares them against a
tuple-at-a-time reference drain of the same plans and tees its table to
the uncommitted ``bench_results/batch_throughput_wallclock.txt`` sidecar.

This module is the engine's wall-clock sidecar: :func:`timed_drain` is
the one place that reads the wall clock around a drain.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from repro.bench.reporting import format_table
from repro.context import ExecutionContext
from repro.database import Database
from repro.experiments.common import (
    DEFAULT_MICRO_TUPLES,
    MicroSetup,
    access_path_plan,
    make_micro_db,
)

#: Selectivity points of the sweep (percent); a subset of the fig5 grid
#: spanning the index-friendly low end through the full-scan high end.
DEFAULT_GRID_PCT = (0.1, 1.0, 20.0, 100.0)

#: Access paths measured (the fig5 paths whose engine work dominates;
#: the classical index scan is one random fetch per tuple).
DEFAULT_PATHS = ("full", "sort", "smooth")


@dataclass
class BatchBenchResult:
    """Per-plan batch execution: simulated cost + wall clock."""

    labels: list[str] = field(default_factory=list)
    #: ``(access path, selectivity fraction)`` per plan, for re-building
    #: the same plan elsewhere (e.g. a reference drain).
    plans: list[tuple[str, float]] = field(default_factory=list)
    tuples: list[int] = field(default_factory=list)
    batch_seconds: list[float] = field(default_factory=list)
    #: Simulated (deterministic) io/cpu milliseconds per plan.
    sim_io_ms: list[float] = field(default_factory=list)
    sim_cpu_ms: list[float] = field(default_factory=list)

    @property
    def total_tuples(self) -> int:
        return sum(self.tuples)

    def report(self) -> str:
        """The deterministic table: simulated cost per plan."""
        headers = ["plan", "tuples", "sim_io_s", "sim_cpu_s", "sim_total_s"]
        table = []
        for i, label in enumerate(self.labels):
            io_s = self.sim_io_ms[i] / 1000.0
            cpu_s = self.sim_cpu_ms[i] / 1000.0
            table.append([label, self.tuples[i], io_s, cpu_s, io_s + cpu_s])
        io_total = sum(self.sim_io_ms) / 1000.0
        cpu_total = sum(self.sim_cpu_ms) / 1000.0
        table.append(["OVERALL", self.total_tuples, io_total, cpu_total,
                      io_total + cpu_total])
        return format_table(
            headers, table,
            title=("Batch execution engine — simulated cost, fig5 "
                   "selectivity sweep\n"
                   "(identical on row and batch protocols by the batch "
                   "contract; wall-clock\n"
                   "throughput lives in the uncommitted "
                   "batch_throughput_wallclock.txt sidecar)"),
        )


def timed_drain(db: Database, drain: Callable[[ExecutionContext], int]
                ) -> tuple[int, float, float, float]:
    """Cold-run ``drain(ctx) -> tuples``: (tuples, wall_s, io_ms, cpu_ms)."""
    ctx = db.cold_run()
    io0, cpu0 = db.clock.snapshot()
    start = time.perf_counter()
    count = drain(ctx)
    wall = time.perf_counter() - start
    io1, cpu1 = db.clock.snapshot()
    return count, wall, io1 - io0, cpu1 - cpu0


def run_batch_bench(num_tuples: int = DEFAULT_MICRO_TUPLES,
                    selectivities_pct: tuple = DEFAULT_GRID_PCT,
                    paths: tuple = DEFAULT_PATHS,
                    setup: MicroSetup | None = None,
                    repeats: int = 2) -> BatchBenchResult:
    """Drain every (path, selectivity) fig5 plan through ``batches()``.

    Each plan is drained ``repeats`` times and the best wall-clock time
    is kept, damping scheduler noise; simulated costs repeat exactly.
    """
    setup = setup or make_micro_db(num_tuples)
    result = BatchBenchResult()
    for sel_pct in selectivities_pct:
        sel = sel_pct / 100.0
        for path in paths:
            best = float("inf")
            count = 0
            io_ms = cpu_ms = 0.0
            for _ in range(max(1, repeats)):
                plan = access_path_plan(path, setup.table, sel)
                count, secs, io_ms, cpu_ms = timed_drain(
                    setup.db,
                    lambda ctx, plan=plan: sum(map(len, plan.batches(ctx))),
                )
                best = min(best, secs)
            result.labels.append(f"{path}@{sel_pct:g}%")
            result.plans.append((path, sel))
            result.tuples.append(count)
            result.batch_seconds.append(best)
            result.sim_io_ms.append(io_ms)
            result.sim_cpu_ms.append(cpu_ms)
    return result
