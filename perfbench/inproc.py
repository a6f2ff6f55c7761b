"""The in-process workloads: ``micro-scan`` and ``tpch-olap``.

Both are closed loops with one client on an in-process ``Connection``
(``cold=True``, the paper's discipline: every statement starts with
dropped caches).  Statements are prepared once per database and warmed
once (the plan cache's one miss per statement), then run in *blocks*:
a block holds the workload's whole statement mix, shuffled by the seed.

A run measures a fixed amount of work, sized by ``--seconds`` to take
about that long on the reference machine (a 2-core Xeon at the commit
that defined the benchmark): the same statements on both sides of a
comparison, so a faster engine finishes sooner instead of measuring a
different mix.
"""

from __future__ import annotations

import gc
import math
import random
import time
from dataclasses import dataclass
from typing import Callable

import data
from harness import (
    SETUP_REPS,
    Speedometer,
    WorkloadRun,
    add_ledger,
    fingerprint_layers,
    peak_rss_mb,
    setup_layers,
    statement_layers,
)
from spans import SpanTracer, install_engine_spans


#: Blocks per second of ``--seconds`` (reference machine).
MICRO_BLOCKS_PER_S = 1.0
TPCH_BLOCKS_PER_S = 3.7


@dataclass(frozen=True)
class Sizes:
    """Workload scale (the self-test shrinks it)."""

    micro_rows: int = 240_000
    tpch_scale: float = 0.01
    #: Leading blocks whose ledgers form the simulated-clock fingerprint.
    fingerprint_blocks: int = 2


@dataclass
class Statement:
    """One statement of a block: run it, then check its answer."""

    label: str
    execute: Callable[[], object]          # returns a live cursor
    check: Callable[[list], str | None]    # None when the answer is right


# -- micro-scan --------------------------------------------------------------

#: The statement shapes and their shares of a block (2:1:1).
MICRO_SQL = {
    "star": "SELECT * FROM micro WHERE c2 >= ? AND c2 < ?",
    "ordered": "SELECT * FROM micro WHERE c2 >= ? AND c2 < ? ORDER BY c2",
    "agg": "SELECT count(*), sum(c3) FROM micro WHERE c2 >= ? AND c2 < ?",
}
MICRO_SLOTS = ("star", "star", "ordered", "agg")

#: Selectivity decades per slot: 10^-5 .. 10^0 (0.001 % .. 100 %).
DECADES = 5


def micro_ranges(seed: int, num_blocks: int) -> list[list[tuple]]:
    """``num_blocks`` blocks of ``(shape, lo, hi)`` c2 ranges, one per
    slot × decade.

    Selectivity is log-uniform within each decade, drawn by jittered
    stratification across the run: each slot and decade takes one
    exponent from each of ``num_blocks`` equal strata, in seeded order.
    Scan cost grows with selectivity, so this keeps the run's total
    work nearly the same at every seed.
    """
    rng = random.Random(seed)
    fracs = {}
    for slot in range(len(MICRO_SLOTS)):
        for decade in range(DECADES):
            strata = list(range(num_blocks))
            rng.shuffle(strata)
            fracs[slot, decade] = [(s + rng.random()) / num_blocks
                                   for s in strata]
    blocks = []
    for k in range(num_blocks):
        block = []
        for slot, shape in enumerate(MICRO_SLOTS):
            for decade in range(DECADES):
                selectivity = 10.0 ** (decade + fracs[slot, decade][k]
                                       - DECADES)
                width = max(1, round(selectivity * data.DOMAIN))
                lo = rng.randrange(data.DOMAIN - width + 1)
                block.append((shape, lo, lo + width))
        rng.shuffle(block)
        blocks.append(block)
    return blocks


def _micro_check(oracle: data.MicroOracle, shape: str, lo: int, hi: int,
                 rows: list) -> str | None:
    if shape == "agg":
        want = oracle.count_sum(lo, hi)
        got = tuple(rows[0]) if len(rows) == 1 else rows
        return None if got == want else f"got {got}, expected {want}"
    return oracle.check_range(rows, lo, hi, ordered=shape == "ordered")


def data_seed(seed: int, round_: int) -> int:
    """The data seed of set-up round ``round_`` of a run at ``seed``.

    Each round loads its own data instance, so a run averages over
    ``SETUP_REPS`` of them: Smooth Scan's wall time on TPC-H data moves
    with the instance (smooth Q6's median latency ranged 9-29 ms over
    ten seeds), which a single instance per run turned into spread
    between runs.
    """
    return seed * SETUP_REPS + round_


class MicroScan:
    """Smooth Scan over the micro table, three statement shapes."""

    def __init__(self, sizes: Sizes, seed: int, seconds: float):
        self.sizes, self.seed = sizes, seed
        self.num_blocks = max(1, round(seconds * MICRO_BLOCKS_PER_S))
        self.data_seed = data_seed(seed, 0)
        self.oracle: data.MicroOracle | None = None
        self.prepared: dict = {}

    def setup(self, round_: int):
        from repro import Database
        self.data_seed = data_seed(self.seed, round_)
        db = Database()
        data.load_micro(db, self.sizes.micro_rows, self.data_seed)
        return db

    def prepare(self, db) -> list[Statement]:
        """Prepare on ``db``; returns the warm-up statements."""
        from repro import PlannerOptions
        self.oracle = data.MicroOracle(data.micro_columns(
            self.sizes.micro_rows, self.data_seed))
        conn = db.connect(options=PlannerOptions(enable_smooth=True,
                                                 enable_sort_scan=False),
                          cold=True)
        self.prepared = {shape: conn.prepare(sql)
                         for shape, sql in MICRO_SQL.items()}
        return [self._statement(shape, 0, 10) for shape in MICRO_SQL]

    def _statement(self, shape: str, lo: int, hi: int) -> Statement:
        # Looks the prepared statement and the oracle up when it runs:
        # blocks outlive the database they were drawn on.
        return Statement(
            f"{shape}[{lo},{hi})",
            lambda: self.prepared[shape].execute((lo, hi)),
            lambda rows: _micro_check(self.oracle, shape, lo, hi, rows))

    def blocks(self) -> list[list[Statement]]:
        return [[self._statement(*r) for r in block]
                for block in micro_ranges(self.seed, self.num_blocks)]


# -- tpch-olap ---------------------------------------------------------------

TPCH_MODES = ("original", "tuned", "smooth")


class TpchOlap:
    """Q1/Q6/Q14 under the three Figure-1 modes, stale statistics."""

    def __init__(self, sizes: Sizes, seed: int, seconds: float):
        self.sizes, self.seed = sizes, seed
        self.num_blocks = max(1, round(seconds * TPCH_BLOCKS_PER_S))
        self.prepared: dict = {}
        self._oracle: dict | None = None

    def setup(self, round_: int):
        from repro.experiments.fig1 import make_tuned_tpch
        setup = make_tuned_tpch(scale_factor=self.sizes.tpch_scale,
                                seed=data_seed(self.seed, round_))
        # The Fig-1 trap: the stale statistics become the database's own.
        setup.db.use_catalog(setup.catalog)
        return setup.db

    def prepare(self, db) -> list[Statement]:
        from repro.workloads.tpch.queries import SQL_QUERIES, mode_options
        self._oracle = data.tpch_oracle(db)
        self.prepared = {}
        for mode in TPCH_MODES:
            conn = db.connect(options=mode_options(mode), cold=True)
            for name, sql in SQL_QUERIES.items():
                self.prepared[(mode, name)] = conn.prepare(sql)
        return self._statements()

    def _statements(self) -> list[Statement]:
        from repro.workloads.tpch.queries import SQL_QUERIES
        out = []
        for mode in TPCH_MODES:
            for name in SQL_QUERIES:
                def check(rows: list, name=name) -> str | None:
                    want = self._oracle[name]
                    return None if data.rows_match(rows, want) \
                        else f"got {rows[:2]}..., expected {want[:2]}..."
                out.append(Statement(
                    f"{mode}:{name}",
                    lambda key=(mode, name): self.prepared[key].execute(),
                    check))
        return out

    def blocks(self) -> list[list[Statement]]:
        rng = random.Random(self.seed)
        blocks = []
        for _ in range(self.num_blocks):
            block = self._statements()
            rng.shuffle(block)
            blocks.append(block)
        return blocks


# -- the closed loop ---------------------------------------------------------


def _run_statement(st: Statement, run: WorkloadRun,
                   fingerprint: dict | None) -> float | None:
    """Execute, fully fetch, check; the latency in seconds, or None on
    failure."""
    run.attempted += 1
    cursor = None
    try:
        start = time.perf_counter()
        cursor = st.execute()
        rows = cursor.fetchall()
        elapsed = time.perf_counter() - start
        ledger = cursor.result().run
    except Exception as exc:  # noqa: BLE001 - any engine error is a failure
        run.fail(f"{st.label}: {type(exc).__name__}: {exc}")
        return None
    finally:
        if cursor is not None:
            cursor.close()
    if fingerprint is not None:
        add_ledger(fingerprint, {
            "io_ms": ledger.io_ms, "cpu_ms": ledger.cpu_ms,
            "buffer_hits": ledger.buffer_hits,
            "buffer_misses": ledger.buffer_misses,
            "disk": vars(ledger.disk),
        })
    wrong = st.check(rows)
    if wrong is not None:
        run.fail(f"{st.label}: wrong answer: {wrong}")
        return None
    return elapsed


def run_blocks(blocks: list[list[Statement]], run: WorkloadRun,
               fingerprint: dict | None, latencies: list[float],
               speed: Speedometer, block_s: list[float] | None = None,
               tracer: SpanTracer | None = None) -> float:
    """Run blocks in order; returns their statement time at reference
    speed (the oracle checks between statements are not timed).  Each
    latency is scaled by the readings around its statement; each block's
    raw time is appended to ``block_s`` when given; a ``tracer``'s spans
    get each statement's number."""
    busy = 0.0
    for block in blocks:
        raw = 0.0
        for st in block:
            if tracer is not None:
                tracer.stmt = run.attempted
            elapsed = _run_statement(st, run, fingerprint)
            scale = speed.scale()
            if elapsed is not None:
                latencies.append(elapsed * scale)
                busy += elapsed * scale
                raw += elapsed
        if block_s is not None:
            block_s.append(raw)
    return busy


WORKLOADS = {"micro-scan": MicroScan, "tpch-olap": TpchOlap}


def run_inprocess(name: str, seed: int, seconds: float, traced: bool,
                  sizes: Sizes = Sizes(),
                  spans_path: str | None = None) -> WorkloadRun:
    """One run of an in-process workload.

    Untraced: ``SETUP_REPS`` rounds, each a timed set-up of its own
    data instance (:func:`data_seed`) followed by an equal share of the
    blocks on that database, so set-up and statements both sample the
    whole run (the machine's speed drifts within seconds).  The first
    blocks, on the first round's data, also form the fingerprint.
    Set-up and statement times are scaled to the reference machine's
    speed by readings around them (see :class:`harness.Speedometer`).
    Traced: one traced set-up, the blocks untraced, then the same
    blocks traced — the two throughputs give ``harness.trace_overhead``;
    the traced phase's spans are written to ``spans_path`` when given.
    """
    workload = WORKLOADS[name](sizes, seed, seconds)
    blocks = workload.blocks()
    rounds = 1 if traced else SETUP_REPS
    run = WorkloadRun(block_len=len(blocks[0]))
    busy = 0.0
    done = 0
    block_s: list[float] = []
    raw_setup_s: list[float] = []
    speed = Speedometer()
    for i in range(rounds):
        db = workload.prepared = None   # free the last database first
        gc.collect()
        tracer = SpanTracer()
        if traced:
            install_engine_spans(tracer)
        speed.scale()
        start = time.perf_counter()
        db = workload.setup(i)
        raw_setup_s.append(time.perf_counter() - start)
        run.setup_s.append(raw_setup_s[-1] * speed.scale())
        tracer.uninstall()
        run.layers.update(setup_layers(tracer.window(-math.inf, math.inf)))
        for st in workload.prepare(db):
            _run_statement(st, run, None)
        # The fingerprint blocks run on the first round's data.
        until = max(len(blocks) * (i + 1) // rounds,
                    min(len(blocks), sizes.fingerprint_blocks))
        prefix = max(done, min(until, sizes.fingerprint_blocks))
        speed.scale()   # leave the warm-up statements out
        busy += run_blocks(blocks[done:prefix], run, run.fingerprint,
                           run.latencies_s, speed, block_s)
        busy += run_blocks(blocks[prefix:until], run, None, run.latencies_s,
                           speed, block_s)
        done = until
    # Total statements over total statement time, not a median of
    # slices: the reference machine's speed shifts by up to 1.7x in
    # stretches of seconds, and a mean over the stretches a run spans
    # varies less between runs than a majority vote among them.
    run.throughput_sps = len(run.latencies_s) / busy if busy else 0.0
    if traced:
        tracer = SpanTracer()
        install_engine_spans(tracer)
        traced_lat: list[float] = []
        traced_raw: list[float] = []
        speed.scale()
        traced_busy = run_blocks(blocks, run, None, traced_lat, speed,
                                 traced_raw, tracer)
        tracer.uninstall()
        if spans_path is not None:
            tracer.dump(spans_path)
        # Spans are wall time: so is the unattributed share's base.
        run.layers.update(statement_layers(
            tracer.window(-math.inf, math.inf), tracer.gc_pauses,
            len(traced_lat), sum(traced_raw)))
        run.layers["harness.trace_overhead"] = (
            1.0 - busy / traced_busy if traced_busy else 0.0)
    run.layers.update(fingerprint_layers(run.fingerprint))
    run.peak_rss_mb = peak_rss_mb()
    run.notes.update(block_s=block_s, raw_setup_s=raw_setup_s,
                     readings_s=speed.readings_s)
    return run
