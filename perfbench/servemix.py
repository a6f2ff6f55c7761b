"""The ``serve-mix`` workload: NDJSON traffic against a server process.

One single-threaded load generator drives two connections to a server
started by ``server.py``.  The statement mix comes in seeded blocks of
100 (so every run sends the same mix):

* 60 prepared point lookups ``WHERE c1 = ?``;
* 20 ad-hoc ``query`` frames with inline literals, each text distinct,
  so they miss the plan cache and pay lex, parse, bind and plan;
* 15 prepared narrow ``c2`` probes;
* 4 drifted wide replays of the same range statement, whose plan was
  cached at a tiny selectivity, which admission should ``split``;
* 1 ``force_path(index)`` hint over a wide range, which admission must
  ``reject`` (an expected refusal, not a failure).

Phases, after warm-up: a *fingerprint* prefix (one block, sequential on
one connection, so its ledgers repeat exactly); *capacity*, a closed
loop on both connections (``throughput_sps``); *paced*, an open loop at
:data:`PACED_RATE` statements/s, timed from each statement's due time
(``latency_*``).
"""

from __future__ import annotations

import gc
import json
import math
import os
import random
import selectors
import socket
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

import data
from harness import (
    SETUP_REPS,
    Speedometer,
    WorkloadRun,
    add_ledger,
    at_reference_speed,
    fingerprint_layers,
    setup_layers,
    statement_layers,
)
from repro.exec.scheduler import nearest_rank_ms
from spans import Span, clock, top_level_s

#: Offered rate of the paced phase (statements/s), about a seventh of
#: the closed-loop capacity on the reference machine.  Its CPU speed
#: drifts by half between minutes; at higher load queueing amplifies
#: that drift into the tail (at 150/s the tail's spread between runs
#: reached 70 %), and at 350/s the one-thread load generator itself
#: fell 100 ms behind its schedule.
PACED_RATE = 90.0

#: Capacity-phase statements per second of ``--seconds``: about what
#: the reference machine completes (a 2-core Xeon at the commit that
#: defined the benchmark).  A run sends a fixed count.
CAPACITY_PER_S = 650.0

#: Statements between two speed readings (see
#: :class:`harness.Speedometer`): about half a second of capacity and a
#: second of paced traffic.
CAPACITY_CHUNK = 300
PACED_CHUNK = 90

#: Statements per mix block, by kind (the last two are the heavy ones).
BLOCK = (("point", 60), ("adhoc", 20), ("narrow", 15), ("wide", 4),
         ("forced", 1))

#: Selectivity span (percent) of each range statement kind.
RANGE_PCT = {"narrow": (0.005, 0.05), "wide": (0.5, 2.0),
             "forced": (30.0, 60.0)}

_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Where the range statement's plan is cached: 0.05 % of the domain.
SEED_WIDTH = 50

RANGE_SQL = "SELECT * FROM micro WHERE c2 >= ? AND c2 < ?"
POINT_SQL = "SELECT * FROM micro WHERE c1 = ?"
FORCED_SQL = ("SELECT /*+ force_path(index) */ * FROM micro "
              "WHERE c2 >= ? AND c2 < ?")

#: Seconds a statement may take before it counts as timed out.
STATEMENT_TIMEOUT_S = 20.0
_SERVER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "server.py")


@dataclass
class Request:
    """One statement on the wire and what came back."""

    kind: str
    frame: dict                          # the request, minus its id
    check: Callable[[list], str | None]  # rows -> None when right
    due: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    rows: list = field(default_factory=list)
    admission: dict | None = None
    error: dict | None = None
    ledger: dict | None = None


@dataclass
class Sizes:
    """Workload scale (the self-test shrinks it)."""

    rows: int = 60_000
    #: Statements in the sequential fingerprint prefix.
    fingerprint_statements: int = 100


# -- the statement stream ----------------------------------------------------


def statements(seed: int, oracle: data.MicroOracle,
               handles: dict[str, int]) -> Iterator[Request]:
    """The seeded statement sequence (``handles``: prepared ids)."""
    rng = random.Random(seed)
    num_rows = len(oracle.data)
    keys = list(range(num_rows))
    rng.shuffle(keys)   # ad-hoc literals walk a permutation: all distinct
    adhoc = 0
    light = [kind for kind, count in BLOCK[:3] for _ in range(count)]
    heavy = [kind for kind, count in BLOCK[3:] for _ in range(count)]
    spacing = sum(count for _, count in BLOCK) // len(heavy)

    # Range widths are log-uniform over each kind's span, drawn as a
    # seeded golden-ratio sequence: any prefix of the run covers the
    # span evenly, so runs at different seeds send the same work.
    drawn = {kind: [rng.random(), 0] for kind in RANGE_PCT}

    def c2_range(kind: str) -> tuple[int, int]:
        offset, n = drawn[kind]
        drawn[kind][1] += 1
        lo_pct, hi_pct = RANGE_PCT[kind]
        frac = (offset + n * _GOLDEN) % 1.0
        pct = lo_pct * (hi_pct / lo_pct) ** frac
        width = max(1, round(pct / 100.0 * data.DOMAIN))
        lo = rng.randrange(data.DOMAIN - width + 1)
        return lo, lo + width

    def rows_check(lo: int, hi: int):
        return lambda rows: oracle.check_range(rows, lo, hi, ordered=False)

    def one_row(c1: int):
        want = [list(oracle.row(c1))]
        return lambda rows: None if rows == want else f"got {rows}"

    while True:
        # Heavy statements sit one per ``spacing`` slots, so the paced
        # tail measures their service, not two of them colliding by
        # chance in the shuffle.
        rng.shuffle(light)
        rng.shuffle(heavy)
        kinds = list(light)
        for i, kind in enumerate(heavy):
            kinds.insert(i * spacing + spacing // 2, kind)
        for kind in kinds:
            if kind == "point":
                c1 = rng.randrange(num_rows)
                yield Request(kind, {"op": "query",
                                     "statement": handles["point"],
                                     "params": [c1]}, one_row(c1))
            elif kind == "adhoc":
                key = keys[adhoc % num_rows]
                adhoc += 1
                if adhoc % 2:
                    sql = f"SELECT * FROM micro WHERE c1 = {key}"
                    check = one_row(key)
                else:
                    lo, hi = key, key + 10 + key % 40
                    sql = (f"SELECT count(*) FROM micro "
                           f"WHERE c2 >= {lo} AND c2 < {hi}")
                    want = [[oracle.count(lo, hi)]]
                    check = (lambda rows, want=want:
                             None if rows == want else f"got {rows}")
                yield Request(kind, {"op": "query", "sql": sql}, check)
            else:
                handle = handles["forced" if kind == "forced" else "range"]
                lo, hi = c2_range(kind)
                yield Request(kind, {"op": "query", "statement": handle,
                                     "params": [lo, hi]},
                              rows_check(lo, hi))


def judge(req: Request, run: WorkloadRun, verdicts: dict | None) -> bool:
    """Check one completed request; False (and a failure) when wrong."""
    if req.error is not None:
        code = req.error.get("code")
        detail = req.error.get("detail") or {}
        if code == "rejected" and req.kind == "forced" \
                and detail.get("estimated_cost", 0) > detail.get("budget",
                                                                 math.inf):
            if verdicts is not None:
                verdicts["reject"] = verdicts.get("reject", 0) + 1
            return True
        run.fail(f"{req.kind} {req.frame}: error {code}: "
                 f"{req.error.get('message')}")
        return False
    action = (req.admission or {}).get("action", "admit")
    if verdicts is not None:
        verdicts[action] = verdicts.get(action, 0) + 1
    if req.kind == "forced":
        run.fail(f"forced {req.frame}: {action}, expected reject")
        return False
    if action == "split":
        adm = req.admission
        if not adm["split_estimate"] <= adm["budget"] < adm["estimated_cost"]:
            run.fail(f"split outside its budget: {adm}")
            return False
    wrong = req.check(req.rows)
    if wrong is not None:
        run.fail(f"{req.kind} {req.frame}: wrong answer: {wrong}")
        return False
    return True


# -- the wire ----------------------------------------------------------------


class Connection:
    """One client socket with its requests in flight."""

    def __init__(self, port: int):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=30)
        self.sock.settimeout(None)
        self._buf = b""
        self.inflight: dict[int, Request] = {}

    def send(self, rid: int, req: Request) -> None:
        frame = dict(req.frame, id=rid)
        self.inflight[rid] = req
        req.sent = time.perf_counter()
        self.sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))

    def read(self) -> list[dict]:
        """Frames from one ``recv`` (the socket must be readable)."""
        chunk = self.sock.recv(1 << 18)
        if not chunk:
            raise ConnectionError("server closed the connection")
        lines = (self._buf + chunk).split(b"\n")
        self._buf = lines.pop()
        return [json.loads(line) for line in lines if line.strip()]

    def roundtrip(self, frame: dict) -> dict:
        """One request answered by one frame (prepare / shutdown)."""
        self.sock.sendall((json.dumps(frame) + "\n").encode("utf-8"))
        while True:
            for reply in self.read():
                if reply.get("id") == frame["id"]:
                    return reply


class LoadGenerator:
    """Sends requests and routes response frames back to them."""

    def __init__(self, conns: list[Connection], run: WorkloadRun):
        self.conns = conns
        self.run = run
        self.selector = selectors.DefaultSelector()
        for conn in conns:
            self.selector.register(conn.sock, selectors.EVENT_READ, conn)
        self._next_id = 1000
        self.completed: list[Request] = []

    def send(self, conn: Connection, req: Request) -> None:
        self._next_id += 1
        self.run.attempted += 1
        conn.send(self._next_id, req)

    def poll(self, timeout: float) -> bool:
        """Wait up to ``timeout`` for frames and dispatch them; False
        when none arrived."""
        ready = self.selector.select(max(timeout, 0.0))
        for key, _ in ready:
            conn = key.data
            for frame in conn.read():
                req = conn.inflight.get(frame.get("id"))
                if req is None:
                    continue
                op = frame.get("op")
                if op == "executing":
                    req.admission = frame.get("admission")
                elif op == "rows":
                    req.rows.extend(frame["rows"])
                    if frame["done"]:
                        req.ledger = frame["summary"].get("ledger")
                        self._finish(conn, frame["id"])
                elif op == "error":
                    req.error = frame
                    self._finish(conn, frame["id"])
        return bool(ready)

    def _finish(self, conn: Connection, rid: int) -> None:
        req = conn.inflight.pop(rid)
        req.done = time.perf_counter()
        self.completed.append(req)

    def drain(self, deadline: float) -> None:
        """Wait for every in-flight request; time out the stragglers."""
        while any(c.inflight for c in self.conns) \
                and time.perf_counter() < deadline:
            self.poll(deadline - time.perf_counter())
        for conn in self.conns:
            for req in conn.inflight.values():
                self.run.fail(f"{req.kind} {req.frame}: timed out")
            conn.inflight.clear()

    def take(self) -> list[Request]:
        done, self.completed = self.completed, []
        return done

    def close(self) -> None:
        self.selector.close()
        for conn in self.conns:
            conn.sock.close()


@contextmanager
def _client_gc_off():
    """Pause the load generator's own garbage collector: its pauses
    would stall reads and show up as server latency.  The engine's
    collector, in the server process, is untouched."""
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def closed_loop(gen: LoadGenerator, source: Iterator[Request],
                count: int) -> float:
    """Send ``count`` requests keeping one in flight per connection;
    returns the elapsed time to the last completion."""
    start = time.perf_counter()
    sent = 0
    while sent < count:
        for conn in gen.conns:
            if not conn.inflight and sent < count:
                gen.send(conn, next(source))
                sent += 1
        if not gen.poll(STATEMENT_TIMEOUT_S):
            break   # nothing answered in time: drain() fails the rest
    gen.drain(time.perf_counter() + STATEMENT_TIMEOUT_S)
    return time.perf_counter() - start


def paced_loop(gen: LoadGenerator, source: Iterator[Request],
               rate: float, count: int) -> list[float]:
    """Send ``count`` requests at ``rate``/s whatever is in flight,
    alternating connections; returns each send's lateness (s) behind
    its due time."""
    start = time.perf_counter() + 0.05
    lateness = []
    for i in range(count):
        due = start + i / rate
        while (now := time.perf_counter()) < due:
            gen.poll(due - now)
        req = next(source)
        req.due = due
        gen.send(gen.conns[i % len(gen.conns)], req)
        lateness.append(req.sent - due)
    gen.drain(time.perf_counter() + STATEMENT_TIMEOUT_S)
    return lateness


# -- server processes ----------------------------------------------------------


class ServerProcess:
    """A ``server.py`` child: started, timed to readiness, stopped."""

    def __init__(self, seed: int, rows: int, trace_out: str | None = None):
        cmd = [sys.executable, _SERVER, "--seed", str(seed),
               "--rows", str(rows)]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.port: int | None = None
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        line = self._readline(time.perf_counter() + 120)
        if not line.startswith("READY "):
            self.stop()
            raise RuntimeError(f"server did not start: {line!r}")
        self.ready_s = time.perf_counter() - start
        self.ready_at = clock()
        _, port, before, after = line.split()
        self.port = int(port)
        #: Speed readings just before and after the server's set-up.
        self.setup_readings = (float(before), float(after))

    def reading(self) -> float:
        """A speed reading taken inside the server (call it only while
        no statement is in flight)."""
        self.proc.stdin.write("probe\n")
        self.proc.stdin.flush()
        line = self._readline(time.perf_counter() + STATEMENT_TIMEOUT_S)
        if not line.startswith("PROBE "):
            raise RuntimeError(f"server did not answer a probe: {line!r}")
        return float(line.split()[1])

    def _readline(self, deadline: float) -> str:
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(max(0.0, deadline - time.perf_counter())):
                return ""
        return self.proc.stdout.readline()

    def stop(self) -> dict:
        """Ask for a graceful shutdown; returns the server's report."""
        report: dict = {}
        try:
            if self.proc.poll() is None and self.port is not None:
                conn = Connection(self.port)
                conn.roundtrip({"op": "shutdown", "id": 0})
                conn.sock.close()
                line = self._readline(time.perf_counter() + 60)
                report = json.loads(line) if line.startswith("{") else {}
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
        return report


def _prepare(conn: Connection) -> dict[str, int]:
    handles = {}
    for name, sql in (("point", POINT_SQL), ("range", RANGE_SQL),
                      ("forced", FORCED_SQL)):
        reply = conn.roundtrip({"op": "prepare", "id": name, "sql": sql})
        if reply.get("op") != "prepared":
            raise RuntimeError(f"prepare {name} failed: {reply}")
        handles[name] = reply["statement"]
    return handles


def _sessions(server: ServerProcess, oracle: data.MicroOracle,
              run: WorkloadRun) -> tuple[LoadGenerator, dict[str, int]]:
    """Two connections, statements prepared, and the range plan cached
    at a tiny selectivity (the drifted replays' recipe)."""
    conns = [Connection(server.port) for _ in range(2)]
    handles = [_prepare(conn) for conn in conns]
    if handles[0] != handles[1]:
        raise RuntimeError(f"sessions disagree on handles: {handles}")
    gen = LoadGenerator(conns, run)
    seed_req = Request("narrow", {"op": "query",
                                  "statement": handles[0]["range"],
                                  "params": [0, SEED_WIDTH]},
                       lambda rows: oracle.check_range(rows, 0, SEED_WIDTH,
                                                       ordered=False))
    gen.send(conns[0], seed_req)
    gen.drain(time.perf_counter() + STATEMENT_TIMEOUT_S)
    for req in gen.take():
        judge(req, run, None)
    return gen, handles[0]


@dataclass
class Traffic:
    """One statement stream and what its measured phases saw."""

    seed: int
    oracle: data.MicroOracle
    run: WorkloadRun
    verdicts: dict = field(default_factory=lambda: dict.fromkeys(
        ("admit", "split", "degrade", "reject"), 0))
    capacity_done: int = 0
    capacity_s: float = 0.0        # at reference speed
    capacity_wall_s: float = 0.0
    paced_done: int = 0
    lateness: list = field(default_factory=list)
    readings_s: list = field(default_factory=list)
    _source: Iterator[Request] | None = None
    _handles: dict | None = None

    def serve(self, server: ServerProcess, fingerprint_statements: int,
              capacity: int, paced: int) -> tuple[float, float, float]:
        """Drive one server: the fingerprint prefix, then ``capacity``
        closed-loop and ``paced`` open-loop statements; returns when
        capacity started, when paced started and when it ended (span
        clock)."""
        run = self.run
        gen, handles = _sessions(server, self.oracle, run)
        if self._source is None:
            self._source = statements(self.seed, self.oracle, handles)
            self._handles = handles
        elif handles != self._handles:
            raise RuntimeError(f"handles changed: {handles}")
        speed = Speedometer(server.reading)
        try:
            for _ in range(fingerprint_statements):
                gen.send(gen.conns[0], next(self._source))
                gen.drain(time.perf_counter() + STATEMENT_TIMEOUT_S)
                for req in gen.take():
                    if judge(req, run, None) and req.ledger is not None:
                        add_ledger(run.fingerprint, req.ledger)
            start = clock()
            speed.scale()   # leave the fingerprint prefix out
            for sent in range(0, capacity, CAPACITY_CHUNK):
                with _client_gc_off():
                    elapsed = closed_loop(gen, self._source,
                                          min(CAPACITY_CHUNK,
                                              capacity - sent))
                self.capacity_s += elapsed * speed.scale()
                self.capacity_wall_s += elapsed
                self.capacity_done += self._judge(gen.take())
            middle = clock()
            client = Speedometer()
            speed.scale()
            for sent in range(0, paced, PACED_CHUNK):
                with _client_gc_off():
                    self.lateness += paced_loop(
                        gen, self._source, PACED_RATE,
                        min(PACED_CHUNK, paced - sent))
                # Both processes, on their own cores, do a paced
                # statement's work.
                scale = (speed.scale() + client.scale()) / 2
                done = sorted((req for req in gen.take()
                               if judge(req, run, self.verdicts)),
                              key=lambda req: req.due)
                self.paced_done += len(done)
                run.latencies_s += [(req.done - req.due) * scale
                                    for req in done]
            return start, middle, clock()
        finally:
            self.readings_s += speed.readings_s
            gen.close()

    def _judge(self, reqs: list[Request]) -> int:
        return sum(judge(req, self.run, self.verdicts) for req in reqs)

    @property
    def throughput_sps(self) -> float:
        """Capacity statements over capacity time at reference speed (a
        mean over the machine's speed shifts; see
        ``inproc.run_inprocess``)."""
        return self.capacity_done / self.capacity_s if self.capacity_s \
            else 0.0


def run_serve_mix(seed: int, seconds: float, traced: bool,
                  out_dir: str, sizes: Sizes = Sizes()) -> WorkloadRun:
    """One run of ``serve-mix``.

    Untraced: ``SETUP_REPS`` rounds, each a timed server start, then an
    equal share of the capacity and paced statements against that
    server (the first round also runs the fingerprint prefix).  Traced: an
    untraced server's capacity (the overhead's base), then a traced
    server for the prefix and both phases.

    Times are scaled to the reference machine's speed by readings taken
    while no statement is in flight: set-up and capacity times by the
    server's own readings (see ``server.py``; readings in this process
    track another core), paced latencies by the mean of the server's and
    this process's factors, once a second.  Over six seeds the capacity
    throughput spread (IQR/median) 0.09 scaled and 0.18 as wall time;
    over ten, the paced p50 0.075 scaled, 0.12 by the server's factor
    alone and 0.165 as wall time.
    """
    run = WorkloadRun(block_len=sum(count for _, count in BLOCK))
    oracle = data.MicroOracle(data.micro_columns(sizes.rows, seed))
    traffic = Traffic(seed, oracle, run)
    capacity = round(seconds * CAPACITY_PER_S)
    paced = round(seconds * PACED_RATE)
    if not traced:
        rss = []
        for i in range(SETUP_REPS):
            server = ServerProcess(seed, sizes.rows)
            run.setup_s.append(at_reference_speed(server.ready_s,
                                                  *server.setup_readings))
            run.notes.setdefault("raw_setup_s", []).append(server.ready_s)
            try:
                traffic.serve(server,
                              sizes.fingerprint_statements if i == 0 else 0,
                              _share(capacity, i), _share(paced, i))
            finally:
                rss.append(server.stop().get("peak_rss_mb", 0.0))
        run.peak_rss_mb = max(rss)
    else:
        plain = Traffic(seed, oracle, run)
        server = ServerProcess(seed, sizes.rows)
        try:
            plain.serve(server, 0, capacity, 0)
        finally:
            server.stop()
        trace_path = os.path.join(out_dir, f"serve-mix-seed{seed}-spans.json")
        server = ServerProcess(seed, sizes.rows, trace_path)
        run.setup_s.append(server.ready_s)
        try:
            window = traffic.serve(server, sizes.fingerprint_statements,
                                   capacity, paced)
        finally:
            run.peak_rss_mb = server.stop().get("peak_rss_mb", 0.0)
        run.layers.update(_server_layers(
            trace_path, server, window, traffic.capacity_wall_s,
            traffic.capacity_done + traffic.paced_done))
        run.layers["harness.trace_overhead"] = (
            1.0 - traffic.throughput_sps / plain.throughput_sps
            if plain.throughput_sps else 0.0)
        run.layers.update({f"server.verdict.{k}": v
                           for k, v in traffic.verdicts.items()})
    run.throughput_sps = traffic.throughput_sps
    lateness = traffic.lateness
    run.layers["harness.gen_lag_ms"] = 1000 * nearest_rank_ms(lateness, 99)
    run.layers.update(fingerprint_layers(run.fingerprint))
    run.notes.update(verdicts=traffic.verdicts, paced_rate=PACED_RATE,
                     readings_s=traffic.readings_s,
                     gen_lag_p50_ms=1000 * nearest_rank_ms(lateness, 50),
                     gen_lag_max_ms=1000 * max(lateness, default=0.0))
    return run


def _share(total: int, i: int) -> int:
    """Round ``i``'s share of ``total`` statements."""
    return (i + 1) * total // SETUP_REPS - i * total // SETUP_REPS


def _server_layers(trace_path: str, server: ServerProcess,
                   window: tuple[float, float, float], capacity_s: float,
                   statements: int) -> dict[str, float]:
    """Per-layer metrics from the spans a traced server wrote.

    Statement-path metrics cover both phases; the unattributed share
    covers the capacity phase only (``capacity_s`` of closed loop),
    where the server loop is busy; it still counts event-loop, socket
    and idle time outside every span.
    """
    with open(trace_path, encoding="utf-8") as spans_file:
        recorded = json.load(spans_file)
    spans = [Span(*fields) for fields in recorded["spans"]]
    setup_spans = [s for s in spans if s.start < server.ready_at]
    layers = setup_layers(setup_spans)
    layers["setup.server_ready_s"] = max(
        0.0, server.ready_s - sum(s.self_s for s in setup_spans))
    start, middle, end = window
    layers.update(statement_layers(
        [s for s in spans if start <= s.start < end],
        [p for p in recorded["gc_pauses"] if start <= p[0] < end],
        statements, end - start))
    capacity = [s for s in spans if start <= s.start < middle]
    layers["harness.unattributed_share"] = max(
        0.0, 1.0 - top_level_s(capacity) / capacity_s)
    return layers
