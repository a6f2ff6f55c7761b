"""The ``serve-mix`` server process: set up, serve, report.

Run by the benchmark as ``python3 perfbench/server.py --seed N ...``.
It generates and loads the micro table, analyzes it, partitions it
4-way (so admission can answer ``split``), starts ``ReproServer`` on a
free port and prints ``READY <port> <before> <after>``: the speed
readings (``harness.reading``) taken just before and after that set-up.
Each ``probe`` line on its standard input is answered with
``PROBE <seconds>``, a reading taken in this process, between
statements, on the core that serves them.  After a ``shutdown`` frame it
prints one JSON line: its peak RSS and, with ``--trace-out``, writes the
spans it recorded to that file.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

#: Partitions of the served table: the shard set behind ``split``.
SHARDS = 4


def serving_options():
    """Serial classic plans: going shard-parallel is admission's call."""
    from repro import PlannerOptions
    return PlannerOptions(enable_sort_scan=False, shard_parallel=False)


def _answer_probes(loop: asyncio.AbstractEventLoop) -> None:
    """Answer ``probe`` lines on standard input (the benchmark's load
    generator sends one only while no statement is in flight)."""
    from harness import reading
    line = sys.stdin.readline()
    if not line:   # the benchmark closed the pipe
        loop.remove_reader(sys.stdin.fileno())
    elif line.strip() == "probe":
        print(f"PROBE {reading()!r}", flush=True)


async def _serve(server, readings: tuple[float, float]) -> None:
    await server.start()
    loop = asyncio.get_running_loop()
    loop.add_reader(sys.stdin.fileno(), _answer_probes, loop)
    print(f"READY {server.port} {readings[0]!r} {readings[1]!r}",
          flush=True)
    await server.serve_forever()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rows", type=int, required=True)
    parser.add_argument("--trace-out", default=None,
                        help="record layer spans and write them here")
    args = parser.parse_args(argv)

    import data
    from harness import peak_rss_mb, reading
    from repro import Database
    from repro.server.server import ReproServer
    from repro.server.session import ServerSession
    from spans import SpanTracer, install_engine_spans

    tracer = None
    if args.trace_out:
        tracer = SpanTracer()
        handle = ServerSession.handle

        def handle_tagged(session, frame):
            # Spans under one request carry its id as statement id.
            tracer.stmt = frame.get("id") if isinstance(frame, dict) else -1
            return handle(session, frame)

        drain_step = ServerSession.drain_step

        def drain_step_tagged(session, rid, cid):
            tracer.stmt = rid
            return drain_step(session, rid, cid)

        ServerSession.handle = handle_tagged
        ServerSession.drain_step = drain_step_tagged
        install_engine_spans(tracer)

    before = reading()
    db = Database()
    data.load_micro(db, args.rows, args.seed)
    db.shard_table("micro", SHARDS)
    server = ReproServer(db, host="127.0.0.1", port=0,
                         options=serving_options())
    asyncio.run(_serve(server, (before, reading())))

    if tracer is not None:
        tracer.uninstall()
        tracer.dump(args.trace_out)
    print(json.dumps({"peak_rss_mb": peak_rss_mb()}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
