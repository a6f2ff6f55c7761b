"""Tiny-scale self-test of the benchmark itself.

``python3 perfbench/selftest.py`` (under a minute) checks, on every
workload at a small scale:

1. every metric ``BENCHMARK.json`` names is emitted, with its unit, by
   the untraced (end-to-end) and the traced (per-layer) pass;
2. two runs at one seed and one ``--seconds`` give the same
   simulated-clock fingerprint, also with a run at another
   ``--seconds`` in between, and a changed fingerprint is reported;
3. an injected wrong answer is caught by the oracle: the run reports
   ``correct: false``, so the benchmark would exit non-zero.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager

import run as bench
from inproc import Sizes as InprocSizes
from inproc import run_inprocess
from servemix import Sizes as ServeSizes
from servemix import run_serve_mix

TINY_INPROC = InprocSizes(micro_rows=12_000, tpch_scale=0.002,
                          fingerprint_blocks=1)
TINY_SERVE = ServeSizes(rows=6_000, fingerprint_statements=20)
SECONDS = 0.4
#: A second run length: two micro-scan blocks where ``SECONDS`` gives
#: one, so the selectivity draws of the fingerprinted block differ.
OTHER_SECONDS = 2.4
SEED = 7


def run_tiny(workload: str, traced: bool, seconds: float = SECONDS):
    if workload == "serve-mix":
        return run_serve_mix(SEED, seconds, traced, str(bench.OUT_DIR),
                             TINY_SERVE)
    return run_inprocess(workload, SEED, seconds, traced, TINY_INPROC)


@contextmanager
def wrong_answers(workload: str):
    """Corrupt one value of every non-empty result the client sees."""
    def corrupt(rows):
        if rows:
            first = list(rows[0])
            first[-1] = first[-1] + 1 if first[-1] is not None else 1
            rows[0] = first
        return rows

    if workload == "serve-mix":
        import servemix
        owner, name = servemix.Connection, "read"
        original = owner.read

        def patched(self):
            frames = original(self)
            for frame in frames:
                if frame.get("op") == "rows":
                    corrupt(frame["rows"])
            return frames
    else:
        from repro.api.session import Cursor
        owner, name = Cursor, "fetchall"
        original = owner.fetchall

        def patched(self):
            return corrupt(original(self))
    setattr(owner, name, patched)
    try:
        yield
    finally:
        setattr(owner, name, original)


def main() -> int:
    import repro.experiments.fig1  # noqa: F401
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    wanted = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    bench.OUT_DIR.mkdir(exist_ok=True)
    known = bench.OUT_DIR / "selftest-fingerprints.json"
    known.unlink(missing_ok=True)

    def determinism(seconds: float, fingerprint: dict) -> None:
        diff = bench.check_determinism(workload, SEED, seconds,
                                       fingerprint, known)
        if diff is not None:
            problems.append(f"{workload} --seconds {seconds}: "
                            f"fingerprint changed: {diff}")

    problems = []
    for workload in bench.WORKLOADS:
        for traced in (False, True):
            if traced:
                other = run_tiny(workload, False, OTHER_SECONDS)
                determinism(OTHER_SECONDS, other.fingerprint)
            run = run_tiny(workload, traced)
            determinism(SECONDS, run.fingerprint)
            run.notes.setdefault("calibration_s", 0.0)
            result = bench.result_json(run, traced, None)
            emitted = {name: m["unit"]
                       for name, m in result["metrics"].items()}
            if emitted != wanted[traced]:
                problems.append(f"{workload} trace={int(traced)}: metrics "
                                f"{sorted(set(emitted) ^ set(wanted[traced]))}"
                                " differ from BENCHMARK.json")
            if not result["correct"]:
                problems.append(f"{workload}: failures {run.failures[:3]}")
        changed = dict(run.fingerprint)
        changed["storage.pages_read"] += 1
        if bench.check_determinism(workload, SEED, SECONDS, changed,
                                   known) is None:
            problems.append(f"{workload}: a changed fingerprint passed")
        with wrong_answers(workload):
            run = run_tiny(workload, False)
        run.notes.setdefault("calibration_s", 0.0)
        if bench.result_json(run, False, None)["correct"]:
            problems.append(f"{workload}: injected wrong answers passed")
        print(f"{workload}: {len(run.failures)} injected wrong answers "
              f"caught of {run.attempted} statements", flush=True)
    for problem in problems:
        print("SELFTEST FAILED:", problem)
    print("selftest", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
