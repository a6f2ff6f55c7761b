"""Wall-clock benchmark of the Smooth Scan reproduction engine.

Usage (from the repository root)::

    python3 perfbench/run.py --workload micro-scan --seed 1 --seconds 10 \
        --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):

* ``micro-scan``: the paper's micro-benchmark (§VI-C) on the wall
  clock: Smooth Scan over a 240K-tuple table, selectivity log-uniform
  over 0.001 %-100 %.
* ``tpch-olap``: TPC-H-lite Q1/Q6/Q14 under original, tuned and smooth
  plans, with the stale statistics of Figure 1.
* ``serve-mix``: NDJSON traffic against a server process: point
  lookups, ad-hoc text, narrow probes, drifted replays that admission
  splits and forced-index statements it rejects.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1``
is a separate pass that wraps each layer's public entry points in spans
and reports per-layer metrics, including the tracing overhead.  Every
answer is checked against a plain-Python oracle; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``), and the exit code is non-zero on any wrong
answer, failure or determinism mismatch.  Times are scaled to the
reference machine's speed by short probes around the work
(``harness.Speedometer``); the records keep the probe readings and the
raw set-up times.  Run records (machine, tail
percentile and sample count, fingerprint, verdicts, failures) and the
traced runs' spans go to ``.perfbench-out/`` at the repository root.

Seeds: ``--seed 1`` is the default; seed ``20150413`` is held out for
confirming claims made on other seeds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

WORKLOADS = ("micro-scan", "tpch-olap", "serve-mix")
OUT_DIR = ROOT / ".perfbench-out"


def code_hash() -> str:
    """Digest of the engine and benchmark sources (the "same code" of
    the determinism check)."""
    digest = hashlib.sha256()
    for base in (ROOT / "src", ROOT / "perfbench"):
        for path in sorted(base.rglob("*.py")):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def check_determinism(workload: str, seed: int, seconds: float,
                      fingerprint: dict,
                      path: Path = OUT_DIR / "fingerprints.json",
                      ) -> str | None:
    """Compare the simulated-clock fingerprint with the last run of the
    same code at the same seed and ``--seconds`` (which sizes the run,
    and with it micro-scan's selectivity draws); None when equal (or
    first seen)."""
    try:
        known = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        known = {}
    key = f"{workload}|{seed}|{seconds!r}|{code_hash()}"
    previous = known.get(key)
    if previous is None:
        known[key] = fingerprint
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1), encoding="utf-8")
        os.replace(tmp, path)
        return None
    diffs = [f"{k}: {previous.get(k)!r} then {v!r}"
             for k, v in fingerprint.items() if previous.get(k) != v]
    return "; ".join(diffs) or None


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    """One run of one workload (a :class:`harness.WorkloadRun`)."""
    if workload == "serve-mix":
        from servemix import run_serve_mix
        return run_serve_mix(seed, seconds, traced, str(OUT_DIR))
    from inproc import run_inprocess
    spans = OUT_DIR / f"{workload}-seed{seed}-spans.json"
    return run_inprocess(workload, seed, seconds, traced,
                         spans_path=str(spans) if traced else None)


def result_json(run, traced: bool, determinism: str | None) -> dict:
    """The last line of standard output."""
    from harness import PER_LAYER_UNITS, end_to_end
    failed = len(run.failures)
    attempted = max(run.attempted, 1)
    if traced:
        values = dict(run.layers)
        values["harness.fail_share"] = failed / attempted
        values["harness.calibration_s"] = run.notes["calibration_s"]
        metrics = {name: {"value": float(values.get(name, 0.0)),
                          "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in end_to_end(run).items()}
    return {
        "correct": failed == 0 and determinism is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Wall-clock benchmark: end-to-end and per-layer "
                    "metrics, every answer checked.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="sizes the measured work: about this many "
                             "seconds of statements on the reference "
                             "machine")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        # Never measure an installed copy in place of this checkout's.
        sys.exit(f"perfbench: no engine source under {ROOT / 'src'}")
    # Import the engine before any timing: imports are not set-up.
    import repro.experiments.fig1  # noqa: F401
    import repro.server.server  # noqa: F401
    from harness import end_to_end, latency_summary, machine_record

    OUT_DIR.mkdir(exist_ok=True)
    machine = machine_record()
    started = time.perf_counter()
    run = run_workload(args.workload, args.seed, args.seconds,
                       bool(args.trace))
    machine["calibration_end_s"] = machine_record()["calibration_s"]
    run.notes["calibration_s"] = machine["calibration_s"]
    determinism = check_determinism(args.workload, args.seed,
                                    args.seconds, run.fingerprint)

    lat = latency_summary(run.latencies_s, run.block_len)
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "wall_s": time.perf_counter() - started,
        "machine": machine,
        "setup_reps_s": run.setup_s,
        "latency": lat,
        "latencies_ms": [1000.0 * x for x in run.latencies_s],
        "fail_share": len(run.failures) / max(run.attempted, 1),
        "failures": run.failures[:50],
        "fingerprint": run.fingerprint,
        "determinism_failure": determinism,
        "layers": run.layers,
        "notes": run.notes,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1),
                                encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {args.trace}  nproc {machine['nproc']}  "
          f"{machine['cpu_model']}  python {machine['python']}  "
          f"numpy {machine['numpy']}  calibration "
          f"{machine['calibration_s']:.3f}s/"
          f"{machine['calibration_end_s']:.3f}s")
    if not args.trace:
        for metric, (value, unit) in end_to_end(run).items():
            print(f"  {metric:<18} {value:12.4f} {unit}")
        print(f"  {'fail_share':<18} {record['fail_share']:12.4f} ratio")
        print(f"  tail = p{lat['tail_pct']:g} of {lat['samples']} "
              f"statements; set-ups {['%.3f' % s for s in run.setup_s]}")
    if run.notes.get("verdicts"):
        print(f"  verdicts {run.notes['verdicts']}")
    print(f"  sim fingerprint {run.fingerprint}")
    for failure in run.failures[:10]:
        print(f"  FAILED {failure}")
    if determinism is not None:
        print(f"  DETERMINISM FAILURE (same code, same seed): {determinism}")
    result = result_json(run, bool(args.trace), determinism)
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
