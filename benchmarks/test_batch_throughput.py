"""Batch engine guardrail — batch vs. row wall-clock throughput.

The batch-vectorized execution protocol must beat tuple-at-a-time
execution by at least 5x in tuples/second over the fig5 selectivity sweep
(same plans, same simulated costs; only Python overhead differs).  The
engine has no row path of its own, so the tuple-at-a-time side is the
reference drain in ``row_reference.py``.

Two artifacts: the committed ``batch_throughput.txt`` carries only the
deterministic simulated costs (identical on every machine — it stops
churning in commits); the wall-clock numbers this test asserts on go to
the gitignored ``batch_throughput_wallclock.txt`` sidecar.
"""

import math

from conftest import run_once
from row_reference import run_row_reference

from repro.experiments.batch_bench import run_batch_bench


def test_batch_throughput_over_row(benchmark, micro_bench_setup, report):
    result = run_once(
        benchmark,
        lambda: run_row_reference(
            micro_bench_setup, run_batch_bench(setup=micro_bench_setup)),
    )
    batch = result.batch
    report("batch_throughput", batch.report())
    report("batch_throughput_wallclock", result.wallclock_report())

    # The acceptance bar: >= 5x tuples/sec overall for the batch path.
    assert result.overall_speedup >= 5.0
    # No plan with meaningful runtime may regress under batching.
    # (Sub-10ms plans are dominated by fixed setup and timer noise; the
    # 1.5x slack absorbs scheduler stalls on shared CI runners — real
    # regressions from de-vectorizing a path are far larger.)
    for label, row_s, batch_s in zip(batch.labels, result.row_seconds,
                                     batch.batch_seconds, strict=False):
        if row_s >= 0.01:
            assert batch_s <= row_s * 1.5, f"batch path slower on {label}"
    # The batch contract: identical rows and simulated charges per plan.
    for i, label in enumerate(batch.labels):
        assert result.row_tuples[i] == batch.tuples[i], label
        assert math.isclose(result.row_io_ms[i], batch.sim_io_ms[i],
                            rel_tol=1e-9, abs_tol=1e-6), label
        assert math.isclose(result.row_cpu_ms[i], batch.sim_cpu_ms[i],
                            rel_tol=1e-9, abs_tol=1e-6), label
