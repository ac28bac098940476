"""Extension: multi-tenant fleet serving (batching speedup + isolation)."""

from repro.eval.serving import (
    BATCH_SPEEDUP_FLOOR,
    HEALTHY_UNCHANGED_FLOOR,
    LATENCY_P95_TOLERANCE,
    MAX_STREAMS,
)


def test_ext_serving_contracts(run_experiment):
    record = run_experiment("ext-serving")
    measured = record.measured_by_name()
    # The driver already raises on a violated contract; re-assert the
    # headline numbers here so the bench output records them.
    assert measured[f"{MAX_STREAMS} streams speedup"] >= BATCH_SPEEDUP_FLOOR
    assert measured["healthy decisions unchanged"] >= HEALTHY_UNCHANGED_FLOOR
    assert measured["healthy p95 latency ratio"] <= LATENCY_P95_TOLERANCE
