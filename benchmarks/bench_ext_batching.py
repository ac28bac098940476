"""Extension: batched vs per-dwell DSP throughput (streaming hot path)."""


def test_ext_batching_speedup(run_experiment):
    record = run_experiment("ext-batching")
    measured = record.measured_by_name()
    # The batched entry points must beat the per-dwell scalar loop they
    # replaced (the driver itself asserts rtol=1e-12 equivalence).
    assert measured["MUSIC speedup"] > 1.0
    assert measured["periodogram speedup"] > 1.0
