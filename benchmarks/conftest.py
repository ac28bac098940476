"""Benchmark harness plumbing.

Every benchmark regenerates one paper table/figure as a registry cell:
the ``run_experiment`` fixture runs
``run_one(make_spec(exp_id, "quick", 0, train_overrides={"epochs": 15}))``
once under pytest-benchmark, publishes the record to the durable
results store (the one ``python -m repro.experiments run`` fills; the
15-epoch budget is part of the key, so these records never stand in
for untrimmed ones), prints its block and returns the
:class:`~repro.experiments.ResultRecord`.  Benchmarks assert on
``record.measured_by_name()``.

Corpora are cached on disk (``.repro_cache/``), so a prior
``python -m repro.experiments run`` makes the suite much faster; the
model training inside each benchmark always runs for real and is what
the timing measures.
"""

from __future__ import annotations

import pytest

from repro.experiments import ResultsStore, make_spec, run_one

BENCH_EPOCHS = 15
"""Training budget of the benchmark suite: keeps a full pass in minutes."""


@pytest.fixture
def run_experiment(benchmark, capsys):
    """Run one registry cell under pytest-benchmark, store and print it."""

    def runner(exp_id: str):
        spec = make_spec(exp_id, "quick", 0, train_overrides={"epochs": BENCH_EPOCHS})
        record = benchmark.pedantic(
            lambda: run_one(spec), rounds=1, iterations=1, warmup_rounds=0
        )
        ResultsStore().put(record)
        with capsys.disabled():
            print()
            print(record.block)
        return record

    return runner
