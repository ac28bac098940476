"""Domain-shift sweep: both transfer directions x seeds, aggregated.

The paper trains and tests in the same two rooms; production means
unseen rooms daily.  Each cell of this sweep is the registry driver
``ext-domain-shift`` (:func:`repro.eval.extensions.run_domain_shift`):
train in one room, then measure three arms — *same-env* (the ceiling),
*cross-env* (zero-shot in the other room) and *k-shot adapted* (after a
short fine-tuning pass on a few target-room windows per class).  This
module sweeps both directions (laboratory -> hall and hall ->
laboratory) over seeds through :func:`~repro.experiments.runner.run_batch`
— so cells land in the durable results store and a killed sweep
resumes — and aggregates them into the benchmark body.  Produce the
artifact with::

    PYTHONPATH=src python -m repro.experiments bench ext_domain_shift

which writes ``BENCH_ext_domain_shift.json``.
"""

from __future__ import annotations

import time

from repro.eval.extensions import ROW_ADAPTED, ROW_CROSS, ROW_SAME, ROW_TEST_WINDOWS
from repro.experiments.metrics import aggregate_records
from repro.experiments.runner import run_batch
from repro.experiments.spec import make_spec
from repro.experiments.store import ResultsStore

__all__ = [
    "EXPERIMENT_ID",
    "DIRECTIONS",
    "bench_summary",
    "run_domain_shift_bench",
]

EXPERIMENT_ID = "ext-domain-shift"
"""Registry id of the per-cell driver."""

DIRECTIONS = (("laboratory", "hall"), ("hall", "laboratory"))
"""Both transfer directions the bench sweeps."""


def _direction_summary(aggregates, source: str, target: str) -> dict:
    """Bench rows for one direction from its aggregate rows.

    Raises:
        ValueError: a required arm is missing from the records.
    """
    by_name = {row.name: row for row in aggregates}
    stats = {}
    for arm, name in (
        ("same_env", ROW_SAME),
        ("cross_env", ROW_CROSS),
        ("k_shot_adapted", ROW_ADAPTED),
        ("test_windows", ROW_TEST_WINDOWS),
    ):
        row = by_name.get(name)
        if row is None:
            raise ValueError(
                f"direction {source}->{target} is missing the {name!r} arm"
            )
        stats[arm] = {
            "mean": row.mean,
            "std": row.std,
            "min": row.low,
            "max": row.high,
            "seeds": list(row.seeds),
        }
    gap = stats["same_env"]["mean"] - stats["cross_env"]["mean"]
    recovered = stats["k_shot_adapted"]["mean"] - stats["cross_env"]["mean"]
    # A gap below one held-out target window is quantisation noise; a
    # ratio over it would be meaningless (e.g. -5.0 for a 1-point gap).
    # Compared in window counts: accuracies are multiples of 1/n, and a
    # gap of exactly one window may round just below fl(1/n).
    n_test = stats.pop("test_windows")["mean"]
    stats["transfer_gap"] = gap
    stats["gap_recovered_frac"] = (
        recovered / gap if abs(gap) * n_test >= 1 - 1e-9 else None
    )
    return stats


def run_domain_shift_bench(
    quick: bool = True,
    seeds: tuple[int, ...] = (0, 1),
    workers: int = 2,
    store: ResultsStore | None = None,
    epochs: int | None = None,
    on_event=None,
) -> dict:
    """Sweep both directions x ``seeds`` and assemble the bench body.

    Completed cells are served from the durable store (kill the sweep,
    rerun, and only missing cells execute); the returned body has one
    entry per direction with same-env / cross-env / k-shot-adapted
    statistics across seeds.  ``epochs`` is the cells' training budget
    (part of each cell's spec key).
    """
    store = store if store is not None else ResultsStore()
    mode = "quick" if quick else "full"
    train = {"epochs": epochs} if epochs is not None else None
    specs = [
        make_spec(
            EXPERIMENT_ID,
            mode,
            seed,
            gen_overrides={"source": source, "target": target},
            train_overrides=train,
        )
        for source, target in DIRECTIONS
        for seed in seeds
    ]
    t0 = time.monotonic()
    records = run_batch(specs, store, workers=workers, on_event=on_event)
    elapsed = time.monotonic() - t0

    directions = {}
    for source, target in DIRECTIONS:
        cell_records = [
            r
            for r in records
            if dict(r.spec.gen_overrides).get("source") == source
        ]
        directions[f"{source}->{target}"] = _direction_summary(
            aggregate_records(cell_records), source, target
        )
    return {
        "seeds": list(seeds),
        "workers": workers,
        "directions": directions,
        "cells": [record.to_payload() for record in records],
        "elapsed_s": elapsed,
    }


def bench_summary(doc: dict) -> str:
    """The bench's stdout summary: one line per transfer direction."""
    return "".join(
        f"{direction:<24} same-env {stats['same_env']['mean']:.3f}  "
        f"cross-env {stats['cross_env']['mean']:.3f}  "
        f"k-shot {stats['k_shot_adapted']['mean']:.3f}  "
        f"(gap {stats['transfer_gap'] * 100:+.0f} pts)\n"
        for direction, stats in doc["directions"].items()
    )
