"""Durable parallel experiment harness.

``repro.experiments`` turns the ad-hoc experiment script into a
package: a spec names one sweep cell (experiment x mode x seed x
overrides, content-hashed), :func:`run_one` executes it,
:func:`run_batch` fans a sweep across supervised worker processes, the
:class:`ResultsStore` makes every completed cell durable and a killed
sweep resumable, :mod:`~repro.experiments.metrics` collapses the seed
axis, and :mod:`~repro.experiments.report` renders EXPERIMENTS.md from
the store, and ``python -m repro.experiments`` is the one CLI over it
(``run`` sweeps registry cells, ``bench`` writes a ``BENCH_*.json``
artifact).  The cross-environment domain-shift sweep lives in
:mod:`~repro.experiments.domain_shift`.
"""

from repro.experiments.metrics import (
    AggregateRow,
    aggregate_records,
    render_aggregate_table,
)
from repro.experiments.report import (
    EXPERIMENTS_HEADER,
    render_block,
    render_experiments_md,
    write_experiments_md,
)
from repro.experiments.runner import (
    ExperimentBatchError,
    UnknownExperimentError,
    default_registry,
    run_batch,
    run_one,
    validate_ids,
)
from repro.experiments.spec import ExperimentSpec, ResultRecord, make_spec
from repro.experiments.store import (
    ResultsStore,
    atomic_write_text,
    default_store_root,
)

__all__ = [
    "AggregateRow",
    "EXPERIMENTS_HEADER",
    "ExperimentBatchError",
    "ExperimentSpec",
    "ResultRecord",
    "ResultsStore",
    "UnknownExperimentError",
    "aggregate_records",
    "atomic_write_text",
    "default_registry",
    "default_store_root",
    "make_spec",
    "render_aggregate_table",
    "render_block",
    "render_experiments_md",
    "run_batch",
    "run_one",
    "validate_ids",
    "write_experiments_md",
]
