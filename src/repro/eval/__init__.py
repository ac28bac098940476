"""Experiment drivers reproducing every paper table and figure."""

from repro.eval.experiments import (
    run_fig09,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_table1,
)
from repro.eval.harness import (
    baseline_zoo,
    clear_cache,
    eval_baselines,
    get_dataset,
    get_raw_samples,
    train_eval_m2ai,
)
from repro.eval.extensions import (
    run_domain_shift,
    run_ext_augmentation,
    run_ext_batching,
    run_ext_hub_coverage,
    run_ext_realtime,
)
from repro.eval.reporting import ExperimentResult, ExperimentRow, bar_chart
from repro.eval.resilience import (
    ResilienceCell,
    resilience_sweep,
    run_ext_resilience,
    run_resilience_bench,
)
from repro.eval.robustness import (
    RobustnessCell,
    RobustnessReport,
    robustness_sweep,
    run_ext_robustness,
)
from repro.eval.serving import run_ext_serving, run_serving_bench
from repro.eval.signal_studies import run_fig02, run_fig03

ALL_EXPERIMENTS = {
    "fig02": run_fig02,
    "fig03": run_fig03,
    "fig09": run_fig09,
    "table1": run_table1,
    "fig10": run_fig10,
    "fig11": run_fig11,
    "fig12": run_fig12,
    "fig13": run_fig13,
    "fig14": run_fig14,
    "fig15": run_fig15,
    "fig16": run_fig16,
    "fig17": run_fig17,
    "ext-hub": run_ext_hub_coverage,
    "ext-augment": run_ext_augmentation,
    "ext-realtime": run_ext_realtime,
    "ext-robustness": run_ext_robustness,
    "ext-batching": run_ext_batching,
    "ext-resilience": run_ext_resilience,
    "ext-serving": run_ext_serving,
    "ext-domain-shift": run_domain_shift,
}
"""The experiment registry: every driver (paper figures + Section VII
extensions), keyed by id, in paper order.  Each takes
``(quick, seed, epochs=None)`` plus its own sweep overrides and returns
an :class:`ExperimentResult`."""

__all__ = [
    "ALL_EXPERIMENTS",
    "ExperimentResult",
    "ExperimentRow",
    "ResilienceCell",
    "RobustnessCell",
    "RobustnessReport",
    "bar_chart",
    "resilience_sweep",
    "robustness_sweep",
    "run_resilience_bench",
    "run_serving_bench",
    "baseline_zoo",
    "clear_cache",
    "eval_baselines",
    "get_dataset",
    "get_raw_samples",
    "run_domain_shift",
    "run_ext_augmentation",
    "run_ext_batching",
    "run_ext_hub_coverage",
    "run_ext_realtime",
    "run_ext_resilience",
    "run_ext_robustness",
    "run_ext_serving",
    "run_fig02",
    "run_fig03",
    "run_fig09",
    "run_fig10",
    "run_fig11",
    "run_fig12",
    "run_fig13",
    "run_fig14",
    "run_fig15",
    "run_fig16",
    "run_fig17",
    "run_table1",
    "train_eval_m2ai",
]
