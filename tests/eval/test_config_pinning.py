"""Every training driver builds exactly the pinned configs, budget or not.

The data loaders and the pipeline are replaced by recorders, so no
corpus is simulated and nothing trains: each driver runs until it
constructs its first pipeline, and the test compares the generation
configs requested so far plus that pipeline's training config with the
values the drivers have always used.  A budget (``epochs``) caps the
epochs at ``min(preset, budget)``; ext-domain-shift floors the cap at
20 and ext-realtime ignores it.
"""

from __future__ import annotations

import sys

import pytest

from repro.core.config import M2AIConfig
from repro.data.generator import GenerationConfig, SyntheticDatasetGenerator
from repro.eval import ALL_EXPERIMENTS

COMPACT = ("A01", "A03", "A07", "A11")
FIG11_LABELS = ("A01", "A02", "A03", "A04", "A07", "A08", "A09", "A10", "A11", "A12")
EDGE_MODEL = dict(
    conv_channels=(8, 12),
    conv_kernels=(5, 3),
    branch_dim=24,
    merge_dim=24,
    lstm_hidden=16,
    lstm_layers=1,
)

# id: (samples/class (quick, full), generation extras per dataset,
#      epochs (quick, full), epochs under a 15-epoch budget, batch, model extras)
PINNED = {
    "fig09": ((20, 24), [{}], (40, 60), 15, 16, {}),
    "table1": ((20, 24), [{}], (40, 60), 15, 16, {}),
    "fig10": ((20, 24), [{}, {}], (40, 60), 15, 16, {}),
    "fig11": (
        (6, 18), [{"n_persons": 1, "scenario_labels": FIG11_LABELS}], (40, 60), 15, 16, {}
    ),
    "fig12": ((6, 18), [{"environment": "laboratory"}], (40, 60), 15, 16, {}),
    "fig13": ((6, 18), [{"distance_m": 1.0}], (40, 60), 15, 16, {}),
    "fig14": ((6, 18), [{"n_antennas": 2}], (40, 60), 15, 16, {}),
    "fig15": ((6, 18), [{"tags_per_person": 1}], (40, 60), 15, 16, {}),
    "fig16": ((12, 24), [{}], (40, 60), 15, 16, {}),
    "fig17": ((20, 24), [{}], (40, 60), 15, 16, {}),
    "ext-augment": ((8, 18), [{}], (40, 60), 15, 16, {}),
    "ext-realtime": ((8, 18), [{}], (10, 10), 10, 8, {}),
    "ext-robustness": ((6, 12), [{"scenario_labels": COMPACT}], (25, 45), 15, 8, {}),
    "ext-resilience": ((6, 12), [{"scenario_labels": COMPACT}], (25, 45), 15, 8, {}),
    "ext-serving": ((6, 12), [{"scenario_labels": COMPACT}], (25, 45), 15, 8, EDGE_MODEL),
    "ext-domain-shift": (
        (6, 16), [{"environment": "laboratory"}, {"environment": "hall"}], (30, 50), 20, 16, {}
    ),
}


class _Built(Exception):
    """Raised by the recording pipeline: the driver has built its model."""


class _Stub:
    def split(self, *args, **kwargs):
        return self, self


@pytest.fixture
def recorder(monkeypatch):
    """Replace loaders and the pipeline everywhere; returns the log."""
    log: list = []

    def dataset(config, *args, **kwargs):
        log.append(config)
        return _Stub()

    def raw_samples(config):
        log.append(config)
        return [object()] * (len(config.scenario_labels) * config.samples_per_class)

    class Pipeline:
        def __init__(self, config, *args, **kwargs):
            log.append(config)
            raise _Built

    fakes = {"get_dataset": dataset, "get_raw_samples": raw_samples, "M2AIPipeline": Pipeline}
    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and module is not None:
            for attr, fake in fakes.items():
                if hasattr(module, attr):
                    monkeypatch.setattr(module, attr, fake)
    monkeypatch.setattr(SyntheticDatasetGenerator, "featurize", lambda self, raw, **kw: _Stub())
    return log


def test_every_training_driver_is_pinned():
    untrained = {"fig02", "fig03", "ext-hub", "ext-batching"}
    assert set(PINNED) == set(ALL_EXPERIMENTS) - untrained


@pytest.mark.parametrize("budget", [None, 15])
@pytest.mark.parametrize("quick", [True, False], ids=["quick", "full"])
@pytest.mark.parametrize("exp_id", sorted(PINNED))
def test_driver_builds_pinned_configs(recorder, exp_id, quick, budget):
    sizes, datasets, epochs, trimmed, batch, model = PINNED[exp_id]
    mode = 0 if quick else 1
    expected_epochs = epochs[mode] if budget is None else min(epochs[mode], trimmed)
    expected = [
        GenerationConfig(
            samples_per_class=sizes[mode], duration_s=6.0, calibration_s=20.0, seed=0, **extra
        )
        for extra in datasets
    ] + [M2AIConfig(epochs=expected_epochs, batch_size=batch, seed=0, **model)]

    with pytest.raises(_Built):
        ALL_EXPERIMENTS[exp_id](quick=quick, seed=0, epochs=budget)
    assert recorder == expected
