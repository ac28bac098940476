"""Workload presets: quick (CI-sized) and full (paper-scale) configs.

Every dataset size and training budget an experiment driver uses lives
here; drivers derive their configs with :func:`generation` and
:func:`training` (plus scenario-specific overrides) and keep no literal
copies.  The quick presets keep the whole benchmark suite runnable in
minutes on a laptop while preserving every qualitative trend.

A training *budget* (``epochs``) caps a preset's epochs at
``min(preset, budget)``; presets with a floor never drop below it.  It
reaches the drivers through ``train_overrides={"epochs": N}`` on the
experiment spec, so a trimmed run is keyed apart from an untrimmed one.
"""

from __future__ import annotations

from repro.core.config import M2AIConfig
from repro.data.generator import GenerationConfig, vary
from repro.motion.scenarios import SCENARIO_LABELS

COMPACT_LABELS = ("A01", "A03", "A07", "A11")
"""The four activities of the compact serving task (robustness,
resilience and fleet-serving studies)."""

_SAMPLES_PER_CLASS = {
    "paper": (12, 24),  # Fig. 16 and the base corpus
    "headline": (20, 24),  # Fig. 9 / Table I / Fig. 10 / Fig. 17
    "sweep": (6, 18),  # Fig. 11-15, one corpus per setting
    "extension": (8, 18),  # ext-augment / ext-realtime / ext-batching
    "domain-shift": (6, 16),
    "compact": (6, 12),
}
"""Samples per class, ``(quick, full)``, per generation preset."""

_TRAINING = {
    # preset: (quick epochs, full epochs, batch size, budget floor)
    "paper": (40, 60, 16, 0),
    # Transfer effects need a competent source model, so a trimmed
    # budget keeps a floor.
    "domain-shift": (30, 50, 16, 20),
    "compact": (25, 45, 8, 0),
    # ext-realtime times inference, not learning: a fixed small fit.
    "realtime": (10, 10, 8, 0),
}
"""Training presets: epochs, batch size and the budget floor."""

FINE_TUNE_EPOCHS = (15, 25)
"""Fine-tuning epochs of the domain-shift k-shot arm, ``(quick, full)``."""


def quick_generation(seed: int = 0) -> GenerationConfig:
    """Small dataset: all 12 classes, 12 samples each, 6 s windows."""
    return GenerationConfig(
        samples_per_class=12,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )


def full_generation(seed: int = 0) -> GenerationConfig:
    """Paper-scale dataset: 12 classes x 24 samples."""
    return GenerationConfig(
        samples_per_class=24,
        duration_s=6.0,
        calibration_s=20.0,
        seed=seed,
    )


def tiny_generation(seed: int = 0) -> GenerationConfig:
    """Minimal smoke-test dataset: 4 classes, 3 samples each."""
    return GenerationConfig(
        scenario_labels=SCENARIO_LABELS[:4],
        samples_per_class=3,
        duration_s=4.0,
        calibration_s=20.0,
        seed=seed,
    )


def generation(
    quick: bool, seed: int, preset: str = "paper", **overrides
) -> GenerationConfig:
    """A driver's generation config: a sized preset plus overrides.

    Raises:
        KeyError: ``preset`` is not a generation preset.
    """
    quick_n, full_n = _SAMPLES_PER_CLASS[preset]
    base = quick_generation(seed) if quick else full_generation(seed)
    return vary(base, samples_per_class=quick_n if quick else full_n, **overrides)


def training(
    quick: bool,
    seed: int,
    epochs: "int | None" = None,
    preset: str = "paper",
    **overrides,
) -> M2AIConfig:
    """A driver's training config, capped by an optional epoch budget.

    Args:
        quick: quick (CI-sized) or full (paper-scale) preset.
        seed: training seed.
        epochs: budget cap, ``None`` for the preset's own epochs.
        preset: training preset name.
        **overrides: further :class:`M2AIConfig` fields (architecture).

    Raises:
        KeyError: ``preset`` is not a training preset.
    """
    quick_epochs, full_epochs, batch_size, floor = _TRAINING[preset]
    budget = quick_epochs if quick else full_epochs
    if epochs is not None:
        budget = max(floor, min(budget, epochs))
    return M2AIConfig(epochs=budget, batch_size=batch_size, seed=seed, **overrides)


def quick_training(seed: int = 0) -> M2AIConfig:
    """Training budget matched to the quick datasets."""
    return training(True, seed)


def full_training(seed: int = 0) -> M2AIConfig:
    """Training budget matched to the full datasets."""
    return training(False, seed)
