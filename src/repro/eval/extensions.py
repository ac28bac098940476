"""Extension studies beyond the paper's figures (its Section VII).

The paper closes with two deployment questions it leaves open: how the
model behaves *across* environments (it expects retraining to be
needed) and how coverage scales with antenna hubs.  These drivers
quantify both on the simulator, plus the engineering ablations the
design section calls out.  The domain-shift driver is one sweep cell;
:mod:`repro.experiments.domain_shift` sweeps both directions x seeds.
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.pipeline import M2AIPipeline
from repro.data.workloads import FINE_TUNE_EPOCHS, generation, training
from repro.eval.harness import get_dataset, get_raw_samples, train_eval_m2ai
from repro.eval.reporting import ExperimentResult, ExperimentRow


ROW_SAME = "same-env"
ROW_CROSS = "cross-env"
ROW_ADAPTED = "k-shot adapted"
ROW_TEST_WINDOWS = "target test windows"
"""Row names of the domain-shift cell (the bench aggregates them)."""


def k_shot_subset(dataset, k: int, seed: int):
    """``k`` seeded samples per class (all of them when a class has < k).

    This is the adaptation budget of the k-shot arm: the windows a
    deployment could plausibly label in a new room on day one.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    rng = np.random.default_rng(seed)
    labels = np.asarray(dataset.labels)
    chosen: list[int] = []
    for label in sorted(set(dataset.labels)):
        indices = np.flatnonzero(labels == label)
        take = min(k, indices.size)
        chosen.extend(rng.choice(indices, size=take, replace=False).tolist())
    return dataset.subset(np.sort(np.asarray(chosen)))


def run_domain_shift(
    quick: bool = True,
    seed: int = 0,
    epochs: int | None = None,
    source: str = "laboratory",
    target: str = "hall",
) -> ExperimentResult:
    """Domain shift (Section VII): train in ``source``, test in ``target``.

    Three arms: *same-env* (held-out accuracy in the training room, the
    ceiling), *cross-env* (zero-shot in the other room) and *k-shot
    adapted* (cross-env after a short fine-tuning pass on ``k`` windows
    per class from the target room).  The paper predicts the model is
    environment-specific and needs a short retrain.

    Raises:
        ValueError: ``source`` and ``target`` name the same environment.
    """
    if source == target:
        raise ValueError("source and target must be different environments")
    k = 2 if quick else 4

    source_ds = get_dataset(generation(quick, seed, "domain-shift", environment=source))
    target_ds = get_dataset(generation(quick, seed, "domain-shift", environment=target))

    src_train, src_test = source_ds.split(0.2, np.random.default_rng(seed))
    pipeline = M2AIPipeline(training(quick, seed, epochs, "domain-shift"))
    pipeline.fit(src_train, val=src_test)
    same_env = pipeline.evaluate(src_test).accuracy

    adapt_pool, tgt_test = target_ds.split(0.5, np.random.default_rng(seed + 1))
    cross_env = pipeline.evaluate(tgt_test).accuracy

    shots = k_shot_subset(adapt_pool, k, seed + 2)
    pipeline.fine_tune(shots, epochs=FINE_TUNE_EPOCHS[0 if quick else 1])
    adapted = pipeline.evaluate(tgt_test).accuracy

    gap = same_env - cross_env
    recovered = adapted - cross_env
    return ExperimentResult(
        experiment_id="ext-domain-shift",
        title=f"Domain shift: train {source}, test {target}",
        rows=[
            ExperimentRow(ROW_SAME, None, same_env),
            ExperimentRow(ROW_CROSS, None, cross_env),
            ExperimentRow(ROW_ADAPTED, None, adapted),
            ExperimentRow("k (windows/class)", None, float(k), unit="n"),
            ExperimentRow(ROW_TEST_WINDOWS, None, float(len(tgt_test)), unit="n"),
        ],
        notes=(
            f"Unseen-room generalization, {source} -> {target}: zero-shot "
            f"transfer moves accuracy by {-gap * 100:+.0f} points from the "
            f"in-room ceiling; fine-tuning on {k} windows/class from the "
            f"target room moves it back {recovered * 100:+.0f} points "
            f"({len(shots)} adaptation windows). The paper predicts the "
            "model is environment-specific and needs a short retrain "
            "(Section VII)."
        ),
    )


def run_ext_hub_coverage(
    quick: bool = True, seed: int = 0, epochs: int | None = None
) -> ExperimentResult:
    """Coverage scaling with antenna hubs (Section VII, second discussion)."""
    del quick, seed, epochs  # geometric study; deterministic and fast
    from repro.geometry.room import Rectangle, Room
    from repro.geometry.vec import Vec2
    from repro.hardware.antenna import UniformLinearArray
    from repro.hardware.hub import AntennaHub

    warehouse = Room(bounds=Rectangle(0.0, 0.0, 40.0, 25.0), name="warehouse")
    rng = np.random.default_rng(0)
    points = np.stack(
        [rng.uniform(0, 40.0, 4000), rng.uniform(0, 25.0, 4000)], axis=1
    )

    rows = []
    placements = {
        1: [Vec2(20.0, 0.5)],
        2: [Vec2(10.0, 0.5), Vec2(30.0, 0.5)],
        4: [Vec2(10.0, 0.5), Vec2(30.0, 0.5), Vec2(10.0, 24.5), Vec2(30.0, 24.5)],
    }
    for count, centres in placements.items():
        hub = AntennaHub(
            room=warehouse,
            arrays=tuple(UniformLinearArray(center=c) for c in centres),
        )
        coverage = float(hub.coverage_mask(points, max_range_m=12.0).mean())
        rows.append(
            ExperimentRow(f"{count} array(s)", None, coverage, unit="coverage")
        )
    return ExperimentResult(
        experiment_id="ext-hub",
        title="Area coverage with antenna hubs (Section VII)",
        rows=rows,
        notes=(
            "Paper: a single array covers ~12 m of read range; hubs with "
            "multiple arrays extend coverage.  Fractions are of a "
            "40 m x 25 m warehouse floor."
        ),
    )


def run_ext_augmentation(
    quick: bool = True, seed: int = 0, epochs: int | None = None
) -> ExperimentResult:
    """Ablation: training-time augmentation on vs off."""
    from dataclasses import replace

    dataset = get_dataset(generation(quick, seed, "extension"))
    base = training(quick, seed, epochs)
    with_aug, _ = train_eval_m2ai(
        dataset, replace(base, augment=True), split_seed=seed
    )
    without_aug, _ = train_eval_m2ai(
        dataset, replace(base, augment=False), split_seed=seed
    )
    return ExperimentResult(
        experiment_id="ext-augment",
        title="Ablation: training-time augmentation",
        rows=[
            ExperimentRow("augmentation on", None, with_aug.accuracy),
            ExperimentRow("augmentation off", None, without_aug.accuracy),
        ],
        notes="Design-section ablation (DESIGN.md section 5/6).",
    )


def run_ext_realtime(
    quick: bool = True, seed: int = 0, epochs: int | None = None
) -> ExperimentResult:
    """Serving latency: featurise + classify one observation window.

    The paper claims real-time identification; here we measure the
    full per-window cost on CPU — preprocessing (calibration + MUSIC +
    periodogram) and network inference — against the 6 s window it
    must keep up with.  The model is a fixed small fit (the
    ``realtime`` preset), so a training budget does not apply.
    """
    del epochs  # fixed small fit: this study times inference only
    from repro.data.generator import SyntheticDatasetGenerator

    cfg = generation(quick, seed, "extension")
    raw = get_raw_samples(cfg)[:8]
    generator = SyntheticDatasetGenerator(cfg)
    dataset = generator.featurize(raw)
    pipeline = M2AIPipeline(training(quick, seed, preset="realtime")).fit(dataset)

    t0 = time.perf_counter()
    for sample in raw:
        generator.featurize([sample])
    featurize_s = (time.perf_counter() - t0) / len(raw)

    single = dataset.subset(np.array([0]))
    t0 = time.perf_counter()
    for _ in range(20):
        pipeline.predict(single)
    infer_s = (time.perf_counter() - t0) / 20.0

    window = cfg.duration_s
    rows = [
        ExperimentRow("featurise one window (s)", None, featurize_s, unit="s"),
        ExperimentRow("network inference (s)", None, infer_s, unit="s"),
        ExperimentRow(
            "real-time margin (window / total)",
            None,
            window / max(featurize_s + infer_s, 1e-9),
            unit="x",
        ),
    ]
    return ExperimentResult(
        experiment_id="ext-realtime",
        title="Serving latency per observation window",
        rows=rows,
        notes=f"Window length {window:.0f} s; margin > 1 means real-time on CPU.",
    )


def run_ext_batching(
    quick: bool = True, seed: int = 0, epochs: int | None = None
) -> ExperimentResult:
    """Per-dwell batch-of-one DSP calls vs one stacked call per window set.

    Rebuilds both variants on identical simulated dwells through
    :func:`repro.obs.profile.measure_dispatch` (which checks the
    spectra agree to ``rtol=1e-12``) and reports the per-call dispatch
    cost that pooling removes from each stage.

    Raises:
        AssertionError: when a stacked spectrum deviates from its
            batch-of-one call beyond ``rtol=1e-12``.
    """
    del epochs  # nothing trains
    from repro.obs.profile import measure_dispatch

    raw = get_raw_samples(generation(quick, seed, "extension"))[: 4 if quick else 8]
    doc = measure_dispatch(
        [(sample.log, sample.psi(), sample.n_frames) for sample in raw],
        repeat=3 if quick else 10,
    )
    rows = [ExperimentRow("dwells in batch", None, float(doc["dwells"]), unit="dwells")]
    for stage, label in (("music", "MUSIC"), ("periodogram", "periodogram")):
        st = doc[stage]
        rows += [
            ExperimentRow(f"{label} scalar loop", None, st["scalar_ms"], unit="ms"),
            ExperimentRow(f"{label} batched", None, st["batch_ms"], unit="ms"),
            ExperimentRow(f"{label} speedup", None, st["speedup_x"], unit="x"),
        ]
    return ExperimentResult(
        experiment_id="ext-batching",
        title="Batched vs per-dwell DSP throughput",
        rows=rows,
        notes=(
            f"{doc['dwells']} real dwells from {len(raw)} simulated windows; "
            "batched spectra verified bit-close (rtol 1e-12) against the "
            "batch-of-one loop before timing is reported."
        ),
    )

