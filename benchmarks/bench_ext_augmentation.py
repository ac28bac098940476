"""Ablation bench: training-time augmentation on vs off."""


def test_ext_augmentation_ablation(run_experiment):
    record = run_experiment("ext-augment")
    measured = record.measured_by_name()
    # Both settings must train to something; the comparison itself is
    # the artifact (recorded in EXPERIMENTS.md).
    assert min(measured.values()) > 2.0 / 12.0
