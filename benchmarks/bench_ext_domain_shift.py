"""Extension (Section VII): cross-environment domain shift.

Train in the laboratory, evaluate zero-shot in the hall, then
fine-tune on a few hall windows per class — quantifying the paper's
statement that the model "may need to be re-trained for different
settings" (one laboratory -> hall cell of the domain-shift sweep)."""


def test_ext_domain_shift_lab_to_hall(run_experiment):
    record = run_experiment("ext-domain-shift")
    measured = record.measured_by_name()
    # Fine-tuning must recover accuracy relative to zero-shot
    # (small tolerance for run-to-run noise at quick scale).
    assert measured["k-shot adapted"] >= measured["cross-env"] - 0.05
