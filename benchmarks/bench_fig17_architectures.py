"""Fig. 17: learning-architecture ablation — the combined CNN+LSTM
against CNN-only and LSTM-only on the same dataset."""


def test_fig17_architectures(run_experiment):
    record = run_experiment("fig17")
    measured = record.measured_by_name()
    full = measured["M2AI (CNN+LSTM)"]
    # Shape check: the combined architecture is competitive with or
    # better than both ablations (the paper reports +30/+25 points at
    # hardware scale).
    assert full >= max(measured["CNN only"], measured["LSTM only"]) - 0.1
