"""Fig. 3: per-channel phase offsets of a stationary tag are linear in
the carrier frequency — the structure Eq. 1 calibration exploits."""


def test_fig03_phase_hopping(run_experiment):
    record = run_experiment("fig03")
    measured = record.measured_by_name()
    assert measured["phase-frequency linearity R^2"] > 0.9
