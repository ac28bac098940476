"""Fig. 16: preprocessing ablation.  The joint pseudospectrum +
periodogram input beats MUSIC-only, FFT-only, raw-phase and RSSI
featurisations of the *same* recordings."""


def test_fig16_preprocessing_inputs(run_experiment):
    record = run_experiment("fig16")
    measured = record.measured_by_name()
    # Shape check: the full M2AI preprocessing is at least as good as
    # the coarse featurisations the paper shows losing badly.
    assert measured["M2AI"] >= measured["RSSI-based"]
    assert measured["M2AI"] >= measured["Phase-based"]
