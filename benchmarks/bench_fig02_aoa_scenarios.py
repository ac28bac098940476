"""Fig. 2: AoA spectra from a single stationary tag to a crowded room.

Regenerates the paper's motivating observation: a stationary tag's
pseudospectrum is stable, while a moving person attenuates the blocked
path and shifts the others.
"""


def test_fig02_aoa_scenarios(run_experiment):
    record = run_experiment("fig02")
    measured = record.measured_by_name()
    # A stationary tag holds its dominant peak within a few degrees...
    assert measured["stationary: top-peak angle std (deg)"] < 10.0
    # ...while a walking blocker swings the peak power by many dB.
    assert measured["moving blocker: peak power swing (dB)"] > 3.0
