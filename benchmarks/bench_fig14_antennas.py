"""Fig. 14: 2 -> 4 reader antennas.  More elements resolve more
multipath angles, so accuracy rises with the array size."""


def test_fig14_antennas(run_experiment):
    record = run_experiment("fig14")
    measured = record.measured_by_name()
    # Shape check: 4 antennas beat (or at worst match) 2 —
    # a small tolerance absorbs the trimmed training budget.
    assert measured["4 antennas"] >= measured["2 antennas"] - 0.05
