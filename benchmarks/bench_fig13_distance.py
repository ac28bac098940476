"""Fig. 13: reader-to-person distance 1-4 m.

The paper reports no clear correlation between distance and accuracy
inside the harvest range."""


def test_fig13_distance(run_experiment):
    record = run_experiment("fig13")
    values = list(record.measured_by_name().values())
    # Shape check: every distance works (no collapse inside 4 m).
    assert min(values) > 2.0 / 12.0
