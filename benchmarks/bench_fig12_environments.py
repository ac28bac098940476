"""Fig. 12: laboratory (high multipath) vs empty hall (low multipath).

The paper finds the two environments perform within a couple of points
of each other — multipath is an asset, not an obstacle, for M2AI."""


def test_fig12_environments(run_experiment):
    record = run_experiment("fig12")
    measured = record.measured_by_name()
    # Shape check: no environment collapses.
    assert min(measured.values()) > 2.0 / 12.0
