"""Fig. 11: accuracy vs the number of simultaneously acting people."""


def test_fig11_number_of_objects(run_experiment):
    record = run_experiment("fig11")
    measured = record.measured_by_name()
    # Shape check: one person is no harder than three.
    assert measured["1 object(s)"] >= measured["3 object(s)"] - 0.1
