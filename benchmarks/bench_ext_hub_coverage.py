"""Extension (Section VII): area coverage scaling with antenna hubs."""


def test_ext_hub_coverage(run_experiment):
    record = run_experiment("ext-hub")
    measured = record.measured_by_name()
    assert measured["4 array(s)"] > measured["2 array(s)"] > measured["1 array(s)"]
