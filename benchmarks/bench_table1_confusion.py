"""Table I: the per-class confusion matrix of the trained M2AI."""


def test_table1_confusion_matrix(run_experiment):
    record = run_experiment("table1")
    measured = record.measured_by_name()
    # Paper: >= 93% per class at hardware scale.  On the simulated
    # substrate we require every class to be far above 12-way chance
    # on average.
    assert measured["mean per-class accuracy"] > 0.25
