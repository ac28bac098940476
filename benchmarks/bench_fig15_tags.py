"""Fig. 15: 1 -> 3 tags per person.  Extra tags are the cheapest way
to add path diversity, so accuracy rises with the tag count."""


def test_fig15_tags_per_person(run_experiment):
    record = run_experiment("fig15")
    measured = record.measured_by_name()
    # Shape check: 3 tags beat (or at worst match) 1 —
    # a small tolerance absorbs the trimmed training budget.
    assert measured["3 tag(s)/person"] >= measured["1 tag(s)/person"] - 0.05
