"""Extension: per-window serving latency (the paper's real-time claim)."""


def test_ext_realtime_margin(run_experiment):
    record = run_experiment("ext-realtime")
    measured = record.measured_by_name()
    # Preprocessing + inference must fit inside one observation window.
    assert measured["real-time margin (window / total)"] > 1.0
