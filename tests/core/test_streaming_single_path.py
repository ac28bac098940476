"""Streaming has one prepare path.

``identify`` is ``split_windows`` → ``prepare_windows`` →
``predict_prepared`` → ``score_window``, and ``prepare_window`` is
``prepare_windows`` on a batch of one.  These tests check both
equalities — decisions, featurised samples and the streaming counters —
on logs that exercise every admission outcome.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import obs
from repro.core.streaming import StreamingIdentifier, split_windows
from repro.dsp.calibration import PhaseCalibrator
from repro.hardware import ReadLog, ReaderMeta

META = ReaderMeta(
    n_antennas=4,
    slot_s=0.025,
    dwell_s=0.4,
    spacing_m=0.04,
    frequencies_hz=np.linspace(902.75e6, 927.25e6, 50),
    reference_channel=15,
)


def make_log(duration_s: float, seed: int = 0, reads_per_s: float = 120.0) -> ReadLog:
    """Synthetic three-tag log with two impaired stretches.

    Reads in [1.6, 3.2) s are dropped (too-few-reads windows) and reads
    in [4.8, 6.4) s all arrive on port 0 (dead-port windows).
    """
    rng = np.random.default_rng(seed)
    n = int(duration_s * reads_per_s)
    t = np.sort(rng.uniform(0.0, duration_s, n))
    antenna = rng.integers(0, 4, n)
    antenna[(t >= 4.8) & (t < 6.4)] = 0
    keep = (t < 1.6) | (t >= 3.2)
    channel = rng.integers(0, 50, n)
    return ReadLog(
        epcs=("A", "B", "C"),
        tag_index=rng.integers(0, 3, n)[keep],
        antenna=antenna[keep],
        channel=channel[keep],
        frequency_hz=META.frequencies_hz[channel[keep]],
        timestamp_s=t[keep],
        phase_rad=rng.uniform(0.0, 2.0 * np.pi, n)[keep],
        rssi_dbm=rng.uniform(-80.0, -50.0, n)[keep],
        meta=META,
    )


class ContentPipeline:
    """Fitted-pipeline stand-in whose scores depend on the features."""

    classes = ("wave", "walk")
    model = object()

    def predict_proba(self, dataset) -> np.ndarray:
        rows = []
        for sample in dataset.samples:
            p = 0.5 + 0.45 * float(np.tanh(np.mean(sample.channels["pseudo"]) - 0.5))
            rows.append([p, 1.0 - p])
        return np.asarray(rows)


@pytest.fixture(scope="module")
def calibrator() -> PhaseCalibrator:
    return PhaseCalibrator.fit(make_log(20.0, seed=1))


def counters() -> dict[tuple, float]:
    return {
        (m.name, tuple(m.labels)): m.value
        for m in obs.get_registry().collect()
        if m.name.startswith("streaming.") and m.name.endswith("_total")
    }


def delta(before: dict, after: dict) -> dict:
    return {k: v - before.get(k, 0.0) for k, v in after.items() if v != before.get(k, 0.0)}


@pytest.fixture(autouse=True)
def metrics_on():
    obs.enable()
    obs.reset()
    yield
    obs.disable()
    obs.reset()


CASES = {
    "sorted": dict(duration_s=9.6, shuffle=False, window_s=1.6, hop_s=None),
    "unsorted": dict(duration_s=9.6, shuffle=True, window_s=1.6, hop_s=None),
    "overlapping_hop": dict(duration_s=9.6, shuffle=True, window_s=1.6, hop_s=0.8),
    "shorter_than_window": dict(duration_s=1.0, shuffle=False, window_s=1.6, hop_s=None),
}


def build(case: str, calibrator):
    spec = CASES[case]
    log = make_log(spec["duration_s"])
    if spec["shuffle"]:
        log = log.take(np.random.default_rng(5).permutation(log.n_reads))
    identifier = StreamingIdentifier(
        ContentPipeline(),
        calibrator=calibrator,
        window_s=spec["window_s"],
        hop_s=spec["hop_s"],
        min_reads=40,
        min_confidence=0.55,
    )
    return log, identifier


@pytest.mark.parametrize("case", sorted(CASES))
def test_identify_is_the_split_path(case, calibrator):
    log, identifier = build(case, calibrator)

    before = counters()
    decisions = identifier.identify(log)
    identify_counts = delta(before, counters())

    windows = split_windows(log, identifier.window_s, identifier.hop_s)
    before = counters()
    prepared = identifier.prepare_windows([(w, t, None) for t, w in windows])
    samples = [sample for decision, sample in prepared if decision is None]
    probas = iter(identifier.predict_prepared(samples) if samples else ())
    expected = [
        decision
        if decision is not None
        else identifier.score_window(t, w.n_reads, next(probas))
        for (t, w), (decision, _sample) in zip(windows, prepared)
    ]
    split_counts = delta(before, counters())

    assert decisions == expected
    windows_key = ("streaming.windows_total", ())
    assert identify_counts.pop(windows_key, 0.0) == len(windows)
    assert identify_counts == split_counts
    if case == "shorter_than_window":
        assert decisions == []
    else:
        reasons = {d.reason for d in decisions}
        assert reasons == {None, "too_few_reads", "dead_ports", "low_confidence"}


@pytest.mark.parametrize("case", ["unsorted", "overlapping_hop"])
def test_prepare_window_is_a_batch_of_one(case, calibrator):
    log, identifier = build(case, calibrator)
    for t_start, window in split_windows(log, identifier.window_s, identifier.hop_s):
        before = counters()
        one = identifier.prepare_window(window, t_start)
        one_counts = delta(before, counters())
        before = counters()
        (many,) = identifier.prepare_windows([(window, t_start, None)])
        assert one_counts == delta(before, counters())
        assert one[0] == many[0]
        assert (one[1] is None) == (many[1] is None)
        if one[1] is not None:
            for name, channel in one[1].channels.items():
                np.testing.assert_array_equal(channel, many[1].channels[name])
