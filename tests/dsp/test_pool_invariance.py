"""Pool invariance of the frame kernel, checked against the reference.

``build_spectrum_frames_many`` is the only frame-assembly
implementation: a window's frames must not depend on which other
windows share its call (healthy or degraded, in any order), must equal
the window's batch-of-one call bit for bit, and must agree with the
per-dwell reference in ``tests/dsp/reference.py`` to ``rtol=1e-12``.

The reference comparison also allows an absolute ``1e-12`` of the
channel's largest magnitude: the pseudospectrum's ``[0, 1]`` scaling
maps the -40 dB floor to values near zero, where two correct
summation orders differ by ~1e-15 absolute but far more than 1e-12
relative.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsp import build_spectrum_frames, build_spectrum_frames_many, uncalibrated
from tests.dsp import reference

RTOL = 1e-12

# Dead-port sets covering the healthy array, a ragged and a uniform
# surviving subarray, the 2- and 1-live-port edges, and a window with
# no reads at all (0 live ports).
DEAD_PORTS = ((), (2,), (1, 3), (0, 1), (0, 1, 2), (0, 1, 2, 3))


@pytest.fixture(scope="module")
def window_pool(small_log):
    """Time slices of a session log crossed with every dead-port set."""
    t = small_log.timestamp_s
    edges = np.linspace(t.min(), t.max() + 1e-9, 4)
    slices = [
        small_log.select((t >= lo) & (t < hi)) for lo, hi in zip(edges[:-1], edges[1:])
    ]
    pool = []
    for log in slices:
        for dead in DEAD_PORTS:
            window = log.select(~np.isin(log.antenna, dead))
            pool.append((window, uncalibrated(window)))
    return pool


@pytest.fixture(scope="module")
def references(window_pool):
    """Reference frames per ``(pool index, n_frames)``, computed lazily."""
    cache: dict[tuple[int, int | None], tuple[np.ndarray, np.ndarray]] = {}

    def get(i: int, n_frames: int | None):
        if (i, n_frames) not in cache:
            log, psi = window_pool[i]
            cache[(i, n_frames)] = reference.frames(log, psi, n_frames)
        return cache[(i, n_frames)]

    return get


windows_strategy = st.lists(
    st.tuples(
        st.integers(0, 3 * len(DEAD_PORTS) - 1), st.sampled_from([None, 4, 9])
    ),
    min_size=1,
    max_size=6,
)


@given(picks=windows_strategy)
@settings(max_examples=30, deadline=None)
def test_pooled_frames_equal_batch_of_one_and_reference(
    window_pool, references, picks
):
    windows = [(*window_pool[i], n_frames) for i, n_frames in picks]
    pooled = build_spectrum_frames_many(windows)
    assert len(pooled) == len(windows)
    for (i, n_frames), (log, psi, _n), frames in zip(picks, windows, pooled):
        alone = build_spectrum_frames(log, psi, n_frames=n_frames)
        assert sorted(frames.channels) == ["period", "pseudo"]
        for name, channel in alone.channels.items():
            np.testing.assert_array_equal(frames.channels[name], channel)
        np.testing.assert_array_equal(
            frames.meta["antenna_liveness"], log.antenna_liveness()
        )
        pseudo, period = references(i, n_frames)
        for name, expected in (("pseudo", pseudo), ("period", period)):
            np.testing.assert_allclose(
                frames.channels[name],
                expected,
                rtol=RTOL,
                atol=RTOL * float(np.abs(expected).max(initial=0.0)),
            )
