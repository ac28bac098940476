"""Cross-window pooled featurisation: pooling never changes a window.

The fleet-serving contract (DESIGN.md section 12): pooling many
windows' DSP through one binning pass and one stacked MUSIC /
periodogram batch must reproduce each window's batch-of-one call *bit
for bit* — the throughput study asserts identical decisions, and these
tests pin the invariant at the feature level where a drift would
originate.  ``test_pool_invariance.py`` sweeps the same property over
random window mixes against the per-dwell reference.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import (
    build_snapshots_all,
    build_snapshots_many,
    build_spectrum_frames,
    build_spectrum_frames_many,
    uncalibrated,
)
from repro.dsp.features import M2AIFeaturizer
from tests.dsp import reference


def _time_windows(log, n_windows=3):
    """Cut a log into equal time slices (distinct spans and t0s)."""
    t = log.timestamp_s
    edges = np.linspace(t.min(), t.max() + 1e-9, n_windows + 1)
    return [
        log.select((t >= lo) & (t < hi))
        for lo, hi in zip(edges[:-1], edges[1:])
    ]


class TestBuildSnapshotsMany:
    def test_slices_match_per_window_builder(self, small_log):
        logs = _time_windows(small_log, 3)
        psis = [uncalibrated(log) for log in logs]
        z, valid, wavelength, frame_time = build_snapshots_many(logs, psis, 4)
        for w, (log, psi) in enumerate(zip(logs, psis)):
            sets = build_snapshots_all(log, psi, n_frames=4)
            for k, snaps in enumerate(sets):
                ref_z, ref_valid, ref_wl = reference.snapshots(log, psi, k, 4)
                np.testing.assert_array_equal(z[w, k], ref_z)
                np.testing.assert_array_equal(valid[w, k], ref_valid)
                np.testing.assert_allclose(wavelength[w, k], ref_wl, rtol=1e-12)
                np.testing.assert_array_equal(snaps.z, z[w, k])
                np.testing.assert_array_equal(
                    frame_time[w], snaps.frame_time_s
                )

    def test_duplicate_bins_keep_last_read(self, small_log):
        # Same log twice: duplicate resolution must stay per-window.
        psis = [uncalibrated(small_log)] * 2
        z, valid, _wl, _ft = build_snapshots_many(
            [small_log, small_log], psis, 4
        )
        np.testing.assert_array_equal(z[0], z[1])
        np.testing.assert_array_equal(valid[0], valid[1])

    def test_misaligned_psi_rejected(self, small_log):
        with pytest.raises(ValueError):
            build_snapshots_many(
                [small_log], [uncalibrated(small_log)[:-1]], 4
            )


class TestBuildSpectrumFramesMany:
    def test_matches_scalar_per_window(self, small_log):
        logs = _time_windows(small_log, 3)
        # Mixed frame counts force two geometry groups; None derives
        # the count from the window span.
        windows = [
            (logs[0], uncalibrated(logs[0]), 4),
            (logs[1], uncalibrated(logs[1]), 4),
            (logs[2], uncalibrated(logs[2]), 2),
            (logs[0], uncalibrated(logs[0]), None),
        ]
        many = build_spectrum_frames_many(windows)
        for (log, psi, n_frames), pooled in zip(windows, many):
            one = build_spectrum_frames(log, psi, n_frames=n_frames)
            assert sorted(pooled.channels) == sorted(one.channels)
            for name in one.channels:
                np.testing.assert_array_equal(
                    pooled.channels[name], one.channels[name]
                )
            np.testing.assert_array_equal(
                pooled.meta["antenna_liveness"],
                one.meta["antenna_liveness"],
            )

    def test_dead_port_window_pooled_with_healthy(self, small_log):
        dead = small_log.select(small_log.antenna != 2)
        windows = [
            (small_log, uncalibrated(small_log), 4),
            (dead, uncalibrated(dead), 4),
        ]
        many = build_spectrum_frames_many(windows)
        assert not many[1].meta["antenna_liveness"][2]
        one = build_spectrum_frames(dead, uncalibrated(dead), n_frames=4)
        for name in one.channels:
            np.testing.assert_array_equal(
                many[1].channels[name], one.channels[name]
            )

    def test_featurizer_transform_many_matches_transform(self, small_log):
        feat = M2AIFeaturizer()
        logs = _time_windows(small_log, 2)
        windows = [(log, uncalibrated(log), 4) for log in logs]
        many = feat.transform_many(windows)
        for (log, psi, n_frames), pooled in zip(windows, many):
            one = feat.transform(log, psi, n_frames=n_frames)
            for name in one.channels:
                np.testing.assert_array_equal(
                    pooled.channels[name], one.channels[name]
                )

    def test_empty_input(self):
        assert build_spectrum_frames_many([]) == []
