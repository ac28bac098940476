"""Snapshot assembly: read log -> per-tag array snapshots.

The R420 time-multiplexes its four ports (25 ms each), so one *round*
of port switching (100 ms) yields one spatial snapshot — a complex
value per antenna — and one 400 ms channel dwell yields four snapshots
at a single carrier frequency.  Grouping per dwell keeps every spatial
correlation matrix single-frequency, which is what makes MUSIC steering
exact; successive dwells become successive *spectrum frames* for the
learning engine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.channel.link import rssi_dbm_to_amplitude
from repro.channel.params import SPEED_OF_LIGHT, ChannelParams
from repro.hardware.llrp import ReadLog


@dataclass
class TagSnapshots:
    """Per-dwell spatial snapshots of one tag.

    Attributes:
        z: ``(F, K, N)`` complex snapshots — F dwells (frames), K
            rounds per dwell, N antennas.  Invalid entries are 0.
        valid: ``(F, K, N)`` bool mask of entries actually observed.
        wavelength_m: ``(F,)`` carrier wavelength of each dwell.
        frame_time_s: ``(F,)`` dwell start times.
    """

    z: np.ndarray
    valid: np.ndarray
    wavelength_m: np.ndarray
    frame_time_s: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return int(self.z.shape[0])

    @property
    def n_antennas(self) -> int:
        """Number of antenna elements."""
        return int(self.z.shape[2])

    def frame_valid(self, f: int, min_antennas: int = 2) -> bool:
        """True when frame ``f`` observed at least ``min_antennas`` ports."""
        seen = self.valid[f].any(axis=0)
        return int(seen.sum()) >= min_antennas


def _frame_count(log: ReadLog, n_frames: int | None) -> int:
    """Frames spanned by ``log`` on its dwell grid (``n_frames`` wins).

    The grid origin snaps the first read down to a dwell boundary, so
    a log spanning ``S`` seconds past that origin needs
    ``ceil(S / dwell)`` frames (at least one, also for an empty log).
    """
    if n_frames is not None:
        return int(n_frames)
    if not log.n_reads:
        return 1
    dwell = log.meta.dwell_s
    t0 = np.floor(float(log.timestamp_s.min()) / dwell) * dwell
    span_s = float(log.timestamp_s.max()) - t0
    return max(1, int(np.ceil((span_s + 1e-9) / dwell)))


def build_snapshots(
    log: ReadLog,
    psi: np.ndarray,
    tag: int,
    n_frames: int | None = None,
    channel_params: ChannelParams | None = None,
) -> TagSnapshots:
    """Assemble snapshots for one tag (a slice of :func:`build_snapshots_all`).

    Args:
        log: the full session read log.
        psi: ``(R,)`` doubled phases aligned with ``log`` (calibrated
            or raw, the caller chooses — this is the Fig. 10 toggle).
        tag: tag index to extract.
        n_frames: force the number of frames (defaults to the span of
            the log).
        channel_params: link-budget constants for the RSSI inverse
            mapping.

    Returns:
        The tag's :class:`TagSnapshots`.
    """
    return build_snapshots_all(log, psi, n_frames, channel_params)[tag]


def build_snapshots_all(
    log: ReadLog,
    psi: np.ndarray,
    n_frames: int | None = None,
    channel_params: ChannelParams | None = None,
) -> list[TagSnapshots]:
    """Assemble snapshots for *every* tag of one window.

    A batch of one for :func:`build_snapshots_many`; ``n_frames`` None
    derives the frame count from the log span.

    Returns:
        One :class:`TagSnapshots` per tag, indexed by tag.
    """
    frames = _frame_count(log, n_frames)
    z, valid, wavelength, frame_time = build_snapshots_many(
        [log], [psi], frames, channel_params
    )
    return [
        TagSnapshots(
            z=z[0, k],
            valid=valid[0, k],
            wavelength_m=wavelength[0, k],
            frame_time_s=frame_time[0],
        )
        for k in range(log.n_tags)
    ]


def build_snapshots_many(
    logs: list[ReadLog],
    psis: list[np.ndarray],
    n_frames: int,
    channel_params: ChannelParams | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Bin *many* windows' reads into snapshots in one pass.

    Each read becomes a complex sample ``a * exp(1j * psi)`` where the
    amplitude comes from RSSI and ``psi`` is the (calibrated) doubled
    phase.  Reads are binned by (window, tag, dwell, round-within-dwell,
    antenna) through one flat bin index, so W windows cost one
    concatenate + one ``np.unique`` instead of W binning passes;
    duplicate bins keep the last read in log order.  Every window must
    share the same array geometry (tag count, antennas, dwell/slot
    timing) and frame count — the caller groups by exactly that key.

    Args:
        logs: one read log per window.
        psis: doubled phases aligned with each log.
        n_frames: common frame count across the windows.
        channel_params: link-budget constants for the RSSI inverse
            mapping.

    Returns:
        ``(z, valid, wavelength_m, frame_time_s)`` stacked over
        windows: ``z`` and ``valid`` are ``(W, n_tags, F, K, N)``,
        ``wavelength_m`` is ``(W, n_tags, F)`` and ``frame_time_s``
        is ``(W, F)``.  Frames a tag never saw carry the tag's
        band-centre wavelength so downstream steering stays finite.

    Raises:
        ValueError: when some ``psi`` does not align with its log.
    """
    if any(len(psi) != log.n_reads for log, psi in zip(logs, psis)):
        raise ValueError("each psi must align with its log")
    params = channel_params or ChannelParams()
    meta = logs[0].meta
    n_ant = meta.n_antennas
    n_tags = logs[0].n_tags
    round_s = meta.slot_s * n_ant
    rounds_per_dwell = max(1, int(round(meta.dwell_s / round_s)))
    n_windows = len(logs)

    counts = np.array([log.n_reads for log in logs])
    w_idx = np.repeat(np.arange(n_windows), counts)
    t = np.concatenate([log.timestamp_s for log in logs])
    antennas = np.concatenate([log.antenna for log in logs])
    tags = np.concatenate([log.tag_index for log in logs])
    freqs = np.concatenate([log.frequency_hz for log in logs])
    psi = np.concatenate(list(psis))
    amps = rssi_dbm_to_amplitude(
        np.concatenate([log.rssi_dbm for log in logs]), params
    )

    # Snap each window's origin onto the dwell grid: the first *read*
    # may fall mid-dwell (earlier reads lost to harvest failures), but
    # frames must align with hop boundaries or a frame would mix two
    # carriers.
    t0_w = np.array(
        [
            np.floor(float(log.timestamp_s.min()) / meta.dwell_s) * meta.dwell_s
            if log.n_reads
            else 0.0
            for log in logs
        ]
    )
    rel = t - t0_w[w_idx]
    dwell_idx = np.floor(rel / meta.dwell_s).astype(int)
    round_idx = np.floor(rel / round_s).astype(int)
    k_idx = np.clip(round_idx - dwell_idx * rounds_per_dwell, 0, rounds_per_dwell - 1)

    shape = (n_windows, n_tags, n_frames, rounds_per_dwell, n_ant)
    z = np.zeros(shape, dtype=np.complex128)
    valid = np.zeros(shape, dtype=bool)
    wavelength = np.full((n_windows, n_tags, n_frames), np.nan)

    in_range = (dwell_idx >= 0) & (dwell_idx < n_frames)

    values = (amps * np.exp(1j * psi))[in_range]
    wt = w_idx[in_range] * n_tags + tags[in_range]
    f_sel = dwell_idx[in_range]
    # Duplicate bins keep the *last* read in log order, so pick each
    # flat bin's final occurrence explicitly (fancy-index assignment
    # leaves duplicate resolution unspecified); windows never collide
    # because the window index leads the flat bin.
    flat = (
        (wt * n_frames + f_sel) * rounds_per_dwell + k_idx[in_range]
    ) * n_ant + antennas[in_range]
    bins, first_in_reversed = np.unique(flat[::-1], return_index=True)
    last = flat.size - 1 - first_in_reversed
    z.reshape(-1)[bins] = values[last]
    valid.reshape(-1)[bins] = True
    tf = wt * n_frames + f_sel
    tf_seen, first_in_reversed = np.unique(tf[::-1], return_index=True)
    wavelength.reshape(-1)[tf_seen] = (
        SPEED_OF_LIGHT / freqs[in_range][tf.size - 1 - first_in_reversed]
    )

    # Frames never observed get the tag's band-centre wavelength
    # (0.328 m with no reads at all).
    finite = np.isfinite(wavelength)
    n_finite = finite.sum(axis=2)
    sums = np.where(finite, wavelength, 0.0).sum(axis=2)
    centre = np.where(n_finite > 0, sums / np.maximum(n_finite, 1), 0.328)
    wavelength = np.where(np.isnan(wavelength), centre[:, :, None], wavelength)

    frame_time = t0_w[:, None] + np.arange(n_frames) * meta.dwell_s
    return z, valid, wavelength, frame_time
