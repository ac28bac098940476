"""Spectrum frames: the learning engine's input tensors (Section IV-A).

A *frame* is one 400 ms dwell reduced to per-tag feature vectors:

* the pseudospectrum frame, ``(n_tags, 180)`` — angle structure;
* the periodogram frame, ``(n_tags, N)`` — power structure.

A sample is the frame sequence over the observation window; stacking
all tags into each frame is what lets the network reason about the
*joint* multi-tag, multi-path state of the room.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dsp.correlation import subarray_covariance_stack
from repro.dsp.music import DEFAULT_ANGLES_DEG, music_spectra_batch
from repro.dsp.periodogram import spatial_periodogram_batch
from repro.dsp.snapshots import _frame_count, build_snapshots_many
from repro.hardware.llrp import ReadLog
from repro.obs.tracing import span
from repro.runtime.breaker import stage_boundary

_DB_FLOOR = -40.0


def normalize_pseudospectrum(spectrum: np.ndarray) -> np.ndarray:
    """Scale-free dB compression of a MUSIC pseudospectrum.

    MUSIC peak heights span orders of magnitude and carry no absolute
    power meaning (that is the periodogram's job), so each spectrum is
    expressed in dB relative to its own peak and clipped at -40 dB,
    then mapped to ``[0, 1]``.  A stacked input normalises each row
    against its own peak.

    Args:
        spectrum: pseudospectrum values over the angle grid, single or
            stacked, shape: ``(..., A)``.

    Returns:
        The compressed spectrum, shape: ``(..., A)`` matching the
        input grid.
    """
    s = np.asarray(spectrum, dtype=np.float64)
    peak = np.maximum(s.max(axis=-1, keepdims=True), 1e-300)
    db = 10.0 * np.log10(np.maximum(s, 1e-300) / peak)
    return np.clip(db, _DB_FLOOR, 0.0) / (-_DB_FLOOR) + 1.0


def power_to_db(power: np.ndarray, floor_db: float = -120.0) -> np.ndarray:
    """Power to decibels with a floor (periodogram frames).

    Args:
        power: non-negative power densities, single spectrum or any
            stacking of them, shape: ``(..., N)``.
        floor_db: lower clamp applied after the log.

    Returns:
        Decibel values, shape: ``(..., N)`` matching the input.
    """
    p = np.asarray(power, dtype=np.float64)
    return np.maximum(10.0 * np.log10(np.maximum(p, 1e-30)), floor_db)


@dataclass
class FeatureFrames:
    """One sample: named feature channels over frames and tags.

    Attributes:
        channels: mapping from channel name (``"pseudo"``,
            ``"period"``, ...) to a ``(F, n_tags, D)`` float array.
        label: the activity class, when known.
    """

    channels: dict[str, np.ndarray]
    label: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def n_frames(self) -> int:
        """Number of frames."""
        return int(next(iter(self.channels.values())).shape[0])

    @property
    def n_tags(self) -> int:
        """Number of tags."""
        return int(next(iter(self.channels.values())).shape[1])

    def channel_dims(self) -> dict[str, int]:
        """Feature width of each channel (used to size the network)."""
        return {k: int(v.shape[2]) for k, v in self.channels.items()}

    def flatten(self) -> np.ndarray:
        """Whole sample as one flat vector (classical-baseline input)."""
        return np.concatenate(
            [v.reshape(-1) for _, v in sorted(self.channels.items())]
        )


def build_spectrum_frames(
    log: ReadLog,
    psi: np.ndarray,
    n_frames: int | None = None,
    angles_deg: np.ndarray | None = None,
    include_pseudo: bool = True,
    include_period: bool = True,
    label: str | None = None,
) -> FeatureFrames:
    """The M2AI preprocessing output for one window.

    A batch of one for :func:`build_spectrum_frames_many`, with the
    ground-truth ``label`` attached.

    Returns:
        The assembled :class:`FeatureFrames`: channel ``"pseudo"`` has
        shape: ``(F, n_tags, 180)`` and channel ``"period"`` has
        shape: ``(F, n_tags, N)`` for ``N`` antennas.
    """
    frames = _frame_count(log, n_frames)
    with span("dsp.frames.build", reads=log.n_reads, frames=frames, tags=log.n_tags):
        (out,) = _build_frames(
            [(log, psi, frames)], angles_deg, include_pseudo, include_period
        )
    out.label = label
    return out


def build_spectrum_frames_many(
    windows: list[tuple[ReadLog, np.ndarray, int | None]],
    angles_deg: np.ndarray | None = None,
    include_pseudo: bool = True,
    include_period: bool = True,
) -> list[FeatureFrames]:
    """The M2AI preprocessing output: pseudospectrum + periodogram frames.

    Every valid ``(tag, dwell)`` of every window — across all streams a
    fleet shard is ticking — goes into *one* stacked periodogram and
    *one* stacked MUSIC batch per group of windows that share an array
    geometry, frame count and port-liveness mask, so the per-call
    dispatch cost of the small-matrix DSP kernels is paid once per
    group rather than once per window.  Every kernel in the stacks is
    per-row, so a window's output does not depend on what it was
    pooled with.

    Frames where a tag was not observed on at least two ports repeat
    the tag's previous frame (zero for a missing first frame) — the
    streaming-friendly imputation a real deployment would use.

    Dead antenna ports (no reads anywhere in a window's log) degrade
    the computation instead of poisoning it: the pseudospectrum shrinks
    to the surviving subarray and the periodogram is re-normalised to
    the live aperture.  Feature shapes are unchanged, so a model
    trained on the healthy array still accepts the degraded frames.

    Args:
        windows: ``(log, psi, n_frames)`` per window; ``psi`` holds the
            doubled phases aligned with the log (calibrated or not),
            and ``n_frames`` None derives the frame count from the log
            span.
        angles_deg: pseudospectrum angle grid (paper default, 180 pts).
        include_pseudo: emit the ``"pseudo"`` channel.
        include_period: emit the ``"period"`` channel.

    Returns:
        One :class:`FeatureFrames` per input window, in order; each
        window's ``"pseudo"`` channel has shape: ``(F, n_tags, 180)``
        and its ``"period"`` channel shape: ``(F, n_tags, N)``;
        ``meta["antenna_liveness"]`` records the port mask the features
        were computed under.
    """
    with span("dsp.frames.build_many", windows=len(windows)):
        return _build_frames(windows, angles_deg, include_pseudo, include_period)


def _build_frames(
    windows: list[tuple[ReadLog, np.ndarray, int | None]],
    angles_deg: np.ndarray | None,
    include_pseudo: bool,
    include_period: bool,
) -> list[FeatureFrames]:
    """The frame-assembly kernel behind both public entry points."""
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    out: list[FeatureFrames | None] = [None] * len(windows)
    # Pool per array geometry + frame count + liveness (normally one
    # group across the whole fleet): those windows share one binning
    # pass, one covariance/eigen stack and one scatter.
    groups: dict[tuple, list[int]] = {}
    lives = [log.antenna_liveness() for log, _psi, _n in windows]
    for w, (log, _psi, n_frames) in enumerate(windows):
        meta = log.meta
        key = (
            log.n_tags,
            _frame_count(log, n_frames),
            meta.n_antennas,
            float(meta.dwell_s),
            float(meta.slot_s),
            float(meta.spacing_m),
            lives[w].tobytes(),
        )
        groups.setdefault(key, []).append(w)
    for key, members in groups.items():
        n_tags, frames, n_ant, _dwell, _slot, spacing, _live = key
        pseudo, period = _group_frames(
            [windows[w] for w in members], lives[members[0]], n_tags, frames,
            n_ant, spacing, grid, include_pseudo, include_period,
        )
        for i, w in enumerate(members):
            channels: dict[str, np.ndarray] = {}
            if pseudo is not None:
                channels["pseudo"] = pseudo[i]
            if period is not None:
                channels["period"] = period[i]
            out[w] = FeatureFrames(channels=channels, meta={"antenna_liveness": lives[w]})
    return out  # type: ignore[return-value]  # every slot is filled above


def _group_frames(
    windows: list[tuple[ReadLog, np.ndarray, int | None]],
    live: np.ndarray,
    n_tags: int,
    frames: int,
    n_ant: int,
    spacing: float,
    grid: np.ndarray,
    include_pseudo: bool,
    include_period: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Frame tensors ``(W, F, n_tags, D)`` for one pooling group.

    One :func:`build_snapshots_many` binning pass, one stacked
    periodogram/MUSIC call over every valid ``(window, tag, dwell)``
    entry in the group, then a vectorised scatter + forward fill.
    """
    with stage_boundary("dsp.frames"):
        z, valid, wavelength, _frame_time = build_snapshots_many(
            [log for log, _psi, _n in windows],
            [psi for _log, psi, _n in windows],
            frames,
        )
        # A (window, tag, dwell) joins the batch when it saw >= 2 ports
        # — exactly TagSnapshots.frame_valid.
        ok = valid.any(axis=3).sum(axis=3) >= 2  # (W, T, F)
        w_e, t_e, f_e = np.nonzero(ok)
        z_rows = z[w_e, t_e, f_e]
        v_rows = valid[w_e, t_e, f_e]
        wavelengths = wavelength[w_e, t_e, f_e]

    n_windows = len(windows)
    pseudo = (
        np.zeros((n_windows, frames, n_tags, grid.size)) if include_pseudo else None
    )
    period = np.zeros((n_windows, frames, n_tags, n_ant)) if include_period else None
    # Entries exist only with >= 2 live ports, so a dead window
    # (fewer than two) keeps all-zero frames.
    if w_e.size:
        if period is not None:
            with stage_boundary("dsp.periodogram"):
                period[w_e, f_e, t_e] = power_to_db(
                    spatial_periodogram_batch(z_rows, v_rows, liveness=live)
                )
        if pseudo is not None:
            with stage_boundary("dsp.music"):
                covs, elements = subarray_covariance_stack(z_rows, v_rows, live)
                raw, _dims, _eigs = music_spectra_batch(
                    covs,
                    spacing_m=spacing,
                    wavelength_m=wavelengths,
                    angles_deg=grid,
                    element_indices=elements,
                )
                pseudo[w_e, f_e, t_e] = normalize_pseudospectrum(raw)
    # Invalid frames repeat the tag's previous frame (zero for a
    # missing first frame).
    have = ok.transpose(0, 2, 1)  # (W, F, T)
    for f in range(1, frames):
        miss = ~have[:, f]
        if miss.any():
            if pseudo is not None:
                pseudo[:, f][miss] = pseudo[:, f - 1][miss]
            if period is not None:
                period[:, f][miss] = period[:, f - 1][miss]
    return pseudo, period
