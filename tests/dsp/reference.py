"""Test-only per-dwell reference for the DSP chain.

``src`` holds one stacked implementation per stage; these are the
textbook one-item loops the stacked kernels are checked against:
per-tag binning over the reads in log order, per-dwell covariance,
``eigh`` MUSIC on one matrix, per-dwell periodogram and the per-frame
forward fill.  They are deliberately slow and literal.
"""

from __future__ import annotations

import numpy as np

from repro.channel.link import rssi_dbm_to_amplitude
from repro.channel.params import SPEED_OF_LIGHT, ChannelParams
from repro.dsp.frames import normalize_pseudospectrum, power_to_db
from repro.dsp.music import DEFAULT_ANGLES_DEG, DEFAULT_GAP_RATIO, PHASE_MULTIPLIER


def select_rows(z, valid, live=None):
    """Drop incomplete rows when a complete one exists, else zero-fill."""
    x = np.asarray(z, dtype=np.complex128)
    if valid is None:
        return x
    cols = np.ones(x.shape[1], dtype=bool) if live is None else live
    complete = valid[:, cols].all(axis=1)
    if complete.any():
        return x[complete]
    if not valid.any():
        raise ValueError("no valid snapshots")
    return np.where(valid, x, 0.0)


def covariance(z, valid=None, use_forward_backward=True, loading=1e-6):
    """Sample covariance of one dwell, FB-averaged and diagonally loaded."""
    x = select_rows(z, valid)
    r = x.T @ x.conj() / x.shape[0]
    n = r.shape[0]
    if use_forward_backward:
        j = np.eye(n)[::-1]
        r = 0.5 * (r + j @ r.conj() @ j)
    return r + np.eye(n) * (loading * np.trace(r).real / n)


def music(r, spacing_m, wavelength_m, angles_deg=None, n_sources=None, element_indices=None):
    """Textbook MUSIC on one covariance: ``(spectrum, n_sources, eigenvalues)``."""
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    eigvals, eigvecs = np.linalg.eigh(r)
    order = np.argsort(eigvals)[::-1]
    lam = eigvals[order].real
    vecs = eigvecs[:, order]
    n = r.shape[0]
    if n_sources is None:
        mags = np.sort(np.abs(lam))[::-1]
        n_sources = int(np.sum(mags > DEFAULT_GAP_RATIO * mags[0]))
    m = max(1, min(int(n_sources), n - 1))
    positions = np.arange(n) if element_indices is None else np.asarray(element_indices)
    per_element = (
        PHASE_MULTIPLIER * 2.0 * np.pi * spacing_m * np.cos(np.deg2rad(grid)) / wavelength_m
    )
    steering = np.exp(+1j * positions[:, None] * per_element[None, :])
    proj = vecs[:, m:].conj().T @ steering
    return 1.0 / np.maximum(np.sum(np.abs(proj) ** 2, axis=0), 1e-12), m, lam


def periodogram(z, valid=None, live=None):
    """Average spatial periodogram of one dwell over the live aperture."""
    if live is not None and live.all():
        live = None
    x = select_rows(z, valid, live)
    scale = 1.0
    if live is not None:
        x = np.where(live[None, :], x, 0.0)
        scale = x.shape[1] / float(live.sum())
    return scale * (np.abs(np.fft.fft(x, axis=1)) ** 2 / x.shape[1]).mean(axis=0)


def n_frames_of(log, n_frames=None):
    """The frame count a window spans on its dwell grid."""
    if n_frames is not None:
        return n_frames
    if not log.n_reads:
        return 1
    dwell = log.meta.dwell_s
    t0 = np.floor(log.timestamp_s.min() / dwell) * dwell
    return max(1, int(np.ceil((log.timestamp_s.max() - t0 + 1e-9) / dwell)))


def snapshots(log, psi, tag, n_frames):
    """Per-tag binning loop: ``(z, valid, wavelength)`` of one tag.

    Reads are visited in log order, so a later read into the same
    (dwell, round, antenna) bin overwrites an earlier one.
    """
    meta = log.meta
    n_ant = meta.n_antennas
    round_s = meta.slot_s * n_ant
    rounds = max(1, int(round(meta.dwell_s / round_s)))
    t0 = np.floor(log.timestamp_s.min() / meta.dwell_s) * meta.dwell_s if log.n_reads else 0.0
    values = rssi_dbm_to_amplitude(log.rssi_dbm, ChannelParams()) * np.exp(1j * psi)
    z = np.zeros((n_frames, rounds, n_ant), dtype=np.complex128)
    valid = np.zeros((n_frames, rounds, n_ant), dtype=bool)
    wavelength = np.full(n_frames, np.nan)
    for r in range(log.n_reads):
        if log.tag_index[r] != tag:
            continue
        rel = log.timestamp_s[r] - t0
        f = int(np.floor(rel / meta.dwell_s))
        if not 0 <= f < n_frames:
            continue
        k = min(max(int(np.floor(rel / round_s)) - f * rounds, 0), rounds - 1)
        z[f, k, log.antenna[r]] = values[r]
        valid[f, k, log.antenna[r]] = True
        wavelength[f] = SPEED_OF_LIGHT / log.frequency_hz[r]
    seen = np.isfinite(wavelength)
    centre = wavelength[seen].mean() if seen.any() else 0.328
    return z, valid, np.where(seen, wavelength, centre)


def frames(log, psi, n_frames=None, angles_deg=None):
    """Per-dwell ``(pseudo, period)`` frames of one window, forward-filled."""
    grid = DEFAULT_ANGLES_DEG if angles_deg is None else np.asarray(angles_deg)
    n_frames = n_frames_of(log, n_frames)
    n_ant = log.meta.n_antennas
    live = log.antenna_liveness()
    idx = np.flatnonzero(live)
    gaps = np.diff(idx)
    uniform = gaps.size == 0 or bool(np.all(gaps == gaps[0]))
    elements = None if live.all() else idx
    pseudo = np.zeros((n_frames, log.n_tags, grid.size))
    period = np.zeros((n_frames, log.n_tags, n_ant))
    for tag in range(log.n_tags):
        z, valid, wavelength = snapshots(log, psi, tag, n_frames)
        for f in range(n_frames):
            if valid[f].any(axis=0).sum() < 2:
                if f > 0:
                    pseudo[f, tag] = pseudo[f - 1, tag]
                    period[f, tag] = period[f - 1, tag]
                continue
            period[f, tag] = power_to_db(periodogram(z[f], valid[f], live))
            cov = covariance(z[f][:, idx], valid[f][:, idx], use_forward_backward=uniform)
            spectrum, _m, _lam = music(
                cov, log.meta.spacing_m, wavelength[f], grid, element_indices=elements
            )
            pseudo[f, tag] = normalize_pseudospectrum(spectrum)
    return pseudo, period
