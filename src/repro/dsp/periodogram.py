"""Periodogram power estimation (Section III-C.2, Eq. 13-16).

The paper pairs the pseudospectrum (accurate angles, unreliable
powers) with the periodogram (accurate powers): the DFT of the
snapshot across the antenna aperture gives a coarse spatial power
density with N bins — "four values" on the R420 (Fig. 5b).

This module also provides the generic discrete-time periodogram
(Eq. 14) because tests pin it to Parseval's theorem (Eq. 16's
footnote), and the FFT-based featuriser of Fig. 16 reuses it.
"""

from __future__ import annotations

import numpy as np

from repro.dsp.correlation import select_snapshots
from repro.obs.tracing import span


def periodogram_psd(y: np.ndarray) -> np.ndarray:
    """The classical periodogram ``phi_p(omega_k) = |Y(k)|^2 / N``.

    Evaluated at the standard frequency sampling ``omega_k = 2*pi*k/N``
    (Eq. 15) via the FFT (Eq. 16).

    Args:
        y: ``(N,)`` complex or real sequence.

    Returns:
        Non-negative power densities, shape: ``(N,)``.

    Raises:
        ValueError: on an empty sequence.
    """
    arr = np.asarray(y, dtype=np.complex128)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("y must be a non-empty 1-D sequence")
    spectrum = np.fft.fft(arr)
    return (np.abs(spectrum) ** 2) / arr.size


def spatial_periodogram(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    liveness: np.ndarray | None = None,
) -> np.ndarray:
    """Average spatial periodogram of one ``(K, N)`` dwell.

    A batch of one for :func:`spatial_periodogram_batch`, with the same
    selection, liveness and validation semantics.

    Returns:
        Mean power per spatial-frequency bin, shape: ``(N,)``.
    """
    x = np.asarray(snapshots)[None]
    mask = None if valid is None else np.asarray(valid)[None]
    return _periodogram_stack(x, mask, liveness, "dsp.periodogram")[0]


def spatial_periodogram_batch(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    liveness: np.ndarray | None = None,
) -> np.ndarray:
    """Average spatial periodograms for a stack of dwells at once.

    One FFT over the whole ``(W, K, N)`` stack; per-dwell snapshot
    selection is :func:`~repro.dsp.correlation.select_snapshots`'s 0/1
    row weighting.

    Args:
        snapshots: ``(W, K, N)`` complex snapshots (windows x rounds x
            antennas).
        valid: optional ``(W, K, N)`` observation mask; incomplete
            snapshots are dropped when any complete one exists, and
            the gaps are zero-filled otherwise.
        liveness: optional ``(N,)`` port-liveness mask shared by the
            batch (one log = one liveness verdict).  Dead ports are
            excluded from the completeness check, forced to zero, and
            the power density is rescaled by ``N / n_live`` so the
            per-live-element power level stays comparable to the
            healthy array instead of silently sagging.  None (or
            all-live) is the healthy path exactly.

    Returns:
        Mean power per spatial-frequency bin, shape: ``(W, N)``.

    Raises:
        ValueError: on shape mismatches, when no port is live, or when
            some window has no observed entry at all.
    """
    return _periodogram_stack(snapshots, valid, liveness, "dsp.periodogram.batch")


def _periodogram_stack(
    snapshots: np.ndarray,
    valid: np.ndarray | None,
    liveness: np.ndarray | None,
    span_name: str,
) -> np.ndarray:
    """The periodogram kernel behind both public entry points.

    Returns:
        Mean power per spatial-frequency bin, shape: ``(W, N)``, timed
        as the span ``span_name``.
    """
    x, weights, live = select_snapshots(snapshots, valid, liveness)
    n_windows, n_rounds, n_ant = x.shape
    if n_windows == 0:
        return np.zeros((0, n_ant))
    with span(span_name, windows=n_windows, snapshots=n_rounds):
        scale = 1.0
        if live is not None:
            x = np.where(live[None, None, :], x, 0.0)
            scale = n_ant / float(live.sum())
        powers = np.abs(np.fft.fft(x, axis=2)) ** 2 / n_ant
        counts = weights.sum(axis=1).astype(np.float64)
        mean = (powers * weights[:, :, None]).sum(axis=1) / counts[:, None]
        return scale * mean


def total_power(y: np.ndarray) -> float:
    """Sum of squared magnitudes — the Parseval-side invariant."""
    arr = np.asarray(y, dtype=np.complex128)
    return float(np.sum(np.abs(arr) ** 2))
