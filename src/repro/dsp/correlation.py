"""Spatial correlation matrices (Eq. 10) with coherent-source fixes.

Backscatter multipath components are *coherent* — they are copies of
one tag reply — so the plain sample covariance is rank-deficient and
plain MUSIC cannot separate them.  Forward-backward averaging restores
rank for a uniform linear array and is standard practice; it is the
de-correlation step implied by the paper's "de-couple multipath
signals" stage.
"""

from __future__ import annotations

import numpy as np

from repro.obs.metrics import counter


def select_snapshots(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    liveness: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Per-dwell snapshot selection as a 0/1 row weighting.

    Rows missing an observed entry are dropped when the dwell has at
    least one complete row; when *every* row has gaps, every row is
    kept with its unobserved entries zero-filled — whatever sits in an
    unobserved slot is measurement garbage and must not leak out.  A
    zero-weighted row contributes exactly nothing to a weighted sum,
    so a stack of dwells is selected without a Python loop.

    Args:
        snapshots: ``(W, K, N)`` complex snapshots (dwells x rounds x
            antennas).
        valid: optional ``(W, K, N)`` observation mask.
        liveness: optional ``(N,)`` port mask; completeness is judged
            on the live ports only.

    Returns:
        ``(x, weights, live)``: the zero-filled snapshots, the
        ``(W, K)`` boolean row weights, and the validated port mask —
        None when no mask was given or every port is live.

    Raises:
        ValueError: on a non-3-D stack, a mask of the wrong shape, no
            live port, an empty round axis, or a dwell with no observed
            entry.
    """
    x = np.asarray(snapshots, dtype=np.complex128)
    if x.ndim != 3:
        raise ValueError("snapshots must be (W, K, N)")
    live = None
    if liveness is not None:
        live = np.asarray(liveness, dtype=bool)
        if live.shape != (x.shape[2],):
            raise ValueError("liveness must be (N,)")
        if not live.any():
            raise ValueError("no live ports")
        if live.all():
            live = None
    if x.shape[0] and not x.shape[1]:
        raise ValueError("no valid snapshots")
    if valid is None:
        return x, np.ones(x.shape[:2], dtype=bool), live
    valid = np.asarray(valid, dtype=bool)
    if valid.shape != x.shape:
        raise ValueError("valid must match snapshots")
    observed = valid if live is None else valid[:, :, live]
    complete = observed.all(axis=2)  # (W, K)
    has_complete = complete.any(axis=1)
    if not (has_complete | valid.any(axis=(1, 2))).all():
        raise ValueError("no valid snapshots in some window")
    weights = np.where(has_complete[:, None], complete, True)
    return np.where(valid, x, 0.0), weights, live


def sample_covariance(snapshots: np.ndarray, valid: np.ndarray | None = None) -> np.ndarray:
    """Sample spatial covariance ``R = E[x x^H]`` over snapshots.

    Args:
        snapshots: ``(K, N)`` complex array, one row per snapshot.
        valid: optional ``(K, N)`` mask; snapshots missing any antenna
            are dropped, and when *every* snapshot has gaps the gaps
            are zero-filled (conservative fallback).

    Returns:
        ``(N, N)`` Hermitian covariance.

    Raises:
        ValueError: when no snapshot is available at all.
    """
    return spatial_covariance(
        snapshots, valid, use_forward_backward=False, loading=0.0
    )


def forward_backward(r: np.ndarray) -> np.ndarray:
    """Forward-backward averaged covariance ``(R + J R* J) / 2``.

    ``J`` is the exchange matrix.  For a ULA this doubles the effective
    snapshot count and de-correlates coherent path pairs.  Accepts one
    ``(N, N)`` matrix or any stack ``(..., N, N)``.
    """
    r = np.asarray(r)
    j = np.eye(r.shape[-1])[::-1]
    return 0.5 * (r + j @ r.conj() @ j)


def diagonal_load(r: np.ndarray, level: float = 1e-6) -> np.ndarray:
    """Add ``level * trace(R)/N`` to the diagonal for numerical safety.

    Accepts one ``(N, N)`` matrix or any stack ``(..., N, N)``.
    """
    n = r.shape[-1]
    trace = np.trace(r, axis1=-2, axis2=-1).real
    return r + np.eye(n) * (level * trace / n)[..., None, None]


def spatial_covariance(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    use_forward_backward: bool = True,
    loading: float = 1e-6,
) -> np.ndarray:
    """The covariance pipeline for one ``(K, N)`` dwell (a batch of one
    for :func:`spatial_covariance_stack`)."""
    x = np.asarray(snapshots)[None]
    mask = None if valid is None else np.asarray(valid)[None]
    return spatial_covariance_stack(x, mask, use_forward_backward, loading)[0]


def spatial_covariance_stack(
    snapshots: np.ndarray,
    valid: np.ndarray | None = None,
    use_forward_backward: bool = True,
    loading: float = 1e-6,
) -> np.ndarray:
    """The covariance pipeline used by the pseudospectrum stage.

    Snapshot selection (:func:`select_snapshots`), the sample
    covariance, forward-backward averaging and diagonal loading all
    run as one stacked matmul chain over the whole stack of dwells.

    Args:
        snapshots: ``(W, K, N)`` complex snapshots.
        valid: optional ``(W, K, N)`` observation mask.
        use_forward_backward: apply FB averaging (ULA de-correlation).
        loading: diagonal loading level.

    Returns:
        ``(W, N, N)`` stack of Hermitian covariances.

    Raises:
        ValueError: on a non-3-D stack or a window with no observed
            snapshot at all.
    """
    x, weights, _live = select_snapshots(snapshots, valid)
    n = x.shape[2]
    if x.shape[0] == 0:
        return np.zeros((0, n, n), dtype=np.complex128)
    xw = x * weights[:, :, None]
    counts = weights.sum(axis=1).astype(np.float64)
    # R[i, j] = E[x_i * conj(x_j)] — rows of ``x`` are snapshots.
    r = np.matmul(xw.transpose(0, 2, 1), xw.conj()) / counts[:, None, None]
    if use_forward_backward:
        r = forward_backward(r)
    return diagonal_load(r, loading)


def subarray_covariance_stack(
    snapshots: np.ndarray, valid: np.ndarray, liveness: np.ndarray
) -> tuple[np.ndarray, np.ndarray | None]:
    """Covariances over the *live* subarray of a degraded array.

    Instead of silently ingesting zero columns for dead ports (which
    biases the covariance and plants spurious nulls), each matrix is
    shrunk to the surviving elements.  Forward-backward averaging
    needs a mirror-symmetric element layout; a ragged survivor set
    (e.g. ports 0, 1, 3) is not, so FB is kept only when the survivors
    stay uniformly spaced.

    Args:
        snapshots: ``(W, K, N)`` complex snapshots over the full array.
        valid: ``(W, K, N)`` observation mask.
        liveness: ``(N,)`` port-liveness mask.

    Returns:
        ``(covariances, element_indices)``: the ``(W, L, L)`` stack over
        the ``L`` live ports and their physical positions for the
        steering vectors — None when every port is live (the full,
        contiguous ULA).
    """
    live = np.asarray(liveness, dtype=bool)
    if live.all():
        return spatial_covariance_stack(snapshots, valid), None
    indices = np.flatnonzero(live)
    gaps = np.diff(indices)
    uniform = bool(gaps.size == 0 or np.all(gaps == gaps[0]))
    covs = spatial_covariance_stack(
        np.asarray(snapshots)[..., indices],
        np.asarray(valid)[..., indices],
        use_forward_backward=uniform,
    )
    counter("dsp.music.masked_total").inc(len(covs))
    return covs, indices
