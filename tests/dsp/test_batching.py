"""Stacked DSP kernels against the per-dwell reference.

Each DSP stage has one stacked implementation in ``src`` (the scalar
entry points are batches of one).  These tests sweep random dwell
stacks, degraded masks and forced subspace dimensions and compare the
kernels element-wise against the textbook per-dwell loops in
``tests/dsp/reference.py`` to ``rtol=1e-12`` — and check that each
batch-of-one adapter returns exactly its kernel's row.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.dsp import (
    STEERING_CACHE_MAXSIZE,
    cached_steering_matrix,
    clear_steering_cache,
    music_pseudospectrum,
    music_spectra_batch,
    spatial_covariance,
    spatial_covariance_stack,
    spatial_periodogram,
    spatial_periodogram_batch,
    steering_cache_info,
    steering_matrix,
)
from tests.dsp import reference

RTOL = 1e-12
SPACING = 0.04


def random_dwells(seed: int, n_windows=None, n_rounds=None, n_ant=None):
    """A random snapshot stack with a mixed validity profile.

    Windows cycle through the three selection regimes the scalar path
    distinguishes: fully observed, some-complete-rows (incomplete rows
    must be dropped), and no-complete-row (gaps must be zero-filled).
    """
    rng = np.random.default_rng(seed)
    w = int(n_windows if n_windows is not None else rng.integers(3, 12))
    k = int(n_rounds if n_rounds is not None else rng.integers(2, 6))
    n = int(n_ant if n_ant is not None else rng.integers(3, 6))
    z = rng.normal(size=(w, k, n)) + 1j * rng.normal(size=(w, k, n))
    valid = np.ones((w, k, n), dtype=bool)
    for i in range(w):
        regime = i % 3
        if regime == 1:  # incomplete rows alongside complete ones
            valid[i, rng.integers(0, k), rng.integers(0, n)] = False
        elif regime == 2:  # every row has a gap -> zero-fill fallback
            for row in range(k):
                valid[i, row, rng.integers(0, n)] = False
    # Garbage in unobserved slots must never leak into any output.
    z[~valid] = 1e6 * (1.0 + 1.0j)
    wavelengths = rng.uniform(0.31, 0.34, size=w)
    return z, valid, wavelengths


class TestCovarianceStack:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar(self, seed):
        z, valid, _ = random_dwells(seed)
        stack = spatial_covariance_stack(z, valid)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                stack[w], reference.covariance(z[w], valid[w]), rtol=RTOL
            )
            np.testing.assert_array_equal(spatial_covariance(z[w], valid[w]), stack[w])

    def test_matches_scalar_without_mask(self):
        z, _, _ = random_dwells(3)
        z = z.real + 1j * z.imag  # strip the injected garbage pattern
        stack = spatial_covariance_stack(z)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(stack[w], reference.covariance(z[w]), rtol=RTOL)

    def test_forward_backward_toggle(self):
        z, valid, _ = random_dwells(4)
        stack = spatial_covariance_stack(z, valid, use_forward_backward=False)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                stack[w],
                reference.covariance(z[w], valid[w], use_forward_backward=False),
                rtol=RTOL,
            )

    def test_empty_stack(self):
        assert spatial_covariance_stack(np.zeros((0, 4, 4), complex)).shape == (0, 4, 4)

    def test_rejects_2d(self):
        with pytest.raises(ValueError):
            spatial_covariance_stack(np.zeros((4, 4), complex))

    def test_rejects_fully_unobserved_window(self):
        z = np.ones((2, 3, 4), dtype=complex)
        valid = np.ones((2, 3, 4), dtype=bool)
        valid[1] = False
        with pytest.raises(ValueError):
            spatial_covariance_stack(z, valid)


def assert_music_matches_reference(spectra, dims, eigvals, covs, wl, **kwargs):
    for w in range(covs.shape[0]):
        spectrum, m, lam = reference.music(covs[w], SPACING, wl[w], **kwargs)
        np.testing.assert_allclose(spectra[w], spectrum, rtol=RTOL)
        np.testing.assert_allclose(eigvals[w], lam, rtol=RTOL)
        assert dims[w] == m


class TestMusicBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar(self, seed):
        z, valid, wl = random_dwells(seed)
        covs = spatial_covariance_stack(z, valid)
        spectra, dims, eigvals = music_spectra_batch(covs, SPACING, wl)
        assert_music_matches_reference(spectra, dims, eigvals, covs, wl)
        for w in range(covs.shape[0]):
            one = music_pseudospectrum(covs[w], SPACING, wl[w])
            np.testing.assert_array_equal(one.spectrum, spectra[w])
            np.testing.assert_array_equal(one.eigenvalues, eigvals[w])
            assert one.n_sources == dims[w]

    @pytest.mark.parametrize("seed", range(3))
    def test_forced_n_sources_per_window(self, seed):
        z, valid, wl = random_dwells(seed, n_ant=4)
        covs = spatial_covariance_stack(z, valid)
        rng = np.random.default_rng(seed + 100)
        forced = rng.integers(1, 4, size=covs.shape[0])
        spectra, dims, eigvals = music_spectra_batch(covs, SPACING, wl, n_sources=forced)
        np.testing.assert_array_equal(dims, forced)
        for w in range(covs.shape[0]):
            spectrum, m, _lam = reference.music(
                covs[w], SPACING, wl[w], n_sources=int(forced[w])
            )
            np.testing.assert_allclose(spectra[w], spectrum, rtol=RTOL)
            assert m == int(forced[w])

    def test_forced_n_sources_scalar_broadcasts(self):
        z, valid, wl = random_dwells(7, n_ant=4)
        covs = spatial_covariance_stack(z, valid)
        _spectra, dims, _eigvals = music_spectra_batch(covs, SPACING, wl, n_sources=2)
        assert (dims == 2).all()

    def test_shared_scalar_wavelength(self):
        z, valid, _ = random_dwells(5)
        covs = spatial_covariance_stack(z, valid)
        spectra, dims, eigvals = music_spectra_batch(covs, SPACING, 0.328)
        wl = np.full(covs.shape[0], 0.328)
        assert_music_matches_reference(spectra, dims, eigvals, covs, wl)

    def test_element_indices_subarray(self):
        z, valid, wl = random_dwells(9, n_ant=4)
        idx = np.array([0, 1, 3])  # ragged surviving subarray
        covs = spatial_covariance_stack(
            z[:, :, idx], valid[:, :, idx], use_forward_backward=False
        )
        spectra, dims, eigvals = music_spectra_batch(
            covs, SPACING, wl, element_indices=idx
        )
        assert_music_matches_reference(
            spectra, dims, eigvals, covs, wl, element_indices=idx
        )

    def test_empty_stack(self):
        spectra, dims, eigvals = music_spectra_batch(np.zeros((0, 4, 4)), SPACING, 0.328)
        assert spectra.shape == (0, 180) and dims.shape == (0,)
        assert eigvals.shape == (0, 4)

    def test_rejects_non_stack(self):
        with pytest.raises(ValueError):
            music_spectra_batch(np.zeros((4, 4)), SPACING, 0.328)
        with pytest.raises(ValueError):
            music_spectra_batch(np.zeros((2, 3, 4)), SPACING, 0.328)


class TestPeriodogramBatch:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar(self, seed):
        z, valid, _ = random_dwells(seed)
        batch = spatial_periodogram_batch(z, valid)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                batch[w], reference.periodogram(z[w], valid[w]), rtol=RTOL
            )
            np.testing.assert_array_equal(spatial_periodogram(z[w], valid[w]), batch[w])

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_scalar_dead_ports(self, seed):
        z, valid, _ = random_dwells(seed, n_ant=4)
        live = np.array([True, True, False, True])
        valid[:, :, ~live] = False
        batch = spatial_periodogram_batch(z, valid, liveness=live)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(
                batch[w], reference.periodogram(z[w], valid[w], live), rtol=RTOL
            )

    def test_matches_scalar_without_mask(self):
        z, _, _ = random_dwells(2)
        batch = spatial_periodogram_batch(z)
        for w in range(z.shape[0]):
            np.testing.assert_allclose(batch[w], reference.periodogram(z[w]), rtol=RTOL)

    def test_empty_stack(self):
        assert spatial_periodogram_batch(np.zeros((0, 4, 4), complex)).shape == (0, 4)

    def test_rejects_fully_unobserved_window(self):
        z = np.ones((2, 3, 4), dtype=complex)
        valid = np.ones((2, 3, 4), dtype=bool)
        valid[0] = False
        with pytest.raises(ValueError):
            spatial_periodogram_batch(z, valid)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            spatial_periodogram_batch(np.zeros((4, 4), complex))
        with pytest.raises(ValueError):
            spatial_periodogram_batch(
                np.zeros((2, 3, 4), complex), np.ones((2, 3, 3), bool)
            )
        # The batch-of-one adapter inherits the kernel's mask check.
        with pytest.raises(ValueError):
            spatial_periodogram(np.zeros((3, 4), complex), np.ones((3, 3), bool))


class TestSteeringCache:
    def setup_method(self):
        clear_steering_cache()

    def teardown_method(self):
        clear_steering_cache()

    def test_hit_matches_uncached(self):
        grid = np.arange(0.5, 180.5, 1.0)
        a = cached_steering_matrix(grid, 4, SPACING, 0.328)
        np.testing.assert_array_equal(a, steering_matrix(grid, 4, SPACING, 0.328))

    def test_hit_returns_same_readonly_object(self):
        grid = np.arange(0.5, 180.5, 1.0)
        a = cached_steering_matrix(grid, 4, SPACING, 0.328)
        b = cached_steering_matrix(grid, 4, SPACING, 0.328)
        assert a is b
        assert not a.flags.writeable
        assert steering_cache_info()["size"] == 1

    def test_element_indices_are_part_of_the_key(self):
        grid = np.arange(0.5, 180.5, 1.0)
        full = cached_steering_matrix(grid, 3, SPACING, 0.328)
        sparse = cached_steering_matrix(
            grid, 3, SPACING, 0.328, element_indices=np.array([0, 1, 3])
        )
        assert steering_cache_info()["size"] == 2
        assert not np.allclose(full, sparse)

    def test_bounded_under_randomized_grids(self):
        """The CI guard: adversarial inputs cannot grow the cache."""
        rng = np.random.default_rng(0)
        for _ in range(STEERING_CACHE_MAXSIZE + 64):
            grid = np.sort(rng.uniform(0.0, 180.0, size=rng.integers(8, 32)))
            cached_steering_matrix(grid, 4, SPACING, rng.uniform(0.31, 0.34))
            info = steering_cache_info()
            assert info["size"] <= info["maxsize"]
        assert steering_cache_info()["size"] == STEERING_CACHE_MAXSIZE

    def test_lru_keeps_hot_entries(self):
        base = np.arange(0.5, 180.5, 1.0)
        hot = cached_steering_matrix(base, 4, SPACING, 0.328)
        for i in range(STEERING_CACHE_MAXSIZE):
            cached_steering_matrix(base, 4, SPACING, 0.31 + i * 1e-4)
            cached_steering_matrix(base, 4, SPACING, 0.328)  # keep it hot
        assert steering_cache_info()["size"] == STEERING_CACHE_MAXSIZE
        # The hot entry survived a full capacity's worth of insertions
        # (identity proves it was never evicted and rebuilt).
        assert cached_steering_matrix(base, 4, SPACING, 0.328) is hot
