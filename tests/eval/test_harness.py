"""Experiment harness: caching, baseline zoo, M2AI train/eval glue."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import M2AIConfig
from repro.data import GenerationConfig
from repro.eval import baseline_zoo, clear_cache, eval_baselines, get_dataset, train_eval_m2ai
from repro.data.generator import vary
from repro.eval.harness import (
    _RAW_CACHE,
    _REPRO_ROOT,
    _SIMULATOR_PACKAGES,
    _cache_key,
    get_raw_samples,
)

TINY = GenerationConfig(
    scenario_labels=("A01", "A03"),
    samples_per_class=3,
    duration_s=3.2,
    calibration_s=20.0,
    seed=77,
)


@pytest.fixture(autouse=True)
def no_disk_cache(monkeypatch, tmp_path):
    """Point the disk cache at a temp dir so tests never share state."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    clear_cache()
    yield
    clear_cache()


class TestCaching:
    def test_process_memoisation(self):
        first = get_raw_samples(TINY)
        second = get_raw_samples(TINY)
        assert first is second

    def test_disk_roundtrip(self):
        first = get_raw_samples(TINY)
        clear_cache()
        assert TINY not in _RAW_CACHE
        second = get_raw_samples(TINY)
        assert first is not second
        np.testing.assert_allclose(first[0].log.phase_rad, second[0].log.phase_rad)

    def test_dataset_from_cache(self):
        ds = get_dataset(TINY)
        assert len(ds) == 6
        assert sorted(ds.classes) == ["A01", "A03"]


class TestCacheKey:
    """The corpus cache key covers the config and the simulator source."""

    @staticmethod
    def simulator_copy(dest, monkeypatch):
        """Key against a copy of the simulator packages under ``dest``."""
        import shutil

        import repro.eval.harness as harness

        for package in _SIMULATOR_PACKAGES:
            shutil.copytree(
                _REPRO_ROOT / package,
                dest / package,
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        monkeypatch.setattr(harness, "_REPRO_ROOT", dest)
        return dest

    def test_same_config_and_sources_same_key(self, tmp_path, monkeypatch):
        key = _cache_key(TINY)
        assert _cache_key(TINY) == key
        self.simulator_copy(tmp_path / "copy", monkeypatch)
        assert _cache_key(TINY) == key

    def test_config_field_changes_key(self):
        assert _cache_key(vary(TINY, seed=78)) != _cache_key(TINY)
        assert _cache_key(vary(TINY, n_antennas=3)) != _cache_key(TINY)

    @pytest.mark.parametrize("package", _SIMULATOR_PACKAGES)
    def test_one_source_byte_changes_key(self, tmp_path, monkeypatch, package):
        key = _cache_key(TINY)
        copy = self.simulator_copy(tmp_path / "edited", monkeypatch)
        source = sorted((copy / package).glob("*.py"))[-1]
        text = source.read_bytes()
        source.write_bytes(text[:-1] + bytes([text[-1] ^ 1]))
        assert _cache_key(TINY) != key


class TestBaselineZoo:
    def test_nine_flat_baselines(self):
        zoo = baseline_zoo(np.random.default_rng(0))
        assert len(zoo) == 9
        assert "Linear SVM" in zoo and "Bayesian Net" in zoo

    def test_eval_baselines_scores(self):
        ds = get_dataset(TINY)
        scores = eval_baselines(ds, split_seed=0, include_hmm=True, test_fraction=0.34)
        assert "HMM" in scores
        assert len(scores) == 10
        for value in scores.values():
            assert 0.0 <= value <= 1.0


class TestTrainEval:
    def test_train_eval_m2ai_runs(self):
        ds = get_dataset(TINY)
        cfg = M2AIConfig(
            conv_channels=(3, 4), branch_dim=6, merge_dim=8, lstm_hidden=6,
            lstm_layers=1, epochs=4, batch_size=4, warmup_frames=1,
        )
        result, pipeline = train_eval_m2ai(ds, cfg, split_seed=0, test_fraction=0.34)
        assert 0.0 <= result.accuracy <= 1.0
        assert pipeline.history is not None
        assert len(pipeline.history.loss) == 4
