"""Domain-shift workload: k-shot selection and bench assembly.

The full cell (two dataset generations + a training run) is exercised
by the CI bench step; here the cheap invariants are pinned: the k-shot
budget, input validation, the bench body's shape and the
gap-recovered ratio — assembled from fake records so no network trains
in the unit suite.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dataset import ActivityDataset
from repro.dsp.frames import FeatureFrames
from repro.eval import extensions
from repro.eval.extensions import k_shot_subset
from repro.experiments import ResultRecord, make_spec
from repro.experiments import domain_shift as ds
from repro.experiments.metrics import aggregate_records
from tests.experiments.toyreg import ToyResult, ToyRow


def toy_dataset(per_class=5, classes=("A", "B", "C"), seed=0):
    rng = np.random.default_rng(seed)
    samples = []
    for cls in classes:
        for _ in range(per_class):
            samples.append(
                FeatureFrames(
                    channels={"pseudo": rng.normal(size=(4, 2, 8))},
                    label=cls,
                )
            )
    return ActivityDataset(samples=samples)


class TestKShotSubset:
    def test_takes_k_per_class(self):
        subset = k_shot_subset(toy_dataset(per_class=5), k=2, seed=0)
        counts = {c: subset.labels.count(c) for c in subset.classes}
        assert counts == {"A": 2, "B": 2, "C": 2}

    def test_caps_at_class_size(self):
        subset = k_shot_subset(toy_dataset(per_class=3), k=10, seed=0)
        assert len(subset) == 9

    def test_seeded_and_deterministic(self):
        data = toy_dataset(per_class=5)
        a = k_shot_subset(data, k=2, seed=7)
        b = k_shot_subset(data, k=2, seed=7)
        c = k_shot_subset(data, k=2, seed=8)
        key = lambda d: [id(s) for s in d.samples]  # noqa: E731
        assert key(a) == key(b)
        assert key(a) != key(c)

    def test_k_must_be_positive(self):
        with pytest.raises(ValueError, match="k must be"):
            k_shot_subset(toy_dataset(), k=0, seed=0)


class TestRunDomainShiftValidation:
    def test_same_environment_rejected(self):
        with pytest.raises(ValueError, match="different environments"):
            extensions.run_domain_shift(source="hall", target="hall")

    def test_registered_in_default_registry(self):
        from repro.experiments import default_registry

        assert ds.EXPERIMENT_ID in default_registry()


def fake_cell(source, target, seed, same, cross, adapted, mode="quick", n_test=36):
    spec = make_spec(
        ds.EXPERIMENT_ID,
        mode,
        seed,
        gen_overrides={"source": source, "target": target},
    )
    result = ToyResult(
        experiment_id=ds.EXPERIMENT_ID,
        title=f"Domain shift: train {source}, test {target}",
        rows=[
            ToyRow(ds.ROW_SAME, None, same),
            ToyRow(ds.ROW_CROSS, None, cross),
            ToyRow(ds.ROW_ADAPTED, None, adapted),
            ToyRow("k (windows/class)", None, 2.0, unit="n"),
            ToyRow(ds.ROW_TEST_WINDOWS, None, float(n_test), unit="n"),
        ],
    )
    return ResultRecord.from_result(spec, result, elapsed_s=1.0)


class TestBenchAssembly:
    def fake_records(self):
        cells = []
        for source, target in ds.DIRECTIONS:
            for seed, (same, cross, adapted) in enumerate(
                [(0.9, 0.5, 0.7), (0.8, 0.4, 0.6)]
            ):
                cells.append(fake_cell(source, target, seed, same, cross, adapted))
        return cells

    def test_document_shape(self, monkeypatch):
        records = self.fake_records()
        monkeypatch.setattr(ds, "run_batch", lambda *a, **kw: records)
        doc = ds.run_domain_shift_bench(
            quick=True, seeds=(0, 1), workers=2, store=object.__new__(ds.ResultsStore)
        )
        assert "bench" not in doc  # the artifact writer adds the header
        assert set(doc["directions"]) == {
            "laboratory->hall",
            "hall->laboratory",
        }
        for stats in doc["directions"].values():
            assert stats["same_env"]["mean"] == pytest.approx(0.85)
            assert stats["cross_env"]["mean"] == pytest.approx(0.45)
            assert stats["k_shot_adapted"]["mean"] == pytest.approx(0.65)
            assert stats["transfer_gap"] == pytest.approx(0.4)
            assert stats["gap_recovered_frac"] == pytest.approx(0.5)
            assert stats["same_env"]["seeds"] == [0, 1]
        assert len(doc["cells"]) == 4

    def test_missing_arm_raises(self):
        record = self.fake_records()[0]
        record.rows = [r for r in record.rows if r["name"] != ds.ROW_CROSS]
        with pytest.raises(ValueError, match="cross-env"):
            ds._direction_summary(
                aggregate_records([record]), "laboratory", "hall"
            )

    def test_specs_cover_both_directions_and_seeds(self, monkeypatch):
        seen = {}

        def spy(specs, store, **kwargs):
            seen["specs"] = specs
            return self.fake_records()

        monkeypatch.setattr(ds, "run_batch", spy)
        ds.run_domain_shift_bench(
            quick=True, seeds=(0, 1), store=object.__new__(ds.ResultsStore)
        )
        combos = {
            (dict(s.gen_overrides)["source"], s.seed) for s in seen["specs"]
        }
        assert combos == {
            ("laboratory", 0),
            ("laboratory", 1),
            ("hall", 0),
            ("hall", 1),
        }


class TestGapRecovered:
    """``gap_recovered_frac`` is a ratio only over a gap of >= 1 window."""

    @pytest.mark.parametrize(
        "same, cross, adapted, n_test, expected",
        [
            # 1-point gap, 36-window split (one window = 2.8 points): the
            # ratio used to read -5.0 here.
            (0.51, 0.50, 0.45, 36, None),
            (0.5 + 1 / 36, 0.5, 0.5 + 0.5 / 36, 36, 0.5),  # exactly one window
            # Also exactly one window, but fl(1/3) - fl(11/36) < fl(1/36).
            (1 / 3, 11 / 36, 11 / 36 + 0.5 / 36, 36, 0.5),
            (0.9, 0.5, 0.7, 36, 0.5),
            (0.52, 0.5, 0.51, 50, 0.5),  # 2 points is a full window of 50
            (0.52, 0.5, 0.51, 36, None),
        ],
    )
    def test_null_below_one_held_out_window(self, same, cross, adapted, n_test, expected):
        record = fake_cell("laboratory", "hall", 0, same, cross, adapted, n_test=n_test)
        stats = ds._direction_summary(aggregate_records([record]), "laboratory", "hall")
        assert stats["transfer_gap"] == pytest.approx(same - cross)
        if expected is None:
            assert stats["gap_recovered_frac"] is None
        else:
            assert stats["gap_recovered_frac"] == pytest.approx(expected)
