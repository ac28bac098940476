"""Spec content-hashing and record serialisation."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experiments import ExperimentSpec, ResultRecord, make_spec
from tests.experiments.toyreg import run_toy


class TestSpecKeys:
    def test_key_is_stable(self):
        a = make_spec("fig09", "quick", 3, gen_overrides={"x": 1, "y": "z"})
        b = make_spec("fig09", "quick", 3, gen_overrides={"y": "z", "x": 1})
        assert a == b
        assert a.key == b.key

    def test_key_separates_every_axis(self):
        base = make_spec("fig09", "quick", 0)
        variants = [
            make_spec("fig10", "quick", 0),
            make_spec("fig09", "full", 0),
            make_spec("fig09", "quick", 1),
            make_spec("fig09", "quick", 0, gen_overrides={"k": 1}),
            make_spec("fig09", "quick", 0, train_overrides={"k": 1}),
        ]
        keys = {base.key} | {v.key for v in variants}
        assert len(keys) == len(variants) + 1

    def test_key_names_the_triple(self):
        spec = make_spec("fig09", "full", 7)
        assert spec.key.startswith("fig09--full--s7--")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            make_spec("fig09", "fast", 0)

    def test_non_scalar_override_rejected(self):
        with pytest.raises(TypeError, match="JSON scalar"):
            make_spec("fig09", gen_overrides={"bad": [1, 2]})

    def test_override_collision_rejected(self):
        spec = make_spec(
            "fig09", gen_overrides={"k": 1}, train_overrides={"k": 2}
        )
        with pytest.raises(ValueError, match="both"):
            spec.overrides_dict()

    def test_payload_roundtrip(self):
        spec = make_spec("toy", "full", 5, gen_overrides={"scale": 2.0})
        clone = ExperimentSpec.from_payload(
            json.loads(json.dumps(spec.payload()))
        )
        assert clone == spec
        assert clone.key == spec.key


class TestResultRecord:
    def make_record(self, elapsed=1.5):
        spec = make_spec("toy", "quick", 2)
        return ResultRecord.from_result(spec, run_toy(seed=2), elapsed)

    def test_json_roundtrip(self):
        record = self.make_record()
        clone = ResultRecord.from_json(record.to_json())
        assert clone.to_payload() == record.to_payload()

    def test_content_digest_ignores_timing(self):
        assert (
            self.make_record(1.0).content_digest()
            == self.make_record(99.0).content_digest()
        )

    def test_content_digest_sees_rows(self):
        spec = make_spec("toy", "quick", 2)
        a = ResultRecord.from_result(spec, run_toy(seed=2), 1.0)
        b = ResultRecord.from_result(spec, run_toy(seed=3), 1.0)
        assert a.content_digest() != b.content_digest()

    def test_from_json_rejects_key_mismatch(self):
        record = self.make_record()
        payload = record.to_payload()
        payload["key"] = "tampered"
        with pytest.raises(ValueError, match="content key"):
            ResultRecord.from_json(json.dumps(payload))

    def test_from_json_rejects_non_record(self):
        with pytest.raises(ValueError):
            ResultRecord.from_json('["not", "a", "record"]')

    def test_measured_by_name(self):
        assert self.make_record().measured_by_name() == {"value": 21.0}


_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**6), 10**6),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
_NAMES = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8)
_OVERRIDES = st.dictionaries(_NAMES, _SCALARS, max_size=3)
_SPECS = st.builds(
    make_spec,
    exp_id=st.text(min_size=1, max_size=12),
    mode=st.sampled_from(["quick", "full"]),
    seed=st.integers(0, 10**6),
    gen_overrides=_OVERRIDES,
    train_overrides=_OVERRIDES,
)


def _with_override(spec, field, name, value):
    overrides = {
        "gen_overrides": dict(spec.gen_overrides),
        "train_overrides": dict(spec.train_overrides),
    }
    overrides[field][name] = value
    return make_spec(spec.exp_id, spec.mode, spec.seed, **overrides)


class TestKeyCompleteness:
    """Any input that changes what a cell computes changes its key."""

    @settings(max_examples=200, deadline=None)
    @given(spec=_SPECS, data=st.data())
    def test_changing_any_field_changes_the_key(self, spec, data):
        field = data.draw(
            st.sampled_from(["exp_id", "mode", "seed", "gen_overrides", "train_overrides"])
        )
        if field == "exp_id":
            other = replace(spec, exp_id=data.draw(st.text(min_size=1, max_size=12)))
        elif field == "mode":
            other = replace(spec, mode="full" if spec.mode == "quick" else "quick")
        elif field == "seed":
            other = replace(spec, seed=data.draw(st.integers(0, 10**6)))
        else:
            name, value = data.draw(_NAMES), data.draw(_SCALARS)
            other = _with_override(spec, field, name, value)
        assume(other.payload() != spec.payload())
        assert other.key != spec.key

    @settings(max_examples=100, deadline=None)
    @given(spec=_SPECS, epochs=st.integers(1, 500))
    def test_training_budget_changes_the_key(self, spec, epochs):
        assume(dict(spec.train_overrides).get("epochs") != epochs)
        assert _with_override(spec, "train_overrides", "epochs", epochs).key != spec.key
