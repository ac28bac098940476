"""Invariants of recorded experiment results.

Records are produced the way the benchmark suite produces them —
``run_one`` on a budgeted spec, then ``ResultsStore.put`` — on the
cheap drivers (fig02, fig03, ext-hub; well under a second together),
into a temporary store.
"""

from __future__ import annotations

import pytest

from repro.eval import ALL_EXPERIMENTS
from repro.experiments import ResultsStore, make_spec, render_block, run_one

CHEAP_IDS = ("fig02", "fig03", "ext-hub")


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    store = ResultsStore(tmp_path_factory.mktemp("store"))
    for exp_id in CHEAP_IDS:
        spec = make_spec(exp_id, "quick", 0, train_overrides={"epochs": 15})
        store.put(run_one(spec))
    return store


class TestRecordedState:
    def test_blocks_render_their_ids(self, store):
        records = store.records()
        assert sorted(r.spec.exp_id for r in records) == sorted(CHEAP_IDS)
        for record in records:
            assert record.spec.exp_id in record.block, f"{record.spec.exp_id} block lacks its id"

    def test_blocks_have_measured_column(self, store):
        for record in store.records():
            assert "measured" in record.block, record.spec.exp_id

    def test_known_ids_only(self, store):
        unknown = {r.spec.exp_id for r in store.records()} - set(ALL_EXPERIMENTS)
        assert not unknown, f"unknown experiment ids recorded: {unknown}"

    def test_trimmed_budget_labels_itself(self, store):
        for record in store.records():
            assert "overrides: epochs=15)" in render_block(record)
