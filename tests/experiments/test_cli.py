"""The experiment CLI: budgets in the spec key, bench flags, one writer."""

from __future__ import annotations

import json

import pytest

from repro.experiments import __main__ as cli
from repro.experiments.store import BENCH_SCHEMA, write_bench

HEADER = {"bench", "schema", "mode", "seed", "epochs_cap"}


class TestRunBudget:
    def test_epochs_budget_is_part_of_the_key(self):
        plain = cli.run_specs(cli.parse_args(["run", "--only", "fig09"]))
        trimmed = cli.run_specs(cli.parse_args(["run", "--only", "fig09", "--epochs", "15"]))
        assert [s.exp_id for s in plain] == [s.exp_id for s in trimmed] == ["fig09"]
        assert trimmed[0].overrides_dict() == {"epochs": 15}
        assert plain[0].key != trimmed[0].key

    @pytest.mark.parametrize("budget", ["0", "-5", "x"])
    def test_non_positive_budget_exits_2(self, budget):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["run", "--only", "fig02", "--epochs", budget])
        assert exc.value.code == 2

    def test_no_budget_means_no_override(self):
        (spec,) = cli.run_specs(cli.parse_args(["run", "--only", "fig02"]))
        assert spec.mode == "quick"
        assert spec.overrides_dict() == {}


class TestBenchFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["bench", "ext_serving", "--repeat", "2"],
            ["bench", "ext_resilience", "--workers", "2"],
            ["bench", "ext_domain_shift", "--force"],
            ["bench", "ext_resilience", "--epochs", "0"],
            ["bench", "ext_serving", "--epochs", "-5"],
            ["bench", "obs_realtime", "--store", "x"],
            ["bench", "obs_realtime", "--epochs", "15"],
            ["bench", "no_such_bench"],
        ],
    )
    def test_inapplicable_flags_exit_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(argv)
        assert exc.value.code == 2


_RUNNERS = {
    "obs_realtime": ("repro.obs.profile", "run_profile"),
    "ext_resilience": ("repro.eval.resilience", "run_resilience_bench"),
    "ext_serving": ("repro.eval.serving", "run_serving_bench"),
    "ext_domain_shift": ("repro.experiments.domain_shift", "run_domain_shift_bench"),
}


class TestBenchArtifacts:
    @pytest.mark.parametrize("name", sorted(_RUNNERS))
    def test_every_bench_writes_one_header(self, name, tmp_path, monkeypatch, capsys):
        import importlib

        module_name, runner = _RUNNERS[name]
        module = importlib.import_module(module_name)
        seen = {}

        def fake(**kwargs):
            seen.update(kwargs)
            return {"epochs": 7, "body": [1, 2]}

        monkeypatch.setattr(module, runner, fake)
        monkeypatch.setattr(module, "bench_summary", lambda doc: "summary line\n")
        out = tmp_path / "out.json"
        argv = ["bench", name, "--seed", "4", "--out", str(out)]
        budget = None if name == "obs_realtime" else 15
        if budget is not None:
            argv += ["--epochs", str(budget)]
        assert cli.main(argv) == 0

        doc = json.loads(out.read_text())
        assert list(doc)[:5] == ["bench", "schema", "mode", "seed", "epochs_cap"]
        assert (doc["bench"], doc["schema"], doc["mode"], doc["seed"]) == (
            name, BENCH_SCHEMA, "quick", 4
        )
        assert doc["epochs_cap"] == budget
        assert doc["epochs"] == 7 and doc["body"] == [1, 2]  # body keys stay top level
        assert seen["quick"] is True
        if budget is not None:
            assert seen["epochs"] == budget
        assert capsys.readouterr().out == f"wrote {out}\nsummary line\n"
        assert not list(tmp_path.glob("*.tmp"))


class TestWriteBench:
    def test_header_then_body(self, tmp_path):
        out = tmp_path / "BENCH_x.json"
        write_bench(out, "x", {"cells": []}, "full", 2, None)
        doc = json.loads(out.read_text())
        assert set(doc) == HEADER | {"cells"}
        assert doc["mode"] == "full" and doc["epochs_cap"] is None

    @pytest.mark.parametrize("key", sorted(HEADER))
    def test_body_cannot_shadow_the_header(self, tmp_path, key):
        out = tmp_path / "BENCH_x.json"
        with pytest.raises(ValueError, match="header"):
            write_bench(out, "x", {key: 1}, "quick", 0, None)
        assert not out.exists()
