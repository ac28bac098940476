"""The experiment CLI and the repo scripts' plumbing (no heavy experiments)."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.experiments import __main__ as cli

REPO = Path(__file__).resolve().parents[1]


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(
        name, REPO / "scripts" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    assert spec.loader is not None
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class TestRunnerScript:
    """``python -m repro.experiments run`` (the one experiment CLI)."""

    def test_unknown_only_id_exits_with_valid_ids(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.parse_args(["run", "--only", "bogus"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "fig09" in err  # the valid ids are listed, not a KeyError

    def test_only_filters_and_full_selects_mode(self):
        args = cli.parse_args(["run", "--only", "fig09,fig02", "--full", "--seed", "3"])
        assert args.wanted == ["fig09", "fig02"]
        assert args.full and args.seed == 3
        assert [s.mode for s in cli.run_specs(args)] == ["full", "full"]

    def test_defaults_cover_whole_registry(self):
        from repro.experiments import default_registry

        args = cli.parse_args(["run"])
        assert args.wanted == list(default_registry())
        assert args.workers == 1
        assert not args.force
        assert not args.full  # quick by default, matching the spec default
        assert args.epochs is None

    def test_header_mentions_regeneration(self):
        from repro.experiments import EXPERIMENTS_HEADER

        assert "python -m repro.experiments run" in EXPERIMENTS_HEADER
        assert "paper vs measured" in EXPERIMENTS_HEADER

    def test_main_runs_a_toy_registry_end_to_end(
        self, tmp_path, monkeypatch, capsys
    ):
        from tests.experiments.toyreg import factory

        monkeypatch.setattr(cli, "default_registry", factory)
        out = tmp_path / "EXPERIMENTS.md"
        store = tmp_path / "store"
        argv = ["run", "--only", "toy", "--out", str(out), "--store", str(store)]

        assert cli.main(argv) == 0
        text = out.read_text()
        assert "toy experiment" in text
        assert "mode: quick, seed: 0)" in text

        # Second run serves the cell from the durable store.
        assert cli.main(argv) == 0
        assert "[skip]" in capsys.readouterr().out


class TestApiDocsGenerator:
    def test_committed_api_md_is_current(self, capsys):
        """The same invariant CI's `gen_api_docs.py --check` enforces."""
        gen = load_script("gen_api_docs")
        assert gen.main(["--check"]) == 0, "docs/API.md is stale"

    def test_every_public_module_is_documented(self):
        gen = load_script("gen_api_docs")
        text = (REPO / "docs" / "API.md").read_text()
        modules = gen.iter_public_modules()
        assert "repro.obs" in modules
        for name in modules:
            assert f"## `{name}`" in text

    def test_generator_is_deterministic(self):
        gen = load_script("gen_api_docs")
        assert gen.generate() == gen.generate()

    def test_check_flags_stale_output(self, tmp_path, monkeypatch, capsys):
        gen = load_script("gen_api_docs")
        stale = tmp_path / "API.md"
        stale.write_text("# out of date\n")
        monkeypatch.setattr(gen, "OUT_PATH", stale)
        assert gen.main(["--check"]) == 1
        assert "stale" in capsys.readouterr().err
