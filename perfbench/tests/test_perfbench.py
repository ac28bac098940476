"""The benchmark's own tests: definitions, seeding, hidden state, smoke runs.

Run with ``python -m pytest perfbench/tests -q`` from the repository
root.  The smoke runs drive ``perfbench/run.py --smoke`` in a fresh
interpreter each, exactly as the benchmark command is run.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import inputs, metrics, run, workloads
from perfbench.trace import ledger, ledger_balances, span_table
from repro.core.streaming import WindowDecision
from repro.obs.tracing import Span

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SMOKE_RATES = ["--low-rate", "20", "--high-rate", "60"]


def smoke(workload: str, seed: int = 1, trace: int = 0, env: dict | None = None):
    """Run one smoke benchmark; returns (exit code, detail, result)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke", *SMOKE_RATES],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    lines = proc.stdout.strip().splitlines()
    detail = next(
        json.loads(line[len("detail: "):]) for line in lines if line.startswith("detail: ")
    )
    return proc.returncode, detail, json.loads(lines[-1])


# -- definitions -----------------------------------------------------------


def test_benchmark_json_has_exactly_the_contract_keys():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert BENCHMARK["paths"] == ["perfbench"]
    assert 1 <= BENCHMARK["run_seconds"] <= 60
    assert all(set(w) == {"name", "why"} for w in BENCHMARK["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} for m in BENCHMARK["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in BENCHMARK["per_layer"])


def test_metric_names_and_counts_are_within_limits():
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += [w["name"] for w in BENCHMARK["workloads"]]
    assert all(metrics.NAME_RE.match(name) for name in names)
    assert len(names) == len(set(names))
    assert 1 <= len(BENCHMARK["end_to_end"]) <= 16
    assert 1 <= len(BENCHMARK["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    setup = {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
    assert setup in BENCHMARK["end_to_end"]


def test_benchmark_json_matches_the_metric_definitions():
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == metrics.WORKLOADS
    assert {
        m["name"]: (m["unit"], m["better"], m["bound"]) for m in BENCHMARK["end_to_end"]
    } == metrics.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == {
        name: spec[:2] for name, spec in metrics.PER_LAYER.items()
    }


def test_every_layer_metric_names_what_it_moves():
    end_to_end = {f"{m}@{w}" for m in metrics.END_TO_END for w in metrics.WORKLOADS}
    for name, (_unit, _better, moves, workload, no_change_on) in metrics.PER_LAYER.items():
        assert set(moves) <= end_to_end, name
        assert workload in set(metrics.WORKLOADS) | {"all"}, name
        assert set(no_change_on) <= set(metrics.WORKLOADS), name


# -- seeding and hidden state ----------------------------------------------


def test_seed_changes_the_generated_inputs():
    def session_digest(seed: int) -> str:
        labels = inputs.session_labels(inputs.COMPACT_CLASSES, 4, inputs.sub_seed(seed, "t"))
        session = inputs.simulate_session(labels, 4.0, 2.0, inputs.sub_seed(seed, "s"))
        hasher = hashlib.sha256(str(labels).encode())
        inputs.digest_log(hasher, session.log)
        return hasher.hexdigest()

    assert session_digest(1) == session_digest(1)
    assert session_digest(1) != session_digest(2)
    seeds = {c.seed for c in inputs.corpus_configs(1, inputs.FULL)}
    assert len(seeds) == len(inputs.FULL.corpus_labels)
    assert seeds.isdisjoint(c.seed for c in inputs.corpus_configs(2, inputs.FULL))


def test_different_seed_gives_different_inputs_and_the_same_metric_names():
    _, detail_a, result_a = smoke("train", seed=1)
    _, detail_b, result_b = smoke("train", seed=2)
    assert result_a["metrics"].keys() == result_b["metrics"].keys()
    assert detail_a["outputs"]["weights_digest"] != detail_b["outputs"]["weights_digest"]


def test_hidden_state_variables_change_nothing(tmp_path):
    clean = {k: v for k, v in os.environ.items() if k not in run.HIDDEN_STATE_VARS}
    junk = dict(
        clean,
        REPRO_CACHE_DIR=str(tmp_path / "junk-cache"),
        REPRO_BENCH_EPOCHS="999",
        REPRO_OBS="1",
    )
    for workload in ("corpus", "train"):
        code_a, detail_a, result_a = smoke(workload, env=clean)
        code_b, detail_b, result_b = smoke(workload, env=junk)
        assert code_a == code_b == 0
        assert detail_a["outputs"] == detail_b["outputs"]
        assert result_a["metrics"].keys() == result_b["metrics"].keys()
    assert not (tmp_path / "junk-cache").exists()


# -- runs ------------------------------------------------------------------


@pytest.mark.parametrize("workload", ["corpus", "train", "serve"])
def test_smoke_run_prints_every_end_to_end_metric(workload):
    code, detail, result = smoke(workload)
    assert code == 0, detail
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert all(detail["checks"].values())


@pytest.mark.parametrize("workload", ["corpus", "train", "serve"])
def test_traced_smoke_run_balances_its_ledger(workload):
    code, detail, result = smoke(workload, trace=1)
    assert code == 0, detail
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values.keys() == {m["name"] for m in BENCHMARK["per_layer"]}
    rows = [v for k, v in values.items() if k.startswith("ledger.")]
    assert sum(rows) == pytest.approx(values["trace.wall_ms"], rel=1e-9)
    assert values["trace.dropped_spans"] == 0
    assert detail["checks"]["trace.outputs_match_untraced"]
    assert detail["checks"]["trace.ledger_balances"]


def test_run_without_program_sources_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_a_failed_output_check_exits_nonzero(monkeypatch, capsys):
    for name in run.HIDDEN_STATE_VARS + run.BLAS_THREAD_VARS:
        monkeypatch.setenv(name, "")

    def measure(state, seconds, min_units):
        return workloads.Outcome(
            attempted=1,
            checks={"outputs_repeat": False},
            metrics={"throughput_per_s": 1.0, "unit_mean_ms": 1.0},
        )

    fake = workloads.Workload("train", lambda seed, shape: None, measure)
    monkeypatch.setattr(workloads, "workload", lambda *args: fake)
    code = run.main(["--workload", "train", "--seed", "1", "--seconds", "0", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and result["correct"] is False


def test_serve_check_rejects_a_changed_decision():
    base = WindowDecision(t_start_s=4.0, t_end_s=8.0, label="A01", confidence=0.9, n_reads=100)
    assert workloads._same_decision(base, base)
    for change in ({"label": "A03"}, {"confidence": 0.8}, {"t_start_s": 8.0}):
        assert not workloads._same_decision(WindowDecision(**{**vars(base), **change}), base)


# -- ledger ----------------------------------------------------------------


def test_ledger_rows_sum_to_the_traced_wall():
    child = Span(name="dsp.music", wall_ms=3.0)
    root = Span(name="core.predict", wall_ms=10.0, children=[child])
    table = span_table([root])
    assert table["core.predict"].self_ms == pytest.approx(7.0)
    rows = ledger(table, [root], 12.5)
    assert rows == pytest.approx({"core": 7.0, "dsp": 3.0, "unattributed": 2.5})
    assert ledger_balances(rows, 12.5)
    assert not ledger_balances(ledger(table, [root], 9.0), 9.0)
