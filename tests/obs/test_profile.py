"""The profiling harness writes a complete, well-formed benchmark artifact."""

from __future__ import annotations

import json

from repro.experiments.__main__ import main
from repro.experiments.store import BENCH_SCHEMA
from repro.obs import profile


def test_quick_profile_writes_required_stages(tmp_path):
    out = tmp_path / "BENCH_obs_realtime.json"
    rc = main(
        ["bench", "obs_realtime", "--seed", "3", "--repeat", "1", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text())

    assert doc["bench"] == "obs_realtime"
    assert doc["schema"] == BENCH_SCHEMA
    assert doc["mode"] == "quick"
    assert doc["seed"] == 3
    assert doc["required_stages"] == list(profile.REQUIRED_STAGES)
    for stage in profile.REQUIRED_STAGES:
        st = doc["stages"][stage]
        assert st["count"] >= 1
        assert 0.0 <= st["p50_ms"] <= st["p95_ms"] <= st["p99_ms"]

    rt = doc["realtime"]
    assert rt["window_s"] == 4.0
    assert rt["margin_x"] > 1.0, "window processing slower than real time"
    assert rt["window_p95_ms"] == doc["stages"]["streaming.window"]["p95_ms"]

    # The metrics export rides along so counters land in the artifact too.
    metric_names = {m["name"] for m in doc["metrics"]["metrics"]}
    assert "streaming.windows_total" in metric_names


def test_profile_leaves_instrumentation_disabled(tmp_path):
    from repro import obs

    out = tmp_path / "bench.json"
    main(["bench", "obs_realtime", "--seed", "5", "--repeat", "1", "--out", str(out)])
    assert not obs.is_enabled()
