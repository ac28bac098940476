#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload serve --seed 1 --seconds 30 --trace 1 \\
        --low-rate 50 --high-rate 260

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end metrics (tracing off);
with ``--trace 1`` they are the per-layer metrics of a traced pass,
measured after an identical untraced pass so the tracing overhead is
its own number.  The lines before it record the host, the settings and
the workload's own figures with their sample counts.  The exit code is
0 only when every output check passed and nothing failed.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

HIDDEN_STATE_VARS = ("REPRO_CACHE_DIR", "REPRO_BENCH_EPOCHS", "REPRO_OBS")
"""Environment the library may consult; the benchmark removes it."""

MIN_REPEATS = 2
"""Units a timed run measures at least: the repeat checks compare two."""

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
"""BLAS threads, fixed before numpy loads so runs compare on any host."""


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    """The command line; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "train", "serve"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--low-rate", type=float, help="serve: low open-loop rate, windows/s")
    parser.add_argument("--high-rate", type=float, help="serve: high open-loop rate, windows/s")
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for tests")
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Drop hidden-state variables and fix the BLAS thread count."""
    for name in HIDDEN_STATE_VARS:
        os.environ.pop(name, None)
    for name in BLAS_THREAD_VARS:
        os.environ[name] = str(BLAS_THREADS)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> str:
    """The checked-out commit, read from ``.git`` (``unknown`` outside git)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_fingerprint() -> dict:
    """CPU, core count, interpreter, numpy and BLAS of this run."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
    }


def _json_safe(obj: object) -> object:
    """``obj`` with non-finite floats replaced by None (strict JSON)."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    return obj


def _metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def run_timed(wl, shape, args) -> tuple[dict, object]:
    """Set up ``setup_repeats`` times, then measure with tracing off."""
    from perfbench.metrics import END_TO_END
    from repro import obs

    obs.disable()
    setup_times = []
    state = None
    for _ in range(shape.setup_repeats):
        state = None
        gc.collect()
        t0 = time.perf_counter()
        state = wl.setup(args.seed, shape)
        setup_times.append(time.perf_counter() - t0)
    outcome = wl.measure(state, args.seconds, MIN_REPEATS)
    values = dict(outcome.metrics)
    values["setup_s"] = statistics.median(setup_times)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcome.detail["setup_s"] = {
        "value": values["setup_s"],
        "unit": "s",
        "n": len(setup_times),
        "all": setup_times,
    }
    units = {name: unit for name, (unit, _better, _bound) in END_TO_END.items()}
    return _metric_block(values, units), outcome


def run_traced(wl, shape, args) -> tuple[dict, object]:
    """An untraced pass, then the same work traced; per-layer metrics."""
    from perfbench.metrics import PER_LAYER
    from perfbench.trace import (
        entry_point_spans,
        layer_metrics,
        ledger,
        ledger_balances,
        span_table,
    )
    from repro import obs

    obs.disable()
    state = wl.setup(args.seed, shape)
    # A time-boxed unit splits the run length between the two passes.
    seconds = args.seconds / 2 if wl.timed_unit else 0.0
    t0 = time.perf_counter()
    untraced = wl.measure(state, seconds, 1)
    untraced_ms = (time.perf_counter() - t0) * 1e3

    obs.reset()
    obs.enable()
    try:
        with obs.nn_layer_spans(), entry_point_spans() as probe:
            t0 = time.perf_counter()
            traced = wl.measure(state, seconds, 1)
            traced_ms = (time.perf_counter() - t0) * 1e3
    finally:
        obs.disable()
    collector = obs.get_collector()
    dropped = collector.dropped
    roots = collector.drain()
    counters: dict[str, float] = {}
    for metric in obs.get_registry().collect():
        entry = metric.as_dict()
        if entry["kind"] == "counter":
            counters[entry["name"]] = counters.get(entry["name"], 0.0) + entry["value"]
    dropped += counters.get("obs.dropped_observations_total", 0.0)

    table = span_table(roots)
    rows = ledger(table, roots, traced_ms)
    values = {name: 0.0 for name in PER_LAYER}
    values.update(layer_metrics(table, rows, counters, probe))
    values.update(traced.probes)
    values.update(
        {
            "trace.wall_ms": traced_ms,
            "trace.untraced_wall_ms": untraced_ms,
            "trace.overhead_ms": traced_ms - untraced_ms,
            "trace.dropped_spans": float(dropped),
        }
    )
    traced.checks.update({f"untraced.{k}": v for k, v in untraced.checks.items()})
    traced.checks["trace.outputs_match_untraced"] = traced.outputs == untraced.outputs
    traced.checks["trace.no_dropped_spans"] = dropped == 0
    traced.checks["trace.ledger_balances"] = ledger_balances(rows, traced_ms)
    traced.attempted += untraced.attempted
    traced.failed += untraced.failed
    traced.detail.update({
        "trace.spans": {
            name: {"calls": s.calls, "self_ms": s.self_ms} for name, s in sorted(table.items())
        },
        "trace.overhead_pct": {
            "value": 100.0 * (traced_ms - untraced_ms) / untraced_ms,
            "unit": "%",
        },
    })
    units = {name: spec[0] for name, spec in PER_LAYER.items()}
    return _metric_block(values, units), traced


def main(argv: list[str] | None = None) -> int:
    """Run the selected workload; print host, settings, detail, result."""
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench.inputs import FULL, SMOKE
    from perfbench.workloads import workload

    shape = SMOKE if args.smoke else FULL
    try:
        wl = workload(args.workload, args.low_rate, args.high_rate)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    settings = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "low_rate": args.low_rate,
        "high_rate": args.high_rate,
        "smoke": args.smoke,
        "shape": vars(shape),
    }
    print("host: " + json.dumps(host_fingerprint()))
    print("settings: " + json.dumps(settings))
    runner = run_traced if args.trace else run_timed
    metrics, outcome = runner(wl, shape, args)
    correct = all(outcome.checks.values()) and outcome.failed == 0
    detail = {
        "checks": outcome.checks,
        "figures": outcome.detail,
        "outputs": outcome.outputs,
    }
    print("detail: " + json.dumps(_json_safe(detail), allow_nan=False))
    result = {
        "correct": bool(correct),
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": metrics,
    }
    print(json.dumps(result, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
