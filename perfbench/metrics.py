"""Metric definitions: names, units, direction, and what each layer metric moves.

``BENCHMARK.json`` lists the same names; ``perfbench/tests`` checks the
two agree.  End-to-end metrics are printed by every untraced run, on
every workload, so each one is defined for all three workloads:

* ``setup_s`` — cold set-up, median of three: corpus, the generator
  plus one warm-up sample; train, the session corpus simulated and
  featurised; serve, the model trained and admitted to float32, the
  stream sessions simulated and the reference decisions computed.
* ``peak_rss_mb`` — peak resident memory of the whole process.
* ``throughput_per_s`` — labelled samples/s (corpus), sample-epochs/s
  (train), closed-loop windows/s (serve).
* ``unit_mean_ms`` — mean time per sample (corpus), mean time per
  ``fit`` (train), and mean window latency at the low rate (serve).

Both are means over the whole run, not medians.  The host's shared
cores change speed by up to ~1.5x, in spells of a few seconds to
minutes, so per-unit times are spread over two or more modes; a
median lands on whichever mode lasted longest in the run and jumps
between runs, where the mean moves in proportion to the time spent in
each.  Medians and p95s, with their sample counts, are on the
``detail:`` line.

The workload-specific figures the issue names (``train.accuracy``,
``serve.low.lat_p95_ms``, ...) are printed on the ``detail:`` line with
their sample counts; see :mod:`perfbench.workloads`.

Each per-layer metric maps to ``(unit, better, moves, workload,
no_change_on)``: the end-to-end metrics it should move (as
``metric@workload``), the workload whose traced run exercises it, and
the workloads on which no change is predicted (the layer is bypassed,
or paid only in set-up).  A traced run prints every per-layer metric;
a layer its workload bypasses reads 0.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
"""Allowed metric and workload names."""

WORKLOADS = {
    "corpus": (
        "cold build of a 12-scenario quick_generation corpus (simulate, "
        "PhaseCalibrator.fit, featurise): the experiment loop's dominant cost; "
        "bypasses nn and serving"
    ),
    "train": (
        "M2AIPipeline.fit (quick_training shape, fixed epochs) on a corpus "
        "featurised in set-up, then evaluate: nn forward+backward; bypasses "
        "channel, dsp and serving"
    ),
    "serve": (
        "float32 pipeline behind an inline 1-shard FleetServer, 16 streams: "
        "closed loop, then open loop at fixed low and high rates; bypasses "
        "channel and training"
    ),
}

END_TO_END = {
    # name: (unit, better, bound)
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "throughput_per_s": ("1/s", "higher", 0.25),
    "unit_mean_ms": ("ms", "lower", 0.25),
}

_CORPUS = "corpus"
_TRAIN = "train"
_SERVE = "serve"
_SIM = (
    "throughput_per_s@corpus",
    "unit_mean_ms@corpus",
    "setup_s@corpus",
    "setup_s@train",
    "setup_s@serve",
)
_SERVE_E2E = ("throughput_per_s@serve", "unit_mean_ms@serve")
_FIT = ("throughput_per_s@train", "unit_mean_ms@train")

PER_LAYER = {
    # name: (unit, better, moves, workload, no_change_on)
    "motion.build_instance.busy_ms": ("ms", "lower", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "channel.one_way_gain.calls": ("count", "lower", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "channel.one_way_gain.steps": ("count", "lower", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "channel.one_way_gain.self_ms": ("ms", "lower", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "hardware.inventory.slots": ("count", "lower", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "hardware.inventory.reads": ("count", "higher", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "hardware.inventory.self_ms": ("ms", "lower", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "hardware.read_yield": ("ratio", "higher", _SIM, _CORPUS, (_TRAIN, _SERVE)),
    "dsp.calibration_fit.busy_ms": (
        "ms", "lower", ("throughput_per_s@corpus", "unit_mean_ms@corpus"), _CORPUS, (_TRAIN, _SERVE),
    ),
    "dsp.calibrate.busy_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_TRAIN,)),
    "dsp.featurize.windows": ("count", "higher", _SERVE_E2E, _SERVE, (_TRAIN,)),
    "dsp.featurize.busy_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_TRAIN,)),
    "dsp.frames.self_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_TRAIN,)),
    "dsp.music.self_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_TRAIN,)),
    "dsp.periodogram.self_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_TRAIN,)),
    "dsp.steering_cache.hit_ratio": ("ratio", "higher", _SERVE_E2E, _SERVE, (_TRAIN,)),
    **{
        f"nn.{layer}.fwd_self_ms": (
            "ms", "lower", _FIT + ("throughput_per_s@serve",), _TRAIN, (_CORPUS,),
        )
        for layer in ("conv1d", "dense", "relu", "lstm")
    },
    **{
        f"nn.{layer}.bwd_self_ms": ("ms", "lower", _FIT, _TRAIN, (_SERVE, _CORPUS))
        for layer in ("conv1d", "dense", "relu", "lstm")
    },
    "nn.optimizer.self_ms": ("ms", "lower", _FIT, _TRAIN, (_SERVE, _CORPUS)),
    "core.fit.busy_ms": ("ms", "lower", _FIT, _TRAIN, (_SERVE, _CORPUS)),
    "core.predict.calls": ("count", "lower", ("throughput_per_s@serve",), _SERVE, (_CORPUS,)),
    "core.predict.rows": ("count", "higher", ("throughput_per_s@serve",), _SERVE, (_CORPUS,)),
    "core.predict.rows_per_call": (
        "ratio", "higher", ("throughput_per_s@serve", "unit_mean_ms@serve"), _SERVE, (_CORPUS,),
    ),
    "core.predict.busy_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_CORPUS,)),
    "streaming.prepare.busy_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "serving.tick.calls": ("count", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "serving.tick.self_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "serving.windows_per_tick": (
        "ratio", "higher", ("throughput_per_s@serve",), _SERVE, (_CORPUS, _TRAIN),
    ),
    "serving.queue_wait_p50_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "serving.queue_wait_p95_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "serving.batch_fallbacks": ("count", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "runtime.shed": ("count", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "runtime.deadline_exceeded": ("count", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "runtime.breaker_trips": ("count", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "runtime.retries": ("count", "lower", _SIM + _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
    "perfbench.generator_late_p95_ms": ("ms", "lower", _SERVE_E2E, _SERVE, (_CORPUS, _TRAIN)),
}

LEDGER_LAYERS = (
    "motion",
    "channel",
    "hardware",
    "dsp",
    "nn",
    "core",
    "streaming",
    "runtime",
    "serving",
    "perfbench",
    "other",
)
"""Ledger rows: every span's self time lands in exactly one of these."""

for _layer in LEDGER_LAYERS:
    PER_LAYER[f"ledger.{_layer}.self_ms"] = ("ms", "lower", (), "all", ())
PER_LAYER.update(
    {
        "ledger.unattributed_ms": ("ms", "lower", (), "all", ()),
        "trace.wall_ms": ("ms", "lower", (), "all", ()),
        "trace.untraced_wall_ms": ("ms", "lower", (), "all", ()),
        "trace.overhead_ms": ("ms", "lower", (), "all", ()),
        "trace.dropped_spans": ("count", "lower", (), "all", ()),
    }
)
