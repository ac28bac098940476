"""The three benchmark workloads: set-up, measured phase and output checks.

Each workload is a :class:`Workload` with a ``setup(seed)`` that builds
the inputs and any trained state, and a ``measure(state, seconds,
min_units)`` that repeats the workload's unit of work until ``seconds``
have passed (and at least ``min_units`` ran), checking every output.

* ``corpus`` — unit: one cold sample build through
  ``SyntheticDatasetGenerator`` (simulate, ``PhaseCalibrator.fit``,
  featurise), cycling through the 12 scenarios.  Check: the digest of
  every read log and feature array is identical across the builds of
  each scenario.
* ``train`` — unit: ``M2AIPipeline.fit`` for a fixed epoch count, then
  ``evaluate`` on the held-out split.  Check: accuracy and a digest of
  the trained weights are identical across fits.
* ``serve`` — unit: a closed loop (every window of every stream queued,
  then drained) followed by open loops at a fixed low and a fixed high
  aggregate rate, the three phases cycled :data:`SERVE_CYCLES` times,
  through an inline 1-shard ``FleetServer`` serving a float32
  pipeline.  Check: every decision equals the single-stream
  ``StreamingIdentifier.identify`` reference computed in set-up.
"""

from __future__ import annotations

import hashlib
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from perfbench import inputs
from perfbench.inputs import (
    COMPACT_CLASSES,
    HELDOUT_FRACTION,
    PARITY_FRACTION,
    SERVE_WINDOW_S,
    TRAIN_WINDOW_S,
    Shape,
    sub_seed,
)
from repro.core.dataset import ActivityDataset
from repro.core.pipeline import M2AIPipeline
from repro.core.streaming import (
    REASON_ADMISSION,
    REASON_BREAKER_OPEN,
    REASON_DEADLINE,
    REASON_STAGE_FAILURE,
    StreamingIdentifier,
    WindowDecision,
    split_windows,
)
from repro.data import SyntheticDatasetGenerator, quick_training
from repro.dsp.calibration import PhaseCalibrator
from repro.dsp.music import clear_steering_cache
from repro.hardware.llrp import ReadLog
from repro.obs.tracing import span
from repro.serving import FleetServer

FAILURE_REASONS = frozenset(
    {REASON_STAGE_FAILURE, REASON_BREAKER_OPEN, REASON_DEADLINE, REASON_ADMISSION}
)
"""Abstain reasons that count as a failed window (the rest are answers)."""

WINDOW_DEADLINE_S = 2.0
"""Per-window supervisor deadline: generous, so a miss means a stall."""

CONFIDENCE_TOLERANCE = 1e-5
"""Allowed confidence difference between batched and reference decisions."""


@dataclass
class Outcome:
    """What one measured phase did and found.

    Attributes:
        attempted: operations attempted (samples, fits, windows).
        failed: operations that raised, produced non-finite output, or
            (serve) abstained for a failure reason or mismatched.
        checks: output check name -> passed.
        metrics: ``throughput_per_s`` and ``unit_mean_ms`` values.
        detail: the workload's own figures, ``{name: {value, unit, n}}``.
        probes: harness-measured per-layer values (serve only).
        outputs: deterministic outputs (digests, accuracy) for the
            repeat and hidden-state checks.
    """

    attempted: int = 0
    failed: int = 0
    checks: dict[str, bool] = field(default_factory=dict)
    metrics: dict[str, float] = field(default_factory=dict)
    detail: dict[str, dict] = field(default_factory=dict)
    probes: dict[str, float] = field(default_factory=dict)
    outputs: dict[str, object] = field(default_factory=dict)


def figure(value: float, unit: str, n: int | None = None) -> dict:
    """One detail-line entry: a value, its unit and its sample count."""
    entry: dict = {"value": float(value), "unit": unit}
    if n is not None:
        entry["n"] = int(n)
    return entry


def percentile_ms(samples_s: list[float], q: float) -> float:
    """The ``q``-th percentile of second-valued samples, in ms (0 if empty)."""
    return float(np.percentile(samples_s, q)) * 1e3 if samples_s else 0.0


def _report_exception(where: str) -> None:
    print(f"perfbench: {where} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


@dataclass(frozen=True)
class Workload:
    """A named workload: set-up and measured phase.

    Attributes:
        name: workload name.
        setup: ``(seed, shape) -> state``.
        measure: ``(state, seconds, min_units) -> Outcome``.
        timed_unit: True when one unit of work is itself time-boxed
            (serve's phases), so a traced run still needs ``seconds``;
            otherwise a traced pass runs exactly one unit.
    """

    name: str
    setup: Callable[[int, Shape], object]
    measure: Callable[..., Outcome]
    timed_unit: bool = False


# -- corpus ----------------------------------------------------------------


@dataclass
class CorpusState:
    configs: list


def corpus_setup(seed: int, shape: Shape) -> CorpusState:
    """Build the generator configs and render one warm-up sample."""
    clear_steering_cache()
    generator = SyntheticDatasetGenerator(inputs.warmup_config(seed))
    raws = generator.generate_raw()
    for raw in raws:
        raw.calibrator = PhaseCalibrator.fit(raw.calibration_log)
    generator.featurize(raws)
    return CorpusState(configs=inputs.corpus_configs(seed, shape))


def _corpus_sample(config) -> tuple[str, float, int, int]:
    """One cold sample build; returns (digest, seconds, attempted, failed)."""
    hasher = hashlib.sha256()
    attempted = config.samples_per_class * len(config.scenario_labels)
    failed = 0
    t0 = time.perf_counter()
    try:
        generator = SyntheticDatasetGenerator(config)
        raws = generator.generate_raw()
        for raw in raws:
            raw.calibrator = PhaseCalibrator.fit(raw.calibration_log)
        dataset = generator.featurize(raws)
    except Exception:
        elapsed = time.perf_counter() - t0
        _report_exception(f"corpus sample {config.scenario_labels}")
        return "raised", elapsed, attempted, attempted
    elapsed = time.perf_counter() - t0
    with span("perfbench.digest"):
        for raw, sample in zip(raws, dataset.samples):
            inputs.digest_log(hasher, raw.calibration_log)
            inputs.digest_log(hasher, raw.log)
            inputs.digest_frames(hasher, sample)
            if not all(np.isfinite(ch).all() for ch in sample.channels.values()):
                failed += 1
    return hasher.hexdigest(), elapsed, attempted, failed


def corpus_measure(state: CorpusState, seconds: float, min_units: int) -> Outcome:
    """Build samples cold, cycling through the scenarios, for ``seconds``.

    At least ``min_units`` passes over every scenario run, and each
    sample's digest must equal that of its scenario's earlier builds.
    Both figures are means over the whole run; :mod:`perfbench.metrics`
    says why.
    """
    digests: list[list[str]] = [[] for _ in state.configs]
    times: list[float] = []
    out = Outcome()
    n_scenarios = len(state.configs)
    t_start = time.perf_counter()
    k = 0
    while k < min_units * n_scenarios or time.perf_counter() - t_start < seconds:
        digest, elapsed, attempted, failed = _corpus_sample(state.configs[k % n_scenarios])
        digests[k % n_scenarios].append(digest)
        times.append(elapsed)
        out.attempted += attempted
        out.failed += failed
        k += 1
    rate = out.attempted / sum(times)
    sample_ms = 1e3 * sum(times) / len(times)
    out.checks["corpus.digest_repeats"] = all(len(set(d)) == 1 for d in digests)
    out.metrics = {"throughput_per_s": rate, "unit_mean_ms": sample_ms}
    out.detail = {
        "corpus.samples_per_s": figure(rate, "1/s", out.attempted),
        "corpus.sample_mean_ms": figure(sample_ms, "ms", len(times)),
        "corpus.sample_p50_ms": figure(percentile_ms(times, 50), "ms", len(times)),
        "corpus.passes": figure(len(times) / n_scenarios, "count"),
    }
    out.outputs = {"digest": hashlib.sha256("".join(d[0] for d in digests).encode()).hexdigest()}
    return out


# -- train -----------------------------------------------------------------


@dataclass
class TrainState:
    train: ActivityDataset
    heldout: ActivityDataset
    config: object


def train_setup(seed: int, shape: Shape) -> TrainState:
    """Simulate and featurise the session corpus; split off the held-out set."""
    clear_steering_cache()
    dataset = inputs.session_corpus(
        COMPACT_CLASSES,
        shape.train_sessions,
        shape.train_segments,
        TRAIN_WINDOW_S,
        shape.bootstrap_s,
        seed,
        "train",
    )
    train, heldout = dataset.split(
        HELDOUT_FRACTION, np.random.default_rng(sub_seed(seed, "train", "split"))
    )
    config = replace(quick_training(sub_seed(seed, "train", "model")), epochs=shape.train_epochs)
    return TrainState(train=train, heldout=heldout, config=config)


def _weights_digest(pipeline: M2AIPipeline) -> str:
    hasher = hashlib.sha256()
    inputs.digest_arrays(hasher, *(p.value for p in pipeline.model.parameters()))
    return hasher.hexdigest()


def train_measure(state: TrainState, seconds: float, min_units: int) -> Outcome:
    """Repeat fit + evaluate; accuracy and weights must repeat exactly."""
    fit_times: list[float] = []
    results: list[tuple[float, str]] = []
    out = Outcome()
    t_start = time.perf_counter()
    while len(fit_times) < min_units or time.perf_counter() - t_start < seconds:
        out.attempted += 1
        pipeline = M2AIPipeline(state.config)
        t0 = time.perf_counter()
        try:
            pipeline.fit(state.train)
            fit_times.append(time.perf_counter() - t0)
            accuracy = pipeline.evaluate(state.heldout).accuracy
        except Exception:
            _report_exception("train fit")
            out.failed += 1
            fit_times.append(time.perf_counter() - t0)
            continue
        if not np.all(np.isfinite(pipeline.history.loss)):
            out.failed += 1
        with span("perfbench.digest"):
            results.append((float(accuracy), _weights_digest(pipeline)))
    # Means over the whole run; perfbench.metrics says why.
    per_fit = len(state.train) * state.config.epochs
    sample_epochs = per_fit * len(fit_times)
    rate = sample_epochs / sum(fit_times)
    fit_ms = 1e3 * sum(fit_times) / len(fit_times)
    out.checks["train.accuracy_and_weights_repeat"] = len(set(results)) == 1
    accuracy = results[0][0] if results else float("nan")
    out.metrics = {"throughput_per_s": rate, "unit_mean_ms": fit_ms}
    out.detail = {
        "train.sample_epochs_per_s": figure(rate, "1/s", sample_epochs),
        "train.fit_mean_ms": figure(fit_ms, "ms", len(fit_times)),
        "train.fit_p50_ms": figure(percentile_ms(fit_times, 50), "ms", len(fit_times)),
        "train.accuracy": figure(accuracy, "ratio", len(state.heldout)),
        "train.n_train": figure(len(state.train), "count"),
        "train.epochs": figure(state.config.epochs, "count"),
    }
    out.outputs = {
        "accuracy": accuracy,
        "weights_digest": results[0][1] if results else "",
    }
    return out


# -- serve -----------------------------------------------------------------


@dataclass
class ServeState:
    """The trained float32 pipeline and the session every stream replays.

    Attributes:
        pipeline: fitted pipeline serving the float32 tier.
        calibrator: the session's phase calibrator.
        log: the session's activity reads (stream time).
        windows: the session cut into serving windows.
        reference: single-stream ``identify`` decision per window.
        streams: streams admitted to the fleet.
        low_rate: low open-loop aggregate rate, windows/s.
        high_rate: high open-loop aggregate rate, windows/s.
        label_accuracy: share of labelled reference decisions that
            name the segment's true activity.
        parity: the float32 parity gate's acceptance report.
    """

    pipeline: M2AIPipeline
    calibrator: PhaseCalibrator
    log: ReadLog
    windows: list[tuple[float, ReadLog]]
    reference: list[WindowDecision]
    streams: int
    low_rate: float
    high_rate: float
    label_accuracy: float
    parity: dict


def serve_setup(seed: int, shape: Shape, low_rate: float, high_rate: float) -> ServeState:
    """Train the pipeline, admit it to float32 and build the stream session."""
    clear_steering_cache()
    dataset = inputs.session_corpus(
        COMPACT_CLASSES,
        1,
        shape.serve_train_segments,
        SERVE_WINDOW_S,
        shape.bootstrap_s,
        seed,
        "serve-train",
    )
    train, parity = dataset.split(
        PARITY_FRACTION, np.random.default_rng(sub_seed(seed, "serve-train", "split"))
    )
    config = replace(quick_training(sub_seed(seed, "serve", "model")), epochs=shape.serve_epochs)
    pipeline = M2AIPipeline(config).fit(train)
    report = pipeline.set_serve_dtype("float32", parity=parity)
    labels = inputs.session_labels(
        COMPACT_CLASSES, shape.serve_segments, sub_seed(seed, "serve-stream", "labels")
    )
    session = inputs.simulate_session(
        labels, SERVE_WINDOW_S, shape.bootstrap_s, sub_seed(seed, "serve-stream", "session")
    )
    calibrator = PhaseCalibrator.fit(session.calibration_log)
    windows = inputs.session_windows(session)
    for start, window_log in windows:
        # The open loop submits one window at a time; the fleet must
        # cut exactly that window back out of it.
        again = split_windows(window_log, SERVE_WINDOW_S)
        if len(again) != 1 or abs(again[0][0] - start) > 1e-6:
            raise ValueError(f"window at {start:.3f} s does not re-window to itself")
    reference = StreamingIdentifier(
        pipeline, calibrator=calibrator, window_s=SERVE_WINDOW_S, serve_dtype="float32"
    ).identify(session.log)
    if [round(d.t_start_s, 6) for d in reference] != [round(s, 6) for s, _ in windows]:
        raise ValueError("reference decisions do not line up with the session windows")
    decided = [(d.label, label) for d, label in zip(reference, labels) if not d.abstained]
    return ServeState(
        pipeline=pipeline,
        calibrator=calibrator,
        log=session.log,
        windows=windows,
        reference=reference,
        streams=shape.streams,
        low_rate=float(low_rate),
        high_rate=float(high_rate),
        label_accuracy=(
            sum(got == want for got, want in decided) / len(decided) if decided else 0.0
        ),
        parity=report,
    )


@dataclass
class _Tally:
    """Running serve accounting shared by the three phases."""

    state: ServeState
    expected: dict[str, deque] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    ticks: int = 0
    decisions: int = 0
    latencies: list[float] = field(default_factory=list)
    queue_waits: list[float] = field(default_factory=list)

    def expect(self, stream_id: str, due: float, reference: WindowDecision) -> None:
        self.expected.setdefault(stream_id, deque()).append((due, reference))
        self.attempted += 1

    def tick(self, fleet: FleetServer, open_loop: bool) -> None:
        """One fleet tick; checks every decision, times open-loop ones."""
        tick_start = time.perf_counter()
        emitted = fleet.tick()
        tick_end = time.perf_counter()
        self.ticks += 1
        for stream_id, decisions in emitted.items():
            pending = self.expected.get(stream_id, deque())
            for decision in decisions:
                if not pending:  # a decision for no submitted window
                    self.mismatched += 1
                    self.failed += 1
                    continue
                due, reference = pending.popleft()
                self.decisions += 1
                if open_loop:
                    self.latencies.append(tick_end - due)
                    self.queue_waits.append(tick_start - due)
                if not _same_decision(decision, reference):
                    self.mismatched += 1
                    self.failed += 1
                elif decision.abstained and decision.reason in FAILURE_REASONS:
                    self.failed += 1

    def outstanding(self) -> int:
        return sum(len(q) for q in self.expected.values())


def _same_decision(got: WindowDecision, want: WindowDecision) -> bool:
    return (
        abs(got.t_start_s - want.t_start_s) < 1e-6
        and got.label == want.label
        and got.abstained == want.abstained
        and got.reason == want.reason
        and got.n_reads == want.n_reads
        and abs(got.confidence - want.confidence) <= CONFIDENCE_TOLERANCE
    )


def _stream_id(j: int) -> str:
    return f"stream-{j:03d}"


def _build_fleet(state: ServeState) -> FleetServer:
    pipeline = state.pipeline

    def identifier_factory() -> StreamingIdentifier:
        return StreamingIdentifier(pipeline, window_s=SERVE_WINDOW_S, serve_dtype="float32")

    fleet = FleetServer(
        identifier_factory,
        capacity=state.streams,
        n_shards=1,
        mode="inline",
        windows_per_stream_per_tick=4,
        supervisor_kwargs={"window_deadline_s": WINDOW_DEADLINE_S},
    )
    for j in range(state.streams):
        fleet.admit(_stream_id(j), calibrator=state.calibrator)
    return fleet


def _max_ticks(n_windows: int) -> int:
    return 10 * n_windows + 100


def _closed_loop(fleet: FleetServer, tally: _Tally, seconds: float) -> list[tuple[int, float]]:
    """Queue every window of every stream, drain; repeat for ``seconds``.

    Returns:
        ``(windows, elapsed_s)`` per round.
    """
    state = tally.state
    rounds: list[tuple[int, float]] = []
    t_start = time.perf_counter()
    while not rounds or time.perf_counter() - t_start < seconds:
        due = time.perf_counter()
        for j in range(state.streams):
            receipt = fleet.submit(_stream_id(j), state.log)
            if receipt.enqueued != len(state.reference):
                raise RuntimeError(
                    f"closed loop enqueued {receipt.enqueued} of "
                    f"{len(state.reference)} windows"
                )
            for reference in state.reference:
                tally.expect(_stream_id(j), due, reference)
        windows = state.streams * len(state.reference)
        for _ in range(_max_ticks(windows)):
            if fleet.total_queued() == 0:
                break
            tally.tick(fleet, open_loop=False)
        rounds.append((windows, time.perf_counter() - due))
    return rounds


def _wait_until(deadline: float) -> None:
    """Busy-wait until ``deadline`` on the ``perf_counter`` clock.

    A process that sleeps on a shared VM can wake tens of milliseconds
    late, and the open loop would charge that to the next window as
    latency; spinning keeps the generator on schedule.  The serving
    path runs on this same thread, so the spin takes no time from it.
    """
    while time.perf_counter() < deadline:
        pass


def _open_loop(
    fleet: FleetServer, tally: _Tally, rate: float, seconds: float
) -> tuple[list[float], list[float]]:
    """Submit windows on a fixed schedule; returns (latencies, lateness).

    Window ``k`` is due at ``k / rate`` and belongs to stream
    ``k % streams``; each stream replays the session's windows in a
    cycle, offset by its index so the streams differ at any moment.
    Latency runs from the due time to the end of the tick that
    decided the window.
    """
    state = tally.state
    n = max(1, int(round(rate * seconds)))
    first_latency = len(tally.latencies)
    lateness: list[float] = []
    cursor = list(range(state.streams))
    t0 = time.perf_counter()
    k = 0
    for _ in range(_max_ticks(n) + n):
        now = time.perf_counter()
        while k < n and t0 + k / rate <= now:
            j = k % state.streams
            index = cursor[j] % len(state.windows)
            cursor[j] += 1
            _, window_log = state.windows[index]
            due = t0 + k / rate
            lateness.append(now - due)
            receipt = fleet.submit(_stream_id(j), window_log)
            if receipt.enqueued != 1:
                raise RuntimeError(f"open loop enqueued {receipt.enqueued} windows, not 1")
            tally.expect(_stream_id(j), due, state.reference[index])
            k += 1
        if fleet.total_queued() > 0:
            tally.tick(fleet, open_loop=True)
        elif k < n:
            with span("perfbench.idle"):
                _wait_until(t0 + k / rate)
        else:
            break
    else:
        raise RuntimeError(f"open loop at {rate} windows/s did not drain")
    return tally.latencies[first_latency:], lateness


CLOSED_SHARE, LOW_SHARE, HIGH_SHARE = 0.4, 0.4, 0.2
"""How the measured seconds split between the three serve phases."""

SERVE_CYCLES = 6
"""The phases run interleaved, this many times each, so every phase
samples the whole run and a burst of host contention cannot land on
one phase alone."""


def serve_measure(state: ServeState, seconds: float, min_units: int) -> Outcome:
    """Closed loop, then open loop at the low and the high rate, cycled."""
    del min_units  # every phase always runs; the closed loop at least once
    fleet = _build_fleet(state)
    tally = _Tally(state)
    out = Outcome()
    rounds: list[tuple[int, float]] = []
    low: list[float] = []
    high: list[float] = []
    lateness: list[float] = []
    cycle_s = seconds / SERVE_CYCLES
    try:
        for _ in range(SERVE_CYCLES):
            rounds += _closed_loop(fleet, tally, CLOSED_SHARE * cycle_s)
            for rate, share, latencies in (
                (state.low_rate, LOW_SHARE, low),
                (state.high_rate, HIGH_SHARE, high),
            ):
                phase, late = _open_loop(fleet, tally, rate, share * cycle_s)
                latencies += phase
                lateness += late
    finally:
        fleet.stop()
    leftover = tally.outstanding()
    out.attempted = tally.attempted
    out.failed = tally.failed + leftover
    # Means over the whole run; perfbench.metrics says why.
    closed_windows = sum(n for n, _ in rounds)
    throughput = closed_windows / sum(elapsed for _, elapsed in rounds)
    low_mean_ms = 1e3 * sum(low) / len(low) if low else 0.0
    out.checks["serve.decisions_match_reference"] = tally.mismatched == 0 and leftover == 0
    out.metrics = {"throughput_per_s": throughput, "unit_mean_ms": low_mean_ms}
    out.detail = {
        "serve.throughput_wps": figure(throughput, "1/s", closed_windows),
        "serve.closed_rounds": figure(len(rounds), "count"),
        "serve.low.rate_wps": figure(state.low_rate, "1/s"),
        "serve.low.lat_mean_ms": figure(low_mean_ms, "ms", len(low)),
        "serve.low.lat_p50_ms": figure(percentile_ms(low, 50), "ms", len(low)),
        "serve.low.lat_p95_ms": figure(percentile_ms(low, 95), "ms", len(low)),
        "serve.high.rate_wps": figure(state.high_rate, "1/s"),
        "serve.high.lat_p50_ms": figure(percentile_ms(high, 50), "ms", len(high)),
        "serve.high.lat_p95_ms": figure(percentile_ms(high, 95), "ms", len(high)),
        "serve.generator_late_p95_ms": figure(percentile_ms(lateness, 95), "ms", len(lateness)),
        "serve.generator_late_max_ms": figure(
            max(lateness) * 1e3 if lateness else 0.0, "ms", len(lateness)
        ),
        "serve.label_accuracy": figure(state.label_accuracy, "ratio"),
        "serve.mismatched": figure(tally.mismatched, "count", tally.decisions),
    }
    out.probes = {
        "serving.windows_per_tick": tally.decisions / tally.ticks if tally.ticks else 0.0,
        "serving.queue_wait_p50_ms": percentile_ms(tally.queue_waits, 50),
        "serving.queue_wait_p95_ms": percentile_ms(tally.queue_waits, 95),
        "perfbench.generator_late_p95_ms": percentile_ms(lateness, 95),
    }
    out.outputs = {
        "reference": [(round(d.t_start_s, 6), d.label, d.reason) for d in state.reference],
        "parity_windows": state.parity.get("n_windows"),
    }
    return out


def workload(name: str, low_rate: float | None, high_rate: float | None) -> Workload:
    """The named workload, with the serve rates bound in.

    Raises:
        ValueError: on an unknown name, or ``serve`` without both rates.
    """
    if name == "corpus":
        return Workload(name, corpus_setup, corpus_measure)
    if name == "train":
        return Workload(name, train_setup, train_measure)
    if name == "serve":
        if low_rate is None or high_rate is None:
            raise ValueError("the serve workload needs --low-rate and --high-rate")
        return Workload(
            name,
            lambda seed, shape: serve_setup(seed, shape, low_rate, high_rate),
            serve_measure,
            timed_unit=True,
        )
    raise ValueError(f"unknown workload {name!r}")
