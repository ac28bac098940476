"""Traced runs: entry-point spans, per-layer self times and the ledger.

A traced run arms ``repro.obs`` tracing and ``nn_layer_spans`` and, for
the public entry points that carry no span of their own, wraps them in
spans from outside the program (:func:`entry_point_spans`); every patch
is restored on exit.  Spans stay in the in-memory collector until the
run ends.

A span's *self* time is its wall time minus the wall time of its
children (children on one thread never overlap).  Every span belongs
to one ledger layer by its name prefix, so the per-layer self times
plus the ``unattributed`` row (traced wall minus the root spans) sum to
the traced wall time exactly; :func:`ledger_balances` checks that.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from repro.obs.tracing import Span, span

LAYER_PREFIXES = (
    ("motion.", "motion"),
    ("channel.", "channel"),
    ("hardware.", "hardware"),
    ("ingest.", "hardware"),
    ("hub.", "hardware"),
    ("dsp.", "dsp"),
    ("nn.", "nn"),
    ("core.", "core"),
    ("train.", "core"),
    ("streaming.", "streaming"),
    ("runtime.", "runtime"),
    ("serving.", "serving"),
    ("perfbench.", "perfbench"),
)


def layer_of(span_name: str) -> str:
    """The ledger layer a span name belongs to (``other`` if none)."""
    for prefix, layer in LAYER_PREFIXES:
        if span_name.startswith(prefix):
            return layer
    return "other"


@dataclass
class SpanStats:
    """Aggregate of every span sharing one name."""

    calls: int = 0
    wall_ms: float = 0.0
    self_ms: float = 0.0
    attrs: dict[str, float] = field(default_factory=lambda: defaultdict(float))


def span_table(roots: list[Span]) -> dict[str, SpanStats]:
    """Per-name call count, wall time, self time and summed numeric attrs."""
    table: dict[str, SpanStats] = defaultdict(SpanStats)
    stack = list(roots)
    while stack:
        s = stack.pop()
        stats = table[s.name]
        stats.calls += 1
        stats.wall_ms += s.wall_ms
        stats.self_ms += s.wall_ms - sum(c.wall_ms for c in s.children)
        for key, value in s.attrs.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                stats.attrs[key] += float(value)
        stack.extend(s.children)
    return dict(table)


def ledger(table: dict[str, SpanStats], roots: list[Span], wall_ms: float) -> dict[str, float]:
    """Self time per layer plus ``unattributed`` (wall minus the root spans)."""
    rows: dict[str, float] = defaultdict(float)
    for name, stats in table.items():
        rows[layer_of(name)] += stats.self_ms
    out = dict(rows)
    out["unattributed"] = wall_ms - sum(root.wall_ms for root in roots)
    return out


def ledger_balances(rows: dict[str, float], wall_ms: float) -> bool:
    """True when the rows sum to ``wall_ms`` and nothing is negative.

    A negative ``unattributed`` row means a root span lasted longer
    than the run that should contain it.
    """
    tolerance = 1e-6 * max(wall_ms, 1.0)
    return abs(sum(rows.values()) - wall_ms) <= tolerance and min(rows.values()) >= -tolerance


# -- entry-point spans ---------------------------------------------------


@dataclass
class SteeringProbe:
    """Steering-matrix cache lookups and misses seen while armed."""

    lookups: int = 0
    misses: int = 0
    _depth: int = 0

    @property
    def hit_ratio(self) -> float:
        """Share of lookups served from the cache (0 with no lookups)."""
        return 1.0 - self.misses / self.lookups if self.lookups else 0.0


class _Patches:
    """Attribute patches undone in reverse order."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def set_class_attr(self, cls: type, name: str, value: object) -> None:
        # Restore the class's own entry, not an inherited lookup.
        self._undo.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def restore(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)


def _spanned(
    orig: Callable,
    span_name: str,
    before: Callable[[inspect.BoundArguments], dict] | None = None,
    after: Callable[[object], dict] | None = None,
) -> Callable:
    """Wrap ``orig`` so every call runs inside ``span_name``."""
    signature = inspect.signature(orig)

    @functools.wraps(orig)
    def wrapper(*args: object, **kwargs: object) -> object:
        attrs = before(signature.bind(*args, **kwargs)) if before else {}
        with span(span_name, **attrs) as live:
            out = orig(*args, **kwargs)
            if after is not None:
                live.set(**after(out))
            return out

    return wrapper


def _inventory_attrs(bound: inspect.BoundArguments) -> dict:
    """TDM slots and tag-slots one ``Reader.inventory`` call attempts."""
    args = bound.arguments
    slots = int(round(args["duration_s"] / args["self"].config.slot_s))
    return {"slots": slots, "tag_slots": slots * len(args["scene"].tag_tracks)}


def _one_window(bound: inspect.BoundArguments) -> dict:
    return {"windows": 1}


def _many_windows(bound: inspect.BoundArguments) -> dict:
    return {"windows": len(bound.arguments["windows"])}


def _patch_function_everywhere(patches: _Patches, orig: Callable, wrapper: Callable) -> None:
    """Replace every module-level reference to ``orig`` with ``wrapper``."""
    name = orig.__name__
    for module in list(sys.modules.values()):
        if module is not None and vars(module).get(name) is orig:
            patches.set(module, name, wrapper)


@contextmanager
def entry_point_spans() -> Iterator[SteeringProbe]:
    """Span the public entry points that have none; restore them on exit.

    Yields:
        The steering-cache probe, counting lookups and misses.
    """
    from repro.channel.model import MultipathChannel
    from repro.core.pipeline import M2AIPipeline
    from repro.core.streaming import StreamingIdentifier
    from repro.dsp import music
    from repro.dsp.features import M2AIFeaturizer
    from repro.hardware.reader import Reader
    from repro.motion import scenarios
    from repro.serving.fleet import FleetServer

    patches = _Patches()
    probe = SteeringProbe()
    try:
        _patch_function_everywhere(
            patches,
            scenarios.build_instance,
            _spanned(scenarios.build_instance, "motion.build_instance"),
        )
        methods = [
            # (class, method, span, attrs from the call, attrs from the result)
            (MultipathChannel, "one_way_gain", "channel.one_way_gain", None,
             lambda out: {"steps": int(out.shape[0])}),
            (Reader, "inventory", "hardware.inventory", _inventory_attrs,
             lambda out: {"reads": int(out.n_reads)}),
            (M2AIFeaturizer, "transform", "dsp.featurize", _one_window, None),
            (M2AIFeaturizer, "transform_many", "dsp.featurize", _many_windows, None),
            (M2AIPipeline, "fit", "core.fit", None, None),
            (M2AIPipeline, "predict_proba", "core.predict",
             lambda bound: {"rows": len(bound.arguments["dataset"])}, None),
            (StreamingIdentifier, "prepare_window", "streaming.prepare", _one_window, None),
            (StreamingIdentifier, "prepare_windows", "streaming.prepare", _many_windows, None),
            (FleetServer, "tick", "serving.fleet.tick", None, None),
            (FleetServer, "submit", "serving.fleet.submit", None, None),
        ]
        for cls, name, span_name, before, after in methods:
            patches.set_class_attr(
                cls, name, _spanned(cls.__dict__[name], span_name, before, after)
            )

        cached = music.cached_steering_matrix
        build = music.steering_matrix

        @functools.wraps(cached)
        def counted_lookup(*args: object, **kwargs: object) -> object:
            probe.lookups += 1
            probe._depth += 1
            try:
                return cached(*args, **kwargs)
            finally:
                probe._depth -= 1

        @functools.wraps(build)
        def counted_build(*args: object, **kwargs: object) -> object:
            if probe._depth:
                probe.misses += 1
            return build(*args, **kwargs)

        patches.set(music, "cached_steering_matrix", counted_lookup)
        patches.set(music, "steering_matrix", counted_build)
        yield probe
    finally:
        patches.restore()


# -- per-layer metrics ---------------------------------------------------


def _sum(table: dict[str, SpanStats], names: tuple[str, ...], field_name: str) -> float:
    return float(sum(getattr(table[n], field_name) for n in names if n in table))


def _attr(table: dict[str, SpanStats], name: str, key: str) -> float:
    return float(table[name].attrs.get(key, 0.0)) if name in table else 0.0


def layer_metrics(
    table: dict[str, SpanStats],
    rows: dict[str, float],
    counters: dict[str, float],
    probe: SteeringProbe,
) -> dict[str, float]:
    """Every span-derived per-layer metric of :data:`perfbench.metrics.PER_LAYER`."""
    inventory_slots = _attr(table, "hardware.inventory", "slots")
    tag_slots = _attr(table, "hardware.inventory", "tag_slots")
    reads = _attr(table, "hardware.inventory", "reads")
    predict_calls = float(table["core.predict"].calls) if "core.predict" in table else 0.0
    predict_rows = _attr(table, "core.predict", "rows")
    out = {
        "motion.build_instance.busy_ms": _sum(table, ("motion.build_instance",), "wall_ms"),
        "channel.one_way_gain.calls": _sum(table, ("channel.one_way_gain",), "calls"),
        "channel.one_way_gain.steps": _attr(table, "channel.one_way_gain", "steps"),
        "channel.one_way_gain.self_ms": _sum(table, ("channel.one_way_gain",), "self_ms"),
        "hardware.inventory.slots": inventory_slots,
        "hardware.inventory.reads": reads,
        "hardware.inventory.self_ms": _sum(
            table, ("hardware.inventory", "ingest.inventory"), "self_ms"
        ),
        "hardware.read_yield": reads / tag_slots if tag_slots else 0.0,
        "dsp.calibration_fit.busy_ms": _sum(table, ("dsp.calibration.fit",), "wall_ms"),
        "dsp.calibrate.busy_ms": _sum(table, ("dsp.calibration.calibrate",), "wall_ms"),
        "dsp.featurize.windows": _attr(table, "dsp.featurize", "windows"),
        "dsp.featurize.busy_ms": _sum(table, ("dsp.featurize",), "wall_ms"),
        "dsp.frames.self_ms": _sum(table, ("dsp.frames.build", "dsp.frames.build_many"), "self_ms"),
        "dsp.music.self_ms": _sum(table, ("dsp.music", "dsp.music.batch"), "self_ms"),
        "dsp.periodogram.self_ms": _sum(
            table, ("dsp.periodogram", "dsp.periodogram.batch"), "self_ms"
        ),
        "dsp.steering_cache.hit_ratio": probe.hit_ratio,
        "nn.optimizer.self_ms": _sum(table, ("nn.optimizer.step",), "self_ms"),
        "core.fit.busy_ms": _sum(table, ("core.fit",), "wall_ms"),
        "core.predict.calls": predict_calls,
        "core.predict.rows": predict_rows,
        "core.predict.rows_per_call": predict_rows / predict_calls if predict_calls else 0.0,
        "core.predict.busy_ms": _sum(table, ("core.predict",), "wall_ms"),
        "streaming.prepare.busy_ms": _sum(table, ("streaming.prepare",), "wall_ms"),
        "serving.tick.calls": _sum(table, ("serving.fleet.tick",), "calls"),
        "serving.tick.self_ms": _sum(table, ("serving.fleet.tick", "serving.tick"), "self_ms"),
        "serving.batch_fallbacks": counters.get("serving.batch.fallback_total", 0.0)
        + counters.get("serving.batch.prepare_fallback_total", 0.0),
        "runtime.shed": counters.get("runtime.queue.shed_total", 0.0)
        + counters.get("serving.shed_windows_total", 0.0),
        "runtime.deadline_exceeded": counters.get("runtime.deadline_exceeded_total", 0.0),
        "runtime.breaker_trips": counters.get("runtime.breaker.trips_total", 0.0),
        "runtime.retries": counters.get("runtime.retry.attempts_total", 0.0),
    }
    for layer in ("conv1d", "dense", "relu", "lstm"):
        fused = ("nn.fused",) if layer == "lstm" else ()
        out[f"nn.{layer}.fwd_self_ms"] = _sum(table, (f"nn.{layer}.forward",) + fused, "self_ms")
        out[f"nn.{layer}.bwd_self_ms"] = _sum(table, (f"nn.{layer}.backward",), "self_ms")
    for layer, value in rows.items():
        key = "ledger.unattributed_ms" if layer == "unattributed" else f"ledger.{layer}.self_ms"
        out[key] = value
    return out
