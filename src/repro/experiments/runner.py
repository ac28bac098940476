"""Run experiment specs: one cell (`run_one`) or a parallel sweep (`run_batch`).

``run_batch`` fans specs across **supervised worker processes** rather
than a bare ``multiprocessing.Pool`` (lint rule RPR011): each spec gets
its own spawned process whose lifecycle the batch loop owns explicitly
— liveness is observed through ``Process.exitcode``, a crash is
attributed to the exact spec that died (instead of hanging a ``map``),
and every completed cell is already durable in the
:class:`~repro.experiments.store.ResultsStore` the moment its worker
exits, because the *worker* publishes the record atomically before
reporting success.  Kill the sweep at any point and a rerun executes
only the missing cells.

Determinism: workers are spawned (fresh interpreter, no inherited
memo caches) and every driver is seeded from its spec alone, so the
same specs produce byte-identical record content regardless of
``workers`` — the determinism tests compare
:meth:`ResultRecord.content_digest` across worker counts.
"""

from __future__ import annotations

import importlib
import multiprocessing
import sys
import time
import traceback
from typing import Callable

from repro.experiments.spec import ExperimentSpec, ResultRecord
from repro.experiments.store import ResultsStore

__all__ = [
    "DEFAULT_REGISTRY_FACTORY",
    "ExperimentBatchError",
    "UnknownExperimentError",
    "default_registry",
    "resolve_registry_factory",
    "run_batch",
    "run_one",
    "validate_ids",
]

DEFAULT_REGISTRY_FACTORY = "repro.experiments.runner:default_registry"
"""Dotted ``module:callable`` workers resolve their registry from."""

_POLL_S = 0.05


class UnknownExperimentError(ValueError):
    """An experiment id is not in the registry (lists the valid ids)."""

    def __init__(self, unknown: list[str], valid: "list[str] | tuple"):
        self.unknown = list(unknown)
        self.valid = sorted(valid)
        super().__init__(
            f"unknown experiment id(s) {', '.join(self.unknown)}; "
            f"valid ids: {', '.join(self.valid)}"
        )


class ExperimentBatchError(RuntimeError):
    """One or more sweep cells failed (completed cells stay durable).

    Attributes:
        failures: ``{spec key: reason}`` for every failed cell.
        completed: records that did finish (already in the store).
    """

    def __init__(self, failures: dict[str, str], completed: list[ResultRecord]):
        self.failures = dict(failures)
        self.completed = list(completed)
        detail = "; ".join(f"{key}: {why}" for key, why in failures.items())
        super().__init__(
            f"{len(failures)} experiment cell(s) failed "
            f"({len(completed)} completed and durable): {detail}"
        )


def default_registry() -> dict[str, Callable]:
    """Every known experiment driver, keyed by id.

    A copy of :data:`repro.eval.ALL_EXPERIMENTS`; spawned workers (and
    tests, through ``registry_factory``) resolve their registry through
    a factory like this one so a fake registry can stand in.
    """
    from repro.eval import ALL_EXPERIMENTS

    return dict(ALL_EXPERIMENTS)


def resolve_registry_factory(factory: str) -> dict[str, Callable]:
    """Resolve a ``module:callable`` path into a registry dict."""
    module_name, _, attr = factory.partition(":")
    if not module_name or not attr:
        raise ValueError(
            f"registry factory must look like 'pkg.mod:callable', got {factory!r}"
        )
    module = importlib.import_module(module_name)
    registry = getattr(module, attr)()
    if not isinstance(registry, dict):
        raise TypeError(f"registry factory {factory!r} did not return a dict")
    return registry


def validate_ids(
    exp_ids: "list[str] | tuple", registry: dict[str, Callable]
) -> None:
    """Raise :class:`UnknownExperimentError` on any id not registered.

    This runs *before* any cell executes, replacing the old script's
    mid-run bare ``KeyError`` on a typo'd ``--only`` id.
    """
    unknown = [exp_id for exp_id in exp_ids if exp_id not in registry]
    if unknown:
        raise UnknownExperimentError(unknown, list(registry))


def run_one(
    spec: ExperimentSpec, registry: "dict[str, Callable] | None" = None
) -> ResultRecord:
    """Execute one spec and return its :class:`ResultRecord`.

    Raises:
        UnknownExperimentError: the spec's id is not registered.
        TypeError: the driver does not accept the spec's overrides.
    """
    registry = registry if registry is not None else default_registry()
    validate_ids([spec.exp_id], registry)
    driver = registry[spec.exp_id]
    t0 = time.monotonic()
    result = driver(quick=spec.mode == "quick", seed=spec.seed, **spec.overrides_dict())
    elapsed = time.monotonic() - t0
    return ResultRecord.from_result(spec, result, elapsed_s=elapsed)


def _worker_entry(
    spec_payload: dict, store_root: str, registry_factory: str
) -> None:
    """Worker-process body: run one spec and publish its record.

    The record hits the store (atomically) *before* the process exits
    zero, so the parent can treat a clean exit as "record durable" and
    a non-zero exit / missing record as an attributable crash.
    """
    try:
        spec = ExperimentSpec.from_payload(spec_payload)
        registry = resolve_registry_factory(registry_factory)
        record = run_one(spec, registry)
        ResultsStore(store_root).put(record)
    except BaseException:
        traceback.print_exc(file=sys.stderr)
        raise SystemExit(1) from None
    raise SystemExit(0)


def run_batch(
    specs: "list[ExperimentSpec]",
    store: "ResultsStore | None" = None,
    workers: int = 1,
    force: bool = False,
    registry: "dict[str, Callable] | None" = None,
    registry_factory: str = DEFAULT_REGISTRY_FACTORY,
    on_event: "Callable[[str, ExperimentSpec, str], None] | None" = None,
) -> list[ResultRecord]:
    """Run a sweep, skipping cells the store already holds.

    Args:
        specs: cells to run (duplicates collapse to one execution).
        store: durable results store (default:
            :func:`~repro.experiments.store.default_store_root`).
        workers: max concurrent worker processes; ``<= 1`` runs inline
            in this process (no spawning).
        force: rerun and overwrite cells already in the store.
        registry: driver registry for the **inline** path; parallel
            workers resolve ``registry_factory`` themselves (a spawned
            process cannot be handed arbitrary callables).
        registry_factory: dotted ``module:callable`` the workers (and
            upfront validation) use to build their registry.
        on_event: optional progress callback ``(kind, spec, detail)``
            with kind in ``{"skip", "start", "done", "failed"}`` —
            library code stays silent; CLIs pass a printer.

    Returns:
        One record per unique spec, in first-occurrence order.

    Raises:
        UnknownExperimentError: any spec id is unknown (checked before
            anything runs).
        ExperimentBatchError: one or more cells failed; completed
            records are durable in the store and listed on the error.
    """
    store = store if store is not None else ResultsStore()
    if registry is None:
        registry = resolve_registry_factory(registry_factory)
    notify = on_event if on_event is not None else (lambda kind, spec, detail: None)

    unique: dict[str, ExperimentSpec] = {}
    for spec in specs:
        unique.setdefault(spec.key, spec)
    validate_ids(sorted({s.exp_id for s in unique.values()}), registry)

    done: dict[str, ResultRecord] = {}
    todo: list[ExperimentSpec] = []
    for key, spec in unique.items():
        record = None if force else store.get(key)
        if record is not None:
            done[key] = record
            notify("skip", spec, "already recorded")
        else:
            todo.append(spec)

    failures: dict[str, str] = {}
    if workers <= 1:
        for spec in todo:
            notify("start", spec, "")
            try:
                record = run_one(spec, registry)
            except Exception as exc:  # noqa: BLE001 - attributed and re-raised
                failures[spec.key] = f"{type(exc).__name__}: {exc}"
                notify("failed", spec, failures[spec.key])
                continue
            store.put(record)
            done[spec.key] = record
            notify("done", spec, f"{record.elapsed_s:.0f} s")
    elif todo:
        _run_parallel(
            todo, store, workers, registry_factory, done, failures, notify
        )

    ordered = [done[key] for key in unique if key in done]
    if failures:
        raise ExperimentBatchError(failures, ordered)
    return ordered


def _run_parallel(
    todo: list[ExperimentSpec],
    store: ResultsStore,
    workers: int,
    registry_factory: str,
    done: dict[str, ResultRecord],
    failures: dict[str, str],
    notify: Callable,
) -> None:
    """Drive the spawned workers; fills ``done``/``failures`` in place."""
    ctx = multiprocessing.get_context("spawn")
    pending = list(todo)
    active: dict[str, tuple] = {}
    while pending or active:
        while pending and len(active) < max(workers, 1):
            spec = pending.pop(0)
            process = ctx.Process(
                target=_worker_entry,
                args=(spec.payload(), str(store.root), registry_factory),
                daemon=False,
            )
            process.start()
            active[spec.key] = (spec, process)
            notify("start", spec, f"pid {process.pid}")
        for key in list(active):
            spec, process = active[key]
            process.join(_POLL_S)
            if process.is_alive():
                continue
            del active[key]
            record = store.get(key) if process.exitcode == 0 else None
            if process.exitcode == 0 and record is not None:
                done[key] = record
                notify("done", spec, f"{record.elapsed_s:.0f} s")
            else:
                reason = (
                    f"worker exited {process.exitcode}"
                    if process.exitcode != 0
                    else "worker exited 0 but published no record"
                )
                failures[key] = reason
                notify("failed", spec, reason)
