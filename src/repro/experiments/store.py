"""Crash-safe durable results store: one JSON file per spec key.

Every record is published atomically (temp file in the same directory,
then ``os.replace`` — the pattern :mod:`repro.core.serialization` uses
for checkpoints), so a reader can never observe a half-written record
and a crash mid-write never corrupts an existing one.  Unreadable
records — a partial file from a hard power cut, a hand-edited file, a
schema mismatch — are **quarantined** (renamed to ``<key>.corrupt``)
with a warning instead of crashing the run; the cell simply reruns.

This replaces the old ``experiment_state.json`` monolith, which was
rewritten wholesale with ``Path.write_text`` after every experiment: a
crash mid-write lost *every* completed cell and the next run died in
``json.loads``.
"""

from __future__ import annotations

import json
import os
import tempfile
import warnings
from pathlib import Path

from repro.experiments.spec import ResultRecord

__all__ = [
    "BENCH_SCHEMA",
    "ResultsStore",
    "atomic_write_text",
    "default_store_root",
    "write_bench",
]

BENCH_SCHEMA = "repro.bench.v2"
"""Envelope version of every ``BENCH_*.json`` artifact."""


def default_store_root() -> Path:
    """Default store directory: ``<repo>/.repro_cache/experiments``.

    Override with the ``REPRO_RESULTS_DIR`` environment variable (the
    corpus cache's ``REPRO_CACHE_DIR`` is deliberately separate: the
    store holds *results*, not regenerable intermediates).
    """
    value = os.environ.get("REPRO_RESULTS_DIR")
    if value:
        return Path(value)
    return Path(__file__).resolve().parents[3] / ".repro_cache" / "experiments"


def atomic_write_text(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` via temp file + ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=path.name + ".", suffix=".tmp"
    )
    tmp = Path(tmp_name)
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_bench(
    path: Path, bench: str, body: dict, mode: str, seed: int, epochs: int | None
) -> None:
    """Publish one ``BENCH_*.json`` artifact atomically.

    Every artifact carries the same header — ``bench``, ``schema``,
    ``mode``, ``seed`` and the training-budget cap ``epochs_cap``
    (``None`` when uncapped) — followed by the bench's own body keys at
    top level.

    Raises:
        ValueError: a body key collides with a header key.
    """
    header = {
        "bench": bench,
        "schema": BENCH_SCHEMA,
        "mode": mode,
        "seed": int(seed),
        "epochs_cap": epochs,
    }
    clash = sorted(set(header) & set(body))
    if clash:
        raise ValueError(f"bench body repeats header key(s) {clash}")
    atomic_write_text(path, json.dumps({**header, **body}, indent=2) + "\n")


class ResultsStore:
    """Directory of durable :class:`~repro.experiments.spec.ResultRecord`s.

    Records are keyed by :attr:`ExperimentSpec.key` — the content hash
    of (exp_id, mode, seed, overrides) — so a rerun with a different
    mode or seed can never be served a stale record, and a resumed
    sweep skips exactly the cells whose keys are already on disk.
    """

    def __init__(self, root: "str | Path | None" = None) -> None:
        self.root = Path(root) if root is not None else default_store_root()
        self.root.mkdir(parents=True, exist_ok=True)

    def path_for(self, key: str) -> Path:
        """The record file a key lives at."""
        return self.root / f"{key}.json"

    def __contains__(self, key: str) -> bool:
        return self.path_for(key).exists()

    def put(self, record: ResultRecord) -> Path:
        """Atomically publish one record; returns its path."""
        path = self.path_for(record.spec.key)
        atomic_write_text(path, record.to_json())
        return path

    def get(self, key: str) -> "ResultRecord | None":
        """The record for a key, or None when absent or unreadable.

        An unreadable record is quarantined to ``<key>.corrupt`` with a
        :class:`RuntimeWarning` so the caller regenerates the cell
        instead of crashing on someone else's torn write.
        """
        path = self.path_for(key)
        try:
            text = path.read_text()
        except FileNotFoundError:
            return None
        try:
            record = ResultRecord.from_json(text)
            if record.spec.key != key:
                raise ValueError(
                    f"record content belongs to key {record.spec.key!r}"
                )
            return record
        except ValueError as exc:
            quarantine = path.with_suffix(".corrupt")
            os.replace(path, quarantine)
            warnings.warn(
                f"unreadable experiment record {path.name} "
                f"({exc}); moved to {quarantine.name}, the cell will rerun",
                RuntimeWarning,
                stacklevel=2,
            )
            return None

    def keys(self) -> list[str]:
        """Sorted keys of every readable-looking record file."""
        return sorted(p.stem for p in self.root.glob("*.json"))

    def records(self) -> list[ResultRecord]:
        """Every readable record, sorted by key (corrupt ones skipped)."""
        out = []
        for key in self.keys():
            record = self.get(key)
            if record is not None:
                out.append(record)
        return out

    def delete(self, key: str) -> bool:
        """Remove one record; True when a file was deleted."""
        try:
            self.path_for(key).unlink()
        except FileNotFoundError:
            return False
        return True
