"""Seeded inputs for the benchmark workloads.

Everything the program under test receives is generated here from the
``--seed`` argument, so one seed always yields the same read logs,
corpora and stream schedules.  Nothing is read from disk caches or
environment variables.

Two kinds of input exist:

* **generator corpora** (``corpus`` workload): one
  :class:`~repro.data.SyntheticDatasetGenerator` per scenario with the
  ``quick_generation`` shape — a 20 s calibration bootstrap plus a 6 s
  activity per sample, 2 persons x 3 tags in the laboratory;
* **multi-activity sessions** (``train`` and ``serve`` set-up): one
  reader, one set of people and tags, a stationary bootstrap followed
  by back-to-back activity segments, rendered in a *single* inventory.
  A session yields one labelled window per segment for a fraction of
  the simulation cost of separate recordings, which keeps set-up time
  small next to the measured phase.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.channel.model import BodyTrack
from repro.core.dataset import ActivityDataset
from repro.core.streaming import split_windows
from repro.data import GenerationConfig, SyntheticDatasetGenerator, quick_generation, vary
from repro.dsp.calibration import PhaseCalibrator
from repro.dsp.features import M2AIFeaturizer
from repro.dsp.frames import FeatureFrames
from repro.hardware.llrp import ReadLog
from repro.hardware.reader import Reader, ReaderConfig
from repro.hardware.scene import Scene, TagTrack
from repro.motion import scenarios
from repro.motion.scenarios import SCENARIO_LABELS

COMPACT_CLASSES = ("A01", "A03", "A07", "A11")
"""The four-activity task the repository's runtime benches train on."""

TRAIN_WINDOW_S = 6.0
"""Training window: the ``quick_generation`` activity length."""

SERVE_WINDOW_S = 4.0
"""Serving window (and the serve model's training window)."""

HELDOUT_FRACTION = 1.0 / 3.0
"""Share of the train workload's windows held out for ``evaluate``."""

PARITY_FRACTION = 0.25
"""Share of the serve model's windows kept for the float32 parity gate."""


@dataclass(frozen=True)
class Shape:
    """Sizes of every workload; :data:`FULL` is the benchmark, :data:`SMOKE` a test."""

    setup_repeats: int
    corpus_labels: tuple[str, ...]
    bootstrap_s: float
    train_sessions: int
    train_segments: int
    train_epochs: int
    serve_train_segments: int
    serve_epochs: int
    serve_segments: int
    streams: int


FULL = Shape(
    setup_repeats=3,
    corpus_labels=SCENARIO_LABELS,
    bootstrap_s=20.0,
    train_sessions=1,
    train_segments=24,
    train_epochs=8,
    serve_train_segments=24,
    serve_epochs=8,
    serve_segments=16,
    streams=16,
)

SMOKE = Shape(
    setup_repeats=1,
    corpus_labels=SCENARIO_LABELS[:2],
    bootstrap_s=4.0,
    train_sessions=1,
    train_segments=8,
    train_epochs=1,
    serve_train_segments=8,
    serve_epochs=1,
    serve_segments=6,
    streams=2,
)


def sub_seed(seed: int, *path: object) -> int:
    """An independent 31-bit seed for one named input stream of ``seed``."""
    words = [int(seed) & 0xFFFFFFFF]
    for part in path:
        digest = hashlib.sha256(str(part).encode()).digest()
        words.append(int.from_bytes(digest[:4], "little"))
    return int(np.random.SeedSequence(words).generate_state(1)[0] >> 1)


# -- generator corpora ---------------------------------------------------


def corpus_configs(seed: int, shape: Shape) -> list[GenerationConfig]:
    """One single-sample ``quick_generation`` config per scenario.

    One generator per scenario gives every sample its own seed, so a
    sample that raises is counted on its own instead of aborting the
    rest of the corpus.
    """
    base = quick_generation(seed)
    return [
        vary(
            base,
            scenario_labels=(label,),
            samples_per_class=1,
            seed=sub_seed(seed, "corpus", label),
        )
        for label in shape.corpus_labels
    ]


def warmup_config(seed: int) -> GenerationConfig:
    """A one-sample config, distinct from the corpus, for set-up warm-up."""
    return vary(
        quick_generation(seed),
        scenario_labels=(SCENARIO_LABELS[0],),
        samples_per_class=1,
        seed=sub_seed(seed, "corpus-warmup"),
    )


# -- multi-activity sessions ---------------------------------------------


@dataclass(frozen=True)
class Session:
    """One simulated session: a bootstrap, then one activity per segment.

    Attributes:
        labels: activity of each segment, in time order.
        segment_s: segment (and serving window) length.
        start_s: stream time at which the first segment starts.
        calibration_log: reads of the stationary bootstrap.
        log: reads of the activity segments (stream time starts at the
            end of the bootstrap).
    """

    labels: tuple[str, ...]
    segment_s: float
    start_s: float
    calibration_log: ReadLog
    log: ReadLog


def _trajectory(positions: np.ndarray, n_slots: int) -> np.ndarray:
    pos = np.asarray(positions, dtype=np.float64)
    return pos if pos.ndim == 2 else np.tile(pos, (n_slots, 1))


def session_labels(classes: tuple[str, ...], n_segments: int, seed: int) -> tuple[str, ...]:
    """A shuffled schedule visiting every class equally often."""
    reps = -(-n_segments // len(classes))
    order = np.random.default_rng(seed).permutation(list(classes) * reps)
    return tuple(str(label) for label in order[:n_segments])


def simulate_session(
    labels: tuple[str, ...], segment_s: float, bootstrap_s: float, seed: int
) -> Session:
    """Render a session in the laboratory through one reader inventory.

    The people keep their tags for the whole session; each segment is
    a fresh ``build_instance`` execution of its activity, and the
    bootstrap holds everyone still at the first segment's start pose.
    """
    generator = SyntheticDatasetGenerator(GenerationConfig(environment="laboratory"))
    room = generator.make_room()
    array = generator.make_array(room)
    reader = Reader(ReaderConfig(array=array), room, seed=seed)
    rng = np.random.default_rng(seed ^ 0x5EED)
    slot_s = reader.config.slot_s
    n_boot = int(round(bootstrap_s / slot_s))
    n_seg = int(round(segment_s / slot_s))
    scenes = [
        scenarios.build_instance(
            scenarios.SCENARIOS[label],
            array,
            room,
            duration_s=segment_s,
            slot_s=slot_s,
            rng=rng,
            n_persons=2,
            tags_per_person=3,
        ).scene
        for label in labels
    ]
    first = scenes[0]
    tracks = []
    for k, track in enumerate(first.tag_tracks):
        start = _trajectory(track.positions, 1)[0]
        parts = [np.tile(start, (n_boot, 1))]
        parts += [_trajectory(scene.tag_tracks[k].positions, n_seg) for scene in scenes]
        tracks.append(
            TagTrack(tag=track.tag, positions=np.concatenate(parts), carrier=track.carrier)
        )
    bodies = []
    for b, body in enumerate(first.bodies):
        parts = [np.tile(body.positions[0], (n_boot, 1))]
        parts += [scene.bodies[b].positions for scene in scenes]
        bodies.append(BodyTrack(positions=np.concatenate(parts), radius=body.radius))
    scene = Scene(tag_tracks=tuple(tracks), bodies=tuple(bodies))
    log = reader.inventory(scene, bootstrap_s + segment_s * len(labels))
    boot = log.timestamp_s < bootstrap_s
    return Session(
        labels=tuple(labels),
        segment_s=float(segment_s),
        start_s=float(bootstrap_s),
        calibration_log=log.select(boot),
        log=log.select(~boot),
    )


def session_windows(session: Session) -> list[tuple[float, ReadLog]]:
    """The session's serving windows, one per segment.

    Raises:
        ValueError: when the window grid does not line up with the
            segments (a window would mix two activities).
    """
    windows = split_windows(session.log, session.segment_s)
    starts = [start for start, _ in windows]
    expected = [session.start_s + k * session.segment_s for k in range(len(session.labels))]
    if len(starts) != len(expected) or not np.allclose(starts, expected, atol=1e-6):
        raise ValueError(
            f"session windows start at {starts}, segments at {expected}"
        )
    return windows


def featurise_session(session: Session, calibrator: PhaseCalibrator) -> list[FeatureFrames]:
    """Labelled feature frames, one per segment window."""
    windows = session_windows(session)
    n_frames = max(1, int(round(session.segment_s / session.log.meta.dwell_s)))
    items = [(log, calibrator.calibrate(log), n_frames) for _, log in windows]
    frames = M2AIFeaturizer().transform_many(items)
    for frame, label in zip(frames, session.labels):
        frame.label = label
    return frames


def session_corpus(
    classes: tuple[str, ...],
    n_sessions: int,
    n_segments: int,
    segment_s: float,
    bootstrap_s: float,
    seed: int,
    stream: str,
) -> ActivityDataset:
    """A labelled dataset cut from ``n_sessions`` simulated sessions."""
    samples: list[FeatureFrames] = []
    for k in range(n_sessions):
        labels = session_labels(classes, n_segments, sub_seed(seed, stream, "labels", k))
        session = simulate_session(
            labels, segment_s, bootstrap_s, sub_seed(seed, stream, "session", k)
        )
        samples.extend(
            featurise_session(session, PhaseCalibrator.fit(session.calibration_log))
        )
    return ActivityDataset(samples=samples)


# -- digests ---------------------------------------------------------------


def digest_arrays(hasher: "hashlib._Hash", *arrays: np.ndarray) -> None:
    """Fold arrays (dtype, shape and bytes) into ``hasher``."""
    for arr in arrays:
        a = np.ascontiguousarray(arr)
        hasher.update(f"{a.dtype.str}{a.shape}".encode())
        hasher.update(a.tobytes())


def digest_log(hasher: "hashlib._Hash", log: ReadLog) -> None:
    """Fold every per-read column of a read log into ``hasher``."""
    digest_arrays(
        hasher,
        log.tag_index,
        log.antenna,
        log.channel,
        log.timestamp_s,
        log.phase_rad,
        log.rssi_dbm,
    )


def digest_frames(hasher: "hashlib._Hash", frames: FeatureFrames) -> None:
    """Fold a sample's label and feature channels into ``hasher``."""
    hasher.update(str(frames.label).encode())
    for name in sorted(frames.channels):
        hasher.update(name.encode())
        digest_arrays(hasher, frames.channels[name])
