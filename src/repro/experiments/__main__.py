"""The experiment CLI: ``python -m repro.experiments run|bench``.

``run`` sweeps registry cells through :func:`run_batch` into the
durable results store and rewrites EXPERIMENTS.md from it after every
completed cell, so a partial run still leaves a usable record.  Cells
the store already holds are skipped (``[skip]``); ``--force`` reruns
them.  ``bench`` runs one benchmark workload and publishes its
``BENCH_<name>.json`` artifact atomically through
:func:`~repro.experiments.store.write_bench`, then prints the bench's
summary.

Mode is quick (CI-sized) by default; ``--full`` selects paper scale.
``--epochs N`` caps the training budget; it travels as the spec's
``train_overrides={"epochs": N}``, so trimmed and untrimmed records
never share a store key.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.experiments.report import write_experiments_md
from repro.experiments.runner import (
    ExperimentBatchError,
    default_registry,
    run_batch,
)
from repro.experiments.spec import ExperimentSpec, make_spec
from repro.experiments.store import ResultsStore, write_bench

REPO = Path(__file__).resolve().parents[3]

BENCHES = ("obs_realtime", "ext_resilience", "ext_serving", "ext_domain_shift")
"""Workloads ``bench`` can run, each writing ``BENCH_<name>.json``."""

_BENCH_ONLY = {"repeat": "obs_realtime", "store": "ext_domain_shift"}
"""Bench flags that apply to one workload only."""


def _positive_int(text: str) -> int:
    """argparse type for a count that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments", description=__doc__.split("\n\n")[0]
    )
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="sweep registry cells, rewrite EXPERIMENTS.md")
    run.add_argument("--only", default="", help="comma-separated experiment ids")
    run.add_argument("--workers", type=int, default=1,
                     help="parallel worker processes (1 = inline)")
    run.add_argument("--force", action="store_true",
                     help="re-run cells already in the results store")
    run.add_argument("--out", type=Path, default=REPO / "EXPERIMENTS.md")
    bench = commands.add_parser("bench", help="write one BENCH_<name>.json artifact")
    bench.add_argument("name", choices=BENCHES)
    bench.add_argument("--repeat", type=int, default=None,
                       help="measured iterations per stage (obs_realtime)")
    bench.add_argument("--out", type=Path, default=None,
                       help="artifact path (default: BENCH_<name>.json)")
    for sub in (run, bench):
        sub.add_argument("--full", action="store_true", help="paper-scale workload")
        sub.add_argument("--seed", type=int, default=0, help="master seed")
        sub.add_argument("--epochs", type=_positive_int, default=None,
                         help="cap the training budget (part of the spec key)")
        sub.add_argument("--store", type=Path, default=None,
                         help="results store directory (default .repro_cache/experiments)")
    return parser


def parse_args(
    argv: list[str] | None = None, registry: dict | None = None
) -> argparse.Namespace:
    """Parse the CLI, validating ``run --only`` ids and bench flags upfront.

    An unknown id exits 2 with the list of valid ids instead of dying
    in a mid-run ``KeyError`` after hours of completed experiments.
    """
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        args.registry = registry if registry is not None else default_registry()
        args.wanted = [x for x in args.only.split(",") if x] or list(args.registry)
        unknown = [exp_id for exp_id in args.wanted if exp_id not in args.registry]
        if unknown:
            parser.error(
                f"unknown experiment id(s): {', '.join(unknown)}\n"
                f"valid ids: {', '.join(sorted(args.registry))}"
            )
        return args
    for flag, owner in _BENCH_ONLY.items():
        if getattr(args, flag) not in (None, False) and args.name != owner:
            parser.error(f"--{flag} applies only to bench {owner}")
    if args.epochs is not None and args.name == "obs_realtime":
        parser.error("--epochs does not apply to bench obs_realtime (fixed workload)")
    return args


def run_specs(args: argparse.Namespace) -> list[ExperimentSpec]:
    """The cells a parsed ``run`` command sweeps."""
    train = {"epochs": args.epochs} if args.epochs is not None else None
    mode = "full" if args.full else "quick"
    return [make_spec(exp_id, mode, args.seed, train_overrides=train) for exp_id in args.wanted]


def _printer(on_done=None):
    """Progress callback printing one ``[tag] <spec key>`` line per event."""
    tags = {"skip": "skip", "start": "run ", "done": "done", "failed": "FAIL"}

    def on_event(kind: str, spec: ExperimentSpec, detail: str) -> None:
        note = f" ({detail})" if detail else ""
        sys.stdout.write(f"[{tags[kind]}] {spec.key}{note}\n")
        sys.stdout.flush()
        if kind == "done" and on_done is not None:
            on_done()

    return on_event


def _run(args: argparse.Namespace) -> int:
    store = ResultsStore(args.store)

    def rewrite() -> None:
        write_experiments_md(args.out, store)

    try:
        run_batch(
            run_specs(args),
            store,
            workers=args.workers,
            force=args.force,
            registry=args.registry,
            on_event=_printer(on_done=rewrite),
        )
    except ExperimentBatchError as exc:
        rewrite()
        sys.stdout.write(f"FAILED: {exc}\n")
        return 1
    rewrite()
    sys.stdout.write("done.\n")
    return 0


def _bench(args: argparse.Namespace) -> int:
    quick = not args.full
    if args.name == "obs_realtime":
        from repro.obs import profile as module

        body = module.run_profile(quick=quick, seed=args.seed, repeat=args.repeat)
    elif args.name == "ext_resilience":
        from repro.eval import resilience as module

        body = module.run_resilience_bench(quick=quick, seed=args.seed, epochs=args.epochs)
    elif args.name == "ext_serving":
        from repro.eval import serving as module

        body = module.run_serving_bench(quick=quick, seed=args.seed, epochs=args.epochs)
    else:
        from repro.experiments import domain_shift as module

        n_seeds = 2 if quick else 3
        body = module.run_domain_shift_bench(
            quick=quick,
            seeds=tuple(range(args.seed, args.seed + n_seeds)),
            store=ResultsStore(args.store),
            epochs=args.epochs,
            on_event=_printer(),
        )
    out = args.out if args.out is not None else Path(f"BENCH_{args.name}.json")
    write_bench(out, args.name, body, "quick" if quick else "full", args.seed, args.epochs)
    sys.stdout.write(f"wrote {out}\n" + module.bench_summary(body))
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = parse_args(argv)
    return _run(args) if args.command == "run" else _bench(args)


if __name__ == "__main__":
    raise SystemExit(main())
