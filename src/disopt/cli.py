"""Command-line experiment runner: ``disopt run``, ``sweep`` and ``preset``.

``main`` returns one of the ``EXIT_*`` codes: 1 when strict mode finds a
projection-error bound violation at an unsaturated step, 2 for a usage or
config error (a file that cannot be read, an artifact that cannot be
written) or a run out of memory, 3 when a run fails an invariant check.
README's "Command line" section is the user's reference.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import ConfigError, PRESETS, parse_config, preset_document
from .engine import BoundViolationError
from .harness import run_experiment, sweep

EXIT_OK = 0
EXIT_STRICT = 1
EXIT_USAGE = 2
EXIT_INVARIANT = 3

OUTDIR_ENV = "DISOPT_OUT"

STRICT_HELP = (
    "exit 1 when the raw projection residual (attacks included) exceeds "
    "Lemma 1's attack-free bound at an unsaturated step; the fig2c preset "
    "trips it at seed 0, k=170"
)
PER_AGENT_HELP = "also write each seed's per-agent errors as <name>_seed<s>_agents.npy"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="disopt",
        description=(
            "Simulate distributed subgradient optimization with quantized "
            "broadcasts and adversarial agents"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUTDIR_ENV} or ./results)",
    )

    p_run = sub.add_parser("run", parents=[common], help="run one experiment config")
    p_run.add_argument("config", type=Path, help="path to a config JSON document")
    p_run.add_argument("--strict", action="store_true", help=STRICT_HELP)
    p_run.add_argument("--per-agent", action="store_true", help=PER_AGENT_HELP)

    p_sweep = sub.add_parser("sweep", parents=[common], help="run a parameter grid")
    p_sweep.add_argument("grid", type=Path, help="path to a sweep JSON document")

    p_preset = sub.add_parser(
        "preset", parents=[common], help="run a built-in scenario"
    )
    p_preset.add_argument("name", choices=sorted(PRESETS))
    p_preset.add_argument("--seeds", type=int, default=None, help="run seeds 0..N-1")
    p_preset.add_argument("--strict", action="store_true", help=STRICT_HELP)
    p_preset.add_argument("--per-agent", action="store_true", help=PER_AGENT_HELP)

    return parser


def _outdir(args) -> Path:
    if args.out:
        return Path(args.out)
    return Path(os.environ.get(OUTDIR_ENV, "results"))


def _report_config_error(exc: ConfigError) -> None:
    print("config error:", file=sys.stderr)
    for path, message in exc.errors:
        print(f"  {path}: {message}", file=sys.stderr)


def _finish(artifacts, strict: bool) -> int:
    for path in (*artifacts.csv_paths, *artifacts.agent_paths):
        print(f"wrote {path}")
    if artifacts.report_path:
        print(f"wrote {artifacts.report_path}")
    if artifacts.bound_overflow_k is not None:
        print(
            f"theorem bound exceeds float range from k={artifacts.bound_overflow_k} "
            "on; those theorem_bound cells are inf",
            file=sys.stderr,
        )
    return _strict_exit(artifacts.strict_violations, strict)


def _strict_exit(violations, strict: bool) -> int:
    """Report unsaturated bound failures on stderr; exit 1 on any under strict."""
    if violations:
        print(
            f"projection-error bound violated at {len(violations)} "
            f"unsaturated step(s), e.g. {list(violations[:5])}",
            file=sys.stderr,
        )
        if strict:
            return EXIT_STRICT
    return EXIT_OK


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    outdir = _outdir(args)

    try:
        if args.command == "preset":
            seeds = None
            if args.seeds is not None:
                if args.seeds < 1:
                    print("--seeds must be >= 1", file=sys.stderr)
                    return EXIT_USAGE
                seeds = range(args.seeds)
            config = parse_config(preset_document(args.name, seeds=seeds))
            name = args.name
        else:
            path = args.config if args.command == "run" else args.grid
            try:
                text = path.read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                print(f"cannot read {path}: {exc}", file=sys.stderr)
                return EXIT_USAGE
            if args.command == "run":
                config, name = parse_config(text), path.stem
        outdir.mkdir(parents=True, exist_ok=True)
        if args.command == "sweep":
            summary = sweep(text, outdir)
            print(f"wrote {outdir / 'sweep_summary.csv'} ({len(summary.rows)} grid points)")
            return _strict_exit(summary.strict_violations, summary.strict)
        artifacts = run_experiment(config, outdir, name=name, include_agents=args.per_agent)
        return _finish(artifacts, args.strict or config.strict)

    except ConfigError as exc:
        _report_config_error(exc)
        return EXIT_USAGE
    except OSError as exc:  # the output directory or an artifact in it
        print(f"cannot write {outdir}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # a run holds all its rounds in memory
        print(f"out of memory: {exc}" if str(exc) else "out of memory", file=sys.stderr)
        return EXIT_USAGE
    except BoundViolationError as exc:
        print(f"invariant violated in {exc.scenario}, seed {exc.seed}: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
