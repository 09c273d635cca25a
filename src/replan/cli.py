"""Command line entry points.

Subcommands cover the full workflow: generate experience datasets,
run an experiment grid (which fits each task's assets in-process), run
ablation sweeps, and render reports from saved episode CSVs.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .core import save_dataset
from .datasets import build_dataset
from .envs import EnvKind
from .loop import (
    ALL_TASKS,
    SWEEP_NAMES,
    ExperimentConfig,
    ExperimentResult,
    ablation_sweep,
    results_table,
    run_experiment,
)
from .report import (
    embedding_rows,
    read_episodes_csv,
    write_embedding_csv,
    write_episodes_csv,
    write_results_svg,
    write_summary_csv,
)


def _cmd_gen_data(args: argparse.Namespace) -> int:
    kind = EnvKind(args.env)
    dataset = build_dataset(
        kind,
        per_theta_success=args.per_theta_success,
        per_theta_fail=args.per_theta_fail,
        seed=args.seed,
    )
    save_dataset(args.out, kind.value, dataset.tuples)
    n_success = sum(1 for t in dataset.tuples if t.success)
    print(
        f"wrote {len(dataset.tuples)} rollouts ({n_success} successes, "
        f"{len(dataset.by_object)} objects) to {args.out}"
    )
    return 0


def _write_result(result: ExperimentResult, out: Path, timing: bool = False) -> None:
    """A result directory: ``episodes.csv``, ``summary.csv`` and the ``config.json`` it ran."""
    out.mkdir(parents=True, exist_ok=True)
    write_episodes_csv(result.rows, out / "episodes.csv", timing=timing)
    write_summary_csv(result.table, out / "summary.csv")
    (out / "config.json").write_text(json.dumps(result.config.to_dict(), indent=2) + "\n")


def _cmd_run(args: argparse.Namespace) -> int:
    config = ExperimentConfig.from_json(args.experiment)
    # the per-cell progress lines go to stdout, as plain messages
    handler = logging.StreamHandler(sys.stdout)
    progress = logging.getLogger("replan.loop")
    level = progress.level
    progress.addHandler(handler)
    progress.setLevel(logging.INFO)
    try:
        result = run_experiment(config)
    finally:
        progress.removeHandler(handler)
        progress.setLevel(level)
    out = Path(args.out)
    _write_result(result, out, timing=args.timing)
    print(f"wrote {out / 'episodes.csv'} and {out / 'summary.csv'}")
    for method, value in result.table.normalized().items():
        print(f"normalized {method}: {value:.3f}")
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    if args.experiment is not None:
        base = ExperimentConfig.from_json(args.experiment)
    else:
        base = ExperimentConfig(tasks=("pushbar", "slidebrick"), trials=100)
    if args.trials is not None:
        base = ExperimentConfig.from_dict({**base.to_dict(), "trials": args.trials})
    results = ablation_sweep(args.sweep, base)
    out = Path(args.out)
    for label, result in results.items():
        _write_result(result, out / label.replace("=", "-"))
        for method in result.table.methods:
            means = [
                result.table.cell(method, task).mean for task in result.table.tasks
            ]
            print(f"{label:>14} {method:>15}: mean replans {np.mean(means):.3f}")
    print(f"wrote sweep results under {out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    src = Path(args.in_dir)
    episodes = src / "episodes.csv" if src.is_dir() else src
    rows = read_episodes_csv(episodes)
    embedded = None  # worked out first, so a bad config.json fails before any file is written
    if args.embed_csv is not None:
        config_path = (src if src.is_dir() else src.parent) / "config.json"
        if config_path.exists():
            config = ExperimentConfig.from_json(config_path)
        else:
            config = ExperimentConfig(tasks=tuple(dict.fromkeys(r.task for r in rows)))
        embedded = embedding_rows(config)
    table = results_table(rows)
    write_summary_csv(table, args.csv)
    write_results_svg(table, args.svg)
    print(f"wrote {args.csv} and {args.svg}")
    if embedded is not None:
        write_embedding_csv(embedded, args.embed_csv)
        print(f"wrote {args.embed_csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="replan",
        description="Hidden-parameter replanning: datasets, experiments, reports.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="render an experience dataset for one task")
    p.add_argument("--env", required=True, choices=ALL_TASKS)
    p.add_argument("--out", required=True)
    p.add_argument("--per-theta-success", type=int, default=1)
    p.add_argument("--per-theta-fail", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("run", help="run the experiment grid from a JSON file")
    p.add_argument("--experiment", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--timing", action="store_true",
                   help="fill the wall_ms_* CSV columns (off keeps reruns bit-identical)")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ablate", help="run a named ablation sweep")
    p.add_argument("--sweep", required=True, choices=SWEEP_NAMES)
    p.add_argument("--experiment", default=None,
                   help="base experiment JSON (default: pushbar+slidebrick, 100 trials)")
    p.add_argument("--out", default="ablation")
    p.add_argument("--trials", type=int, default=None)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("report", help="summarize an episodes CSV")
    p.add_argument("--in", dest="in_dir", required=True,
                   help="results directory (or episodes CSV path)")
    p.add_argument("--csv", required=True)
    p.add_argument("--svg", required=True)
    p.add_argument("--embed-csv", default=None,
                   help="also export 2-component canonical embeddings")
    p.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand.  A bad option or file it reads ends the command with one
    ``error: <message>`` line on stderr and exit code 2, as a malformed command line does."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
