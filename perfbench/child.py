"""One cold chunk of a workload, run in a fresh process by ``run.py``.

Drives the library the way ``replan run`` does: ``ExperimentConfig.from_dict``
-> ``run_experiment`` -> ``write_episodes_csv`` (timing off).  Episodes are
timed by wrapping ``replan.loop.run_episode`` and set-up by wrapping
``replan.loop.build_task_assets``; ``run_experiment`` looks both up as module
globals at call time.  A replanning round is timed from one call of
``replan.loop.plan_to_action`` to the next in the same episode:
``run_episode`` makes that call once per planned round, so the interval is
one full cycle (execute the failed plan, then retrieve, generate, reject,
score and decode the next one).  ``--seed`` is the chunk's ``master_seed``.
Prints one JSON object as its last stdout line.

Modes: ``plain`` (timing wrappers only), ``trace`` (every layer wrapped,
spans written to ``--out``), ``micro`` (fixed-input microbenchmarks),
``setup`` (only the cold ``build_task_assets`` calls, for more set-up samples).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import time
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

from layers import Tracer, microbenchmarks
from workloads import payload


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def check_rows(rows, config) -> int:
    """Rows with replans outside [1, max_replans], plus missing cell rows."""
    bad = sum(not 1 <= row.replans <= config.max_replans for row in rows)
    cells = Counter((row.task, row.method) for row in rows)
    for task in config.tasks:
        for method in config.methods:
            bad += max(0, config.trials - cells[(task, method)])
    return bad


def run_workload(workload: str, seed: int, out: Path, tracer: Tracer | None) -> dict:
    import replan.loop as loop
    import replan.report as report
    from replan import ExperimentConfig, run_experiment

    if tracer is not None:
        tracer.install()
    episode_ms: list[float] = []
    round_ms: list[float] = []
    setup_ms: list[float] = []
    decisions: list[float] = []
    totals = Counter()
    run_episode, build_task_assets = loop.run_episode, loop.build_task_assets
    plan_to_action = loop.plan_to_action

    def timed_episode(*args, **kwargs):
        decisions.clear()
        start = time.perf_counter()
        record = run_episode(*args, **kwargs)
        episode_ms.append(1e3 * (time.perf_counter() - start))
        round_ms.extend(1e3 * (b - a) for a, b in zip(decisions, decisions[1:]))
        totals["phase_ms"] += sum(record.wall_ms.values())
        return record

    def timed_decision(*args, **kwargs):
        decisions.append(time.perf_counter())
        return plan_to_action(*args, **kwargs)

    def timed_setup(*args, **kwargs):
        start = time.perf_counter()
        assets = build_task_assets(*args, **kwargs)
        setup_ms.append(1e3 * (time.perf_counter() - start))
        return assets

    loop.run_episode, loop.build_task_assets = timed_episode, timed_setup
    loop.plan_to_action = timed_decision
    config = ExperimentConfig.from_dict(payload(workload, seed))
    result = run_experiment(config)
    csv_path = out / f"episodes-{os.getpid()}.csv"
    report.write_episodes_csv(result.rows, csv_path, timing=False)
    digest = hashlib.sha256(csv_path.read_bytes()).hexdigest()
    csv_path.unlink()
    return {
        "episode_ms": episode_ms,
        "round_ms": round_ms,
        "setup_ms": sum(setup_ms),
        "phase_ms": totals["phase_ms"],
        "replans": [row.replans for row in result.rows],
        "expected": len(config.tasks) * len(config.methods) * config.trials,
        "invalid": check_rows(result.rows, config),
        "digest": digest,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("plain", "trace", "micro", "setup"), required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()

    result: dict = {"env": environment()}
    try:
        if args.mode in ("micro", "setup"):
            from replan import ExperimentConfig, build_task_assets

            config = ExperimentConfig.from_dict(payload(args.workload, args.seed))
            if args.mode == "micro":
                result["micro"] = microbenchmarks(config, args.seed)
            else:
                start = time.perf_counter()
                for task in config.tasks:
                    build_task_assets(config, task)
                result["setup_ms"] = 1e3 * (time.perf_counter() - start)
        else:
            tracer = Tracer() if args.mode == "trace" else None
            result.update(run_workload(args.workload, args.seed, args.out, tracer))
            if tracer is not None:
                result["layers"] = tracer.summary()
                result["counts"] = dict(tracer.counts)
                result["missing"] = tracer.missing
                result["spans"] = len(tracer.spans)
                tracer.write(args.out / f"spans-{args.workload}.jsonl")
    except Exception:
        result["error"] = traceback.format_exc()
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))


if __name__ == "__main__":
    main()
