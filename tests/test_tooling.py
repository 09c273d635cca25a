"""Guards on the tooling that reaches into the library by name."""

import importlib.util
import math
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_perfbench("layers")


@pytest.mark.parametrize(
    "owner, attr",
    [(owner, attr) for owner, attr, _ in layers.PATCHES] + [("replan.refinement", "mse_objective")],
)
def test_perfbench_call_site_resolves(owner, attr):
    # the tracer only reports a missing call site, and its per-layer metrics read 0
    assert callable(getattr(layers.resolve(owner), attr, None))


def test_tracer_records_one_retrieval_per_round(monkeypatch):
    # a refactor that bypasses the traced names would only make the per-layer metrics read 0
    from replan import ExperimentConfig, run_experiment

    for owner, attr in [(o, a) for o, a, _ in layers.PATCHES] + [("replan.refinement", "mse_objective")]:
        target = layers.resolve(owner)
        monkeypatch.setattr(target, attr, getattr(target, attr))  # restored after the test
    tracer = layers.Tracer()
    tracer.install()
    assert tracer.missing == []
    config = ExperimentConfig(
        tasks=("pushbar",), methods=("ours",), trials=6, n_candidates=5,
        rejection_metric="embedding", buffer_policy="aggregate",
    )
    result = run_experiment(config)
    summary = tracer.summary()
    # every round after the first retrieves; an episode's replans count its rounds
    rounds = sum(row.replans - 1 for row in result.rows)
    assert rounds > 0
    assert summary["retrieval.retrieve"]["calls"] == rounds
    assert summary["retrieval.retrieval_probabilities"]["calls"] == rounds


def test_microbenchmarks_run():
    # the benchmark's traced run builds the loop's configs by keyword; a src/ change
    # that breaks one would otherwise surface only outside this suite
    from replan import ExperimentConfig

    workloads = load_perfbench("workloads")
    micro = layers.microbenchmarks(ExperimentConfig.from_dict(workloads.payload("refine", 0)), 0)
    assert micro and all(math.isfinite(value) for value in micro.values())


def test_round_clock_ticks_once_per_planned_round(monkeypatch):
    # the benchmark times a round between consecutive replan.loop.plan_to_action
    # calls; a loop that decodes plans any other way would leave round_ms empty
    import numpy as np

    import replan.loop as loop
    from replan import (
        ALL_METHODS, EnvInstance, ExperimentConfig, Method, build_task_assets, sample_hidden,
    )

    calls = []
    decode = loop.plan_to_action

    def counting(kind, plan):
        calls.append(plan)
        return decode(kind, plan)

    monkeypatch.setattr(loop, "plan_to_action", counting)
    config = ExperimentConfig(tasks=("openbox",), n_candidates=3, refine_steps=5)
    assets = build_task_assets(config, "openbox")
    for method in ALL_METHODS:
        planned = 0
        calls.clear()
        for seed in range(6):
            rng = np.random.default_rng(seed)
            env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
            record = loop.run_episode(env, Method(method), assets, config, rng)
            planned += sum(r.plan_psnr is not None for r in record.rounds)
        assert len(calls) == planned, method
        assert (planned == 0) == (method == "random"), method


@pytest.mark.parametrize("workload", ["grid", "refine", "wide"])
def test_chunk_zero_matches_the_recorded_digest(workload, tmp_path):
    # the benchmark checks bit-identity only when someone runs it; this runs
    # its seed-0 chunk 0 in-process against the digest it records
    import hashlib
    import json

    from replan import ExperimentConfig, run_experiment, write_episodes_csv

    workloads = load_perfbench("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference["seed"] == 0
    result = run_experiment(ExperimentConfig.from_dict(workloads.payload(workload, 0)))
    write_episodes_csv(result.rows, tmp_path / "episodes.csv", timing=False)
    digest = hashlib.sha256((tmp_path / "episodes.csv").read_bytes()).hexdigest()
    assert digest == reference["sha256"][workload][0]
