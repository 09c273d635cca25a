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
