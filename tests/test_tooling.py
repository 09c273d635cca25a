"""Guards on the tooling that reaches into the library by name."""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layers = load_layers()


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
