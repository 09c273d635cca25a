"""Guards on the tooling that reaches into the library by name."""

import importlib.util
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


def test_tracer_records_one_refinement_per_refining_round(monkeypatch):
    # refine_embedding takes a video or its stored observation terms; either way the
    # loop must reach it through the traced name
    import numpy as np

    import replan.loop as loop
    from replan import EnvInstance, ExperimentConfig, Method, build_task_assets, sample_hidden

    for owner, attr in [(o, a) for o, a, _ in layers.PATCHES] + [("replan.refinement", "mse_objective")]:
        target = layers.resolve(owner)
        monkeypatch.setattr(target, attr, getattr(target, attr))  # restored after the test
    config = ExperimentConfig(tasks=("slidebrick",), n_candidates=3, refine_steps=5)
    assets = build_task_assets(config, "slidebrick")
    tracer = layers.Tracer()
    tracer.install()
    assert tracer.missing == []
    refining = 0
    for seed in range(8):
        rng = np.random.default_rng(seed)
        env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
        record = loop.run_episode(env, Method.OURS_REFINE, assets, config, rng)
        # a round refines once an earlier round's plan decoded and failed
        decoded = [r.action is not None for r in record.rounds]
        refining += sum(any(decoded[:k]) for k in range(1, len(decoded)))
    assert refining > 0
    assert tracer.summary()["refinement.refine_embedding"]["calls"] == refining


def test_microbenchmarks_run(monkeypatch):
    # the benchmark's traced run builds the loop's configs by keyword and reads
    # TaskAssets.gt_plans; a src/ change that breaks one would otherwise surface only
    # outside this suite.  One call per function is enough to reach every name.
    import json

    from replan import ExperimentConfig

    def once(fn):
        fn()
        return 1.0

    monkeypatch.setattr(layers, "_per_call_ms", once)
    workloads = load_perfbench("workloads")
    micro = layers.microbenchmarks(ExperimentConfig.from_dict(workloads.payload("grid", 0)), 0)
    spec = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
    named = {m["name"] for m in spec["per_layer"] if ".call_ms" in m["name"]}
    assert len(named) == 12 and set(micro) == named


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


def test_benchmark_clocks_see_every_build_episode_and_round(monkeypatch):
    # perfbench/child.py times set-up, episodes and rounds by wrapping these module
    # globals of replan.loop; a run that reached them another way would read 0 time
    from collections import Counter

    import replan.loop as loop
    from replan import ExperimentConfig, run_experiment

    calls = Counter()
    for name in ("build_task_assets", "run_episode", "plan_to_action"):
        def counted(*args, real=getattr(loop, name), name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(loop, name, counted)
    config = ExperimentConfig(tasks=("openbox", "slidebrick"), methods=("avdc", "ours"), trials=3)
    result = run_experiment(config)
    # every round of avdc and ours plans, and an episode's replans count its rounds
    assert calls == {"build_task_assets": 2, "run_episode": 12,
                     "plan_to_action": sum(row.replans for row in result.rows)}


def recorded_digest_matches(workload, chunk, tmp_path):
    """Run seed-0 chunk ``chunk`` of ``workload`` in-process; True when its CSV
    hashes to the digest the benchmark records."""
    import hashlib
    import json

    from replan import ExperimentConfig, run_experiment, write_episodes_csv

    workloads = load_perfbench("workloads")
    reference = json.loads((PERFBENCH / "reference.json").read_text())
    assert reference["seed"] == 0
    payload = workloads.payload(workload, workloads.chunk_seed(0, chunk))
    result = run_experiment(ExperimentConfig.from_dict(payload))
    write_episodes_csv(result.rows, tmp_path / "episodes.csv", timing=False)
    digest = hashlib.sha256((tmp_path / "episodes.csv").read_bytes()).hexdigest()
    return digest == reference["sha256"][workload][chunk]


@pytest.mark.parametrize("workload", ["grid", "refine", "wide"])
def test_chunk_zero_matches_the_recorded_digest(workload, tmp_path):
    # the benchmark checks bit-identity only when someone runs it; this runs
    # its seed-0 chunk 0 in-process against the digest it records
    assert recorded_digest_matches(workload, 0, tmp_path)


def test_every_refine_chunk_matches_the_recorded_digest(tmp_path):
    # a refined embedding is exact only to rounding, and a draw that lands near a
    # cumulative kernel weight turns on its last bits; all six recorded chunks
    # guard the episodes refinement decides
    mismatched = [c for c in range(6) if not recorded_digest_matches("refine", c, tmp_path)]
    assert mismatched == []


DEMO_DIGESTS = {
    "environments": "dac6849689ccddfc0cdc3040e06e968e007bc0ae8416814adcceb73d12111424",
    "experiment_report": "e6b4f267b70336eeaa98766c92eb1f906724c766c2bee06bdfa4488eae5f4663",
    "rejection_refinement": "0b603fe8c5f117689a9d245e72a3aea458d164c8862b568a09338670ef44e6b8",
    "retrieval_demo": "5fc1458f6514bc6425ed3ba98d647dd4b578e49a47d2aac2bb48f589d2aadf86",
    "video_metrics": "0eb1ca61a8142e5f2ffb832dc5355520375302905777151f8b00b7f9ae5afac6",
}


@pytest.mark.parametrize("demo", sorted(DEMO_DIGESTS))
def test_demo_prints_the_recorded_bytes(demo):
    # a refactor that keeps every number of the library keeps every byte the
    # demos print; each runs as a user would, in a fresh process on src/
    import hashlib
    import os
    import subprocess
    import sys

    root = PERFBENCH.parent
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    out = subprocess.run([sys.executable, str(root / "demos" / f"{demo}.py")], env=env,
                         check=True, capture_output=True, timeout=120).stdout
    assert hashlib.sha256(out).hexdigest() == DEMO_DIGESTS[demo]


def test_readme_lists_every_run_field_in_order():
    # the README's list of the fields a run's JSON may name is kept by hand
    import re

    from replan import ExperimentConfig

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listed = re.search(r"`run` accepts any `ExperimentConfig` field in the JSON \(([^)]*)\)",
                       readme)
    assert listed is not None
    assert listed.group(1).replace(",", " ").split() == list(ExperimentConfig.__dataclass_fields__)


def test_readme_manifest_example_lists_the_entry_keys_save_dataset_writes(tmp_path):
    # the README's manifest example is kept by hand
    import json
    import re

    import numpy as np

    from replan import ExperienceTuple, Video, save_dataset

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"\*\*Dataset manifest\*\*.*?```json\n(.*?)```", readme, re.DOTALL)
    assert example is not None
    clip = Video(np.zeros((2, 8, 8), dtype=np.float32))
    written = json.loads(save_dataset(tmp_path, "openbox", [ExperienceTuple(
        clip, "openbox/lift", True)]).read_text())
    documented = json.loads(example.group(1))
    assert list(documented) == list(written)
    assert [list(entry) for entry in documented["entries"]] == [
        list(entry) for entry in written["entries"]]
