"""The per-task plan table against the per-call functions it replaces in the loop."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import replan.loop as loop
from replan import (
    ALL_TASKS,
    BufferPolicy,
    EnvInstance,
    EnvKind,
    ExperienceTuple,
    ExperimentConfig,
    FailedPlanBuffer,
    GenerationConfig,
    InteractionBuffer,
    Method,
    PlanDecodeError,
    RefineConfig,
    RejectionMetric,
    RetrievalConfig,
    Video,
    build_dataset,
    build_task_assets,
    encode_video,
    execute,
    generate,
    hidden_values,
    pixel_l2,
    plan_to_action,
    psnr,
    refine_embedding,
    reset,
    retrieve,
    sample_hidden,
    save_dataset,
    select_plan,
    ssim,
)
from replan.loop import RoundRecord

METRICS = [m.value for m in RejectionMetric]


def per_call_action(kind, video):
    try:
        return plan_to_action(kind, video)
    except PlanDecodeError as err:
        return str(err)


def table_mismatches(task, metric):
    """Entries of ``task``'s plan table that differ from their per-call values."""
    assets = build_task_assets(ExperimentConfig(tasks=(task,), rejection_metric=metric), task)
    plans = assets.plans
    first_frame = reset(EnvInstance.create(assets.kind, hidden_values(assets.kind)[0]))
    videos = [support.with_first_frame(first_frame) for support in assets.planner.videos]
    features = [encode_video(video) for video in videos]
    bad = []
    for i, video in enumerate(videos):
        if plans.videos[i].pixels.tobytes() != video.pixels.tobytes():
            bad.append(f"{task} video {i}")
        if plans.actions[i] != per_call_action(assets.kind, video):
            bad.append(f"{task} action {i}: {plans.actions[i]!r}")
        for j, other in enumerate(videos):
            if metric == "raw_pixel":
                expected = pixel_l2(video, other)
            else:
                expected = float(np.linalg.norm(features[i] - features[j]))
            if plans.distances[i, j] != expected:
                bad.append(f"{task} {metric} distance ({i}, {j}): {plans.distances[i, j]!r}")
    return bad


def all_table_mismatches():
    return sum((table_mismatches(task, metric) for task in ALL_TASKS for metric in METRICS), [])


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("task", ALL_TASKS)
def test_table_entries_equal_per_call_values(task, metric):
    assert table_mismatches(task, metric) == []


def test_table_entries_equal_per_call_values_across_blas_threads():
    # as episodes_under_blas_threads in test_cli.py: fresh processes under 1 and 2 threads
    tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
    script = "import json, test_plan_table as t; print(json.dumps(t.all_table_mismatches()))"
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), str(tests),
                                                           os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        assert json.loads(out.splitlines()[-1]) == [], threads


@pytest.mark.parametrize("metric", METRICS)
def test_select_plan_picks_as_the_video_level_oracle(metric):
    # repeated candidates and tied scores included; ties go to the first candidate
    assets = build_task_assets(ExperimentConfig(tasks=("pushbar",), rejection_metric=metric),
                               "pushbar")
    plans, rng = assets.plans, np.random.default_rng(5)
    for _ in range(200):
        candidates = rng.integers(len(plans.videos), size=int(rng.integers(1, 6)))
        failed = [int(i) for i in rng.integers(len(plans.videos), size=int(rng.integers(0, 6)))]
        buffer = FailedPlanBuffer([plans.videos[i] for i in failed])
        best, _ = select_plan([plans.videos[i] for i in candidates], buffer, metric)
        assert loop.select_plan(plans, candidates, failed) == candidates[best]


def test_assets_refuse_another_rejection_metric():
    assets = build_task_assets(ExperimentConfig(tasks=("openbox",)), "openbox")
    env = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
    config = ExperimentConfig(rejection_metric="embedding")
    with pytest.raises(ValueError, match="rejection metric 'raw_pixel'"):
        loop.run_episode(env, Method.OURS, assets, config, np.random.default_rng(0))
    # a method without rejection reads no distances
    loop.run_episode(env, Method.AVDC, assets, config, np.random.default_rng(0))


def video_level_rounds(env, method, assets, config, rng):
    """The episode as the loop ran it on ``Video``s: generated copies, rejection
    scored per round and every plan decoded per call."""
    first_frame = reset(env)
    buffer, interactions = FailedPlanBuffer(), InteractionBuffer()
    gt_plan = assets.gt_plans[env.theta_value]
    retrieval = RetrievalConfig(tau=config.tau, buffer_policy=BufferPolicy(config.buffer_policy))
    refine = RefineConfig(steps=config.refine_steps, restarts=config.refine_restarts)
    n = method.candidate_count(config.n_candidates)
    rounds = []
    for round_index in range(1, config.max_replans + 1):
        embeddings = None
        if interactions and method.uses_retrieval:
            embeddings = retrieve(assets.table, interactions, retrieval, rng, count=n)
        elif interactions and method.uses_refinement:
            refined = refine_embedding(
                assets.identifier, interactions[-1], None, refine, rng, count=n
            )
            embeddings = np.stack([r.embedding for r in refined])
        candidates = generate(
            assets.planner, first_frame, embeddings, GenerationConfig(n_candidates=n), rng
        )
        plan = candidates[0]
        if method.uses_rejection:
            _, plan = select_plan(candidates, buffer, config.rejection_metric)
        scores = psnr(plan, gt_plan), ssim(plan, gt_plan)
        try:
            action = plan_to_action(env.kind, plan)
        except PlanDecodeError:
            buffer.push(plan)
            rounds.append(RoundRecord(round_index, None, False, *scores))
            continue
        outcome = execute(env, action)
        rounds.append(RoundRecord(round_index, action.value, outcome.success, *scores))
        if outcome.success:
            break
        buffer.push(plan)
        interactions.push(outcome.video)
    return tuple(rounds)


PLANNING_METHODS = [m for m in Method if m is not Method.RANDOM]


def assert_episodes_match_video_level(assets, config, seeds):
    rounds = []
    for method in PLANNING_METHODS:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
            state = rng.bit_generator.state
            record = loop.run_episode(env, method, assets, config, rng)
            rng.bit_generator.state = state
            assert record.rounds == video_level_rounds(env, method, assets, config, rng), (
                assets.kind, method, seed
            )
            rounds += record.rounds
    return rounds


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("task", ALL_TASKS)
def test_episodes_match_the_video_level_loop(task, metric):
    config = ExperimentConfig(
        tasks=(task,), n_candidates=3, rejection_metric=metric, refine_steps=10
    )
    assets = build_task_assets(config, task)
    assert_episodes_match_video_level(assets, config, range(4))


def test_undecodable_support_plan_takes_the_undecodable_branch(tmp_path):
    # a data_root dataset whose planner support holds a blank clip: with the
    # reset frame as frame 0 it shows the lid in one frame only
    dataset, thetas = build_dataset(EnvKind.OPEN_BOX)
    blank = Video(np.zeros((8, 32, 32), dtype=np.float32))
    tuples = [*dataset.tuples, ExperienceTuple(blank, "openbox/lift", True)]
    save_dataset(tmp_path / "openbox", "openbox", tuples, [*thetas, "lift"])
    config = ExperimentConfig(tasks=("openbox",), data_root=str(tmp_path), n_candidates=3)
    assets = build_task_assets(config, "openbox")
    assert assets.plans.actions[-1] == "object visible in fewer than two frames"
    assert not isinstance(assets.plans.actions[0], str)
    with pytest.raises(PlanDecodeError, match="fewer than two frames"):
        loop.plan_to_action(assets.plans, len(assets.plans.videos) - 1)
    rounds = assert_episodes_match_video_level(assets, config, range(12))
    assert any(r.action is None for r in rounds) and any(r.action is not None for r in rounds)
