"""The per-task plan table against the per-call functions it replaces in the loop."""

import functools
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    object_id,
    pixel_l2,
    plan_to_action,
    psnr,
    refine_embedding,
    reset,
    retrieve,
    run_experiment,
    sample_hidden,
    save_dataset,
    scripted_action,
    select_plan,
    ssim,
)
from replan.core import PSNR_CAP_DB
from replan.envs import rollout_success, succeeds
from replan.generator import cumulative_weights, draw_indices
from replan.loop import RoundRecord

METRICS = [m.value for m in RejectionMetric]


def per_call_action(kind, video):
    try:
        return plan_to_action(kind, video)
    except PlanDecodeError as err:
        return str(err)


@functools.cache
def task_assets(task):
    """``task``'s assets, built once: they are the same for every rejection metric."""
    return build_task_assets(ExperimentConfig(tasks=(task,)), task)


def table_mismatches(task, metric):
    """Entries of ``task``'s plan table that differ from their per-call values."""
    assets = task_assets(task)
    plans, distances = assets.plans, assets.plans.distances[RejectionMetric(metric)]
    first_frame = reset(EnvInstance(assets.kind, hidden_values(assets.kind)[0]))
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
                # the PSNR table shares the raw-pixel sums of squares
                if plans.psnr[i, j] != psnr(video, other):
                    bad.append(f"{task} psnr ({i}, {j}): {plans.psnr[i, j]!r}")
            else:
                expected = float(np.linalg.norm(features[i] - features[j]))
            if distances[i, j] != expected:
                bad.append(f"{task} {metric} distance ({i}, {j}): {distances[i, j]!r}")
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


@pytest.mark.parametrize("task", ALL_TASKS)
def test_success_rule_is_what_execute_reports(task):
    # the loop decides success without a render, for every action it can take
    assets = task_assets(task)
    decodable = [action for action in assets.plans.actions if not isinstance(action, str)]
    for theta in hidden_values(assets.kind):
        env = EnvInstance(assets.kind, theta)
        for action in [*assets.hypotheses, *decodable]:
            success = execute(env, action).success
            assert rollout_success(assets.kind, theta, action.value) == success, (theta, action)
            assert succeeds(env, action) == success, (theta, action)


@pytest.mark.parametrize("metric", METRICS)
def test_select_plan_picks_as_the_video_level_oracle(metric):
    # repeated candidates and tied scores included; ties go to the first candidate
    plans, rng = task_assets("pushbar").plans, np.random.default_rng(5)
    distances = plans.distances[RejectionMetric(metric)]
    for _ in range(200):
        candidates = rng.integers(len(plans.videos), size=int(rng.integers(1, 6)))
        failed = [int(i) for i in rng.integers(len(plans.videos), size=int(rng.integers(0, 6)))]
        buffer = FailedPlanBuffer([plans.videos[i] for i in failed])
        best, _ = select_plan([plans.videos[i] for i in candidates], buffer, metric)
        assert loop.select_plan(distances, candidates, failed) == candidates[best]


@settings(max_examples=150, deadline=None)
@given(metric=st.sampled_from(METRICS), candidates=st.lists(st.integers(0, 999), min_size=1,
       max_size=5), failed=st.lists(st.integers(0, 999), max_size=6))
@example(metric="raw_pixel", candidates=[4], failed=[])
@example(metric="embedding", candidates=[3, 3, 7, 3, 7], failed=[7, 7, 3])
def test_select_plan_gathers_as_the_ix_form_and_picks_as_the_video_level_oracle(
    metric, candidates, failed
):
    # a row gather, then a column gather: the same entries as np.ix_, and the minimum is
    # exact, so the scores and the pick are the same bits; repeated rows included
    plans = task_assets("pushbar").plans
    distances = plans.distances[RejectionMetric(metric)]
    candidates = np.array(candidates) % len(plans.videos)
    failed = [row % len(plans.videos) for row in failed]
    ix = distances[np.ix_(candidates, failed)].min(axis=1, initial=np.inf)
    gathered = distances[candidates][:, failed].min(axis=1, initial=np.inf)
    assert gathered.tobytes() == ix.tobytes()
    pick = loop.select_plan(distances, candidates, failed)
    assert pick == int(candidates[np.argmax(ix)])
    buffer = FailedPlanBuffer([plans.videos[i] for i in failed])
    best, _ = select_plan([plans.videos[i] for i in candidates], buffer, metric)
    assert pick == candidates[best]


@pytest.mark.parametrize("task", ALL_TASKS)
def test_weights_rows_are_the_generators_cumulative_weights(task):
    # row o is the cumulative weights at object o's canonical embedding, and the uniform
    # row those at no embedding, bit for bit; a draw from gathered rows is the draw from
    # the weights at the gathered embeddings, from the same uniforms
    assets = task_assets(task)
    planner, canonical = assets.planner, assets.table.canonical
    assert assets.weights.shape == (len(canonical), len(planner))
    for o, embedding in enumerate(canonical):
        assert assets.weights[o].tobytes() == cumulative_weights(planner, embedding).tobytes()
    assert assets.uniform.tobytes() == cumulative_weights(planner, None).tobytes()
    rng = np.random.default_rng(61)
    for n in (1, 2, 3, 5):
        objects = rng.integers(len(canonical), size=n)
        for rows, conditioning in ((assets.weights[objects], canonical[objects]),
                                   (assets.uniform, None)):
            state = rng.bit_generator.state
            drawn = draw_indices(rows, n, rng)
            after, rng.bit_generator.state = rng.bit_generator.state, state
            expected = draw_indices(cumulative_weights(planner, conditioning), n, rng)
            assert drawn.tolist() == expected.tolist()
            assert rng.bit_generator.state == after



def draw_batch_mismatches():
    """Each m from 1 to 800 where ``draw_indices`` on m gathered pushbar
    ``TaskAssets.weights`` rows differs in any index from each row drawn alone, in turn,
    from the same uniforms, or leaves the rng elsewhere."""
    weights = task_assets("pushbar").weights
    picks, rng = np.random.default_rng(62), np.random.default_rng(63)
    bad = []
    for m in range(1, 801):
        rows = weights[picks.integers(len(weights), size=m)]
        state = rng.bit_generator.state
        batch = draw_indices(rows, m, rng)
        after, rng.bit_generator.state = rng.bit_generator.state, state
        alone = [int(draw_indices(row, 1, rng)[0]) for row in rows]
        if batch.tolist() != alone or rng.bit_generator.state != after:
            bad.append(m)
    return bad


def test_gathered_draws_are_batch_invariant_across_blas_threads():
    # the batch-invariance harness: a batched draw is its rows drawn alone, at every
    # batch size the loop could reach and more, in fresh processes under 1 and 2 threads
    tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
    script = "import json, test_plan_table as t; print(json.dumps(t.draw_batch_mismatches()))"
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), str(tests),
                                                           os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        assert json.loads(out.splitlines()[-1]) == [], threads

def test_rows_with_equal_bytes_score_exactly_one():
    # per_theta_success=2 gives each object two successful clips with one set of bytes:
    # distinct rows, a ground-truth row among them, that the held ssim scores exactly 1.0
    # by its arithmetic, with no byte shortcut
    for task in ("pushbar", "openbox"):
        assets = build_task_assets(ExperimentConfig(tasks=(task,), per_theta_success=2), task)
        plans = assets.plans
        pairs = [(i, j) for i, a in enumerate(plans.videos) for j, b in enumerate(plans.videos)
                 if i != j and a.pixels.tobytes() == b.pixels.tobytes()]
        assert any(j in assets.gt_rows.values() for _, j in pairs)
        assert {loop.ssim(plans.holds[i], plans.holds[j]) for i, j in pairs} == {1.0}


def video_level_rounds(env, method, assets, config, rng):
    """The episode as the loop ran it on ``Video``s: generated copies, rejection
    scored per round, every plan decoded per call and every failed interaction
    retrieved or refined from its fresh render."""
    first_frame = reset(env)
    buffer, interactions = FailedPlanBuffer(), []
    gt_plan = assets.plans.videos[assets.gt_rows[env.theta_value]]
    retrieval = RetrievalConfig(tau=config.tau, buffer_policy=BufferPolicy(config.buffer_policy))
    refine = RefineConfig(steps=config.refine_steps, restarts=config.refine_restarts)
    n = method.candidate_count(config.n_candidates)
    rounds = []
    for _ in range(config.max_replans):
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
            rounds.append(RoundRecord(None, False, *scores))
            continue
        outcome = execute(env, action)
        rounds.append(RoundRecord(action.value, outcome.success, *scores))
        if outcome.success:
            break
        buffer.push(plan)
        interactions.append(outcome.video)
    return tuple(rounds)


PLANNING_METHODS = [m for m in Method if m is not Method.RANDOM]


def assert_episodes_match_video_level(assets, config, seeds, methods=PLANNING_METHODS):
    rounds = []
    for method in methods:
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
    assert_episodes_match_video_level(task_assets(task), config, range(4))


@settings(max_examples=300, deadline=None)
@given(task=st.sampled_from(ALL_TASKS), method=st.sampled_from(PLANNING_METHODS),
       n_candidates=st.integers(1, 5), tau=st.none() | st.floats(0.01, 100.0),
       buffer_policy=st.sampled_from([p.value for p in BufferPolicy]),
       metric=st.sampled_from(METRICS), max_replans=st.integers(1, 14),
       refine_steps=st.integers(0, 20), refine_restarts=st.integers(1, 3),
       seed=st.integers(0, 2**32 - 1))
def test_every_config_runs_episodes_as_the_video_level_loop(
    task, method, n_candidates, tau, buffer_policy, metric, max_replans, refine_steps,
    refine_restarts, seed,
):
    # the oracle across the fields an episode reads, on each task's one build
    config = ExperimentConfig(
        tasks=(task,), methods=(method.value,), n_candidates=n_candidates, tau=tau,
        buffer_policy=buffer_policy, rejection_metric=metric, max_replans=max_replans,
        refine_steps=refine_steps, refine_restarts=refine_restarts,
    )
    assert_episodes_match_video_level(task_assets(task), config, [seed], [method])


def test_one_build_serves_every_rejection_metric():
    # ``ours`` episodes under both metrics from one build, each as its oracle runs them
    assets = build_task_assets(ExperimentConfig(tasks=("pushbar",)), "pushbar")
    rounds = [
        assert_episodes_match_video_level(
            assets, ExperimentConfig(n_candidates=3, rejection_metric=metric), range(12),
            [Method.OURS],
        )
        for metric in METRICS
    ]
    assert rounds[0] != rounds[1]  # the metric reaches the episodes


def data_root_assets(tmp_path, keep=lambda theta: True):
    """slidebrick's assets from a saved copy of its generated dataset, every video a
    loaded copy; ``keep`` picks the hidden values whose rollouts are saved."""
    kind = EnvKind.SLIDE_BRICK
    kept = {object_id(kind, theta) for theta in hidden_values(kind) if keep(theta)}
    save_dataset(tmp_path / "slidebrick", "slidebrick",
                 [item for item in build_dataset(kind).tuples if item.object_id in kept])
    config = ExperimentConfig(tasks=("slidebrick",), data_root=str(tmp_path))
    return build_task_assets(config, "slidebrick")


def assert_ground_truth_rows(assets):
    """Each ground-truth plan is the plan-table row with the bytes of a fresh scripted
    rollout, held as that row's video, and shares the row's ssim hold and PSNR entries;
    returns the rows appended after the planner support."""
    from replan.core import window_moments

    plans, support = assets.plans, len(assets.planner)
    assert list(assets.gt_rows) == list(hidden_values(assets.kind))
    for theta, row in assets.gt_rows.items():
        assert type(row) is int and 0 <= row < len(plans.videos)
        gt = plans.videos[row]
        env = EnvInstance(assets.kind, theta)
        assert execute(env, scripted_action(env)).video.pixels.tobytes() == gt.pixels.tobytes()
        wide, moments = plans.holds[row]
        assert wide.tobytes() == gt.pixels.astype(np.float64).tobytes()
        assert moments.tobytes() == window_moments(gt.pixels).tobytes()
        assert [psnr(video, gt) for video in plans.videos] == plans.psnr[:, row].tolist()
    appended = sorted(row for row in set(assets.gt_rows.values()) if row >= support)
    assert appended == list(range(support, len(plans.videos)))
    return appended


def test_saved_ground_truth_copies_match_support_rows(tmp_path):
    # every build renders its ground truth afresh, and loaded copies are other objects
    # again: rows are matched by bytes, so nothing is appended for a generated dataset
    for assets in (*map(task_assets, ALL_TASKS), data_root_assets(tmp_path)):
        assert assert_ground_truth_rows(assets) == [], assets.kind


def scored_episodes(monkeypatch, assets, config, seeds=range(6)):
    """``run_episode`` over ``seeds`` for every planning method, counting the loop's
    ``psnr`` calls and ``core.window_means`` calls and keeping every candidate index
    ``generate`` draws; returns (records, counts, candidates)."""
    import replan.core

    counts, candidates = {"psnr": 0, "window_means": 0}, []

    def counted(name, fn):
        def call(*args):
            counts[name] += 1
            return fn(*args)
        return call

    def kept(fn):
        def call(*args):
            out = fn(*args)
            candidates.extend(int(i) for i in out)
            return out
        return call

    monkeypatch.setattr(loop, "psnr", counted("psnr", loop.psnr))
    monkeypatch.setattr(replan.core, "window_means",
                        counted("window_means", replan.core.window_means))
    monkeypatch.setattr(loop, "generate", kept(loop.generate))
    records = []
    for method in PLANNING_METHODS:
        for seed in seeds:
            rng = np.random.default_rng(seed)
            env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
            records.append(loop.run_episode(env, method, assets, config, rng))
    return records, counts, candidates


def distinct_plans_scored(records):
    """Scored rounds whose plan is not byte-equal to the ground truth: a plan that is
    scores PSNR at the cap."""
    return sum(r.plan_psnr is not None and r.plan_psnr < PSNR_CAP_DB
               for record in records for r in record.rounds)


def distinct_pairs_scored(assets):
    """Kept (plan row, ground-truth row) SSIMs: each built one product map, on its first
    round.  A plan row scored against itself is 1.0 with no map, and is not kept."""
    assert all(plan != gt for plan, gt in assets.ssims)
    return len(assets.ssims)


def test_a_simulator_episode_scores_with_one_product_map_per_round(monkeypatch):
    # every ground-truth plan is a table row: PSNR is a lookup, SSIM one cross moment,
    # built on the first round that scores its pair and kept for the task
    assets = replace(task_assets("pushbar"), ssims={})
    records, counts, _ = scored_episodes(monkeypatch, assets, ExperimentConfig(refine_steps=5))
    assert counts == {"psnr": 0, "window_means": distinct_pairs_scored(assets)}
    assert len(records) < counts["window_means"] < distinct_plans_scored(records)


def test_a_ground_truth_plan_off_the_support_is_an_appended_row(tmp_path, monkeypatch):
    # a data_root dataset that saves the rollouts of every other hidden value only
    thetas = hidden_values(EnvKind.SLIDE_BRICK)
    assets = data_root_assets(tmp_path, keep=lambda theta: theta in thetas[::2])
    appended = assert_ground_truth_rows(assets)
    assert len(appended) == len(thetas[1::2])
    assert {assets.gt_rows[theta] for theta in thetas[1::2]} == set(appended)
    config = ExperimentConfig(refine_steps=5)
    records, counts, candidates = scored_episodes(monkeypatch, assets, config)
    assert counts == {"psnr": 0, "window_means": distinct_pairs_scored(assets)}
    assert candidates and max(candidates) < len(assets.planner)
    # and the scores are per-call psnr's and ssim's, as the Video-level loop computes them
    assert_episodes_match_video_level(assets, config, range(6))


def test_ground_truth_rows_do_not_rest_on_the_rollout_cache():
    # no rollout is kept between runs: each run renders its dataset and ground truth
    # afresh, as new objects with the same bytes, so the rows stay on the planner
    # support and the episodes repeat
    def episodes(config):
        return [replace(row, wall_ms={}) for row in run_experiment(config).rows]

    config = ExperimentConfig(trials=3, refine_steps=5)
    expected = episodes(config)
    for task in ALL_TASKS:
        assets = build_task_assets(config, task)
        assert all(row < len(assets.planner) for row in assets.gt_rows.values()), task
    assert episodes(config) == expected


@pytest.mark.parametrize("shape", [(6, 32, 32), (8, 16, 16)])
def test_data_root_clips_of_another_shape_fail_at_set_up(tmp_path, shape):
    dataset = build_dataset(EnvKind.OPEN_BOX)
    tuples = [ExperienceTuple(Video(np.zeros(shape, dtype=np.float32)), item.object_id,
                              item.success) for item in dataset.tuples]
    save_dataset(tmp_path / "openbox", "openbox", tuples)
    config = ExperimentConfig(tasks=("openbox",), data_root=str(tmp_path))
    message = rf"clips of shape \[{re.escape(str(shape))}\] are not the simulator's \(8, 32, 32\)"
    with pytest.raises(ValueError, match=message):
        build_task_assets(config, "openbox")


def test_undecodable_support_plan_takes_the_undecodable_branch(tmp_path):
    # a data_root dataset whose planner support holds a blank clip: with the
    # reset frame as frame 0 it shows the lid in one frame only
    dataset = build_dataset(EnvKind.OPEN_BOX)
    blank = Video(np.zeros((8, 32, 32), dtype=np.float32))
    tuples = [*dataset.tuples, ExperienceTuple(blank, "openbox/lift", True)]
    save_dataset(tmp_path / "openbox", "openbox", tuples)
    config = ExperimentConfig(tasks=("openbox",), data_root=str(tmp_path), n_candidates=3)
    assets = build_task_assets(config, "openbox")
    assert assets.plans.actions[-1] == "object visible in fewer than two frames"
    assert not isinstance(assets.plans.actions[0], str)
    with pytest.raises(PlanDecodeError, match="fewer than two frames"):
        loop.plan_to_action(assets.plans, len(assets.plans.videos) - 1)
    rounds = assert_episodes_match_video_level(assets, config, range(12))
    assert any(r.action is None for r in rounds) and any(r.action is not None for r in rounds)
