"""Replanning loop, experiment grid, and result statistics."""

import hashlib
import json
import logging
import math
import re
from dataclasses import replace
from enum import Enum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replan import (
    ALL_METHODS,
    ALL_TASKS,
    BufferPolicy,
    EnvAction,
    EnvInstance,
    EnvKind,
    ExperimentConfig,
    Method,
    RejectionMetric,
    RetrievalConfig,
    ablation_sweep,
    build_task_assets,
    default_pca_k,
    embedding_rows,
    execute,
    hidden_values,
    interaction_logits,
    observation_terms,
    plan_quality,
    results_table,
    retrieval_probabilities,
    run_episode,
    run_experiment,
    sample_hidden,
    trial_seed,
)
from replan import envs
from replan.loop import WALL_PHASES, CellStats, EpisodeRow
from test_cli import cli_error


@pytest.fixture(scope="module")
def openbox_assets():
    return build_task_assets(ExperimentConfig(tasks=("openbox",)), "openbox")


@pytest.fixture(scope="module")
def openbox_run():
    cfg = ExperimentConfig(
        tasks=("openbox",), methods=("random", "avdc", "ours"), trials=200
    )
    return run_experiment(cfg)


def reduction_bits(value):
    """The bytes of a stored failed interaction: a logits row or refinement terms."""
    if isinstance(value, tuple):
        const, cross = value
        return np.float64(const).tobytes() + cross.tobytes()
    return value.tobytes()


def make_row(task, method, replans, trial=0, psnr=None, ssim=None):
    return EpisodeRow(
        task=task,
        method=method,
        trial=trial,
        seed=0,
        theta=0.0,
        replans=replans,
        succeeded=True,
        mean_psnr=psnr,
        mean_ssim=ssim,
        wall_ms={},
    )


# ---------------------------------------------------------------------------
# Seeding

def test_trial_seed_oracle():
    digest = hashlib.sha256(b"0|openbox|ours|0").digest()
    expected = int.from_bytes(digest[:8], "little")
    assert trial_seed(0, "openbox", "ours", 0) == expected == 16459936098988689234

    seeds = {
        trial_seed(m, t, meth, i)
        for m in (0, 1)
        for t in ("openbox", "pushbar")
        for meth in ("ours", "avdc")
        for i in (0, 1, 2)
    }
    assert len(seeds) == 24  # every coordinate perturbs the seed


def test_method_flags():
    assert Method.OURS.uses_retrieval and Method.OURS.uses_rejection
    assert not Method.OURS.uses_refinement
    assert Method.OURS_REFINE.uses_refinement and Method.OURS_REFINE.uses_rejection
    assert not Method.OURS_REFINE.uses_retrieval
    assert not Method.AVDC.uses_retrieval and not Method.AVDC.uses_rejection
    assert Method.AVDC_REJECTION.uses_rejection
    assert Method.AVDC_RETRIEVAL.uses_retrieval

    for m in (Method.RANDOM, Method.AVDC, Method.AVDC_RETRIEVAL):
        assert m.candidate_count(5) == 1
    for m in (Method.OURS, Method.OURS_REFINE, Method.AVDC_REJECTION):
        assert m.candidate_count(5) == 5


# ---------------------------------------------------------------------------
# Two-mode analytic chain

def test_two_mode_analytic_constants(openbox_assets):
    # a blind method on a 2-mode task is a coin per round, truncated at 14
    mean_blind = sum(r * 0.5**r for r in range(1, 14)) + 14 * 0.5**13
    assert mean_blind == 1.9998779296875

    # support distance equals the bandwidth, so conditioning on the correct
    # canonical embedding emits the correct plan with probability s(1/2)
    from replan.generator import _log_weights
    from replan.retrieval import softmax

    g = openbox_assets.planner
    assert len(g) == 2
    e_lift = openbox_assets.table.canonical_for("openbox/lift")
    w = softmax(_log_weights(g.embeddings, g.bandwidth, e_lift))
    cc = 1.0 / (1.0 + math.exp(-0.5))
    assert cc == pytest.approx(0.6224593312018546, rel=1e-15)
    assert max(w) == pytest.approx(cc, rel=1e-9)

    # retrieval pinpoints the failed object: the failure video sits at
    # distance zero from ten table entries of the true object
    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
    stuck = execute(env, EnvAction(EnvKind.OPEN_BOX, "slide")).video
    p = retrieval_probabilities(openbox_assets.table, [stuck], RetrievalConfig())
    table = openbox_assets.table
    correct = sum(
        p[i] for i in range(len(table)) if table.entry_object_id(i) == "openbox/lift"
    )
    assert correct > 0.97

    # chained: round 1 is a fair coin; later rounds succeed when either of
    # the two correctly-conditioned candidates is the correct plan
    q = 1.0 - (1.0 - cc) ** 2
    assert q == pytest.approx(0.8574630434034491, rel=1e-12)
    u = 1.0 - q
    mean_ours = 0.5 + 0.5 * (
        sum(r * q * u ** (r - 2) for r in range(2, 14)) + 14 * u**12
    )
    assert mean_ours == pytest.approx(1.5831155101570138, rel=1e-12)
    p_two = 0.5 + 0.5 * q
    assert p_two == pytest.approx(0.9287315217017246, rel=1e-12)


def test_two_mode_empirical_means(openbox_run):
    table = openbox_run.table
    blind_analytic = 1.9998779296875
    for method in ("random", "avdc"):
        cell = table.cell(method, "openbox")
        assert abs(cell.mean - blind_analytic) < 4 * cell.sem
        assert 1.6 <= cell.mean <= 2.2

    ours = table.cell("ours", "openbox")
    assert 1.45 <= ours.mean <= 1.80
    assert table.cell("avdc", "openbox").mean - ours.mean > 0.15


# ---------------------------------------------------------------------------
# Episode mechanics

def test_first_round_action_agrees_across_methods(openbox_assets):
    env = EnvInstance(EnvKind.OPEN_BOX, "slide")
    cfg = ExperimentConfig()
    actions = {}
    for method in (Method.AVDC, Method.OURS, Method.AVDC_REJECTION):
        rng = np.random.default_rng(123)
        rec = run_episode(env, method, openbox_assets, cfg, rng)
        actions[method] = rec.rounds[0].action
    # round 1 is unconditioned for every method, so the first sample agrees
    assert len(set(actions.values())) == 1


def test_failed_episode_reports_cap(openbox_assets):
    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
    cfg = ExperimentConfig(max_replans=2)
    rec = run_episode(env, Method.AVDC, openbox_assets, cfg, np.random.default_rng(1))
    assert not rec.succeeded
    assert rec.replans_until_success == 2
    assert len(rec.rounds) == 2
    assert all(not r.success for r in rec.rounds)


def test_episode_plan_metrics(openbox_assets):
    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
    rec = run_episode(env, Method.AVDC, openbox_assets, ExperimentConfig(), np.random.default_rng(3))
    assert rec.succeeded
    for rnd in rec.rounds:
        assert rnd.plan_psnr is not None and rnd.plan_psnr > 0
        assert rnd.plan_ssim is not None and 0 <= rnd.plan_ssim <= 1
    assert rec.mean_plan_psnr == pytest.approx(
        np.mean([r.plan_psnr for r in rec.rounds])
    )

    rand = run_episode(env, Method.RANDOM, openbox_assets, ExperimentConfig(), np.random.default_rng(3))
    assert all(r.plan_psnr is None for r in rand.rounds)
    assert rand.mean_plan_psnr is None and rand.mean_plan_ssim is None


@pytest.mark.parametrize("method", list(Method))
def test_episode_renders_only_rollouts_a_later_round_reads(
    pushbar_assets, openbox_assets, monkeypatch, method
):
    # success is a rule on (theta, action); only retrieval and refinement read a failed
    # rollout, from the round after it on, as the reduction the task's rollout store keeps
    # for its (theta, plan-table row) pair, and execute renders it the first time the pair
    # is pushed: the config names every method, so that render reduces it for both readers
    import replan.loop

    executed, reads = [], []
    real, retrieve, refine = replan.loop.execute, replan.loop.retrieve, replan.loop.refine_embedding
    monkeypatch.setattr(
        replan.loop, "execute", lambda env, action: executed.append(action) or real(env, action)
    )
    monkeypatch.setattr(replan.loop, "retrieve", lambda table, query, *args, **kwargs:
                        reads.append(list(query)) or retrieve(table, query, *args, **kwargs))
    monkeypatch.setattr(replan.loop, "refine_embedding", lambda g, observed, *args, **kwargs:
                        reads.append([observed]) or refine(g, observed, *args, **kwargs))
    cfg, failed_total, last_failed = ExperimentConfig(max_replans=6, refine_steps=5), 0, 0
    for assets in (pushbar_assets, openbox_assets):
        def reduce(value, env):
            video = real(env, EnvAction(assets.kind, value)).video
            if method.uses_refinement:
                return observation_terms(assets.identifier, video)
            return interaction_logits(assets.table, video)

        for seed in range(6):
            rng = np.random.default_rng(seed)
            env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
            executed.clear(), reads.clear()
            stored = len(assets.rollouts)
            rec = run_episode(env, method, assets, cfg, rng)
            assert len(executed) == len(assets.rollouts) - stored
            assert all(set(entry) == {"logits", "terms"} for entry in assets.rollouts.values())
            # round k + 1 reads the decoded failures of rounds 1..k, or only the last of
            # them when it refines; a round with none to read conditions on nothing
            decoded = [r.action for r in rec.rounds[:-1] if r.action is not None]
            want = []
            if method.uses_retrieval or method.uses_refinement:
                for k in range(1, len(rec.rounds)):
                    pushed = decoded[:sum(r.action is not None for r in rec.rounds[:k])]
                    if pushed:
                        want.append(pushed[-1:] if method.uses_refinement else pushed)
            assert [len(read) for read in reads] == [len(values) for values in want]
            for read, values in zip(reads, want):
                for kept, value in zip(read, values):
                    assert any(kept is entry[method.reads] for entry in assets.rollouts.values())
                    assert reduction_bits(kept) == reduction_bits(reduce(value, env))
            failed_total += len(decoded)
            last_failed += len(rec.rounds) == cfg.max_replans and rec.rounds[-1].action is not None
    assert failed_total > 0 and last_failed > 0


def test_random_episodes_build_no_hypothesis_set(monkeypatch):
    # the task's hypothesis set is built with its assets, once, not per episode
    import replan.loop

    calls = []
    real = replan.loop.candidate_actions
    monkeypatch.setattr(
        replan.loop, "candidate_actions", lambda kind: calls.append(kind) or real(kind)
    )
    assets = build_task_assets(ExperimentConfig(tasks=("openbox",)), "openbox")
    assert calls == [EnvKind.OPEN_BOX]
    modes = {action.value for action in real(EnvKind.OPEN_BOX)}
    for seed in range(20):
        rng = np.random.default_rng(seed)
        env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
        rec = run_episode(env, Method.RANDOM, assets, ExperimentConfig(), rng)
        assert {r.action for r in rec.rounds} <= modes
    assert calls == [EnvKind.OPEN_BOX]


def test_episode_converts_config_enums(monkeypatch):
    import replan.loop

    seen = {"buffer_policy": set(), "rejection_metric": set()}
    retrieve, select_plan = replan.loop.retrieve, replan.loop.select_plan
    cfg = ExperimentConfig(
        tasks=("openbox",), rejection_metric="embedding", buffer_policy="aggregate"
    )
    assets = build_task_assets(cfg, "openbox")

    def recording_retrieve(table, query, config, rng, **kwargs):
        seen["buffer_policy"].add(config.buffer_policy)
        return retrieve(table, query, config, rng, **kwargs)

    def recording_select_plan(distances, candidates, failed):
        # which metric's matrix the episode handed over
        seen["rejection_metric"].update(
            m for m, matrix in assets.plans.distances.items() if matrix is distances
        )
        return select_plan(distances, candidates, failed)

    monkeypatch.setattr(replan.loop, "retrieve", recording_retrieve)
    monkeypatch.setattr(replan.loop, "select_plan", recording_select_plan)
    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
    for seed in range(20):  # retrieval runs only after a failed round
        run_episode(env, Method.OURS, assets, cfg, np.random.default_rng(seed))
    assert seen == {
        "buffer_policy": {BufferPolicy.AGGREGATE},
        "rejection_metric": {RejectionMetric.EMBEDDING},
    }


@pytest.fixture(scope="module")
def pushbar_assets():
    # the episodes below reject under the embedding metric, as criterion 07's sweep does
    cfg = ExperimentConfig(tasks=("pushbar",), rejection_metric="embedding")
    return build_task_assets(cfg, "pushbar")


def ours_episodes(assets, config, seeds=range(12)):
    """``ours`` episodes at hidden values drawn from each seed, as ``run_experiment`` draws them."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
        yield run_episode(env, Method.OURS, assets, config, rng)


@pytest.mark.parametrize("policy", ["latest", "aggregate"])
def test_round_retrieves_once_from_the_episode_buffer(pushbar_assets, monkeypatch, policy):
    import replan.loop

    retrieve = replan.loop.retrieve
    counts = []

    def checking_retrieve(table, query, config, rng, count=None):
        # the round reads the logits rows its task keeps, not videos
        kept = [entry["logits"] for entry in pushbar_assets.rollouts.values()]
        assert all(any(row is entry for entry in kept) for row in query)
        counts.append(count)
        return retrieve(table, query, config, rng, count=count)

    monkeypatch.setattr(replan.loop, "retrieve", checking_retrieve)
    cfg = ExperimentConfig(n_candidates=5, rejection_metric="embedding", buffer_policy=policy)
    records = list(ours_episodes(pushbar_assets, cfg))
    assert counts == [5] * sum(len(rec.rounds) - 1 for rec in records) and counts


@pytest.mark.parametrize("policy", ["latest", "aggregate"])
def test_episode_projects_each_failure_once(monkeypatch, policy):
    # a task encodes and projects each failed (theta, plan-table row) pair once, however
    # many rounds of however many episodes read it
    import replan.encoders
    import replan.retrieval

    cfg = ExperimentConfig(n_candidates=5, rejection_metric="embedding", buffer_policy=policy)
    assets = build_task_assets(cfg, "pushbar")
    calls = {"_block_means": 0, "pca_apply": 0}  # encode_video's per-video work, then pca
    for module, name in ((replan.encoders, "_block_means"), (replan.retrieval, "pca_apply")):
        def counting(*args, real=getattr(module, name), name=name):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    # every executed failure before the last round is read by a later round
    read = sum(sum(r.action is not None for r in rec.rounds[:-1])
               for rec in ours_episodes(assets, cfg, range(30)))
    assert calls == {"_block_means": len(assets.rollouts), "pca_apply": len(assets.rollouts)}
    assert 0 < len(assets.rollouts) < read


@pytest.mark.parametrize("method", [Method.OURS, Method.AVDC_RETRIEVAL, Method.OURS_REFINE])
def test_undecodable_first_plan_keeps_null_conditioning(openbox_assets, monkeypatch, method):
    # a plan that does not decode adds no interaction, so the next round has none to use
    import replan.loop
    from replan.actor import PlanDecodeError

    decode, calls = replan.loop.plan_to_action, []

    def first_fails(plans, index):
        calls.append(index)
        if len(calls) == 1:
            raise PlanDecodeError("forced")
        return decode(plans, index)

    monkeypatch.setattr(replan.loop, "plan_to_action", first_fails)
    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
    rec = run_episode(env, method, openbox_assets, ExperimentConfig(), np.random.default_rng(0))
    assert rec.rounds[0].action is None and len(rec.rounds) >= 2


def test_refining_round_builds_one_objective(monkeypatch):
    import replan.loop
    import replan.refinement

    assets = build_task_assets(ExperimentConfig(tasks=("slidebrick",)), "slidebrick")
    cfg = ExperimentConfig(tasks=("slidebrick",), n_candidates=3, refine_restarts=2)
    envs = [EnvInstance(EnvKind.SLIDE_BRICK, theta) for theta in (0.24, 0.32, 0.4)]

    def episodes():
        return [
            replace(
                run_episode(env, Method.OURS_REFINE, assets, cfg, np.random.default_rng(seed)),
                wall_ms={},
            )
            for seed in range(3)
            for env in envs
        ]

    reductions = []
    reduce = replan.loop.observation_terms
    monkeypatch.setattr(replan.loop, "observation_terms",
                        lambda g, video: reductions.append(video) or reduce(g, video))
    plain = episodes()
    # the task reduces each failed (theta, row) pair once, however many rounds refine on it
    assert len(reductions) == len(assets.rollouts) < sum(len(rec.rounds) - 1 for rec in plain)
    builds = []
    setup = replan.refinement._identification_loss

    def counting_setup(*args, **kwargs):
        # the descent builds its per-observation loss once for all of a round's chains
        builds.append(args[1])
        return setup(*args, **kwargs)

    monkeypatch.setattr(replan.refinement, "_identification_loss", counting_setup)
    assert episodes() == plain
    refining_rounds = sum(len(rec.rounds) - 1 for rec in plain)
    assert refining_rounds > 0
    assert len(builds) == refining_rounds
    assert len(reductions) == len(assets.rollouts)  # a rerun reads only kept terms
    assert all(any(b is kept["terms"] for kept in assets.rollouts.values()) for b in builds)


def test_support_matrices_are_built_for_refinement_only(monkeypatch):
    # every task builds an identifier, but only a run with ours_refine reads its group
    # table: a run with no refining method reduces no failed rollout to observation terms
    import replan.loop
    from replan import mse_objective

    built, real = [], replan.loop.build_task_assets
    monkeypatch.setattr(replan.loop, "build_task_assets", lambda config, task:
                        built.append(real(config, task)) or built[-1])
    cfg = ExperimentConfig(tasks=("slidebrick",), methods=("avdc_retrieval", "ours"), trials=10)
    result = run_experiment(cfg)
    (assets,) = built
    g = assets.identifier
    assert any(row.replans > 1 for row in result.rows) and assets.rollouts
    assert all(set(entry) == {"logits"} for entry in assets.rollouts.values())
    assert "groups" not in g.__dict__

    env, cfg = EnvInstance(EnvKind.SLIDE_BRICK, 0.4), ExperimentConfig(tasks=("slidebrick",))
    records = [
        run_episode(env, Method.OURS_REFINE, assets, cfg, np.random.default_rng(seed))
        for seed in range(3)
    ]
    assert any(len(rec.rounds) > 1 for rec in records)
    groups = g.__dict__["groups"]
    first, second = [t.video for t in assets.dataset.tuples if not t.success][:2]
    mse_objective(g, first)
    mse_objective(g, second)
    assert g.groups is groups


def test_assets_task_mismatch(openbox_assets):
    env = EnvInstance(EnvKind.PUSH_BAR, 0.0)
    with pytest.raises(ValueError):
        run_episode(env, Method.AVDC, openbox_assets, ExperimentConfig(), np.random.default_rng(0))


def test_an_off_table_theta_fails_before_any_round(monkeypatch):
    # in range for EnvInstance, but no ground-truth plan was rendered for it
    import replan.loop

    assets = build_task_assets(ExperimentConfig(tasks=("slidebrick",)), "slidebrick")
    env = EnvInstance(EnvKind.SLIDE_BRICK, 0.31)
    assert 0.31 not in hidden_values(EnvKind.SLIDE_BRICK)
    monkeypatch.setattr(replan.loop, "generate", lambda *args: pytest.fail("a round ran"))
    values = list(hidden_values(EnvKind.SLIDE_BRICK))
    message = (f"theta 0.31 has no ground-truth plan in task 'slidebrick', whose hidden "
               f"values are {values}")
    for method in (Method.RANDOM, Method.AVDC, Method.OURS_REFINE):
        with pytest.raises(ValueError) as err:
            run_episode(env, method, assets, ExperimentConfig(), np.random.default_rng(0))
        assert str(err.value) == message
    assert assets.ssims == {} and assets.rollouts == {}


# ---------------------------------------------------------------------------
# Experiment grid

def row_key(row):
    return (row.task, row.method, row.trial, row.seed, row.theta,
            row.replans, row.succeeded, row.mean_psnr, row.mean_ssim)


def test_run_experiment_deterministic():
    cfg = ExperimentConfig(tasks=("openbox",), methods=("avdc", "ours"), trials=25)
    a = run_experiment(cfg)
    b = run_experiment(cfg)
    assert [row_key(r) for r in a.rows] == [row_key(r) for r in b.rows]
    assert len(a.rows) == 50
    assert {r.seed for r in a.rows} == {
        trial_seed(0, "openbox", m, i) for m in ("avdc", "ours") for i in range(25)
    }


def test_rollout_store_stays_bounded(monkeypatch):
    import replan.datasets
    import replan.loop

    renders, dataset_executes, built = [], [], []
    real_render, real_execute = envs.render, replan.datasets.execute
    real_build = replan.loop.build_task_assets
    monkeypatch.setattr(envs, "render", lambda kind, states: renders.append(kind)
                        or real_render(kind, states))
    monkeypatch.setattr(replan.datasets, "execute", lambda env, action:
                        dataset_executes.append(action) or real_execute(env, action))
    monkeypatch.setattr(replan.loop, "build_task_assets", lambda config, task:
                        built.append(real_build(config, task)) or built[-1])
    run_experiment(ExperimentConfig(tasks=ALL_TASKS, methods=ALL_METHODS, trials=3))
    rendered = len(renders)
    assert [assets.kind.value for assets in built] == list(ALL_TASKS)
    misses = 0
    for assets in built:
        bound = len(hidden_values(assets.kind)) * len(assets.plans.videos)
        g = assets.identifier
        reduce = {"logits": lambda video: interaction_logits(assets.table, video),
                  "terms": lambda video: observation_terms(g, video)}
        assert 0 < len(assets.rollouts) <= bound
        for (theta, row), entry in assets.rollouts.items():
            # the run has both readers, so a pair's one render was reduced for each
            assert set(entry) == {"logits", "terms"}
            fresh = execute(EnvInstance(assets.kind, theta), assets.plans.actions[row])
            for name, kept in entry.items():
                assert reduction_bits(kept) == reduction_bits(reduce[name](fresh.video))
        misses += len(assets.rollouts)
        # the store keeps what its readers need of a rollout, never its pixels
        assert all(type(entry["logits"]) is np.ndarray
                   and entry["logits"].shape == (len(assets.table),)
                   for entry in assets.rollouts.values())
        assert all(type(const) is float and type(cross) is np.ndarray
                   and cross.shape == (len(g.groups[0]),)
                   for const, cross in (entry["terms"] for entry in assets.rollouts.values()))
    # one render per rollout: the dataset's, each task's ground-truth plans and reset
    # frame, and each pair pushed; nothing is kept outside the task
    ground_truth = sum(len(hidden_values(assets.kind)) + 1 for assets in built)
    assert rendered == len(dataset_executes) + ground_truth + misses


def rollout_run(monkeypatch, base, configs):
    """``loop._run_tasks(base, configs)`` with call-site wrappers: returns its results and,
    per task, its assets, the ``execute`` renders its episodes made, the reductions it
    made under each reader's name and the (theta, plan-table row) pairs each reader pushed,
    a pushed pair being a decoded plan that failed before an episode's last round."""
    import replan.loop as loop

    tasks, picks, renders = [], [], []
    real = {name: getattr(loop, name) for name in (
        "build_task_assets", "run_episode", "execute", "plan_to_action",
        "interaction_logits", "observation_terms")}

    def build(config, task):
        tasks.append({"assets": real["build_task_assets"](config, task), "renders": 0,
                      "reduced": {"logits": 0, "terms": 0},
                      "pushed": {"logits": set(), "terms": set()}})
        return tasks[-1]["assets"]

    def episode(env, method, assets, config, rng):
        picks.clear(), renders.clear()
        rec = real["run_episode"](env, method, assets, config, rng)
        tasks[-1]["renders"] += len(renders)
        reader = "terms" if method.uses_refinement else "logits" if method.uses_retrieval else ""
        if reader:
            tasks[-1]["pushed"][reader].update(
                (env.theta_value, pick)
                for rnd, pick in zip(rec.rounds[:-1], picks) if rnd.action is not None)
        return rec

    def reducer(name, real_name):
        def reduce(*args):
            tasks[-1]["reduced"][name] += 1
            return real[real_name](*args)
        return reduce

    monkeypatch.setattr(loop, "build_task_assets", build)
    monkeypatch.setattr(loop, "run_episode", episode)
    monkeypatch.setattr(loop, "execute", lambda env, action:
                        renders.append(action) or real["execute"](env, action))
    monkeypatch.setattr(loop, "plan_to_action", lambda plans, index:
                        picks.append(index) or real["plan_to_action"](plans, index))
    monkeypatch.setattr(loop, "interaction_logits", reducer("logits", "interaction_logits"))
    monkeypatch.setattr(loop, "observation_terms", reducer("terms", "observation_terms"))
    results = loop._run_tasks(base, configs)
    monkeypatch.undo()
    return results, tasks


def test_a_run_renders_each_pushed_pair_once_for_every_reader(monkeypatch):
    # retrieval reads a failed pair's logits row and refinement its observation terms; the
    # first push of a pair renders it once and reduces it for both
    config = ExperimentConfig(tasks=("pushbar", "slidebrick"), trials=12, refine_steps=5,
                              methods=("ours", "avdc_retrieval", "ours_refine"))
    _, tasks = rollout_run(monkeypatch, config, (config,))
    assert [task["assets"].kind.value for task in tasks] == list(config.tasks)
    for task in tasks:
        logits, terms = task["pushed"]["logits"], task["pushed"]["terms"]
        assert logits & terms and terms - logits and logits - terms
        assert task["renders"] == len(logits | terms)
        rollouts = task["assets"].rollouts
        assert set(rollouts) == logits | terms
        assert all(set(entry) == {"logits", "terms"} for entry in rollouts.values())
        assert task["reduced"] == {"logits": len(rollouts), "terms": len(rollouts)}


@pytest.mark.parametrize("first", ["ours", "ours and ours_refine"])
def test_a_sweep_renders_a_pair_again_only_for_a_reader_it_lacks(monkeypatch, first):
    # grid points share a task's store and each knows only its own readers: after an
    # ours-only point, ours_refine renders the pairs it pushes again and reduces only
    # their observation terms; after a point with both readers, nothing renders again
    base = ExperimentConfig(tasks=("pushbar", "slidebrick"), methods=("ours",), trials=12,
                            refine_steps=5)
    configs = (base, replace(base, methods=("ours", "ours_refine")))
    if first != "ours":
        configs = configs[::-1]
    results, tasks = rollout_run(monkeypatch, base, configs)
    for config, result in zip(configs, results):
        assert episode_fields(result) == episode_fields(run_experiment(config))
    for task in tasks:
        logits, terms = task["pushed"]["logits"], task["pushed"]["terms"]
        pairs = logits | terms
        assert logits & terms
        if first == "ours":
            assert task["renders"] == len(logits) + len(terms)
            assert task["reduced"] == {"logits": len(pairs), "terms": len(terms)}
        else:
            assert task["renders"] == len(pairs)
            assert task["reduced"] == {"logits": len(pairs), "terms": len(pairs)}
        assert set(task["assets"].rollouts) == pairs


def recorded_run(monkeypatch, config):
    """``run_experiment(config)`` with call-site wrappers: returns each task's assets
    (with a copy of its plan-table holds' bytes taken at build), its ``replan.loop.ssim``
    calls and the (plan row, ground-truth row) pair of every planned round."""
    import replan.loop

    tasks = []
    real_build, real_episode = replan.loop.build_task_assets, replan.loop.run_episode
    real_ssim, real_decode = replan.loop.ssim, replan.loop.plan_to_action

    def build(config, task):
        assets = real_build(config, task)
        tasks.append({"assets": assets, "holds": hold_bytes(assets.plans),
                      "calls": 0, "rounds": []})
        return assets

    def episode(env, method, assets, config, rng):
        tasks[-1]["gt"] = assets.gt_rows[env.theta_value]
        return real_episode(env, method, assets, config, rng)

    def counted_ssim(*args):
        tasks[-1]["calls"] += 1
        return real_ssim(*args)

    def decode(plans, index):
        tasks[-1]["rounds"].append((index, tasks[-1]["gt"]))
        return real_decode(plans, index)

    monkeypatch.setattr(replan.loop, "build_task_assets", build)
    monkeypatch.setattr(replan.loop, "run_episode", episode)
    monkeypatch.setattr(replan.loop, "ssim", counted_ssim)
    monkeypatch.setattr(replan.loop, "plan_to_action", decode)
    run_experiment(config)
    return tasks


def test_each_pair_is_scored_once_per_task(monkeypatch):
    from replan import ssim

    config = ExperimentConfig(tasks=("pushbar", "slidebrick", "openbox"),
                              methods=("avdc", "avdc_rejection", "ours"), trials=20)
    tasks = recorded_run(monkeypatch, config)
    assert [task["assets"].kind.value for task in tasks] == list(config.tasks)
    swapped = diagonal = 0  # pairs met in both orders, scored once; rows met by themselves
    for task in tasks:
        # a plan row against itself scores 1.0 with no call and no entry
        rounds = [r for r in task["rounds"] if r[0] != r[1]]
        diagonal += len(task["rounds"]) - len(rounds)
        assets, pairs = task["assets"], {tuple(sorted(r)) for r in rounds}
        plans, table = assets.plans, assets.ssims
        assert task["calls"] == len(pairs) == len(table) < len(rounds)
        assert set(table) == pairs
        assert len(table) <= len(plans.videos) * len(hidden_values(assets.kind))
        swapped += len(set(rounds)) - len(pairs)
        for (lo, hi), kept in table.items():
            assert type(lo) is int and type(hi) is int and lo <= hi
            for fresh in (ssim(plans.videos[lo], plans.videos[hi]),
                          ssim(plans.videos[hi], plans.videos[lo])):
                assert np.float64(kept).tobytes() == np.float64(fresh).tobytes()
    assert swapped > 0 and diagonal > 0


def hold_bytes(plans):
    """The bytes of every array a plan table holds for ``held_ssim``, in row order."""
    return b"".join(x.tobytes() + moments.tobytes() for x, moments in plans.holds)


def test_a_run_leaves_the_plan_table_moments_alone(monkeypatch):
    # ssim's in-place tail reads the held pixels and moments of PlanTable.holds, and
    # must not write into them
    config = ExperimentConfig(tasks=("pickbar", "turnfaucet"), methods=ALL_METHODS, trials=4)
    tasks = recorded_run(monkeypatch, config)
    for task in tasks:
        assert task["calls"] > 0
        assert hold_bytes(task["assets"].plans) == task["holds"]


def test_experiment_logs_one_line_per_cell(caplog, capsys):
    tasks, methods = ("openbox", "turnfaucet"), ("avdc", "ours")
    cfg = ExperimentConfig(tasks=tasks, methods=methods, trials=3)
    with caplog.at_level(logging.INFO, logger="replan.loop"):
        result = run_experiment(cfg)
    assert [r.getMessage() for r in caplog.records] == [
        f"{task:>12} {method:>15}: mean replans {result.table.cell(method, task).mean:.3f}"
        for task in tasks
        for method in methods
    ]
    assert {r.name for r in caplog.records} == {"replan.loop"}
    # nothing reaches stdout unless a caller installs a handler
    assert capsys.readouterr().out == ""


def test_experiment_theta_paired_across_methods(openbox_run):
    # trial i draws theta from the trial seed, which ignores the method only
    # through its explicit argument; methods see different seeds but the
    # same task-level dataset
    rows = openbox_run.rows
    by_method = {}
    for r in rows:
        by_method.setdefault(r.method, []).append(r)
    lengths = {m: len(v) for m, v in by_method.items()}
    assert lengths == {"random": 200, "avdc": 200, "ours": 200}
    for r in rows:
        assert r.theta in ("lift", "slide")
        assert 1 <= r.replans <= 14
        assert r.succeeded == (r.replans < 14) or r.replans == 14


def test_results_table_statistics():
    rows = [
        make_row("t1", "avdc", 1, 0), make_row("t1", "avdc", 2, 1), make_row("t1", "avdc", 3, 2),
        make_row("t1", "ours", 1, 0), make_row("t1", "ours", 1, 1),
        make_row("t2", "avdc", 4, 0), make_row("t2", "avdc", 6, 1),
        make_row("t2", "ours", 2, 0), make_row("t2", "ours", 3, 1),
    ]
    table = results_table(rows)
    cell = table.cell("avdc", "t1")
    vals = np.array([1.0, 2.0, 3.0])
    assert cell == CellStats(2.0, float(vals.std(ddof=1) / np.sqrt(3)), 3)
    assert table.cell("ours", "t1").sem == 0.0

    norm = table.normalized()
    assert norm["ours"] == pytest.approx(1.0)
    # mean of (2/1, 5/2.5) = 2.0
    assert norm["avdc"] == pytest.approx(2.0)

    # single-count cell gets sem 0.0
    solo = results_table([make_row("t", "m", 5)])
    assert solo.cell("m", "t") == CellStats(5.0, 0.0, 1)
    assert math.isnan(solo.normalized()["m"])  # no baseline present

    # ours lacks openbox: it and every method normalized by it read NaN, as with no baseline
    rows = [make_row("pushbar", "ours", 2), make_row("openbox", "avdc", 3),
            make_row("pushbar", "avdc", 4)]
    table = results_table(rows)
    assert table.tasks == ("pushbar", "openbox") and ("ours", "openbox") not in table.cells
    assert all(math.isnan(value) for value in table.normalized().values())


def test_plan_quality_aggregation():
    rows = [
        make_row("t", "ours", 1, 0, psnr=50.0, ssim=0.9),
        make_row("t", "ours", 1, 1, psnr=54.0, ssim=0.94),
        make_row("t", "random", 1, 0),  # no plans, excluded
    ]
    quality = plan_quality(rows)
    assert quality["ours"] == (pytest.approx(52.0), pytest.approx(0.92))
    assert "random" not in quality


# ---------------------------------------------------------------------------
# Config and sweeps

def test_experiment_config_io(tmp_path):
    cfg = ExperimentConfig(tasks=("openbox",), methods=("ours",), trials=7, tau=0.5)
    payload = cfg.to_dict()
    assert payload["tasks"] == ["openbox"]
    back = ExperimentConfig.from_dict(payload)
    assert back == cfg

    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"tasks": ["pushbar"], "trials": 3}))
    loaded = ExperimentConfig.from_json(path)
    assert loaded.tasks == ("pushbar",)
    assert loaded.trials == 3
    assert loaded.methods == ExperimentConfig().methods  # defaults fill in

    with pytest.raises(ValueError):
        ExperimentConfig.from_dict({"trails": 3})  # typo rejected


@pytest.mark.parametrize("value", [None, 3, 0.0])
def test_the_removed_pca_k_key_is_unknown(value, tmp_path, monkeypatch, capsys):
    # build_assets works the PCA dimension out from each task's dataset, and nothing
    # perturbs the first frame, so noise_std went too; a config.json written before
    # either went names its key (noise_std as 0.0) and fails before any compute
    import replan.cli

    def no_compute(*args, **kwargs):
        raise AssertionError("a config naming a removed key reached run_experiment")

    monkeypatch.setattr(replan.cli, "run_experiment", no_compute)
    for key in ("pca_k", "noise_std"):
        with pytest.raises(TypeError, match=rf"unexpected keyword argument '{key}'$"):
            ExperimentConfig(**{key: value})
        match = rf"^unknown experiment keys: \['{key}'\]$"
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_dict({key: value})
        path = tmp_path / f"{key}.json"
        path.write_text(json.dumps({**ExperimentConfig(tasks=("openbox",)).to_dict(), key: value}))
        assert re.search(match, cli_error(capsys, "run", "--experiment", path,
                                          "--out", tmp_path / "out"))
    # what the benchmark reads of a config is a constant, not a field
    assert ExperimentConfig().noise_std == 0
    assert "noise_std" not in ExperimentConfig().to_dict()


@pytest.mark.parametrize("payload, kind", [
    (["trials"], "list"), (3, "int"), (None, "NoneType"), ("x", "str"),
])
def test_experiment_json_must_be_an_object(tmp_path, payload, kind):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=f"must be a JSON object, got {kind}$"):
        ExperimentConfig.from_json(path)


def distinct_names(choices):
    return st.lists(st.sampled_from(choices), min_size=1, unique=True)


def finite_floats(**bounds):
    # a Python float or the numpy scalar equal to it, which the config keeps as the float
    floats = st.floats(allow_nan=False, allow_infinity=False, **bounds)
    return floats | floats.map(np.float64)


def integers(low):
    # a Python int or a numpy integer, which the config keeps as the int it equals
    return (st.integers(min_value=low)
            | st.integers(low, 2**31 - 1).map(np.int32) | st.integers(low, 2**63 - 1).map(np.int64))


def members_or_names(enum):
    return st.sampled_from([*enum, *(m.value for m in enum)])


valid_configs = st.builds(
    ExperimentConfig,
    tasks=distinct_names(ALL_TASKS),
    methods=distinct_names(ALL_METHODS),
    trials=integers(1),
    max_replans=integers(1),
    n_candidates=integers(1),
    tau=st.none() | finite_floats(min_value=0, exclude_min=True),
    rejection_metric=members_or_names(RejectionMetric),
    dataset_fraction=finite_floats(min_value=0, max_value=1, exclude_min=True),
    master_seed=integers(0),
    per_theta_success=integers(1),
    per_theta_fail=integers(0),
    buffer_policy=members_or_names(BufferPolicy),
    refine_steps=integers(0),
    refine_restarts=integers(1),
    data_root=st.none() | st.text(),
)


@settings(max_examples=200, deadline=None)
@given(valid_configs)
def test_config_json_roundtrip(cfg):
    # config.json, written by run and ablate, is the only persisted config: every field
    # is kept as a plain JSON value, an enum field as its name
    payload = cfg.to_dict()
    assert not any(isinstance(v, (np.generic, Enum)) for v in payload.values())
    assert ExperimentConfig.from_dict(json.loads(json.dumps(payload))) == cfg


@pytest.mark.parametrize(
    "field, value",
    [
        ("tasks", "openbox"),  # a bare string is not a list of tasks
        ("tasks", []),
        ("tasks", ["openbox", "jenga"]),
        ("tasks", ["openbox", "openbox"]),  # would run and count every trial twice
        ("methods", ["ours_refine", "bogus"]),
        ("methods", "ours"),
        ("trials", 0),
        ("trials", 2.5),
        ("trials", True),
        ("max_replans", 0),
        ("n_candidates", 0),
        ("tau", 0.0),
        ("tau", "auto"),
        ("rejection_metric", "cosine"),
        ("dataset_fraction", 0.0),
        ("dataset_fraction", 1.5),
        ("master_seed", -1),
        ("per_theta_success", 0),
        ("per_theta_fail", -1),
        ("buffer_policy", "oldest"),
        ("refine_steps", -1),
        ("refine_restarts", 0),
        ("data_root", 3),
    ],
)
def test_invalid_config_fails_before_compute(field, value, tmp_path, monkeypatch, capsys):
    import dataclasses

    import replan.cli

    def no_compute(*args, **kwargs):
        raise AssertionError("a bad config reached run_experiment")

    monkeypatch.setattr(replan.cli, "run_experiment", no_compute)
    match = rf"ExperimentConfig\.{field} "
    with pytest.raises(ValueError, match=match):
        ExperimentConfig(**{field: value})
    with pytest.raises(ValueError, match=match):
        ExperimentConfig.from_dict({field: value})
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(ExperimentConfig(tasks=("openbox",)), **{field: value})
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({field: value}))
    assert re.match(match, cli_error(capsys, "run", "--experiment", path,
                                     "--out", tmp_path / "out"))


def test_ablation_sweep_grids():
    base = ExperimentConfig(tasks=("openbox",), trials=5)
    frac = ablation_sweep("data-fraction", base)
    assert set(frac) == {"fraction=0.28", "fraction=1"}
    for result in frac.values():
        assert tuple(result.config.methods) == ("avdc", "ours")

    # grid points pair trials: same trial -> same seed -> same theta
    thetas = {
        label: [r.theta for r in result.rows if r.method == "avdc"]
        for label, result in frac.items()
    }
    assert thetas["fraction=0.28"] == thetas["fraction=1"]

    mods = ablation_sweep("modules", base)
    assert list(mods) == ["modules"]
    assert tuple(mods["modules"].config.methods) == (
        "avdc", "avdc_rejection", "avdc_retrieval", "ours"
    )

    with pytest.raises(ValueError):
        ablation_sweep("bogus", base)


def test_ablation_n_candidates_grid():
    base = ExperimentConfig(tasks=("openbox",), trials=3)
    sweep = ablation_sweep("n-candidates", base)
    assert list(sweep) == ["n=1", "n=2", "n=3", "n=4", "n=5"]
    for label, result in sweep.items():
        assert result.config.n_candidates == int(label.split("=")[1])
        assert tuple(result.config.methods) == ("ours",)


# sha256 of each grid point's episodes CSV (timing off) for SWEEP_BASE; the sweeps share a
# task's assets, and so its rollout and SSIM stores, across grid points
SWEEP_BASE = ExperimentConfig(tasks=("pushbar", "slidebrick"), trials=20)
SWEEP_DIGESTS = {
    "n-candidates": {
        "n=1": "36bca4ba05324216380baef7ace481df0932c60046b61e1c379dba5693f6d32b",
        "n=2": "ecd12edf7f92fd7f6a291820fa7167e978dd421059b7be114c2c613d6f699674",
        "n=3": "95408bd2d9fade17427f000b46126a5f500cd60803f542eb19d513569ebfc957",
        "n=4": "70b3f7390b0eccaef7f4eaa80470dc91d42b230becb18df5a185ebb0d7b3f2d0",
        "n=5": "92ec720318fbb9e5d69d7fdab30b862392880a14db1b73822fc949af3696cb6c",
    },
    "rejection-metric": {
        "raw_pixel": "ecd12edf7f92fd7f6a291820fa7167e978dd421059b7be114c2c613d6f699674",
        "embedding": "9aeecad1238fd9d6816252d7f4d9735b9f0ea6738d097800c174b39eee17aded",
    },
    "modules": {
        "modules": "761208bd48f4b98f9297f70d1d049e34abc94aab49afa8901184b5a13580885e",
    },
    "data-fraction": {
        "fraction=0.28": "30cbfb44255addbc54b15578c20863a52e422d95d792712a600b1ff77db3f4df",
        "fraction=1": "953b54801929d29074a1720a0b5650a571005514886587c8c86c840463fc62de",
    },
}


@pytest.mark.parametrize("name", SWEEP_DIGESTS)
def test_every_sweep_point_writes_its_pinned_csv(name, tmp_path):
    from replan import write_episodes_csv
    from replan.loop import SWEEP_NAMES

    assert set(SWEEP_DIGESTS) == set(SWEEP_NAMES)
    digests = {}
    for label, result in ablation_sweep(name, SWEEP_BASE).items():
        write_episodes_csv(result.rows, tmp_path / "episodes.csv", timing=False)
        digests[label] = hashlib.sha256((tmp_path / "episodes.csv").read_bytes()).hexdigest()
    assert digests == SWEEP_DIGESTS[name]


def episode_fields(result):
    """Every deterministic field of a result's rows: the rows without wall times."""
    return [(r.task, r.method, r.trial, r.seed, r.theta, r.replans, r.succeeded,
             r.mean_psnr, r.mean_ssim) for r in result.rows]


@pytest.mark.parametrize("name, builds", [
    ("n-candidates", 2), ("rejection-metric", 2), ("modules", 2), ("data-fraction", 4),
])
def test_ablation_sweep_builds_assets_once_per_task(monkeypatch, name, builds):
    # only data-fraction changes the dataset; the others reuse one build per task, and
    # each grid point gives what a run with assets of its own gives
    import replan.loop

    base = ExperimentConfig(tasks=("openbox", "slidebrick"), trials=4, refine_steps=5)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return build_assets(*args, **kwargs)

    build_assets = replan.loop.build_assets
    monkeypatch.setattr(replan.loop, "build_assets", counted)
    sweep = ablation_sweep(name, base)
    assert len(calls) == builds
    monkeypatch.undo()
    for label, result in sweep.items():
        alone = run_experiment(result.config)
        assert episode_fields(result) == episode_fields(alone), label
        assert result.table == alone.table


@pytest.mark.parametrize("run", ["run_experiment", "ablation_sweep", "embedding_rows"])
def test_each_task_frees_its_assets_before_the_next_builds(monkeypatch, run):
    # reference counting alone must free them, or the process peaks with two tasks' assets
    import gc
    import weakref

    import replan.loop
    import replan.report

    owner = replan.report if run == "embedding_rows" else replan.loop
    real, built, alive = owner.build_task_assets, [], []

    def tracked(config, task):
        alive.append([ref() is not None for ref in built])
        built.append(weakref.ref(assets := real(config, task)))
        return assets

    monkeypatch.setattr(owner, "build_task_assets", tracked)
    config = ExperimentConfig(tasks=("openbox", "turnfaucet", "slidebrick"),
                              methods=("avdc", "ours"), trials=2)
    calls = {"run_experiment": lambda: run_experiment(config),
             "ablation_sweep": lambda: ablation_sweep("rejection-metric", config),
             "embedding_rows": lambda: embedding_rows(config)}
    collecting = gc.isenabled()
    gc.disable()
    try:
        calls[run]()
    finally:
        if collecting:
            gc.enable()
    assert alive == [[], [False], [False, False]]


def test_two_bar_tasks_peak_at_the_footprint_of_one():
    import tracemalloc

    def peak(tasks):
        tracemalloc.start()
        try:
            run_experiment(ExperimentConfig(tasks=tasks, methods=("avdc",), trials=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    both = peak(("pushbar", "pickbar"))  # first, so one-time module caches count against it
    assert both < 1.2 * peak(("pushbar",))


@pytest.mark.parametrize("config", [ExperimentConfig(per_theta_fail=0),
                                    ExperimentConfig(dataset_fraction=1e-6)],
                         ids=["no-failures", "thinnest-fraction"])
@pytest.mark.parametrize("task", ALL_TASKS)
def test_the_smallest_generated_dataset_fits_pca(config, task):
    # each object keeps its first success, so a task's dataset holds at least its two or
    # more objects and default_pca_k stays within pca_fit's bound k <= n - 1
    assets = build_task_assets(config, task)
    n = len(assets.dataset)
    assert n == len(hidden_values(EnvKind(task)))
    assert len(assets.table.projection.components) == default_pca_k(n, 512) <= n - 1
    if task in ("openbox", "turnfaucet") and config.per_theta_fail == 0:
        assert len(assets.table.projection.components) == 1
    env = EnvInstance(EnvKind(task), hidden_values(EnvKind(task))[0])
    record = run_episode(env, Method.OURS, assets, config, np.random.default_rng(0))
    assert 1 <= record.replans_until_success <= config.max_replans


def test_data_root_assets(tmp_path, openbox_assets):
    from replan import build_dataset, save_dataset

    dataset = build_dataset(EnvKind.OPEN_BOX)
    save_dataset(tmp_path / "openbox", "openbox", dataset.tuples)
    cfg = ExperimentConfig(tasks=("openbox",), data_root=str(tmp_path))
    assets = build_task_assets(cfg, "openbox")
    assert assets.kind is EnvKind.OPEN_BOX
    assert len(assets.table) == len(dataset)

    # a directory holding some other task's dataset is rejected
    save_dataset(tmp_path / "pushbar", "openbox", dataset.tuples)
    with pytest.raises(ValueError):
        build_task_assets(ExperimentConfig(tasks=("pushbar",), data_root=str(tmp_path)), "pushbar")


@pytest.mark.parametrize("manifest", ["missing", "for another task", "not JSON", "a list",
                                      "without entries", "with no entries"])
def test_a_data_root_missing_a_task_fails_before_any_episode(tmp_path, monkeypatch, manifest):
    import re

    import replan.loop
    from replan import build_dataset, save_dataset

    dataset = build_dataset(EnvKind.OPEN_BOX)
    save_dataset(tmp_path / "openbox", "openbox", dataset.tuples)
    if manifest != "missing":
        save_dataset(tmp_path / "turnfaucet", "openbox", dataset.tuples)
    texts = {"not JSON": '{"env": "turnfaucet"', "a list": '["turnfaucet"]',
             "without entries": '{"env": "turnfaucet"}',
             "with no entries": '{"env": "turnfaucet", "entries": []}'}
    if manifest in texts:
        (tmp_path / "turnfaucet" / "manifest.json").write_text(texts[manifest])
    calls = []
    for name in ("build_task_assets", "run_episode"):
        real = getattr(replan.loop, name)
        monkeypatch.setattr(replan.loop, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    config = ExperimentConfig(tasks=("openbox", "turnfaucet"), trials=20, data_root=str(tmp_path))
    path = tmp_path / "turnfaucet" / "manifest.json"
    message = re.escape(f"ExperimentConfig.data_root {str(tmp_path)!r}, task 'turnfaucet': {path}")
    with pytest.raises(ValueError, match=message):
        run_experiment(config)
    assert calls == []


# Entry 3 of a saved turnfaucet manifest, rewritten: the message tail that names the field.
BAD_ENTRIES = {
    "success a string": (lambda e: {**e, "success": "false"},
                         "field 'success' must be true or false, got 'false'"),
    "success an integer": (lambda e: {**e, "success": 0},
                           "field 'success' must be true or false, got 0"),
    "object_id a number": (lambda e: {**e, "object_id": 7},
                           "field 'object_id' must be a string, got 7"),
    "video not a file": (lambda e: {**e, "video": "videos"},
                         "field 'video' must be the path of an existing file, got 'videos'"),
    "video missing": (lambda e: {k: v for k, v in e.items() if k != "video"},
                      "field 'video' must be the path of an existing file, it is missing"),
    "not an object": (lambda e: [e], "is not a JSON object"),
}


def assert_fails_before_any_build(tmp_path, monkeypatch, reader, rewrite, tail):
    """Save openbox and turnfaucet datasets under ``tmp_path``, ``rewrite`` the turnfaucet
    manifest's entries in place, and check that ``reader`` fails with a message that names
    the path and ends in ``tail`` before any task builds."""
    import re

    import replan.loop
    import replan.report
    from replan import build_dataset, load_dataset, save_dataset

    for task in ("openbox", "turnfaucet"):
        save_dataset(tmp_path / task, task, build_dataset(EnvKind(task), per_theta_fail=2).tuples)
    path = tmp_path / "turnfaucet" / "manifest.json"
    manifest = json.loads(path.read_text())
    rewrite(manifest["entries"])
    path.write_text(json.dumps(manifest))
    calls = []
    for module, name in ((replan.loop, "build_task_assets"), (replan.loop, "run_episode"),
                         (replan.report, "build_task_assets")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    config = ExperimentConfig(tasks=("openbox", "turnfaucet"), methods=("avdc",), trials=3,
                              data_root=str(tmp_path))
    message = f"{path}: {tail}"
    if reader != "load_dataset":
        message = f"ExperimentConfig.data_root {str(tmp_path)!r}, task 'turnfaucet': {message}"
    run = {"run_experiment": lambda: run_experiment(config),
           "embedding_rows": lambda: embedding_rows(config),
           "load_dataset": lambda: load_dataset(path.parent)}[reader]
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run()
    assert calls == []


@pytest.mark.parametrize("entry", BAD_ENTRIES)
@pytest.mark.parametrize("reader", ["run_experiment", "embedding_rows", "load_dataset"])
def test_a_bad_manifest_entry_fails_before_any_build(tmp_path, monkeypatch, entry, reader):
    def rewrite(entries):
        entries[3] = BAD_ENTRIES[entry][0](entries[3])

    assert_fails_before_any_build(tmp_path, monkeypatch, reader, rewrite,
                                  f"entry 3 {BAD_ENTRIES[entry][1]}")


@pytest.mark.parametrize("reader", ["run_experiment", "embedding_rows", "load_dataset"])
def test_an_object_with_no_successful_entry_fails_before_any_build(tmp_path, monkeypatch,
                                                                   reader):
    # without the manifest check, openbox would run first and the dataset's own check
    # would fail late with a message naming neither the path nor the field
    def rewrite(entries):
        for entry in entries:
            if entry["object_id"] == "turnfaucet/cw":
                entry["success"] = False

    assert_fails_before_any_build(tmp_path, monkeypatch, reader, rewrite,
                                  "object 'turnfaucet/cw' has no entry whose field 'success' is true")


def save_one_object_turnfaucet(tmp_path):
    """Save openbox's dataset and turnfaucet's rollouts of one hidden value (its success
    and two failures) under ``tmp_path``."""
    from replan import build_dataset, save_dataset

    for task in ("openbox", "turnfaucet"):
        tuples = build_dataset(EnvKind(task), per_theta_fail=2).tuples
        if task == "turnfaucet":
            tuples = [item for item in tuples if item.object_id == "turnfaucet/cw"]
        save_dataset(tmp_path / task, task, tuples)


@pytest.mark.parametrize("reader", ["run_experiment", "embedding_rows", "build_task_assets"])
def test_a_run_reads_each_manifest_once_up_front_and_once_to_build(tmp_path, monkeypatch,
                                                                   reader):
    import replan.core
    import replan.loop

    save_one_object_turnfaucet(tmp_path)
    reads = []
    real = replan.core.read_manifest
    for module in (replan.core, replan.loop):  # every caller's name for it
        monkeypatch.setattr(module, "read_manifest", lambda path: reads.append(path) or
                            real(path))
    config = ExperimentConfig(tasks=("turnfaucet",), methods=("avdc",), trials=2,
                              data_root=str(tmp_path))
    {"run_experiment": lambda: run_experiment(config),
     "embedding_rows": lambda: embedding_rows(config),
     "build_task_assets": lambda: build_task_assets(config, "turnfaucet")}[reader]()
    path = tmp_path / "turnfaucet" / "manifest.json"
    assert reads == [path] * (1 if reader == "build_task_assets" else 2)


@pytest.mark.parametrize("reader", ["run_experiment", "embedding_rows", "report --embed-csv"])
def test_a_data_root_thinned_below_two_clips_fails_before_any_build(tmp_path, monkeypatch,
                                                                    capsys, reader):
    # turnfaucet keeps its success and round(0.25 * 2) = 0 of its failures (half to even);
    # unchecked, openbox would build and run first and pca_fit would then fail on
    # turnfaucet's one clip with a message naming no field
    import replan.loop
    import replan.report
    from replan import write_episodes_csv

    save_one_object_turnfaucet(tmp_path)
    calls = []
    for module, name in ((replan.loop, "build_task_assets"), (replan.loop, "run_episode"),
                         (replan.report, "build_task_assets")):
        real = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args, name=name, real=real:
                            calls.append(name) or real(*args))
    config = ExperimentConfig(tasks=("openbox", "turnfaucet"), methods=("avdc",), trials=3,
                              dataset_fraction=0.25, data_root=str(tmp_path))
    out = tmp_path / "run"
    write_episodes_csv([EpisodeRow("openbox", "avdc", 0, 1, "lift", 1, True, None, None,
                                   dict.fromkeys(WALL_PHASES, 0.0))], out / "episodes.csv")
    (out / "config.json").write_text(json.dumps(config.to_dict()))
    path = tmp_path / "turnfaucet" / "manifest.json"
    message = (f"ExperimentConfig.data_root {str(tmp_path)!r}, task 'turnfaucet': {path} "
               "keeps 1 clip at dataset_fraction 0.25, and a task needs at least 2")
    if reader == "report --embed-csv":
        assert cli_error(capsys, "report", "--in", out, "--csv", out / "summary.csv",
                         "--svg", out / "chart.svg", "--embed-csv", out / "embed.csv") == message
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            {"run_experiment": lambda: run_experiment(config),
             "embedding_rows": lambda: embedding_rows(config)}[reader]()
    assert calls == []
    assert not (out / "embed.csv").exists()


def test_a_data_root_that_keeps_two_clips_runs(tmp_path):
    # round(0.3 * 2) = 1: turnfaucet keeps its success and one failure, where truncating
    # 0.6 would keep neither failure and over-reject
    save_one_object_turnfaucet(tmp_path)
    config = ExperimentConfig(tasks=("openbox", "turnfaucet"), methods=("avdc", "ours"),
                              trials=3, dataset_fraction=0.3, data_root=str(tmp_path))
    assert len(build_task_assets(config, "turnfaucet").dataset) == 2
    rows = run_experiment(config).rows
    assert [(row.task, row.method) for row in rows[-6:]] == [("turnfaucet", "avdc")] * 3 + [
        ("turnfaucet", "ours")] * 3
    assert ("turnfaucet", "turnfaucet/cw", 0.0, 0.0) in embedding_rows(config)
