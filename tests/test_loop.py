"""Replanning loop, experiment grid, and result statistics."""

import hashlib
import json
import logging
import math
from dataclasses import replace

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
    InteractionBuffer,
    Method,
    RejectionMetric,
    RetrievalConfig,
    ablation_sweep,
    build_task_assets,
    execute,
    hidden_values,
    plan_quality,
    results_table,
    retrieval_probabilities,
    run_episode,
    run_experiment,
    sample_hidden,
    trial_seed,
)
from replan import envs
from replan.loop import CellStats, EpisodeRow


@pytest.fixture(scope="module")
def openbox_assets():
    return build_task_assets(ExperimentConfig(tasks=("openbox",)), "openbox")


@pytest.fixture(scope="module")
def openbox_run():
    cfg = ExperimentConfig(
        tasks=("openbox",), methods=("random", "avdc", "ours"), trials=200
    )
    return run_experiment(cfg)


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
    env = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
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
    env = EnvInstance.create(EnvKind.OPEN_BOX, "slide")
    cfg = ExperimentConfig()
    actions = {}
    for method in (Method.AVDC, Method.OURS, Method.AVDC_REJECTION):
        rng = np.random.default_rng(123)
        rec = run_episode(env, method, openbox_assets, cfg, rng)
        assert rec.rounds[0].round_index == 1
        actions[method] = rec.rounds[0].action
    # round 1 is unconditioned for every method, so the first sample agrees
    assert len(set(actions.values())) == 1


def test_failed_episode_reports_cap(openbox_assets):
    env = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
    cfg = ExperimentConfig(max_replans=2)
    rec = run_episode(env, Method.AVDC, openbox_assets, cfg, np.random.default_rng(1))
    assert not rec.succeeded
    assert rec.replans_until_success == 2
    assert len(rec.rounds) == 2
    assert all(not r.success for r in rec.rounds)


def test_episode_plan_metrics(openbox_assets):
    env = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
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
    # success is a rule on (theta, action); only retrieval and refinement read
    # a failed rollout, so only they push one, once per failed decoded round
    # that a later round follows, and execute renders it the first time its
    # (theta, plan-table row) pair fails in the task
    import replan.loop

    executed, pushed = [], []
    real, real_push = replan.loop.execute, InteractionBuffer.push
    monkeypatch.setattr(
        replan.loop, "execute", lambda env, action: executed.append(action) or real(env, action)
    )
    monkeypatch.setattr(
        InteractionBuffer, "push", lambda self, video: pushed.append(video) or real_push(self, video)
    )
    cfg, failed_total, last_failed = ExperimentConfig(max_replans=6, refine_steps=5), 0, 0
    for assets in (pushbar_assets, openbox_assets):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
            executed.clear(), pushed.clear()
            stored = set(assets.rollouts)
            rec = run_episode(env, method, assets, cfg, rng)
            failed = [r.action for r in rec.rounds[:-1] if r.action is not None and not r.success]
            reads = method in (Method.AVDC_RETRIEVAL, Method.OURS, Method.OURS_REFINE)
            assert len(pushed) == (len(failed) if reads else 0), (assets.kind, seed)
            assert len(executed) == len(set(assets.rollouts) - stored), (assets.kind, seed)
            for video, value in zip(pushed, failed):
                fresh = real(env, EnvAction(assets.kind, value)).video
                assert video.pixels.tobytes() == fresh.pixels.tobytes()
            failed_total += len(failed)
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
    env = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
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
        picked = retrieve(table, query, config, rng, count=count)
        # the buffer's kept logits give exactly the probabilities of scoring afresh
        assert isinstance(query, InteractionBuffer)
        assert np.array_equal(
            retrieval_probabilities(table, query, config),
            retrieval_probabilities(table, list(query), config),
        )
        counts.append(count)
        return picked

    monkeypatch.setattr(replan.loop, "retrieve", checking_retrieve)
    cfg = ExperimentConfig(n_candidates=5, rejection_metric="embedding", buffer_policy=policy)
    records = list(ours_episodes(pushbar_assets, cfg))
    assert counts == [5] * sum(len(rec.rounds) - 1 for rec in records) and counts


@pytest.mark.parametrize("policy", ["latest", "aggregate"])
def test_episode_projects_each_failure_once(pushbar_assets, monkeypatch, policy):
    import replan.retrieval

    pca_apply = replan.retrieval.pca_apply
    calls = [0]

    def counting_pca_apply(projection, embedding):
        calls[0] += 1
        return pca_apply(projection, embedding)

    monkeypatch.setattr(replan.retrieval, "pca_apply", counting_pca_apply)
    cfg = ExperimentConfig(n_candidates=5, rejection_metric="embedding", buffer_policy=policy)
    total = 0
    for rec in ours_episodes(pushbar_assets, cfg):
        # every executed failure before the last round is read by a later round, once
        read = sum(r.action is not None for r in rec.rounds[:-1])
        assert calls[0] == read
        total += read
        calls[0] = 0
    assert total > 12


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
    env = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
    rec = run_episode(env, method, openbox_assets, ExperimentConfig(), np.random.default_rng(0))
    assert rec.rounds[0].action is None and len(rec.rounds) >= 2


def test_refining_round_builds_one_objective(monkeypatch):
    import replan.refinement

    assets = build_task_assets(ExperimentConfig(tasks=("slidebrick",)), "slidebrick")
    cfg = ExperimentConfig(tasks=("slidebrick",), n_candidates=3, refine_restarts=2)
    envs = [EnvInstance.create(EnvKind.SLIDE_BRICK, theta) for theta in (0.24, 0.32, 0.4)]

    def episodes():
        return [
            replace(
                run_episode(env, Method.OURS_REFINE, assets, cfg, np.random.default_rng(seed)),
                wall_ms={},
            )
            for seed in range(3)
            for env in envs
        ]

    plain = episodes()
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


def test_support_matrices_are_built_for_refinement_only():
    # every task builds an identifier, but only ours_refine reads its group table
    from replan import mse_objective

    assets = build_task_assets(ExperimentConfig(tasks=("slidebrick",)), "slidebrick")
    g, cfg = assets.identifier, ExperimentConfig(tasks=("slidebrick",))
    assert "groups" not in g.__dict__
    env = EnvInstance.create(EnvKind.SLIDE_BRICK, 0.4)
    for seed in range(3):
        run_episode(env, Method.OURS, assets, cfg, np.random.default_rng(seed))
    assert "groups" not in g.__dict__

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
    env = EnvInstance.create(EnvKind.PUSH_BAR, 0.0)
    with pytest.raises(ValueError):
        run_episode(env, Method.AVDC, openbox_assets, ExperimentConfig(), np.random.default_rng(0))


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
        thetas = hidden_values(assets.kind)
        assert 0 < len(assets.rollouts) <= len(thetas) * len(assets.plans.videos)
        for (theta, row), video in assets.rollouts.items():
            fresh = execute(EnvInstance.create(assets.kind, theta), assets.plans.actions[row])
            assert video.pixels.tobytes() == fresh.video.pixels.tobytes()
        misses += len(assets.rollouts)
    # one render per rollout: the dataset's, each task's ground-truth plans and reset
    # frame, and each store miss; nothing is kept outside the task
    ground_truth = sum(len(hidden_values(assets.kind)) + 1 for assets in built)
    assert rendered == len(dataset_executes) + ground_truth + misses


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


def distinct_names(choices):
    return st.lists(st.sampled_from(choices), min_size=1, unique=True)


def finite_floats(**bounds):
    return st.floats(allow_nan=False, allow_infinity=False, **bounds)


valid_configs = st.builds(
    ExperimentConfig,
    tasks=distinct_names(ALL_TASKS),
    methods=distinct_names(ALL_METHODS),
    trials=st.integers(min_value=1),
    max_replans=st.integers(min_value=1),
    n_candidates=st.integers(min_value=1),
    tau=st.none() | finite_floats(min_value=0, exclude_min=True),
    noise_std=st.just(0.0),
    rejection_metric=st.sampled_from([m.value for m in RejectionMetric]),
    dataset_fraction=finite_floats(min_value=0, max_value=1, exclude_min=True),
    master_seed=st.integers(min_value=0),
    per_theta_success=st.integers(min_value=1),
    per_theta_fail=st.integers(min_value=0),
    pca_k=st.none() | st.integers(min_value=1),
    buffer_policy=st.sampled_from([p.value for p in BufferPolicy]),
    refine_steps=st.integers(min_value=0),
    refine_restarts=st.integers(min_value=1),
    data_root=st.none() | st.text(),
)


@settings(max_examples=200, deadline=None)
@given(valid_configs)
def test_config_json_roundtrip(cfg):
    # config.json, written by run and ablate, is the only persisted config
    assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg


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
        ("noise_std", -0.1),
        ("noise_std", float("nan")),
        ("noise_std", 0.1),
        ("rejection_metric", "cosine"),
        ("dataset_fraction", 0.0),
        ("dataset_fraction", 1.5),
        ("master_seed", -1),
        ("per_theta_success", 0),
        ("per_theta_fail", -1),
        ("pca_k", 0),
        ("buffer_policy", "oldest"),
        ("refine_steps", -1),
        ("refine_restarts", 0),
        ("data_root", 3),
    ],
)
def test_invalid_config_fails_before_compute(field, value, tmp_path, monkeypatch):
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
    with pytest.raises(ValueError, match=match):
        replan.cli.main(["run", "--experiment", str(path), "--out", str(tmp_path / "out")])


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


def test_data_root_assets(tmp_path, openbox_assets):
    from replan import build_dataset, save_dataset

    dataset, thetas = build_dataset(EnvKind.OPEN_BOX)
    save_dataset(tmp_path / "openbox", "openbox", dataset.tuples, thetas)
    cfg = ExperimentConfig(tasks=("openbox",), data_root=str(tmp_path))
    assets = build_task_assets(cfg, "openbox")
    assert assets.kind is EnvKind.OPEN_BOX
    assert len(assets.table) == len(dataset)

    # a directory holding some other task's dataset is rejected
    save_dataset(tmp_path / "pushbar", "openbox", dataset.tuples, thetas)
    with pytest.raises(ValueError):
        build_task_assets(ExperimentConfig(tasks=("pushbar",), data_root=str(tmp_path)), "pushbar")


@pytest.mark.parametrize("manifest", ["missing", "for another task"])
def test_a_data_root_missing_a_task_fails_before_any_episode(tmp_path, monkeypatch, manifest):
    import re

    import replan.loop
    from replan import build_dataset, save_dataset

    dataset, thetas = build_dataset(EnvKind.OPEN_BOX)
    save_dataset(tmp_path / "openbox", "openbox", dataset.tuples, thetas)
    if manifest == "for another task":
        save_dataset(tmp_path / "turnfaucet", "openbox", dataset.tuples, thetas)
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
