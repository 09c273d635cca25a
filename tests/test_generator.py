"""Kernel-weighted plan generation and the identification objective."""

import numpy as np
import pytest

from replan import (
    EnvInstance,
    ExperimentConfig,
    GenerationConfig,
    GeneratorMode,
    Video,
    build_table,
    build_task_assets,
    encode_video,
    fit_generator,
    generate,
    hidden_values,
    id_generate,
    mse_objective,
    reset,
)
from replan.core import ExperienceDataset, ExperienceTuple
from replan.encoders import PcaProjection
from replan.generator import generate_indices
from replan.retrieval import softmax

from oracles import naive_mse_loss

SHADES = {"a": (0.2, 0.9), "b": (0.6, 0.3)}  # object -> (success, fail) shade


def shade_video(value, frames=2):
    return Video(np.full((frames, 32, 32), value, dtype=np.float32))


def encoded_table(dataset, projection):
    features = np.stack([encode_video(t.video) for t in dataset.tuples])
    return build_table(dataset, projection, features)


def toy_dataset():
    tuples = []
    for oid, (good, bad) in SHADES.items():
        tuples.append(ExperienceTuple(shade_video(good), oid, True))
        tuples.append(ExperienceTuple(shade_video(bad), oid, False))
    return ExperienceDataset(tuple(tuples))


def toy_table():
    # project the 128-d block features onto their first coordinate, so a
    # constant-shade video embeds to its shade
    projection = PcaProjection(mean=np.zeros(128), components=np.eye(1, 128), k=1)
    return encoded_table(toy_dataset(), projection)


@pytest.fixture(scope="module")
def planner():
    return fit_generator(toy_dataset(), toy_table(), GeneratorMode.PLANNING)


@pytest.fixture(scope="module")
def identifier():
    return fit_generator(toy_dataset(), toy_table(), GeneratorMode.IDENTIFICATION)


def test_mode_filters_support(planner, identifier):
    assert len(planner) == 2
    assert len(identifier) == 4
    assert planner.mode is GeneratorMode.PLANNING
    # planning support carries only success shades
    shades = sorted(v.pixels[1, 0, 0] for v in planner.videos)
    assert shades == [np.float32(0.2), np.float32(0.6)]


def test_support_embeddings_are_canonical(identifier):
    # every entry of an object carries that object's canonical embedding
    embs = identifier.embeddings[:, 0].tolist()
    assert embs == pytest.approx([0.2, 0.2, 0.6, 0.6], rel=1e-6)


def test_bandwidth_from_canonical_distances(planner):
    assert planner.bandwidth == pytest.approx(0.4, rel=1e-6)


def test_bandwidth_degenerate_fallback():
    tuples = (ExperienceTuple(shade_video(0.5), "solo", True),)
    dataset = ExperienceDataset(tuples)
    projection = PcaProjection(mean=np.zeros(128), components=np.eye(1, 128), k=1)
    table = encoded_table(dataset, projection)
    g = fit_generator(dataset, table, GeneratorMode.PLANNING)
    assert g.bandwidth == 1.0


def test_planning_needs_a_success():
    # Planning mode's support is the successes; a dataset guarantees one per object
    tuples = (ExperienceTuple(shade_video(0.5), "x", False),)
    with pytest.raises(ValueError, match="^object 'x' has no successful tuple$"):
        ExperienceDataset(tuples)
    tuples += (ExperienceTuple(shade_video(0.7), "x", True),)
    dataset = ExperienceDataset(tuples)
    projection = PcaProjection(mean=np.zeros(128), components=np.eye(1, 128), k=1)
    g = fit_generator(dataset, encoded_table(dataset, projection), GeneratorMode.PLANNING)
    assert g.videos == (tuples[1].video,)


def test_null_embedding_means_uniform():
    assert np.allclose(softmax(np.zeros(4)), 0.25)


def test_generate_replaces_first_frame(planner):
    frame = np.random.default_rng(51).random((32, 32)).astype(np.float32)
    rng = np.random.default_rng(52)
    plans = generate(planner, frame, None, GenerationConfig(n_candidates=3), rng)
    assert len(plans) == 3
    for plan in plans:
        assert plan.pixels[0].tobytes() == frame.tobytes()
        # remaining frames come from a support video untouched
        body = plan.pixels[1, 0, 0]
        assert body in (np.float32(0.2), np.float32(0.6))


def test_generate_reproducible(planner):
    frame = np.full((32, 32), 0.5, dtype=np.float32)
    cfg = GenerationConfig(n_candidates=4)
    a = generate(planner, frame, None, cfg, np.random.default_rng(53))
    b = generate(planner, frame, None, cfg, np.random.default_rng(53))
    assert [p.pixels.tobytes() for p in a] == [p.pixels.tobytes() for p in b]


def test_embedding_steers_sampling(planner):
    frame = np.full((32, 32), 0.5, dtype=np.float32)
    rng = np.random.default_rng(54)
    # embedding on object a's canonical point: kernel weight ratio
    # exp(0) : exp(-0.4^2 / (2 * 0.4^2)) ~ 0.62 : 0.38
    plans = generate(
        planner, frame, np.array([0.2]), GenerationConfig(n_candidates=400), rng
    )
    picks_a = sum(1 for p in plans if p.pixels[1, 0, 0] == np.float32(0.2))
    assert 200 < picks_a < 300  # expected ~248 of 400


def single_draw_generate(g, first_frame, e, n, rng):
    """Oracle: one embedding's softmax, then one searchsorted draw per plan."""
    logw = np.zeros(len(g))
    if e is not None:
        diffs = g.embeddings - np.asarray(e, dtype=np.float64)
        logw = -(diffs * diffs).sum(axis=1) / (2.0 * g.bandwidth * g.bandwidth)
    cumulative = np.cumsum(softmax(logw))
    picks = [int(np.searchsorted(cumulative, rng.random(), side="right")) for _ in range(n)]
    return [g.videos[min(p, len(g) - 1)].with_first_frame(first_frame) for p in picks]


@pytest.mark.parametrize("task", ["pushbar", "slidebrick", "openbox"])
def test_batched_generate_matches_single_draws(task):
    # one call draws the same plans as the per-embedding draws it replaces, and
    # leaves the rng where they leave it
    assets = build_task_assets(ExperimentConfig(tasks=(task,)), task)
    g = assets.planner
    frame = reset(EnvInstance(assets.kind, hidden_values(assets.kind)[0]))
    seed_rng = np.random.default_rng(57)
    k = g.embeddings.shape[1]
    for m in (1, 2, 5, 9):
        # support embeddings (peaked weights) and random points (spread weights)
        batch = np.concatenate([g.embeddings[seed_rng.choice(len(g), m // 2)],
                                seed_rng.normal(0.0, 1.0, size=(m - m // 2, k))])
        rng, oracle_rng = np.random.default_rng(m), np.random.default_rng(m)
        # an (m, k) batch: one plan per row, whatever n_candidates says
        plans = generate(g, frame, batch, GenerationConfig(n_candidates=3), rng)
        expected = [single_draw_generate(g, frame, e, 1, oracle_rng)[0] for e in batch]
        # one (k,) embedding and None: n_candidates plans from one softmax
        plans += generate(g, frame, batch[-1], GenerationConfig(n_candidates=m), rng)
        expected += single_draw_generate(g, frame, batch[-1], m, oracle_rng)
        plans += generate(g, frame, None, GenerationConfig(n_candidates=m), rng)
        expected += single_draw_generate(g, frame, None, m, oracle_rng)
        assert [p.pixels.tobytes() for p in plans] == [p.pixels.tobytes() for p in expected]
        assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("count", [1, 2, 5])
def test_generate_indices_rejects_a_batch_of_another_count(planner, count):
    # an (m, k) batch draws one plan per row; a count that is not m fails before any draw
    batch = planner.embeddings[[0, 1, 0]]
    rng = np.random.default_rng(58)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^count must be the batch's 3 rows, got {count}$"):
        generate_indices(planner, batch, count, rng)
    assert rng.bit_generator.state == state
    assert len(generate_indices(planner, batch, 3, rng)) == 3


def test_generated_plan_shares_its_support_video_only_when_frame_0_matches(planner):
    first, other = planner.videos
    plans = generate(planner, first.pixels[0].copy(), None, GenerationConfig(n_candidates=8),
                     np.random.default_rng(58))
    bodies = [p.pixels[1, 0, 0] for p in plans]
    assert first.pixels[1, 0, 0] in bodies and other.pixels[1, 0, 0] in bodies
    for plan, body in zip(plans, bodies):
        assert (plan is first) == (body == first.pixels[1, 0, 0])
        assert plan is not other


def test_id_generate_uniform_mean(identifier):
    frame = np.full((32, 32), 0.5, dtype=np.float32)
    out = id_generate(identifier, frame, None)
    assert out.pixels[0].tobytes() == frame.tobytes()
    assert np.allclose(out.pixels[1], 0.5, atol=1e-6)  # mean of 0.2 0.9 0.6 0.3


def test_id_generate_matches_manual_softmax(identifier):
    frame = np.full((32, 32), 0.5, dtype=np.float32)
    e = np.array([0.3])
    out = id_generate(identifier, frame, e)

    embs = np.array([0.2, 0.2, 0.6, 0.6])
    shades = np.array([0.2, 0.9, 0.6, 0.3])
    logw = -((embs - 0.3) ** 2) / (2 * 0.4**2)
    w = np.exp(logw - logw.max())
    w /= w.sum()
    assert np.allclose(out.pixels[1], float(w @ shades), atol=1e-6)


def test_id_generate_requires_identification(planner):
    frame = np.full((32, 32), 0.5, dtype=np.float32)
    with pytest.raises(ValueError):
        id_generate(planner, frame, None)
    with pytest.raises(ValueError):
        mse_objective(planner, shade_video(0.5))


def test_fast_objective_matches_naive(identifier):
    rng = np.random.default_rng(56)
    observed = Video(rng.random((2, 32, 32), dtype=np.float32))
    objective = mse_objective(identifier, observed)

    batch = np.concatenate([rng.normal(0.4, 0.5, size=(8, 1)), [[0.2], [0.6]]])
    fast, grads = objective(batch)
    assert fast.shape == (10,) and grads.shape == (10, 1)
    for value, e in zip(fast, batch):
        assert abs(value - naive_mse_loss(identifier, observed, e)) < 1e-7

    single, single_grad = objective(batch[3])
    assert single.shape == (1,) and single_grad.shape == (1, 1)
    assert single[0] == fast[3]
    assert single_grad[0, 0] == grads[3, 0]


def test_objective_shape_check(identifier):
    with pytest.raises(ValueError):
        mse_objective(identifier, shade_video(0.5, frames=3))


@pytest.mark.parametrize("field, value", [
    ("n_candidates", 1.5), ("n_candidates", True), ("n_candidates", "2"), ("n_candidates", 0),
    ("noise_std", False), ("noise_std", float("nan")), ("noise_std", "0"),
])
def test_config_fields_follow_the_experiment_rules(field, value):
    # ExperimentConfig's rules: an integer count, and a noise that is the number 0
    with pytest.raises(ValueError, match=rf"^GenerationConfig\.{field} must be "):
        GenerationConfig(**{field: value})


def test_generation_config_validation():
    with pytest.raises(ValueError):
        GenerationConfig(n_candidates=0)
    for noise in (-0.1, 0.1):
        with pytest.raises(ValueError, match="noise_std"):
            GenerationConfig(noise_std=noise)
