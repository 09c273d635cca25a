"""Finite-difference refinement of state embeddings."""

import numpy as np
import pytest

from replan import (
    GeneratorMode,
    RefineConfig,
    Video,
    fit_generator,
    id_generate,
    mse_objective,
    naive_mse_loss,
    refine_embedding,
)
from replan.core import ExperienceDataset, ExperienceTuple
from replan.encoders import PcaProjection
from replan.refinement import _probe_matrix
from replan.retrieval import build_table


def gradient_video(slope):
    # smooth horizontal ramp scaled by slope; distinct per support entry
    cols = np.linspace(0.0, 1.0, 32, dtype=np.float64)
    frame = np.tile(cols * slope, (32, 1))
    return Video(np.stack([frame, frame * 0.8]).astype(np.float32))


def identification_fixture():
    tuples, slopes = [], (0.2, 0.5, 0.8, 1.0)
    for i, s in enumerate(slopes):
        tuples.append(ExperienceTuple(gradient_video(s), f"o{i}", True))
    dataset = ExperienceDataset(tuple(tuples))
    # scale the projection so canonical embeddings are O(1) and unit-variance
    # random inits land within kernel range
    projection = PcaProjection(mean=np.zeros(128), components=np.eye(2, 128) * 10.0, k=2)
    table = build_table(dataset, projection)
    return fit_generator(dataset, table, GeneratorMode.IDENTIFICATION)


@pytest.fixture(scope="module")
def identifier():
    return identification_fixture()


@pytest.fixture(scope="module")
def observed(identifier):
    # an observation the generator can reproduce exactly at some embedding
    target = identifier.embeddings[2] * 1.0
    return id_generate(identifier, identifier.videos[0].first_frame(), target)


def test_trace_is_monotone_best_so_far(identifier, observed):
    rng = np.random.default_rng(61)
    result = refine_embedding(
        identifier, observed, None, RefineConfig(steps=40, restarts=2), rng
    )
    assert len(result.trace) == 41
    assert all(b <= a + 1e-15 for a, b in zip(result.trace, result.trace[1:]))
    assert result.loss == result.trace[-1]
    assert result.loss <= result.trace[0]


def test_result_never_worse_than_init(identifier, observed):
    init = identifier.embeddings[0].copy()
    init_loss = naive_mse_loss(identifier, observed, init)
    result = refine_embedding(
        identifier, observed, init, RefineConfig(init_mode="retrieval", steps=30)
    )
    assert result.loss <= init_loss + 1e-12
    # zero steps returns the initialization itself
    frozen = refine_embedding(
        identifier, observed, init, RefineConfig(init_mode="retrieval", steps=0)
    )
    assert np.allclose(frozen.embedding, init)
    assert frozen.loss == pytest.approx(init_loss, abs=1e-7)
    assert len(frozen.trace) == 1


def test_combined_never_worse_than_random(identifier, observed):
    cfg_r = RefineConfig(init_mode="random", steps=25, restarts=2)
    cfg_c = RefineConfig(init_mode="combined", steps=25, restarts=2)
    init = identifier.embeddings[1].copy()
    loss_r = refine_embedding(identifier, observed, None, cfg_r, np.random.default_rng(62)).loss
    loss_c = refine_embedding(identifier, observed, init, cfg_c, np.random.default_rng(62)).loss
    assert loss_c <= loss_r + 1e-12


def test_descent_reduces_loss(identifier, observed):
    rng = np.random.default_rng(63)
    result = refine_embedding(
        identifier, observed, None, RefineConfig(steps=200, restarts=3), rng
    )
    assert result.loss < result.trace[0] * 0.8


def test_fd_gradient_against_denser_stencil(identifier, observed):
    objective = mse_objective(identifier, observed)
    e = np.array([0.3, -0.2])
    eps = 1e-3 * identifier.bandwidth
    # the central-difference gradient exactly as _descend takes it
    values = objective(_probe_matrix(e, eps))
    assert values[2 * e.size] == pytest.approx(objective(e)[0], rel=1e-12)  # centre row
    grad = (values[0 : 2 * e.size : 2] - values[1 : 2 * e.size : 2]) / (2.0 * eps)

    # five-point stencil as an independent higher-order reference
    dense = np.zeros_like(e)
    for i in range(e.size):
        probes = np.repeat(e[None, :], 4, axis=0)
        probes[0, i] += 2 * eps
        probes[1, i] += eps
        probes[2, i] -= eps
        probes[3, i] -= 2 * eps
        v = objective(probes)
        dense[i] = (-v[0] + 8 * v[1] - 8 * v[2] + v[3]) / (12 * eps)
    assert np.linalg.norm(grad - dense) <= 0.05 * max(np.linalg.norm(dense), 1e-12)


def test_custom_objective_is_honored(identifier, observed):
    # quadratic bowl with a known minimum; descent should walk toward it
    target = np.array([1.5, -2.0])

    def bowl(batch):
        b = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        return ((b - target) ** 2).sum(axis=1)

    result = refine_embedding(
        identifier,
        observed,
        np.zeros(2),
        RefineConfig(init_mode="retrieval", steps=400, learning_rate=0.05, fd_epsilon=1e-4),
        objective=bowl,
    )
    assert np.allclose(result.embedding, target, atol=1e-2)
    assert result.loss < 1e-3


def test_refinement_leaves_generator_alone(identifier, observed):
    before = identifier.embeddings.copy()
    refine_embedding(identifier, observed, None, RefineConfig(steps=10), np.random.default_rng(64))
    assert np.array_equal(identifier.embeddings, before)


def test_validation_errors(identifier, observed):
    with pytest.raises(ValueError):
        RefineConfig(init_mode="gradient")
    with pytest.raises(ValueError):
        RefineConfig(steps=-1)
    with pytest.raises(ValueError):
        RefineConfig(restarts=0)
    with pytest.raises(ValueError):
        refine_embedding(identifier, observed, None, RefineConfig(), rng=None)
    with pytest.raises(ValueError):
        refine_embedding(identifier, observed, None, RefineConfig(init_mode="retrieval"))

    planner_tuples = (ExperienceTuple(gradient_video(0.5), "p", True),)
    dataset = ExperienceDataset(planner_tuples)
    projection = PcaProjection(mean=np.zeros(128), components=np.eye(2, 128), k=2)
    planner = fit_generator(dataset, build_table(dataset, projection), GeneratorMode.PLANNING)
    with pytest.raises(ValueError):
        refine_embedding(planner, observed, None, RefineConfig(), np.random.default_rng(0))
