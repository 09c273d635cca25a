"""Gradient refinement of state embeddings."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replan import (
    ALL_TASKS,
    ExperimentConfig,
    GeneratorMode,
    KernelGenerator,
    RefineConfig,
    RefineResult,
    Video,
    build_task_assets,
    encode_video,
    fit_generator,
    id_generate,
    mse_objective,
    refine_embedding,
)
from replan.core import ExperienceDataset, ExperienceTuple
from replan.encoders import PcaProjection
from replan import generator, refinement
from replan.retrieval import build_table, softmax

from oracles import naive_mse_loss


def oracle_descend(evaluate, starts, steps, lr):
    """Plain gradient descent in embedding space with one ``evaluate`` per step,
    keeping each chain's first best iterate as it goes: the slow oracle of the
    group-space descent.  Returns the best rows, their losses and the
    (steps + 1, chains) best-so-far trace."""
    e = starts.copy()
    best_e = e.copy()
    best = np.full(len(e), np.inf)
    trace = []
    for _ in range(steps + 1):
        losses, grads = evaluate(e)
        better = losses < best
        best = np.where(better, losses, best)
        best_e[better] = e[better]
        trace.append(best)
        e = e - lr * grads
    return best_e, best, np.array(trace)


def gradient_video(slope):
    # smooth horizontal ramp scaled by slope; distinct per support entry
    cols = np.linspace(0.0, 1.0, 32, dtype=np.float64)
    frame = np.tile(cols * slope, (32, 1))
    return Video(np.stack([frame, frame * 0.8]).astype(np.float32))


def encoded_table(dataset, projection):
    features = np.stack([encode_video(t.video) for t in dataset.tuples])
    return build_table(dataset, projection, features)


def identification_fixture():
    tuples, slopes = [], (0.2, 0.5, 0.8, 1.0)
    for i, s in enumerate(slopes):
        tuples.append(ExperienceTuple(gradient_video(s), f"o{i}", True))
    dataset = ExperienceDataset(tuple(tuples))
    # scale the projection so canonical embeddings are O(1) and unit-variance
    # random inits land within kernel range
    projection = PcaProjection(mean=np.zeros(128), components=np.eye(2, 128) * 10.0)
    table = encoded_table(dataset, projection)
    return fit_generator(dataset, table, GeneratorMode.IDENTIFICATION)


@pytest.fixture(scope="module")
def identifier():
    return identification_fixture()


@pytest.fixture(scope="module")
def pushbar():
    """A pushbar identifier (264 supports, k = 16) and one failed interaction."""
    assets = build_task_assets(ExperimentConfig(tasks=("pushbar",)), "pushbar")
    failures = [t.video for t in assets.dataset.tuples if not t.success]
    return assets.identifier, failures[3]


def five_point_gradient(loss, e, eps):
    grad = np.zeros_like(e)
    for i in range(e.size):
        step = np.zeros_like(e)
        step[i] = eps
        v = [loss(e + c * step) for c in (2, 1, -1, -2)]
        grad[i] = (-v[0] + 8 * v[1] - 8 * v[2] + v[3]) / (12 * eps)
    return grad


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
    lr = 0.1 * identifier.bandwidth
    _, best, _ = refinement._descend(identifier, observed, init[None], 30, lr)
    assert best[0] <= init_loss + 1e-12
    # zero steps returns the start itself
    frozen, loss, trace = refinement._descend(identifier, observed, init[None], 0, lr)
    assert np.allclose(frozen[0], init)
    assert loss[0] == pytest.approx(init_loss, abs=1e-7)
    assert trace.shape == (1, 1)


def test_descent_reduces_loss(identifier, observed):
    rng = np.random.default_rng(63)
    result = refine_embedding(
        identifier, observed, None, RefineConfig(steps=200, restarts=3), rng
    )
    assert result.loss < result.trace[0] * 0.8


def test_refinement_leaves_generator_alone(identifier, observed):
    before = identifier.embeddings.copy()
    refine_embedding(identifier, observed, None, RefineConfig(steps=10), np.random.default_rng(64))
    assert np.array_equal(identifier.embeddings, before)


@pytest.mark.parametrize("field, value", [
    ("steps", 2.5), ("steps", True), ("steps", -1), ("steps", "80"),
    ("restarts", 1.5), ("restarts", False), ("restarts", 0), ("restarts", None),
])
def test_config_counts_must_be_integers(field, value):
    # as ExperimentConfig's integer fields: a float or bool would fail later, in np.empty or range
    with pytest.raises(ValueError, match=rf"^RefineConfig\.{field} must be an integer >= "):
        RefineConfig(**{field: value})


@pytest.mark.parametrize("count", [2.5, True, "2", 0, -1, np.float64(2.0)])
def test_count_must_be_none_or_a_positive_integer(count, identifier, observed):
    # a float, bool or string failed in the comparison or in rng.normal, naming nothing
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^refine_embedding's count must be None or an "
                                         rf"integer >= 1, got {re.escape(repr(count))}$"):
        refine_embedding(identifier, observed, None, RefineConfig(), rng, count=count)
    assert rng.bit_generator.state == state  # no start was drawn
    # a numpy integer is an integer
    results = refine_embedding(identifier, observed, None, RefineConfig(steps=2), rng,
                               count=np.int64(2))
    assert len(results) == 2


def test_validation_errors(identifier, observed):
    # starts are Gaussian draws only
    for init_mode in ("retrieval", "combined", "gradient"):
        message = rf"^RefineConfig\.init_mode must be 'random', got '{init_mode}'$"
        with pytest.raises(ValueError, match=message):
            RefineConfig(init_mode=init_mode)
    with pytest.raises(ValueError, match="^refine_embedding's init must be None"):
        refine_embedding(identifier, observed, identifier.embeddings[0], RefineConfig(),
                         np.random.default_rng(0))
    with pytest.raises(ValueError):
        RefineConfig(steps=-1)
    with pytest.raises(ValueError):
        RefineConfig(restarts=0)
    with pytest.raises(ValueError, match="rng"):
        refine_embedding(identifier, observed, None, RefineConfig(), rng=None)
    with pytest.raises(ValueError, match="count"):
        refine_embedding(identifier, observed, None, RefineConfig(), np.random.default_rng(0), count=0)

    planner_tuples = (ExperienceTuple(gradient_video(0.5), "p", True),)
    dataset = ExperienceDataset(planner_tuples)
    projection = PcaProjection(mean=np.zeros(128), components=np.eye(2, 128))
    planner = fit_generator(dataset, encoded_table(dataset, projection), GeneratorMode.PLANNING)
    with pytest.raises(ValueError):
        refine_embedding(planner, observed, None, RefineConfig(), np.random.default_rng(0))


@pytest.mark.parametrize("case, examples", [("fixture", 60), ("pushbar", 6)])
def test_gradient_matches_naive_central_differences(case, examples, identifier, observed, pushbar):
    g, video = (identifier, observed) if case == "fixture" else pushbar
    objective = mse_objective(g, video)

    # points up to 60 bandwidths from a support entry, where the kernel weights saturate
    @settings(max_examples=examples, deadline=None)
    @given(
        entry=st.integers(0, len(g) - 1),
        distance=st.floats(0.0, 60.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def check(entry, distance, seed):
        direction = np.random.default_rng(seed).normal(size=g.embeddings.shape[1])
        e = g.embeddings[entry] + distance * g.bandwidth * direction / np.linalg.norm(direction)
        noise = []

        def oracle(x):
            value = naive_mse_loss(g, video, x)
            noise.append(abs(value - objective(x)[0][0]))
            return value

        eps = 0.02 * g.bandwidth
        reference = five_point_gradient(oracle, e, eps)
        _, grads = objective(e)
        # id_generate rounds its video to float32, so each oracle loss is off by
        # up to max(noise); the stencil weights (1, 8, 8, 1) / 12 carry that
        # into each coordinate of the reference
        floor = np.sqrt(e.size) * 1.5 * max(noise) / eps
        assert np.linalg.norm(grads[0] - reference) <= 1e-5 * np.linalg.norm(reference) + floor

    check()


def central_differences(objective, eps):
    """Losses and central-difference gradients from the objective's losses alone."""

    def evaluate(batch):
        m, k = batch.shape
        steps = eps * np.eye(k)
        probes = np.concatenate(
            [batch[:, None, :] + steps, batch[:, None, :] - steps, batch[:, None, :]], axis=1
        )
        values = objective(probes.reshape(-1, k))[0].reshape(m, 2 * k + 1)
        return values[:, 2 * k], (values[:, :k] - values[:, k : 2 * k]) / (2.0 * eps)

    return evaluate


def test_closed_form_descent_matches_central_differences(pushbar):
    g, video = pushbar
    config = RefineConfig(steps=80, restarts=2)
    exact = refine_embedding(g, video, None, config, np.random.default_rng(65))
    # the same starts, descended with the same step on a stencil of the losses only
    starts = np.random.default_rng(65).normal(0.0, 1.0, size=(config.restarts, g.embeddings.shape[1]))
    evaluate = central_differences(mse_objective(g, video), 1e-3 * g.bandwidth)
    best_e, best, _ = oracle_descend(evaluate, starts, config.steps, 0.1 * g.bandwidth)
    assert isinstance(exact, RefineResult)
    assert np.abs(exact.embedding - best_e[best.argmin()]).max() <= 1e-6
    assert exact.loss == pytest.approx(best.min(), rel=1e-9)


def test_round_call_matches_separate_calls(pushbar):
    g, video = pushbar
    config = RefineConfig(steps=40, restarts=2)
    rng_round, rng_each = np.random.default_rng(66), np.random.default_rng(66)
    batched = refine_embedding(g, video, None, config, rng_round, count=3)
    separate = [refine_embedding(g, video, None, config, rng_each) for _ in range(3)]
    assert isinstance(batched, tuple) and len(batched) == 3
    for a, b in zip(batched, separate):
        assert np.abs(a.embedding - b.embedding).max() <= 1e-12
        assert a.loss == pytest.approx(b.loss, rel=1e-12)
        assert np.allclose(a.trace, b.trace, rtol=1e-12, atol=0)
    # the round drew its starts in the order the separate calls did
    assert rng_round.random() == rng_each.random()


# ---------------------------------------------------------------------------
# The grouped objective against the ungrouped one


def ungrouped_objective(g, observed):
    """The identification loss and gradient over every support entry, each with
    its own kernel weight: the Gram of the whole (n, T*H*W) support tail.
    ``objective.terms`` also returns, per row, the size of the products its
    gradient is formed from: the largest component of
    sum_i w_i (|G w|_i + |c|_i) |E_i - e| 4 / (N bw2)."""
    t, h, w = observed.pixels.shape
    obs_tail = observed.pixels.astype(np.float64).reshape(-1)[h * w :]
    tail = np.stack([v.pixels[1:].reshape(-1) for v in g.videos]).astype(np.float64)
    gram, cross = tail @ tail.T, tail @ obs_tail
    const, total = float(obs_tail @ obs_tail), float(t * h * w)
    emb = g.embeddings.astype(np.float64)
    bw2 = 2.0 * g.bandwidth * g.bandwidth

    def terms(batch):
        b = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        offsets = emb[None, :, :] - b[:, None, :]
        wts = softmax(-(offsets * offsets).sum(axis=2) / bw2)
        wg = wts @ gram
        losses = (const - 2.0 * (wts @ cross) + (wg * wts).sum(axis=1)) / total
        # dL/de = sum_i w_i (dL/dw_i - w . dL/dw) 2 (E_i - e) / bw2, dL/dw = 2 (G w - c) / N
        dw = (2.0 / total) * (wg - cross)
        coef = wts * (dw - (wts * dw).sum(axis=1, keepdims=True))
        grads = (coef[:, :, None] * offsets).sum(axis=1) * (2.0 / bw2)
        sizes = wts * (np.abs(wg) + np.abs(cross)) * (4.0 / (total * bw2))
        pieces = (sizes[:, :, None] * np.abs(offsets)).sum(axis=1)
        return np.maximum(losses, 0.0), grads, pieces.max(axis=1)

    def objective(batch):
        return terms(batch)[:2]

    objective.terms = terms
    return objective


def assert_matches_oracle(g, observed, batch):
    losses, grads = mse_objective(g, observed)(batch)
    ref_losses, ref_grads, pieces = ungrouped_objective(g, observed).terms(batch)
    assert np.all(np.abs(losses - ref_losses) <= 1e-12 * np.abs(ref_losses))
    for grad, ref, piece in zip(grads, ref_grads, pieces):
        # where the centred weights cancel (one group, or weights saturated on one)
        # the oracle's gradient is rounding noise of its products: bound by a
        # hundredth of those instead
        scale = max(np.abs(ref).max(), 1e-2 * piece)
        assert np.abs(grad - ref).max() <= 1e-10 * scale


@st.composite
def grouped_generators(draw):
    """An identifier whose support holds groups of uneven size, interleaved in
    support order, or one entry per embedding as a loaded dataset may have."""
    k = draw(st.integers(1, 4))
    sizes = draw(st.one_of(
        st.lists(st.integers(1, 6), min_size=1, max_size=6),
        st.integers(1, 12).map(lambda n: [1] * n),
    ))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    centres = rng.normal(size=(len(sizes), k))
    owner = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    videos = tuple(Video(rng.random((3, 8, 8), dtype=np.float32)) for _ in owner)
    bandwidth = float(rng.uniform(0.3, 2.0))
    g = KernelGenerator(GeneratorMode.IDENTIFICATION, videos, centres[owner], bandwidth)
    observed = Video(rng.random((3, 8, 8), dtype=np.float32))
    # points up to four bandwidths from a support entry
    batch = centres[owner[rng.integers(len(owner), size=3)]]
    batch += rng.uniform(0.0, 4.0, size=(3, 1)) * bandwidth * rng.normal(size=(3, k)) / np.sqrt(k)
    return g, observed, batch


@settings(max_examples=150, deadline=None)
@given(case=grouped_generators())
def test_grouped_objective_matches_the_ungrouped_oracle(case):
    g, observed, batch = case
    assert len(g.groups[0]) == len(np.unique(g.embeddings, axis=0))
    assert np.exp(g.groups[1]).round().sum() == len(g)
    assert_matches_oracle(g, observed, batch)
    # one (k,) point is row 0 of its batch
    losses, grads = mse_objective(g, observed)(batch[0])
    assert losses.shape == (1,) and grads.shape == (1, batch.shape[1])


@pytest.fixture(scope="module")
def task_identifiers():
    out = {}
    for task in ALL_TASKS:
        assets = build_task_assets(ExperimentConfig(tasks=(task,)), task)
        out[task] = assets.identifier, [t.video for t in assets.dataset.tuples if not t.success]
    return out


@pytest.mark.parametrize("task", ALL_TASKS)
def test_every_task_identifier_matches_the_ungrouped_oracle(task, task_identifiers):
    g, failures = task_identifiers[task]
    assert len(g.groups[0]) < len(g)  # entries of one object share its embedding
    rng = np.random.default_rng(67)
    for observed in failures[:3]:
        batch = g.embeddings[rng.integers(len(g), size=8)]
        batch = batch + rng.uniform(0.0, 3.0, size=(8, 1)) * g.bandwidth * rng.normal(
            size=batch.shape) / np.sqrt(batch.shape[1])
        assert_matches_oracle(g, observed, np.vstack([batch, rng.normal(size=batch.shape)]))


@pytest.mark.parametrize("task", ALL_TASKS)
def test_refinement_matches_a_descent_over_the_oracle(task, task_identifiers):
    g, failures = task_identifiers[task]
    config = RefineConfig(steps=80, restarts=1)
    for observed in failures[:2]:
        refined = refine_embedding(g, observed, None, config, np.random.default_rng(68), count=2)
        starts = np.random.default_rng(68).normal(0.0, 1.0, size=(2, g.embeddings.shape[1]))
        oracle = ungrouped_objective(g, observed)
        best_e, best, trace = oracle_descend(oracle, starts, config.steps, 0.1 * g.bandwidth)
        for c, result in enumerate(refined):
            assert np.abs(result.embedding - best_e[c]).max() <= 1e-9
            assert result.loss == pytest.approx(best[c], rel=1e-9)
            assert np.allclose(result.trace, trace[:, c], rtol=1e-9, atol=0)


# ---------------------------------------------------------------------------
# The group-space descent against the oracle descent over mse_objective


def drawn_starts(config, k, rng, count):
    """The starts ``refine_embedding`` draws for ``count`` results, one draw per start
    in its order: ``restarts`` for the first result, then for the next."""
    return np.array([rng.normal(0.0, 1.0, size=k) for _ in range(count * config.restarts)])


def oracle_refine(g, observed, config, seed, count):
    """``refine_embedding`` rebuilt on the oracle descent: each result's first chain
    with the lowest loss, as (tied iterates, loss, trace), where the tied iterates are
    the chain's embeddings at every step whose loss ties its best within 1e-12."""
    starts = drawn_starts(config, g.embeddings.shape[1], np.random.default_rng(seed), count)
    path, objective = [], mse_objective(g, observed)
    _, best, trace = oracle_descend(lambda e: path.append((e, *objective(e))) or path[-1][1:],
                                    starts, config.steps, 0.1 * g.bandwidth)
    iterates, losses = np.stack([e for e, _, _ in path]), np.stack([v for _, v, _ in path])
    chains = np.arange(0, len(starts), config.restarts) + best.reshape(count, -1).argmin(axis=1)
    return [(iterates[losses[:, c] <= best[c] * (1.0 + 1e-12), c], best[c], trace[:, c])
            for c in chains]


def assert_matches_oracle_descent(g, observed, config, seed, count):
    # on a flat stretch last-bit rounding decides which step is first with the lowest
    # loss, so the embedding is matched against every step that ties the best
    refined = refine_embedding(g, observed, None, config, np.random.default_rng(seed), count=count)
    expected = oracle_refine(g, observed, config, seed, count)
    assert len(refined) == len(expected)
    for result, (tied, loss, trace) in zip(refined, expected):
        gaps = np.abs(tied - result.embedding).max(axis=1)
        assert np.any(gaps <= 1e-12 * np.abs(tied).max(axis=1))
        assert abs(result.loss - loss) <= 1e-12 * loss
        assert np.all(np.abs(np.array(result.trace) - trace) <= 1e-12 * trace)


@pytest.mark.parametrize("task", ALL_TASKS)
def test_refinement_matches_the_oracle_descent(task, task_identifiers):
    g, failures = task_identifiers[task]
    for observed in failures[:2]:
        assert_matches_oracle_descent(g, observed, RefineConfig(steps=80, restarts=1), 69, 2)
        assert_matches_oracle_descent(g, observed, RefineConfig(steps=40, restarts=2), 70, 3)
        assert_matches_oracle_descent(g, observed, RefineConfig(steps=0), 71, 3)


@settings(max_examples=60, deadline=None)
@given(case=grouped_generators(), restarts=st.integers(1, 3),
       steps=st.sampled_from([0, 1, 30]), count=st.integers(1, 3))
def test_grouped_refinement_matches_the_oracle_descent(case, restarts, steps, count):
    g, observed, _ = case
    config = RefineConfig(steps=steps, restarts=restarts)
    assert_matches_oracle_descent(g, observed, config, 72, count)


def far_starts(draw, canonicals, bandwidth, chains):
    """``chains`` starts, each drawn 0-200 bandwidths from a drawn canonical embedding."""
    rows = draw(st.lists(st.integers(0, len(canonicals) - 1), min_size=chains, max_size=chains))
    distances = draw(st.lists(st.floats(0.0, 200.0), min_size=chains, max_size=chains))
    directions = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(
        size=(chains, canonicals.shape[1]))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return canonicals[rows] + bandwidth * np.array(distances)[:, None] * directions


@pytest.mark.parametrize("case, examples", [("synthetic", 100), *((t, 25) for t in ALL_TASKS)])
def test_descent_matches_the_oracle_descent_from_far_starts(case, examples, task_identifiers):
    """The group-space descent, whose logits are shifted once before the first step and
    whose steps read the folded Gram, against plain descent over ``mse_objective``."""

    @settings(max_examples=examples, deadline=None)
    @given(data=st.data(), chains=st.integers(1, 64), steps=st.integers(0, 120))
    def check(data, chains, steps):
        if case == "synthetic":
            g, observed, _ = data.draw(grouped_generators())
        else:
            g, failures = task_identifiers[case]
            observed = failures[data.draw(st.integers(0, len(failures) - 1))]
        starts = far_starts(data.draw, g.groups[0], g.bandwidth, chains)
        lr = 0.1 * g.bandwidth
        path, objective = [], mse_objective(g, observed)
        oracle = oracle_descend(lambda e: path.append((e, *objective(e))) or path[-1][1:],
                                starts, steps, lr)
        fast = refinement._descend(g, observed, starts, steps, lr)

        np.testing.assert_allclose(fast[1], oracle[1], rtol=1e-9, atol=0)
        np.testing.assert_allclose(fast[2], oracle[2], rtol=1e-9, atol=0)
        # at a flat minimum rounding decides which step is first with the lowest loss:
        # each chain's row is the oracle's iterate at a step whose loss ties its best
        iterates, losses = np.stack([e for e, _, _ in path]), np.stack([v for _, v, _ in path])
        tied = losses <= oracle[1] * (1.0 + 1e-9)
        matched = (np.abs(iterates - fast[0]).max(axis=2)
                   <= 1e-9 * np.abs(iterates).max(axis=2))
        assert np.all((tied & matched).any(axis=0))
        # the weights at every step are exp(z) over a normalizer, with z the logits less
        # the start's largest: it neither overflows nor underflows along the path
        shift = refinement._group_logits(g, starts).max(axis=1, keepdims=True)
        norms = [np.exp(refinement._group_logits(g, e) - shift).sum(axis=1) for e in iterates]
        assert np.all(np.isfinite(np.log(norms)))

    check()


def test_a_start_that_stays_best_is_returned_bit_for_bit(pushbar):
    g, video = pushbar
    config = RefineConfig(steps=0, restarts=2)
    rng, draws = np.random.default_rng(73), np.random.default_rng(73)
    starts = drawn_starts(config, g.embeddings.shape[1], draws, 3)
    # with no step, every chain's best iterate is its start: a chosen one and drawn ones
    chosen = np.vstack([g.embeddings[5] + 0.1, starts])
    frozen, _, trace = refinement._descend(g, video, chosen, 0, 0.1 * g.bandwidth)
    assert frozen.tobytes() == chosen.tobytes() and trace.shape == (1, len(chosen))
    results = refine_embedding(g, video, None, config, rng, count=3)
    assert all(r.embedding.tobytes() in {s.tobytes() for s in starts} for r in results)


def floored_identification_loss(floor):
    """``_identification_loss`` with its loss terms raised to ``floor``, so that every
    step whose loss falls below it shares one loss while the chain keeps moving."""
    exact = generator._identification_loss

    def identification_loss(g, observed):
        const, total, bw2, folded, loss_terms = exact(g, observed)

        def floored(wts, wu):
            return np.maximum(loss_terms(wts, wu), floor)

        return const, total, bw2, folded, floored

    return identification_loss


def descent_path(objective, start, steps, lr):
    """Every iterate of a single chain's plain descent and its loss."""
    path, losses, e = [], [], start
    for _ in range(steps + 1):
        loss, grad = objective(e)
        path.append(e)
        losses.append(loss[0])
        e = e - lr * grad[0]
    return path, np.array(losses)


@pytest.mark.parametrize("plateau_from", [0, 20])
def test_ties_on_the_lowest_loss_keep_the_first_step(plateau_from, pushbar, monkeypatch):
    g, video = pushbar
    start = np.random.default_rng(74).normal(size=g.embeddings.shape[1])
    lr = 0.1 * g.bandwidth
    _, losses = descent_path(mse_objective(g, video), start, 80, lr)
    # the loss falls at every step; floor it halfway between step plateau_from and the
    # step before (half a step above step 0 for 0), so that the descent, which rounds
    # apart from the oracle in the last bits, also first reaches it at plateau_from
    assert np.all(np.diff(losses) < 0)
    const = float(np.square(video.pixels[1:].astype(np.float64)).sum())
    above = losses[plateau_from - 1] if plateau_from else 2 * losses[0] - losses[1]
    floor = (losses[plateau_from] + above) / 2 * video.pixels.size - const
    floored = floored_identification_loss(floor)
    monkeypatch.setattr(generator, "_identification_loss", floored)
    monkeypatch.setattr(refinement, "_identification_loss", floored)

    (embedding,), (loss,), _ = refinement._descend(g, video, start[None], 80, lr)
    path, losses = descent_path(mse_objective(g, video), start, 80, lr)
    tied = np.flatnonzero(losses == losses.min())
    # the last 60 steps or more hold the lowest loss and the chain moved between them
    assert len(tied) >= 60 and np.abs(path[tied[-1]] - path[tied[0]]).max() > 1e-3
    first = path[tied[0]]
    assert np.abs(embedding - first).max() <= 1e-12 * np.abs(first).max()
    assert loss == losses.min()
    if tied[0] == 0:
        # every step ties with step 0, so the start comes back bit for bit
        assert embedding.tobytes() == start.tobytes()
    assert (tied[0] == 0) == (plateau_from == 0)
