"""Embedding table construction and softmax retrieval."""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from replan import (
    BufferPolicy,
    DistanceMetric,
    EmbeddingTable,
    RetrievalConfig,
    Video,
    build_table,
    default_tau,
    interaction_logits,
    retrieval_probabilities,
    retrieve,
)
from replan.core import ExperienceDataset, ExperienceTuple
from replan.encoders import PcaProjection
from replan.retrieval import _median_pairwise_distance, retrieve_objects

from oracles import embedding_distance


def coord_video(x: float, y: float) -> Video:
    """A 1x1x2 video whose two pixels carry 2D coordinates.

    Coordinates are stored divided by 16, so small integers survive the
    float32 pixel format exactly and the encoder recovers them bit-exact.
    """
    return Video(np.array([[[x / 16.0, y / 16.0]]], dtype=np.float32))


def coord_encoder(video: Video) -> np.ndarray:
    return video.pixels.reshape(-1).astype(np.float64) * 16.0


IDENTITY_2D = PcaProjection(mean=np.zeros(2), components=np.eye(2))


def make_table(points, successes=None, object_ids=None):
    """Table whose entry embeddings sit exactly at ``points``."""
    n = len(points)
    successes = successes if successes is not None else [True] * n
    object_ids = object_ids if object_ids is not None else [f"obj/{i}" for i in range(n)]
    tuples = tuple(
        ExperienceTuple(coord_video(x, y), oid, ok)
        for (x, y), oid, ok in zip(points, object_ids, successes)
    )
    features = np.stack([coord_encoder(t.video) for t in tuples])
    return build_table(ExperienceDataset(tuples), IDENTITY_2D, features)


def probs(table, query_xy, **config_kwargs):
    query = coord_video(*query_xy)
    return retrieval_probabilities(
        table, query, RetrievalConfig(**config_kwargs), encoder=coord_encoder
    )


def test_softmax_worked_example():
    # distances 1 and 2 at tau=1: p0 = 1 / (1 + e^-1)
    table = make_table([(1, 0), (2, 0)])
    p = probs(table, (0, 0), tau=1.0)
    assert p[0] == pytest.approx(0.7310585786300049, rel=1e-12)
    assert p[1] == pytest.approx(0.2689414213699951, rel=1e-12)
    assert p.sum() == pytest.approx(1.0, rel=1e-12)


def test_softmax_equidistant_and_sharp():
    table = make_table([(1, 0), (0, 1)])
    p = probs(table, (0, 0), tau=1.0)
    assert p[0] == pytest.approx(0.5, rel=1e-12)

    # temperature -> 0 concentrates on the nearest entry
    table = make_table([(1, 0), (3, 0)])
    p = probs(table, (0, 0), tau=1e-3)
    assert p[0] == pytest.approx(1.0, abs=1e-12)


def test_probabilities_brute_force_oracle():
    rng = np.random.default_rng(31)
    pts = [(float(x), float(y)) for x, y in rng.uniform(0, 9, size=(6, 2))]
    table = make_table(pts)
    q = (4.5, 4.5)
    tau = 0.7
    p = probs(table, q, tau=tau)

    dists = [math.hypot(x - q[0], y - q[1]) for x, y in pts]
    weights = [math.exp(-d / tau) for d in dists]
    expected = np.array(weights) / sum(weights)
    assert np.allclose(p, expected, rtol=1e-10)


def test_default_tau():
    table = make_table([(1, 0), (2, 0)])  # canonical distance 1
    assert default_tau(table) == pytest.approx(0.1, rel=1e-12)

    # a single object has no pairwise distances; falls back to 1.0
    single = make_table([(1, 0), (2, 0)], object_ids=["obj/0", "obj/0"])
    assert default_tau(single) == 1.0

    # config tau=None resolves through the same default
    p_default = probs(table, (0, 0))
    p_explicit = probs(table, (0, 0), tau=default_tau(table))
    assert np.allclose(p_default, p_explicit, rtol=1e-12)


def test_buffer_policies():
    table = make_table([(1, 0), (5, 0)])
    q_old = coord_video(0, 0)
    q_new = coord_video(6, 0)
    buffer = [q_old, q_new]

    latest = retrieval_probabilities(
        table, buffer, RetrievalConfig(tau=1.0), encoder=coord_encoder
    )
    only_new = retrieval_probabilities(
        table, q_new, RetrievalConfig(tau=1.0), encoder=coord_encoder
    )
    assert np.allclose(latest, only_new, rtol=1e-12)

    agg = retrieval_probabilities(
        table,
        buffer,
        RetrievalConfig(tau=1.0, buffer_policy=BufferPolicy.AGGREGATE),
        encoder=coord_encoder,
    )
    # mean logits: entry0 -(1+5)/2 = -3, entry1 -(5+1)/2 = -3 => uniform
    assert np.allclose(agg, [0.5, 0.5], rtol=1e-12)
    assert not np.allclose(agg, latest, rtol=1e-3)


def test_canonical_is_first_success_per_object():
    # object "a": fail at (0,0), success at (3,0), success at (9,0)
    table = make_table(
        [(0, 0), (3, 0), (9, 0), (7, 7)],
        successes=[False, True, True, True],
        object_ids=["a", "a", "a", "b"],
    )
    assert table.object_ids == ("a", "b")
    assert np.allclose(table.canonical_for("a"), [3.0, 0.0])
    assert np.allclose(table.canonical_for("b"), [7.0, 7.0])
    assert len(table) == 4
    assert [table.entry_object_id(i) for i in range(4)] == ["a", "a", "a", "b"]


def test_build_table_errors():
    # an empty dataset, or one whose object has no success, cannot be built to pass in
    with pytest.raises(ValueError, match="^an experience dataset needs at least one tuple$"):
        ExperienceDataset(())
    with pytest.raises(ValueError, match="^object 'a' has no successful tuple$"):
        ExperienceDataset((ExperienceTuple(coord_video(1, 1), "a", False),))
    one = ExperienceDataset((ExperienceTuple(coord_video(1, 1), "a", True),))
    for features in (np.ones((2, 2)), np.ones(2)):
        with pytest.raises(ValueError, match="features"):
            build_table(one, IDENTITY_2D, features)


@settings(max_examples=200, deadline=None)
@given(
    points=hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 4)),
        elements=st.floats(-1e3, 1e3, allow_subnormal=False),
    )
)
def test_median_pairwise_distance_is_np_median(points):
    # odd and even pair counts; the sorted middle must be np.median's bits
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs * diffs).sum(axis=-1))[np.triu_indices(len(points), k=1)]
    assert _median_pairwise_distance(points) == float(np.median(dists))


def test_building_assets_leaves_numpy_ma_unimported():
    # numpy.ma costs every cold process its import time in set-up
    script = (
        "import sys\n"
        "from replan import ExperimentConfig, build_task_assets\n"
        "build_task_assets(ExperimentConfig(), 'pushbar')\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, check=True, capture_output=True, text=True,
        timeout=120,
    )
    assert done.stdout.strip() == "False"


def test_empty_buffer_rejected():
    table = make_table([(1, 0), (2, 0)])
    with pytest.raises(ValueError, match="empty interaction buffer"):
        retrieval_probabilities(table, [], RetrievalConfig(tau=1.0), encoder=coord_encoder)
    with pytest.raises(ValueError):
        RetrievalConfig(tau=0.0)
    with pytest.raises(ValueError):
        RetrievalConfig(tau=-1.0)


def test_retrieve_sampling_frequencies():
    table = make_table([(1, 0), (2, 0)])
    p = probs(table, (0, 0), tau=1.0)
    rng = np.random.default_rng(32)
    query = coord_video(0, 0)
    config = RetrievalConfig(tau=1.0)
    n = 10_000
    hits = 0
    for _ in range(n):
        emb = retrieve(table, query, config, rng, encoder=coord_encoder)
        if np.allclose(emb, [1.0, 0.0]):
            hits += 1
        else:
            assert np.allclose(emb, [2.0, 0.0])
    sigma = math.sqrt(n * p[0] * (1 - p[0]))
    assert abs(hits - n * p[0]) < 3 * sigma


def test_retrieve_returns_copy():
    table = make_table([(1, 0), (2, 0)])
    rng = np.random.default_rng(33)
    emb = retrieve(table, coord_video(0, 0), RetrievalConfig(tau=1.0), rng, encoder=coord_encoder)
    emb[:] = -99.0
    assert not np.allclose(table.canonical, -99.0)
    assert table.canonical.min() >= 0.0


def test_embedding_distance():
    assert embedding_distance(DistanceMetric.L2, [0.0, 3.0], [4.0, 0.0]) == 5.0
    assert embedding_distance(DistanceMetric.COSINE, [1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)
    assert embedding_distance(DistanceMetric.COSINE, [2.0, 0.0], [5.0, 0.0]) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        embedding_distance(DistanceMetric.COSINE, [0.0, 0.0], [1.0, 0.0])
    with pytest.raises(ValueError):
        embedding_distance(DistanceMetric.L2, [1.0], [1.0, 2.0])


def test_cosine_logits_are_the_scalar_distances_bit_for_bit():
    rng = np.random.default_rng(7)
    for k, n in ((1, 1), (2, 5), (4, 9), (12, 40)):
        entries = rng.normal(size=(n, k))
        query = Video(rng.uniform(0.05, 0.95, (1, 1, k)).astype(np.float32))
        got = interaction_logits(_table_of(entries), query, DistanceMetric.COSINE, encoder=_flat)
        want = [-embedding_distance(DistanceMetric.COSINE, _flat(query), e) for e in entries]
        assert got.tolist() == want


@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_logits_take_a_metric_name_as_its_member(metric):
    # a name once fell through to the cosine branch, whatever it named
    rng = np.random.default_rng(9)
    table = _table_of(rng.normal(size=(6, 3)))
    query = Video(rng.uniform(0.05, 0.95, (1, 1, 3)).astype(np.float32))
    by_member = interaction_logits(table, query, metric, encoder=_flat)
    assert interaction_logits(table, query, metric.value, encoder=_flat).tobytes() == (
        by_member.tobytes())
    other = next(m for m in DistanceMetric if m is not metric)
    assert by_member.tobytes() != interaction_logits(table, query, other, encoder=_flat).tobytes()


@pytest.mark.parametrize("points, query", [([(1, 2), (3, 1)], (0, 0)), ([(1, 2), (0, 0)], (1, 1))],
                         ids=["zero query", "zero entry"])
def test_cosine_logits_reject_zero_vectors(points, query):
    with pytest.raises(ValueError, match="cosine distance undefined for zero vectors"):
        probs(make_table(points), query, metric="cosine", tau=1.0)


def _flat(video):
    return np.asarray(video.pixels, dtype=np.float64).reshape(-1)


def _table_of(entries):
    k = entries.shape[1]
    return EmbeddingTable(
        object_ids=("o",), canonical=entries[:1], entry_embeddings=entries,
        entry_object_index=np.zeros(len(entries), dtype=np.int64),
        projection=PcaProjection(mean=np.zeros(k), components=np.eye(k)),
    )



@pytest.mark.parametrize("policy", list(BufferPolicy))
@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_config_takes_enum_names(metric, policy):
    # the loop dispatches on identity, so a name must become its member
    table = make_table([(1, 0), (5, 1), (2, 3)])
    buffer = [coord_video(1, 1), coord_video(6, 2)]
    named = RetrievalConfig(metric=metric.value, tau=1.0, buffer_policy=policy.value)
    members = RetrievalConfig(metric=metric, tau=1.0, buffer_policy=policy)
    assert named == members
    p_named = retrieval_probabilities(table, buffer, named, encoder=coord_encoder)
    p_members = retrieval_probabilities(table, buffer, members, encoder=coord_encoder)
    assert np.array_equal(p_named, p_members)
    draws = [
        [retrieve(table, buffer, config, rng, encoder=coord_encoder) for _ in range(20)]
        for config, rng in ((named, np.random.default_rng(34)), (members, np.random.default_rng(34)))
    ]
    assert np.array_equal(draws[0], draws[1])


@pytest.mark.parametrize("tau", [True, math.inf, math.nan, "0.1", 0, -1.0])
def test_tau_must_be_a_positive_number(tau):
    # ExperimentConfig's rule for tau
    with pytest.raises(ValueError, match=r"^RetrievalConfig\.tau must be None or a number > 0"):
        RetrievalConfig(tau=tau)


@pytest.mark.parametrize("field", ["metric", "buffer_policy"])
@pytest.mark.parametrize("value", ["bogus", "LATEST", None, 1])
def test_config_rejects_unknown_names(field, value):
    with pytest.raises(ValueError, match=f"RetrievalConfig.{field} must be one of"):
        RetrievalConfig(**{field: value})


ROUND_POINTS = [(1, 0), (5, 1), (2, 3), (4, 4), (0, 2)]
ROUND_QUERIES = [coord_video(x, y) for x, y in [(1, 1), (6, 2), (3, 3), (0, 5)]]


@pytest.mark.parametrize("policy", list(BufferPolicy))
@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_round_draws_match_single_calls(metric, policy):
    # one softmax per round, then the same draws n separate calls would make
    table = make_table(ROUND_POINTS)
    config = RetrievalConfig(metric=metric, tau=0.5, buffer_policy=policy)
    rows = [interaction_logits(table, video, metric, coord_encoder) for video in ROUND_QUERIES]
    for query in (ROUND_QUERIES, rows, ROUND_QUERIES[0]):
        for count in (1, 2, 7):
            rng_round, rng_single = np.random.default_rng(35), np.random.default_rng(35)
            picked = retrieve(table, query, config, rng_round, encoder=coord_encoder, count=count)
            singles = [
                retrieve(table, query, config, rng_single, encoder=coord_encoder)
                for _ in range(count)
            ]
            assert picked.shape == (count, 2)
            assert np.array_equal(picked, np.array(singles))
            assert rng_round.bit_generator.state == rng_single.bit_generator.state


@pytest.mark.parametrize("policy", list(BufferPolicy))
def test_retrieve_is_the_canonicals_of_the_objects_retrieve_objects_draws(policy):
    # entries of one object share its canonical embedding; the objects are those of the
    # entries one searchsorted over the softmax picks, from the same uniforms
    table = make_table(ROUND_POINTS, object_ids=["obj/a", "obj/b", "obj/a", "obj/c", "obj/b"])
    config = RetrievalConfig(tau=0.5, buffer_policy=policy)
    for query in (ROUND_QUERIES, ROUND_QUERIES[:1], ROUND_QUERIES[2]):
        for count in (None, 1, 3, 8):
            rngs = [np.random.default_rng(36) for _ in range(3)]
            picked = retrieve(table, query, config, rngs[0], encoder=coord_encoder, count=count)
            objects = retrieve_objects(table, query, config, rngs[1], count, coord_encoder)
            probs = retrieval_probabilities(table, query, config, encoder=coord_encoder)
            uniforms = rngs[2].random(1 if count is None else count)
            entries = np.searchsorted(np.cumsum(probs), uniforms, side="right")
            assert objects.tolist() == table.entry_object_index[entries].tolist()
            expected = table.canonical[objects]
            assert picked.tobytes() == (expected[0] if count is None else expected).tobytes()
            assert len({str(rng.bit_generator.state) for rng in rngs}) == 1


BAD_COUNTS = [0, -1, 2.5, True, "2", np.float64(2.0)]


@pytest.mark.parametrize("count", BAD_COUNTS)
def test_retrieve_objects_rejects_bad_count(count):
    # refine_embedding's rule: a float, bool or string failed in the comparison or in
    # the draw, naming nothing
    table = make_table([(1, 0), (2, 0)])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"^retrieve_objects's count must be None or an "
                                         rf"integer >= 1, got {re.escape(repr(count))}$"):
        retrieve_objects(table, coord_video(0, 0), RetrievalConfig(), rng, count, coord_encoder)
    assert rng.bit_generator.state == state  # nothing was drawn
    assert len(retrieve_objects(table, coord_video(0, 0), RetrievalConfig(), rng, np.int64(2),
                                coord_encoder)) == 2


@pytest.mark.parametrize("count", BAD_COUNTS)
def test_retrieve_rejects_bad_count(count):
    table = make_table([(1, 0), (2, 0)])
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=r"count must be None or an integer >= 1"):
        retrieve(table, coord_video(0, 0), RetrievalConfig(), rng, encoder=coord_encoder,
                 count=count)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("policy", list(BufferPolicy))
@pytest.mark.parametrize("metric", list(DistanceMetric))
def test_buffer_matches_fresh_scoring(metric, policy):
    # an episode buffer grows one failure a round, each kept as its logits row; the
    # rows, alone or mixed with videos, give exactly the probabilities of the videos
    table = make_table(ROUND_POINTS)
    config = RetrievalConfig(metric=metric, tau=0.5, buffer_policy=policy)
    scored = []

    def counting_encoder(video):
        scored.append(video)
        return coord_encoder(video)

    buffer = []
    for n, video in enumerate(ROUND_QUERIES, start=1):
        buffer.append(interaction_logits(table, video, metric, coord_encoder))
        p_list = retrieval_probabilities(table, ROUND_QUERIES[:n], config, encoder=coord_encoder)
        for query in (buffer, [*ROUND_QUERIES[:n - 1], buffer[-1]], [*buffer[:-1], video]):
            p_query = retrieval_probabilities(table, query, config, encoder=counting_encoder)
            assert np.array_equal(p_query, p_list)
    # a kept row is read as it is: only the videos the policy reads are scored
    if policy is BufferPolicy.LATEST:
        assert scored == ROUND_QUERIES
    else:
        assert scored == [v for n in range(1, 5) for v in ROUND_QUERIES[:n]]


def test_buffer_scores_only_what_the_policy_reads():
    table = make_table(ROUND_POINTS)
    scored = []

    def counting_encoder(video):
        scored.append(video)
        return coord_encoder(video)

    latest = RetrievalConfig(tau=0.5)
    retrieval_probabilities(table, ROUND_QUERIES, latest, encoder=counting_encoder)
    assert scored == ROUND_QUERIES[-1:]
    aggregate = RetrievalConfig(tau=0.5, buffer_policy=BufferPolicy.AGGREGATE)
    retrieval_probabilities(table, ROUND_QUERIES, aggregate, encoder=counting_encoder)
    assert scored == ROUND_QUERIES[-1:] + ROUND_QUERIES
