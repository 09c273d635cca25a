"""Failure-aware candidate selection."""

import math

import numpy as np
import pytest

from replan import (
    ALL_TASKS,
    ExperimentConfig,
    FailedPlanBuffer,
    RejectionMetric,
    Video,
    build_task_assets,
    encode_video,
    nearest_failed_distance,
    pixel_l2,
    select_plan,
)
from replan.rejection import distance_matrix, pixel_sums_of_squares


def vid(fill=0.0):
    return Video(np.full((1, 32, 32), fill, dtype=np.float32))


def patch_vid(value, r0=0, c0=0, size=4):
    px = np.zeros((1, 32, 32), dtype=np.float32)
    px[0, r0 : r0 + size, c0 : c0 + size] = value
    return Video(px)


def test_empty_buffer():
    buffer = FailedPlanBuffer()
    assert nearest_failed_distance(vid(), buffer) == math.inf
    idx, plan = select_plan([vid(0.1), vid(0.2)], buffer)
    assert idx == 0
    assert plan.pixels[0, 0, 0] == np.float32(0.1)


def test_distance_worked_example():
    # 0.3 difference on a 4x4 patch: sqrt(16 * 0.09) = 1.2
    buffer = FailedPlanBuffer().push(patch_vid(0.3))
    assert nearest_failed_distance(vid(), buffer) == pytest.approx(1.2, rel=1e-6)


def test_nearest_is_min_over_buffer():
    buffer = FailedPlanBuffer()
    buffer.push(patch_vid(0.3))   # distance 1.2 from zeros
    buffer.push(patch_vid(0.15))  # distance 0.6 from zeros
    assert nearest_failed_distance(vid(), buffer) == pytest.approx(0.6, rel=1e-6)
    assert len(buffer) == 2


def test_select_farthest_candidate():
    buffer = FailedPlanBuffer().push(vid(0.0))
    near = patch_vid(0.1)   # distance 0.4 from the failure
    far = patch_vid(0.9)    # distance 3.6
    idx, plan = select_plan([near, far], buffer)
    assert idx == 1
    assert plan is far


def test_ties_resolve_to_lowest_index():
    buffer = FailedPlanBuffer().push(vid(0.0))
    same_a = patch_vid(0.5, r0=0)
    same_b = patch_vid(0.5, r0=8)  # same distance, different video
    idx, _ = select_plan([same_a, same_b], buffer)
    assert idx == 0


def test_buffer_order_irrelevant():
    rng = np.random.default_rng(41)
    fails = [Video(rng.random((1, 32, 32), dtype=np.float32)) for _ in range(4)]
    probe = Video(rng.random((1, 32, 32), dtype=np.float32))
    fwd, rev = FailedPlanBuffer(), FailedPlanBuffer()
    for f in fails:
        fwd.push(f)
    for f in reversed(fails):
        rev.push(f)
    assert nearest_failed_distance(probe, fwd) == pytest.approx(
        nearest_failed_distance(probe, rev), rel=1e-12
    )


def test_select_matches_brute_force():
    rng = np.random.default_rng(42)
    for _ in range(40):
        candidates = [Video(rng.random((1, 32, 32), dtype=np.float32)) for _ in range(3)]
        buffer = FailedPlanBuffer()
        fails = [Video(rng.random((1, 32, 32), dtype=np.float32)) for _ in range(2)]
        for f in fails:
            buffer.push(f)

        scores = []
        for cand in candidates:
            dists = [
                float(np.linalg.norm(
                    cand.pixels.astype(np.float64).ravel()
                    - f.pixels.astype(np.float64).ravel()
                ))
                for f in fails
            ]
            scores.append(min(dists))
        expected = int(np.argmax(scores))
        idx, _ = select_plan(candidates, buffer)
        assert idx == expected


def test_embedding_metric_ignores_within_block_detail():
    # two videos with identical 4x4 block means but different pixels
    a_px = np.zeros((1, 32, 32), dtype=np.float32)
    a_px[0, 0, 0] = 0.8
    b_px = np.zeros((1, 32, 32), dtype=np.float32)
    b_px[0, 3, 3] = 0.8
    a, b = Video(a_px), Video(b_px)

    buffer = FailedPlanBuffer().push(a)
    raw = nearest_failed_distance(b, buffer, RejectionMetric.RAW_PIXEL)
    emb = nearest_failed_distance(b, buffer, RejectionMetric.EMBEDDING)
    assert raw > 1.0
    assert emb == pytest.approx(0.0, abs=1e-12)

    # under the embedding metric, b looks like a repeat and loses
    fresh = patch_vid(0.1, r0=16, c0=16)  # raw-closer but embedding-farther than b
    idx_emb, _ = select_plan([b, fresh], buffer, RejectionMetric.EMBEDDING)
    assert idx_emb == 1
    idx_raw, _ = select_plan([b, fresh], buffer, RejectionMetric.RAW_PIXEL)
    assert idx_raw == 0


@pytest.mark.parametrize("metric", list(RejectionMetric))
def test_metric_names_match_enums(metric):
    # the raw-pixel and embedding metrics disagree on this buffer, so a name
    # dispatched to the wrong path shows
    a_px = np.zeros((1, 32, 32), dtype=np.float32)
    a_px[0, 0, 0] = 0.8
    b_px = np.zeros((1, 32, 32), dtype=np.float32)
    b_px[0, 3, 3] = 0.8
    buffer = FailedPlanBuffer().push(Video(a_px))
    candidates = [Video(b_px), patch_vid(0.1, r0=16, c0=16)]
    for plan in candidates:
        assert nearest_failed_distance(plan, buffer, metric.value) == nearest_failed_distance(
            plan, buffer, metric
        )
    assert select_plan(candidates, buffer, metric.value) == select_plan(candidates, buffer, metric)


@pytest.mark.parametrize("value", ["bogus", "RAW_PIXEL", None])
def test_unknown_metric_names_are_rejected(value):
    buffer = FailedPlanBuffer().push(vid(0.5))
    with pytest.raises(ValueError, match="metric must be one of"):
        select_plan([vid(0.1)], buffer, value)
    with pytest.raises(ValueError, match="metric must be one of"):
        nearest_failed_distance(vid(0.1), buffer, value)


def test_select_requires_candidates():
    with pytest.raises(ValueError):
        select_plan([], FailedPlanBuffer())


def test_embedding_query_encodes_each_plan_once(monkeypatch):
    import replan.rejection as rejection

    encoded = []

    def counting_encode(video):
        encoded.append(video)
        return real_encode(video)

    real_encode = rejection.encode_video
    monkeypatch.setattr(rejection, "encode_video", counting_encode)
    rng = np.random.default_rng(43)
    fails = [Video(rng.random((1, 32, 32), dtype=np.float32)) for _ in range(3)]
    candidates = [Video(rng.random((1, 32, 32), dtype=np.float32)) for _ in range(2)]

    # raw_pixel never reads an embedding, so nothing is encoded
    buffer = FailedPlanBuffer()
    for f in fails:
        buffer.push(f)
        select_plan(candidates, buffer, RejectionMetric.RAW_PIXEL)
    assert encoded == []

    # embedding: a query encodes each candidate and each failure once, and the
    # buffer keeps no features between queries
    buffer = FailedPlanBuffer()
    for f in fails:
        buffer.push(f)
        select_plan(candidates, buffer, RejectionMetric.EMBEDDING)
    assert [sum(v is f for v in encoded) for f in fails] == [3, 2, 1]
    assert [sum(v is c for v in encoded) for c in candidates] == [3, 3]
    assert len(encoded) == 12
    assert vars(buffer) == {"plans": fails}


def per_pair_nearest(plan, failed, metric):
    """Per-candidate oracle: the nearest-failure loop one pair at a time."""
    if not failed:
        return math.inf
    if metric is RejectionMetric.RAW_PIXEL:
        return min(pixel_l2(plan, f) for f in failed)
    feature = encode_video(plan)
    return min(float(np.linalg.norm(feature - encode_video(f))) for f in failed)


@pytest.fixture(scope="module")
def task_assets():
    return [build_task_assets(ExperimentConfig(), task) for task in ALL_TASKS]


@pytest.mark.parametrize("metric", list(RejectionMetric))
def test_batched_scores_match_per_pair_oracle(task_assets, metric):
    # every planner-support plan as a candidate, against a buffer that grows by
    # one dataset failure per round up to the replan cap, as in an episode
    rng = np.random.default_rng(44)
    for assets in task_assets:
        candidates = list(assets.planner.videos)
        failures = [t.video for t in assets.dataset.tuples if not t.success]
        picks = rng.choice(len(failures), ExperimentConfig().max_replans, replace=False)
        failed, buffer = [], FailedPlanBuffer()
        for i in [None, *picks]:
            if i is not None:
                failed.append(failures[int(i)])
                buffer.push(failures[int(i)])
            expected = [per_pair_nearest(c, failed, metric) for c in candidates]
            scores = [nearest_failed_distance(c, buffer, metric) for c in candidates]
            assert scores == expected, assets.kind
            best = max(range(len(candidates)), key=lambda j: (expected[j], -j))
            assert select_plan(candidates, buffer, metric) == (best, candidates[best])


def test_raw_pixel_scores_refuse_mismatched_shapes():
    buffer = FailedPlanBuffer().push(vid(0.5))
    wrong = Video(np.zeros((2, 32, 32), dtype=np.float32))
    message = r"^shape mismatch: \[\(1, 32, 32\), \(2, 32, 32\)\]$"
    with pytest.raises(ValueError, match=message):
        select_plan([wrong], buffer)
    with pytest.raises(ValueError, match=message):
        nearest_failed_distance(wrong, buffer)
    with pytest.raises(ValueError, match=message):
        distance_matrix([vid(0.5), wrong], "raw_pixel")


def per_pair_distance_matrix(plans):
    """The raw-pixel matrix as it was built before the sums-of-squares table: each row's
    square roots taken per pair, then the lower triangle mirrored."""
    rows = [plan.pixels.reshape(-1).astype(np.float64) for plan in plans]
    out = np.zeros((len(rows), len(rows)))
    for j in range(1, len(rows)):
        out[j, :j] = np.sqrt([np.sum(np.square(rows[j] - row)) for row in rows[:j]])
    return out + out.T


def test_raw_pixel_matrix_is_the_root_of_the_sums_of_squares(task_assets):
    for assets in task_assets:
        plans = assets.plans
        sums = pixel_sums_of_squares(plans.videos)
        expected = per_pair_distance_matrix(plans.videos)
        assert np.sqrt(sums).tobytes() == expected.tobytes(), assets.kind
        assert plans.distances[RejectionMetric.RAW_PIXEL].tobytes() == expected.tobytes()
        assert distance_matrix(plans.videos, "raw_pixel").tobytes() == expected.tobytes()
        assert (sums == sums.T).all() and not np.diag(sums).any()
