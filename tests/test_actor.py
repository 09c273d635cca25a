"""Decoding executable actions back out of plan videos."""

import hashlib

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replan import (
    EnvAction,
    EnvInstance,
    EnvKind,
    ExperimentConfig,
    PlanDecodeError,
    Video,
    all_instances,
    build_task_assets,
    candidate_actions,
    execute,
    plan_to_action,
    scripted_action,
    track_centroid,
)
from replan.envs import GRIPPER_BAND, OBJECT_BAND

# sha256 over plan_to_action's value (or the PlanDecodeError text) for every
# kind x table theta x hypothesis-set rollout, in table order; recorded when
# the bar decoder still tracked every frame.
DECODE_DIGEST = "5e4c3cf115f534674cc9f3954e63cc3a05ff999bec2c43d2c5d9b30f2d1941a4"


def test_track_centroid_positions():
    px = np.zeros((2, 32, 32), dtype=np.float32)
    px[0, 10, 20] = 1.0
    px[0, 12, 20] = 1.0
    # frame 1 has no gripper pixels at all
    traj = track_centroid(Video(px), GRIPPER_BAND)
    assert traj.valid.tolist() == [True, False]
    assert traj.points[0].tolist() == [11.0, 20.0]
    assert np.isnan(traj.points[1]).all()


def test_track_centroid_band_filtering():
    px = np.zeros((1, 32, 32), dtype=np.float32)
    px[0, 5, 5] = 0.6   # object shade
    px[0, 9, 9] = 1.0   # gripper shade
    v = Video(px)
    assert track_centroid(v, OBJECT_BAND).points[0].tolist() == [5.0, 5.0]
    assert track_centroid(v, GRIPPER_BAND).points[0].tolist() == [9.0, 9.0]


def per_frame_centroid(video, band):
    """Oracle: one nonzero and one mean per frame."""
    lo, hi = band
    points = np.full((video.length, 2), np.nan, dtype=np.float64)
    valid = np.zeros(video.length, dtype=bool)
    for t in range(video.length):
        frame = video.frame(t)
        rows, cols = np.nonzero((frame >= lo) & (frame <= hi))
        if rows.size:
            points[t, 0] = rows.mean()
            points[t, 1] = cols.mean()
            valid[t] = True
    return points, valid


# pixel shades around both bands' edges, plus background
SHADES = [
    0.0, 0.5, GRIPPER_BAND[0], 1.0, OBJECT_BAND[0], OBJECT_BAND[1], np.nextafter(OBJECT_BAND[1], 1)
]


@settings(max_examples=200, deadline=None)
@given(
    t=st.integers(1, 5),
    h=st.integers(1, 32),
    w=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    density=st.floats(0.0, 1.0),
    empty=st.lists(st.booleans(), min_size=5, max_size=5),
    band=st.sampled_from([GRIPPER_BAND, OBJECT_BAND]),
)
@example(t=1, h=32, w=32, seed=0, density=0.0, empty=[True] * 5, band=OBJECT_BAND)
def test_track_centroid_matches_per_frame_oracle(t, h, w, seed, density, empty, band):
    rng = np.random.default_rng(seed)
    px = np.asarray(SHADES, dtype=np.float32)[rng.integers(len(SHADES), size=(t, h, w))]
    px[rng.random((t, h, w)) >= density] = 0.0
    px[np.asarray(empty[:t])] = 0.0
    video = Video(px)
    traj = track_centroid(video, band)
    points, valid = per_frame_centroid(video, band)
    assert traj.points.tobytes() == points.tobytes()
    assert traj.valid.tolist() == valid.tolist()


@pytest.mark.parametrize("kind", [EnvKind.PUSH_BAR, EnvKind.PICK_BAR])
def test_bar_decode_all_offsets(kind):
    # decode the ground-truth plan of every theta; rasterization rounds the
    # gripper to a pixel, so the decoded offset lands within half a pixel
    for env in all_instances(kind):
        plan = execute(env, scripted_action(env)).video
        action = plan_to_action(kind, plan)
        assert action.kind is kind
        assert abs(action.value - env.theta_value) <= 0.5 / 60.0 + 1e-9


def test_bar_decode_closes_the_loop():
    for env in all_instances(EnvKind.PUSH_BAR):
        plan = execute(env, scripted_action(env)).video
        replay = execute(env, plan_to_action(EnvKind.PUSH_BAR, plan))
        assert replay.success, env.object_id


def test_brick_decode_quantization():
    for env in all_instances(EnvKind.SLIDE_BRICK):
        plan = execute(env, scripted_action(env)).video
        action = plan_to_action(EnvKind.SLIDE_BRICK, plan)
        scripted = scripted_action(env).value
        # apex row rounds to a pixel: 26 px span quantizes the height
        assert abs(action.value - scripted) <= 0.5 / 26.0 + 1e-9
        assert execute(env, action).success, env.object_id


@pytest.mark.parametrize(
    "kind,modes",
    [(EnvKind.OPEN_BOX, ("lift", "slide")), (EnvKind.TURN_FAUCET, ("cw", "ccw"))],
)
def test_discrete_decode_reads_attempt(kind, modes):
    # both success and stuck rollouts decode to the mode that was attempted
    for theta in modes:
        env = EnvInstance(kind, theta)
        for attempted in modes:
            video = execute(env, EnvAction(kind, attempted)).video
            assert plan_to_action(kind, video).value == attempted


def test_undecodable_plans_raise():
    blank = Video(np.zeros((8, 32, 32), dtype=np.float32))
    for kind in EnvKind:
        with pytest.raises(PlanDecodeError):
            plan_to_action(kind, blank)

    # static scene: object visible but never moves
    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
    frame = execute(env, EnvAction(EnvKind.OPEN_BOX, "lift")).video.pixels[0]
    static = Video(np.stack([frame] * 8))
    with pytest.raises(PlanDecodeError):
        plan_to_action(EnvKind.OPEN_BOX, static)


def test_kind_may_be_named():
    # every pushbar plan-table row decodes the same under the kind's name; an unknown
    # name is refused as the kind
    def decoded(kind, video):
        try:
            return plan_to_action(kind, video)
        except PlanDecodeError as err:
            return str(err)

    videos = build_task_assets(ExperimentConfig(), "pushbar").plans.videos
    for video in videos:
        assert decoded("pushbar", video) == decoded(EnvKind.PUSH_BAR, video)
    with pytest.raises(ValueError, match=r"^plan_to_action's kind must be one of"):
        plan_to_action("shelf", videos[0])


def test_decode_error_is_value_error():
    assert issubclass(PlanDecodeError, ValueError)


def test_bar_decode_needs_contact_frame():
    px = np.zeros((2, 32, 32), dtype=np.float32)
    px[:, 16, 16] = 1.0
    with pytest.raises(PlanDecodeError):
        plan_to_action(EnvKind.PUSH_BAR, Video(px))  # only 2 frames


def test_decoded_actions_golden():
    digest = hashlib.sha256()
    for kind in EnvKind:
        actions = candidate_actions(kind)
        for env in all_instances(kind):
            for action in actions:
                try:
                    decoded = repr(plan_to_action(kind, execute(env, action).video).value)
                except PlanDecodeError as err:
                    decoded = f"error: {err}"
                digest.update(f"{decoded}\n".encode())
    assert digest.hexdigest() == DECODE_DIGEST
