"""Simulator physics, rendering invariants, and ground-truth policies."""

import hashlib

import numpy as np
import pytest

from replan import (
    EnvAction,
    EnvInstance,
    EnvKind,
    all_instances,
    bar_deflection,
    brick_stop_position,
    candidate_actions,
    execute,
    hidden_values,
    object_id,
    reset,
    sample_hidden,
    scripted_action,
)
from replan.envs import (
    BAR_OFFSETS,
    BRICK_FRICTIONS,
    HiddenParam,
    _execute_cached,
)

ALL_KINDS = list(EnvKind)

# sha256 over the pixels of every kind x table theta x hypothesis-set rollout,
# in table order; any change to a rollout's frames changes it.
ROLLOUT_DIGEST = "7423b4e7b98ce4a43ec6ed1e2609598de18233f021962d3620153e35f587883b"


def test_hidden_tables():
    assert len(BAR_OFFSETS) == 24
    assert len(BRICK_FRICTIONS) == 13
    assert len(hidden_values(EnvKind.OPEN_BOX)) == 2
    assert len(hidden_values(EnvKind.TURN_FAUCET)) == 2
    # deliberately irregular grid
    assert -0.05 in BAR_OFFSETS
    assert -0.045 not in BAR_OFFSETS
    assert -0.165 in BAR_OFFSETS
    assert 0.165 not in BAR_OFFSETS
    assert list(BAR_OFFSETS) == sorted(set(BAR_OFFSETS))
    assert list(BRICK_FRICTIONS) == sorted(set(BRICK_FRICTIONS))


def test_object_id_formatting():
    assert object_id(EnvKind.PUSH_BAR, -0.05) == "pushbar/-0.05"
    assert object_id(EnvKind.SLIDE_BRICK, 0.30) == "slidebrick/0.3"
    assert object_id(EnvKind.TURN_FAUCET, "cw") == "turnfaucet/cw"
    inst = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
    assert inst.object_id == "openbox/lift"
    assert inst.theta_value == "lift"


def test_param_and_action_validation():
    with pytest.raises(ValueError):
        HiddenParam(EnvKind.OPEN_BOX, "pry")
    with pytest.raises(ValueError):
        HiddenParam(EnvKind.PUSH_BAR, 0.25)
    with pytest.raises(ValueError):
        EnvAction(EnvKind.PUSH_BAR, 0.21)
    with pytest.raises(ValueError):
        EnvAction(EnvKind.SLIDE_BRICK, 1.2)
    with pytest.raises(ValueError):
        EnvAction(EnvKind.TURN_FAUCET, "lift")
    # kind mismatch between instance and action
    env = EnvInstance.create(EnvKind.PUSH_BAR, 0.0)
    with pytest.raises(ValueError):
        execute(env, EnvAction(EnvKind.PICK_BAR, 0.0))
    with pytest.raises(ValueError):
        EnvInstance(EnvKind.PUSH_BAR, HiddenParam(EnvKind.PICK_BAR, 0.0))


def test_physics_worked_examples():
    assert bar_deflection(-0.12, 0.09) == pytest.approx(-1.05, rel=1e-12)
    assert bar_deflection(0.09, 0.09) == 0.0
    assert brick_stop_position(0.5, 0.32) == pytest.approx(1.0, rel=1e-12)
    assert brick_stop_position(1.0, 0.24) == 2.0  # clamped
    assert brick_stop_position(0.0, 0.4) == 0.0


def test_reset_hides_theta():
    for kind in ALL_KINDS:
        frames = {reset(env).tobytes() for env in all_instances(kind)}
        assert len(frames) == 1, f"{kind.value} reset leaks theta"


def test_rollout_shape_and_first_frame():
    for kind in ALL_KINDS:
        env = all_instances(kind)[0]
        out = execute(env, scripted_action(env))
        assert out.video.pixels.shape == (8, 32, 32)
        assert out.video.pixels.dtype == np.float32
        assert out.video.first_frame().tobytes() == reset(env).tobytes()


def test_rollout_pixels_golden():
    _execute_cached.cache_clear()
    digest = hashlib.sha256()
    for kind in ALL_KINDS:
        actions = candidate_actions(kind)
        for env in all_instances(kind):
            for action in actions:
                digest.update(execute(env, action).video.pixels.tobytes())
    assert digest.hexdigest() == ROLLOUT_DIGEST


def test_execute_deterministic():
    env = EnvInstance.create(EnvKind.SLIDE_BRICK, 0.32)
    action = EnvAction(EnvKind.SLIDE_BRICK, 0.4)
    a = execute(env, action).video.pixels.tobytes()
    _execute_cached.cache_clear()
    b = execute(env, action).video.pixels.tobytes()
    assert a == b


def test_scripted_policy_succeeds_everywhere():
    total = 0
    for kind in ALL_KINDS:
        for env in all_instances(kind):
            out = execute(env, scripted_action(env))
            assert out.success, env.object_id
            total += 1
    assert total == 24 + 24 + 13 + 2 + 2


def test_bar_success_boundary():
    env = EnvInstance.create(EnvKind.PUSH_BAR, 0.0)
    assert execute(env, EnvAction(EnvKind.PUSH_BAR, 0.03)).success
    assert not execute(env, EnvAction(EnvKind.PUSH_BAR, 0.031)).success
    assert execute(env, EnvAction(EnvKind.PUSH_BAR, -0.03)).success


def test_brick_success_band():
    # theta=0.32 doubles the push, so height 0.5 stops exactly at 1.0
    env = EnvInstance.create(EnvKind.SLIDE_BRICK, 0.32)
    assert execute(env, EnvAction(EnvKind.SLIDE_BRICK, 0.5)).success
    assert not execute(env, EnvAction(EnvKind.SLIDE_BRICK, 0.6)).success
    assert not execute(env, EnvAction(EnvKind.SLIDE_BRICK, 0.4)).success


def test_discrete_mode_match():
    for kind, modes in ((EnvKind.OPEN_BOX, ("lift", "slide")), (EnvKind.TURN_FAUCET, ("cw", "ccw"))):
        for theta in modes:
            env = EnvInstance.create(kind, theta)
            for mode in modes:
                out = execute(env, EnvAction(kind, mode))
                assert out.success == (mode == theta)


def test_outcomes_distinguish_theta():
    # same action, different hidden parameter => visibly different rollout
    action = EnvAction(EnvKind.PUSH_BAR, 0.0)
    videos = [
        execute(env, action).video.pixels.tobytes()
        for env in all_instances(EnvKind.PUSH_BAR)
    ]
    assert len(set(videos)) == len(videos)

    action = EnvAction(EnvKind.SLIDE_BRICK, 0.6)
    videos = [
        execute(env, action).video.pixels.tobytes()
        for env in all_instances(EnvKind.SLIDE_BRICK)
    ]
    assert len(set(videos)) == len(videos)


def test_failed_discrete_rollouts_show_attempt():
    # a wrong-mode attempt still nudges the object in the attempted direction
    from replan import track_centroid
    from replan.envs import OBJECT_BAND

    env = EnvInstance.create(EnvKind.OPEN_BOX, "lift")
    stuck = execute(env, EnvAction(EnvKind.OPEN_BOX, "slide")).video
    traj = track_centroid(stuck, OBJECT_BAND)
    delta = traj.points[-1] - traj.points[0]
    assert delta[1] == pytest.approx(2.0, abs=0.6)
    assert abs(delta[0]) < 0.5


def test_sample_hidden_matches_table():
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(2000):
        theta = sample_hidden(EnvKind.PUSH_BAR, rng)
        assert theta.value in BAR_OFFSETS
        seen.add(theta.value)
    assert seen == set(BAR_OFFSETS)
    modes = {sample_hidden(EnvKind.OPEN_BOX, rng).value for _ in range(50)}
    assert modes == {"lift", "slide"}
