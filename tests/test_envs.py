"""Simulator physics, rendering invariants, and ground-truth policies."""

import hashlib
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    render,
    reset,
    sample_hidden,
    scripted_action,
)
from replan import envs
from replan.envs import (
    BAR_HALF_PX,
    BAR_OFFSETS,
    BOX_BODY,
    BOX_MODES,
    BRICK_FRICTIONS,
    FAUCET_BASE,
    FAUCET_MODES,
    GRIPPER_SHADE,
    HANDLE_HOME,
    LID_COLS,
    LID_ROWS,
    OBJECT_SHADE,
    TARGET_SHADE,
    SceneState,
    succeeds,
)

ALL_KINDS = list(EnvKind)

# sha256 over the pixels of every kind x table theta x hypothesis-set rollout,
# in table order; any change to a rollout's frames changes it.
ROLLOUT_DIGEST = "7423b4e7b98ce4a43ec6ed1e2609598de18233f021962d3620153e35f587883b"
# ``simulator_digest``: any change to a reset frame, a rollout or a success flag changes it.
SIMULATOR_DIGEST = "1b17d12dbbfff464a098a38376a07af085a2ce320c58d159f36f30ffcceff318"


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
    inst = EnvInstance(EnvKind.OPEN_BOX, "lift")
    assert inst.object_id == "openbox/lift"
    assert inst.theta_value == "lift"


def test_param_and_action_validation():
    with pytest.raises(ValueError, match=r"^EnvInstance\.theta_value of openbox must be one "
                                         r"of \('lift', 'slide'\), got 'pry'$"):
        EnvInstance(EnvKind.OPEN_BOX, "pry")
    with pytest.raises(ValueError, match=r"^EnvInstance\.theta_value of pushbar must be in "
                                         r"\[-0\.2, 0\.2\], got 0\.25$"):
        EnvInstance(EnvKind.PUSH_BAR, 0.25)
    assert EnvInstance(EnvKind.SLIDE_BRICK, 1).theta_value == 1.0
    with pytest.raises(ValueError, match=r"^EnvAction\.value of pushbar must be in "
                                         r"\[-0\.2, 0\.2\], got 0\.21$"):
        EnvAction(EnvKind.PUSH_BAR, 0.21)
    with pytest.raises(ValueError, match=r"^EnvAction\.value of slidebrick must be in "
                                         r"\[0, 1\], got 1\.2$"):
        EnvAction(EnvKind.SLIDE_BRICK, 1.2)
    with pytest.raises(ValueError, match=r"^EnvAction\.value of turnfaucet must be one of "
                                         r"\('cw', 'ccw'\), got 'lift'$"):
        EnvAction(EnvKind.TURN_FAUCET, "lift")
    # kind mismatch between instance and action
    env = EnvInstance(EnvKind.PUSH_BAR, 0.0)
    with pytest.raises(ValueError, match="action kind does not match environment kind"):
        execute(env, EnvAction(EnvKind.PICK_BAR, 0.0))
    with pytest.raises(ValueError, match="action kind"):
        succeeds(env, EnvAction(EnvKind.PICK_BAR, 0.0))


# The closed range each continuous kind's rejection names, as (low, high, its text).
RANGES = {
    (EnvInstance, EnvKind.PUSH_BAR): (-0.2, 0.2, "[-0.2, 0.2]"),
    (EnvInstance, EnvKind.PICK_BAR): (-0.2, 0.2, "[-0.2, 0.2]"),
    (EnvInstance, EnvKind.SLIDE_BRICK): (0.05, 1.0, "[0.05, 1]"),
    (EnvAction, EnvKind.PUSH_BAR): (-0.2, 0.2, "[-0.2, 0.2]"),
    (EnvAction, EnvKind.PICK_BAR): (-0.2, 0.2, "[-0.2, 0.2]"),
    (EnvAction, EnvKind.SLIDE_BRICK): (0.0, 1.0, "[0, 1]"),
}
FIELD = {EnvInstance: "theta_value", EnvAction: "value"}


def rejection(cls, kind, need):
    return rf"^{cls.__name__}\.{FIELD[cls]} of {kind.value} must be {re.escape(need)}, got "


@pytest.mark.parametrize("value", [True, False, "0.3", "abc", None, float("nan")])
def test_continuous_values_must_be_numbers(value):
    # a bool read as 1.0 or 0.0, a table value, and a numeric string was coerced
    for (cls, kind), (_, _, text) in RANGES.items():
        with pytest.raises(ValueError, match=rejection(cls, kind, f"in {text}")):
            cls(kind, value)
    assert EnvInstance(EnvKind.PUSH_BAR, np.float64(0.03)).theta_value == 0.03
    assert EnvAction(EnvKind.SLIDE_BRICK, np.float32(0.5)).value == 0.5


def test_every_kind_has_one_facts_entry():
    assert list(envs._FACTS) == ALL_KINDS
    for kind in ALL_KINDS:
        assert envs._FACTS[kind].table is hidden_values(kind) is hidden_values(kind.value)
    with pytest.raises(ValueError, match=r"^hidden_values's kind must be one of \('pushbar', "):
        hidden_values("shelf")


def test_every_table_value_and_policy_action_is_in_its_domain():
    for kind in ALL_KINDS:
        for theta in hidden_values(kind):
            env = EnvInstance(kind, theta)
            assert env.theta_value == theta
            action = scripted_action(env)
            assert EnvAction(kind, action.value) == action
        for action in candidate_actions(kind):
            assert EnvAction(kind, action.value) == action


@pytest.mark.parametrize("cls, kind", list(RANGES))
def test_closed_range_ends_are_accepted_and_a_step_past_them_is_named(cls, kind):
    low, high, text = RANGES[cls, kind]
    for end, past in ((low, low - 1e-6), (high, high + 1e-6)):
        assert getattr(cls(kind, end), FIELD[cls]) == end
        with pytest.raises(ValueError, match=rejection(cls, kind, f"in {text}") + re.escape(
                repr(past)) + "$"):
            cls(kind, past)


@pytest.mark.parametrize("cls", [EnvInstance, EnvAction])
@pytest.mark.parametrize("kind, table", [(EnvKind.OPEN_BOX, "('lift', 'slide')"),
                                         (EnvKind.TURN_FAUCET, "('cw', 'ccw')")])
def test_a_mode_rejection_names_its_table(cls, kind, table):
    for value in ("pry", 0.0, None, "LIFT"):
        with pytest.raises(ValueError, match=rejection(cls, kind, f"one of {table}")):
            cls(kind, value)


@pytest.mark.parametrize("cls", [EnvInstance, EnvAction])
def test_a_kind_is_a_member_or_its_name(cls):
    assert cls("pushbar", 0.0) == cls(EnvKind.PUSH_BAR, 0.0)
    assert cls("openbox", "lift").kind is EnvKind.OPEN_BOX
    for kind in ("shelf", None, 0):
        with pytest.raises(ValueError, match=rf"^{cls.__name__}\.kind must be one of "
                                             r"\('pushbar', 'pickbar', 'slidebrick', "
                                             r"'openbox', 'turnfaucet'\), got "):
            cls(kind, 0.0)


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
    digest = hashlib.sha256()
    for kind in ALL_KINDS:
        actions = candidate_actions(kind)
        for env in all_instances(kind):
            for action in actions:
                digest.update(execute(env, action).video.pixels.tobytes())
    assert digest.hexdigest() == ROLLOUT_DIGEST


def simulator_digest():
    """sha256 over, per kind: the reset frame; each table theta's rollout (pixels and
    success) under every hypothesis-set action; and on every third table theta of a
    continuous kind, rollouts of 41 evenly spaced actions over its action range."""
    sweeps = {EnvKind.PUSH_BAR: (-0.2, 0.2), EnvKind.PICK_BAR: (-0.2, 0.2),
              EnvKind.SLIDE_BRICK: (0.0, 1.0)}
    digest = hashlib.sha256()
    for kind in ALL_KINDS:
        instances = all_instances(kind)
        digest.update(reset(instances[0]).tobytes())
        pairs = [(env, action) for env in instances for action in candidate_actions(kind)]
        if kind in sweeps:
            sweep = [EnvAction(kind, float(v)) for v in np.linspace(*sweeps[kind], 41)]
            pairs += [(env, action) for env in instances[::3] for action in sweep]
        for env, action in pairs:
            out = execute(env, action)
            digest.update(out.video.pixels.tobytes() + bytes([out.success]))
    return digest.hexdigest()


def test_simulator_output_is_pinned():
    assert simulator_digest() == SIMULATOR_DIGEST


def test_execute_deterministic():
    env = EnvInstance(EnvKind.SLIDE_BRICK, 0.32)
    action = EnvAction(EnvKind.SLIDE_BRICK, 0.4)
    a, b = execute(env, action), execute(env, action)
    assert a.video is not b.video  # nothing is kept between calls
    assert a.video.pixels.tobytes() == b.video.pixels.tobytes()


def test_execute_keeps_no_rollout():
    # 500 distinct rollouts of 32 KB each: a memo of them would hold about 16 MB
    import tracemalloc

    env = EnvInstance(EnvKind.PUSH_BAR, 0.0)
    execute(env, EnvAction(EnvKind.PUSH_BAR, 0.2))  # first-call set-up stays out
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for offset in np.linspace(-0.2, 0.2, 500)[:-1]:
            execute(env, EnvAction(EnvKind.PUSH_BAR, float(offset)))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < 4 * 2**20, f"{grown / 2**20:.1f} MB kept"


def test_scripted_policy_succeeds_everywhere():
    total = 0
    for kind in ALL_KINDS:
        for env in all_instances(kind):
            out = execute(env, scripted_action(env))
            assert out.success, env.object_id
            total += 1
    assert total == 24 + 24 + 13 + 2 + 2


def test_bar_success_boundary():
    env = EnvInstance(EnvKind.PUSH_BAR, 0.0)
    assert execute(env, EnvAction(EnvKind.PUSH_BAR, 0.03)).success
    assert not execute(env, EnvAction(EnvKind.PUSH_BAR, 0.031)).success
    assert execute(env, EnvAction(EnvKind.PUSH_BAR, -0.03)).success


def test_brick_success_band():
    # theta=0.32 doubles the push, so height 0.5 stops exactly at 1.0
    env = EnvInstance(EnvKind.SLIDE_BRICK, 0.32)
    assert execute(env, EnvAction(EnvKind.SLIDE_BRICK, 0.5)).success
    assert not execute(env, EnvAction(EnvKind.SLIDE_BRICK, 0.6)).success
    assert not execute(env, EnvAction(EnvKind.SLIDE_BRICK, 0.4)).success


def test_discrete_mode_match():
    for kind, modes in ((EnvKind.OPEN_BOX, ("lift", "slide")), (EnvKind.TURN_FAUCET, ("cw", "ccw"))):
        for theta in modes:
            env = EnvInstance(kind, theta)
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

    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
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
        assert theta in BAR_OFFSETS
        seen.add(theta)
    assert seen == set(BAR_OFFSETS)
    modes = {sample_hidden(EnvKind.OPEN_BOX, rng) for _ in range(50)}
    assert modes == {"lift", "slide"}


# ---------------------------------------------------------------------------
# Per-frame oracle: one float64 canvas per frame, every body painted with a
# brightest-wins max, cast to float32 at the end.  ``render`` paints a whole
# rollout in one broadcast pass and must match it byte for byte.

_ROWS, _COLS = np.mgrid[0:32, 0:32]


def _ri(x):
    return int(np.round(x))


def _paint_rect(canvas, r0, r1, c0, c1, shade):
    r0, r1 = max(r0, 0), min(r1, 31)
    c0, c1 = max(c0, 0), min(c1, 31)
    if r0 > r1 or c0 > c1:
        return
    region = canvas[r0 : r1 + 1, c0 : c1 + 1]
    np.maximum(region, shade, out=region)


def _paint_block(canvas, row, col, half, shade):
    r, c = _ri(row), _ri(col)
    _paint_rect(canvas, r - half, r + half, c - half, c + half, shade)


def _paint_capsule(canvas, p0, p1, half_width, shade):
    r0, c0 = p0
    r1, c1 = p1
    dr, dc = r1 - r0, c1 - c0
    norm2 = dr * dr + dc * dc
    pr = _ROWS - r0
    pc = _COLS - c0
    if norm2 < 1e-12:
        dist = np.sqrt(pr * pr + pc * pc)
    else:
        t = np.clip((pr * dr + pc * dc) / norm2, 0.0, 1.0)
        qr = pr - t * dr
        qc = pc - t * dc
        dist = np.sqrt(qr * qr + qc * qc)
    coverage = np.clip(half_width + 0.5 - dist, 0.0, 1.0)
    np.maximum(canvas, shade * coverage, out=canvas)


def oracle_render(kind, state):
    canvas = np.zeros((32, 32), dtype=np.float64)
    if kind in (EnvKind.PUSH_BAR, EnvKind.PICK_BAR):
        _paint_rect(canvas, 4, 6, 0, 31, TARGET_SHADE)
    elif kind is EnvKind.SLIDE_BRICK:
        _paint_rect(canvas, 24, 28, 15, 17, TARGET_SHADE)
    elif kind is EnvKind.OPEN_BOX:
        _paint_rect(canvas, *BOX_BODY, TARGET_SHADE)
    else:
        _paint_rect(canvas, *FAUCET_BASE, TARGET_SHADE)
    if state.bar is not None:
        row, col, angle = state.bar
        dr = -BAR_HALF_PX * math.sin(angle)
        dc = BAR_HALF_PX * math.cos(angle)
        _paint_capsule(canvas, (row - dr, col - dc), (row + dr, col + dc), 1.1, OBJECT_SHADE)
    if state.brick is not None:
        _paint_capsule(canvas, state.brick, state.brick, 1.3, OBJECT_SHADE)
    if state.lid_offset is not None:
        drow, dcol = state.lid_offset
        _paint_rect(
            canvas,
            LID_ROWS[0] + _ri(drow),
            LID_ROWS[1] + _ri(drow),
            LID_COLS[0] + _ri(dcol),
            LID_COLS[1] + _ri(dcol),
            OBJECT_SHADE,
        )
    if state.handle_offset is not None:
        drow, dcol = state.handle_offset
        _paint_block(canvas, HANDLE_HOME[0] + drow, HANDLE_HOME[1] + dcol, 1, OBJECT_SHADE)
    if state.gripper is not None:
        _paint_block(canvas, state.gripper[0], state.gripper[1], 1, GRIPPER_SHADE)
    return canvas.astype(np.float32)


def _rollout(kind, states):
    return kind, (envs._FACTS[kind].rest, *states)


bar_offsets = st.floats(-0.2, 0.2)
point = st.tuples(st.floats(-4.0, 36.0), st.floats(-4.0, 36.0))
loose_scenes = st.lists(
    st.builds(
        SceneState,
        gripper=st.none() | point,
        bar=st.none() | st.tuples(st.floats(-4.0, 36.0), st.floats(-4.0, 36.0), st.floats(-1.6, 1.6)),
        brick=st.none() | point,
        lid_offset=st.none() | st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
        handle_offset=st.none() | st.tuples(st.floats(-20.0, 20.0), st.floats(-20.0, 20.0)),
    ),
    min_size=1,
    max_size=8,
)
rollouts = st.one_of(
    st.builds(
        lambda kind, theta, offset: _rollout(kind, envs._bar_states(kind, theta, offset)),
        st.sampled_from([EnvKind.PUSH_BAR, EnvKind.PICK_BAR]),
        bar_offsets,
        bar_offsets,
    ),
    st.builds(
        lambda theta, height: _rollout(EnvKind.SLIDE_BRICK, envs._brick_states(theta, height)),
        st.floats(0.05, 1.0),
        st.floats(0.0, 1.0),
    ),
    st.builds(
        lambda mode, success: _rollout(EnvKind.OPEN_BOX, envs._box_states(mode, success)),
        st.sampled_from(BOX_MODES),
        st.booleans(),
    ),
    st.builds(
        lambda mode, success: _rollout(EnvKind.TURN_FAUCET, envs._faucet_states(mode, success)),
        st.sampled_from(FAUCET_MODES),
        st.booleans(),
    ),
    st.tuples(st.sampled_from(list(EnvKind)), loose_scenes),
)

# Grippers clipped at each border or off the image, a frame without one, and
# a gripper over each other body.
BORDER_SCENES = (
    SceneState(gripper=(0.4, 16.0), bar=(24.0, 16.0, 0.3)),
    SceneState(gripper=(31.6, 31.5), brick=(30.5, 31.2)),
    SceneState(gripper=(16.0, -0.6), lid_offset=(0.0, 12.4)),
    SceneState(gripper=(-1.4, 33.2), handle_offset=(-16.5, 8.5)),
    SceneState(bar=(1.0, 30.0, -1.2)),
    SceneState(gripper=(24.0, 16.0), bar=(24.0, 16.0, 0.0), brick=(24.0, 16.0)),
    SceneState(gripper=(13.5, 12.0), lid_offset=(0.0, 0.0), handle_offset=(-3.0, -12.0)),
    SceneState(gripper=(16.0, 24.0), handle_offset=(0.0, 0.0)),
)


@settings(max_examples=300, deadline=None)
@given(rollouts)
@example((EnvKind.PUSH_BAR, BORDER_SCENES))
@example((EnvKind.OPEN_BOX, BORDER_SCENES[::-1]))
def test_render_matches_per_frame_oracle(rollout):
    kind, states = rollout
    expected = np.stack([oracle_render(kind, state) for state in states])
    frames = render(kind, states)
    assert frames.dtype == np.float32 and frames.shape == (len(states), 32, 32)
    assert frames.tobytes() == expected.tobytes()
