"""Desk-scale manipulation simulators with hidden physical parameters.

Five tasks, each rendered as 8-frame 32x32 grayscale rollouts: two bar
tasks whose bars deflect when contacted off-center, a brick slid up a
slope with unknown friction, a box whose opening mode is hidden, and a
faucet whose turn direction is hidden.  The hidden parameter never
appears in the reset observation; it only shapes execution outcomes.
Success comes from the physics rule in ``rollout_success``; a rollout's
frames only draw that outcome, all of them painted in one ``render`` pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Video, is_number, require, require_member

IMAGE_SIZE = 32
ROLLOUT_FRAMES = 8

BACKGROUND_SHADE = 0.0
TARGET_SHADE = 0.3
OBJECT_SHADE = 0.6
GRIPPER_SHADE = 1.0

# Intensity bands the tracker reads; binary-drawn bodies land exactly inside.
GRIPPER_BAND = (0.95, 1.0)
OBJECT_BAND = (0.55, 0.65)


class EnvKind(Enum):
    PUSH_BAR = "pushbar"
    PICK_BAR = "pickbar"
    SLIDE_BRICK = "slidebrick"
    OPEN_BOX = "openbox"
    TURN_FAUCET = "turnfaucet"


# Hidden-parameter tables.  The bar offsets are a deliberately irregular
# 24-value grid (note -0.05 without -0.045, and no +0.165).
BAR_OFFSETS: tuple[float, ...] = (
    -0.18, -0.165, -0.15, -0.135, -0.12, -0.105, -0.09, -0.075,
    -0.06, -0.05, -0.03, -0.015, 0.0, 0.015, 0.03, 0.045,
    0.06, 0.075, 0.09, 0.105, 0.12, 0.135, 0.15, 0.18,
)
BRICK_FRICTIONS: tuple[float, ...] = (
    0.24, 0.25, 0.26, 0.27, 0.28, 0.30, 0.32, 0.34, 0.35, 0.36, 0.38, 0.39, 0.40,
)
BOX_MODES: tuple[str, ...] = ("lift", "slide")
FAUCET_MODES: tuple[str, ...] = ("cw", "ccw")

# Bar geometry and physics.
BAR_LENGTH_M = 0.4
PX_PER_M = 60.0
CENTER_COL = 16.0
BAR_HALF_PX = 0.5 * BAR_LENGTH_M * PX_PER_M  # 12 px
BAR_START_ROW = 24.0
BAR_TARGET_ROW = 5.0
BAR_ACTION_RANGE = (-0.2, 0.2)
DEFLECTION_GAIN = 5.0          # rad per metre of contact offset error
BAR_SUCCESS_OFFSET = 0.03      # m; a 0.15 rad deflection
CONTACT_FRAME = 2

# Brick geometry and friction model.
BRICK_MU0 = 0.32
BRICK_STOP_BAND = (0.95, 1.05)
RISE_COL = 3.0
RISE_BASE_ROW = 29.0
RISE_SCALE_PX = 26.0           # push_height 0..1 spans 26 rows
TRACK_ROW = 26.0
TRACK_BASE_COL = 2.0
TRACK_SCALE_PX = 14.0          # stop position 0..2 spans 28 cols

# Box and faucet geometry.
LID_ROWS = (13, 14)
LID_COLS = (9, 23)
BOX_BODY = (16, 22, 10, 22)    # row0, row1, col0, col1
LID_LIFT_PX = 8.0
LID_SLIDE_PX = 12.0
STUCK_PX = 2.0
HANDLE_HOME = (16.0, 24.0)
FAUCET_BASE = (14, 18, 14, 18)
HANDLE_CW_PX = 8.0             # vertical travel marks a clockwise turn
HANDLE_CCW_PX = 16.0           # horizontal travel marks a counter-clockwise turn

_EPS = 1e-9


@dataclass(frozen=True)
class SceneState:
    """Poses of the movable bodies; ``None`` omits a body from the frame."""

    gripper: tuple[float, float] | None = None      # (row, col) centre
    bar: tuple[float, float, float] | None = None   # (row, col, angle rad)
    brick: tuple[float, float] | None = None        # (row, col) centre
    lid_offset: tuple[float, float] | None = None   # (drow, dcol) from rest
    handle_offset: tuple[float, float] | None = None


@dataclass(frozen=True)
class _KindFacts:
    """What one task kind fixes: its hidden-value table, the closed ranges a theta and an
    action lie in (None where both are entries of the table), its rest scene (every
    rollout's frame 0) and the (row0, row1, col0, col1) rectangle of its scenery."""

    table: tuple[float | str, ...]
    theta_range: tuple[float, float] | None
    action_range: tuple[float, float] | None
    rest: SceneState
    scenery: tuple[int, int, int, int]


_BAR_REST = (BAR_START_ROW, CENTER_COL, 0.0)
_BAR_TARGET = (4, 6, 0, IMAGE_SIZE - 1)
_FACTS = {
    EnvKind.PUSH_BAR: _KindFacts(BAR_OFFSETS, (-0.2, 0.2), BAR_ACTION_RANGE,
                                 SceneState(gripper=(29.0, 16.0), bar=_BAR_REST), _BAR_TARGET),
    EnvKind.PICK_BAR: _KindFacts(BAR_OFFSETS, (-0.2, 0.2), BAR_ACTION_RANGE,
                                 SceneState(gripper=(2.0, 16.0), bar=_BAR_REST), _BAR_TARGET),
    EnvKind.SLIDE_BRICK: _KindFacts(
        BRICK_FRICTIONS, (0.05, 1.0), (0.0, 1.0),
        SceneState(gripper=(RISE_BASE_ROW, RISE_COL), brick=(TRACK_ROW, TRACK_BASE_COL)),
        (24, 28, 15, 17)),
    EnvKind.OPEN_BOX: _KindFacts(BOX_MODES, None, None,
                                 SceneState(gripper=(2.0, 16.0), lid_offset=(0.0, 0.0)), BOX_BODY),
    EnvKind.TURN_FAUCET: _KindFacts(FAUCET_MODES, None, None,
                                    SceneState(gripper=(2.0, 24.0), handle_offset=(0.0, 0.0)),
                                    FAUCET_BASE),
}


def hidden_values(kind: EnvKind) -> tuple[float | str, ...]:
    """The hidden-parameter table for a task kind, given as an ``EnvKind`` or its name."""
    return _FACTS[require_member("hidden_values's kind", kind, EnvKind)].table


def object_id(kind: EnvKind, theta: float | str) -> str:
    """Canonical object identifier "<kind>/<theta>"."""
    if isinstance(theta, str):
        return f"{kind.value}/{theta}"
    return f"{kind.value}/{theta:g}"


def _check_fields(obj: EnvAction | EnvInstance, field: str, span: str) -> None:
    """Set ``obj.kind`` to the ``EnvKind`` it is or names, and ``obj.<field>`` to a float
    in the kind's closed range ``span``, give or take 1e-9 (a decoded plan can round onto
    a bound), or to an entry of its table for a kind without ranges; else ``require``'s
    error, naming the field, the kind and the range or table."""
    name = type(obj).__name__
    kind = require_member(f"{name}.kind", obj.kind, EnvKind)
    facts, value, where = _FACTS[kind], getattr(obj, field), f"{name}.{field} of {kind.value}"
    if (bounds := getattr(facts, span)) is None:
        value = require(where, value, value in facts.table, f"one of {facts.table}")
    else:
        lo, hi = bounds
        ok = is_number(value) and lo - _EPS <= value <= hi + _EPS
        value = float(require(where, value, ok, f"in [{lo:g}, {hi:g}]"))
    object.__setattr__(obj, "kind", kind)
    object.__setattr__(obj, field, value)


@dataclass(frozen=True)
class EnvAction:
    """An action on a task given as an ``EnvKind`` or its name: a bar contact offset or a
    brick push height as a float in range, or a box or faucet mode from its table."""

    kind: EnvKind
    value: float | str

    def __post_init__(self) -> None:
        _check_fields(self, "value", "action_range")


@dataclass(frozen=True)
class EnvInstance:
    """A task given as an ``EnvKind`` or its name, with its hidden parameter: a bar offset
    or a brick friction as a float in range, or a box or faucet mode from its table."""

    kind: EnvKind
    theta_value: float | str

    def __post_init__(self) -> None:
        _check_fields(self, "theta_value", "theta_range")

    @property
    def object_id(self) -> str:
        return object_id(self.kind, self.theta_value)


@dataclass(frozen=True)
class ExecutionOutcome:
    video: Video
    success: bool


def sample_hidden(kind: EnvKind, rng: np.random.Generator) -> float | str:
    """Draw a hidden parameter uniformly from the task's table."""
    table = hidden_values(kind)
    return table[int(rng.integers(len(table)))]


def bar_deflection(contact_offset: float, theta: float) -> float:
    """Deflection angle (rad) when contacting a bar off its balance point."""
    return DEFLECTION_GAIN * (contact_offset - theta)


def brick_stop_position(push_height: float, theta: float) -> float:
    """Slope coordinate where the brick settles, clamped to [0, 2]."""
    return float(np.clip(push_height * (1.0 + BRICK_MU0 / theta), 0.0, 2.0))


# ---------------------------------------------------------------------------
# Rendering


_ROWS, _COLS = np.ogrid[0:IMAGE_SIZE, 0:IMAGE_SIZE]


def _paint_rect(frame: np.ndarray, r0: int, r1: int, c0: int, c1: int, shade: float) -> None:
    # Binary rect, clipped at the border.  Bodies are painted in ascending
    # shade, so overwriting keeps the brightest value.
    frame[max(r0, 0) : max(r1 + 1, 0), max(c0, 0) : max(c1 + 1, 0)] = shade


def _paint_block(frame: np.ndarray, row: float, col: float, shade: float) -> None:
    # 3x3 block on the rounded pixel centre (Python rounds half to even, as np.round).
    r, c = round(row), round(col)
    _paint_rect(frame, r - 1, r + 1, c - 1, c + 1, shade)


def _paint_capsules(
    canvas: np.ndarray, frames: list[int], ends: list[tuple], half_width: float, shade: float
) -> None:
    # Anti-aliased capsules (r0, c0, r1, c1), one per listed frame: coverage
    # falls off with the pixel's distance to the segment, so sub-pixel poses
    # alter frames continuously.  One call paints one body: all segments are
    # points or none is.  Only the float64 paint is rounded to float32, which
    # is monotonic and so commutes with the brightest-wins max.
    if not frames:
        return
    r0, c0, r1, c1 = np.array(ends).T[:, :, None, None]
    dr, dc = r1 - r0, c1 - c0
    norm2 = dr * dr + dc * dc
    pr = _ROWS - r0  # (n, H, 1)
    pc = _COLS - c0  # (n, 1, W)
    if (norm2 < 1e-12).all():
        dist = pr * pr + pc * pc
    else:
        t = pr * dr + pc * dc
        np.clip(np.divide(t, norm2, out=t), 0.0, 1.0, out=t)
        qr = pr - t * dr
        qc = np.subtract(pc, np.multiply(t, dc, out=t), out=t)
        dist = np.add(np.multiply(qr, qr, out=qr), np.multiply(qc, qc, out=qc), out=qc)
    coverage = np.subtract(half_width + 0.5, np.sqrt(dist, out=dist), out=dist)
    np.clip(coverage, 0.0, 1.0, out=coverage)
    paint = np.multiply(shade, coverage, out=coverage).astype(np.float32)
    canvas[frames] = np.maximum(canvas[frames], paint)


def _scenery(r0: int, r1: int, c0: int, c1: int) -> np.ndarray:
    canvas = np.zeros((1, IMAGE_SIZE, IMAGE_SIZE), dtype=np.float32)
    _paint_rect(canvas[0], r0, r1, c0, c1, TARGET_SHADE)
    canvas.flags.writeable = False
    return canvas


# Each kind's static scenery as a (1, 32, 32) frame, painted once at import.
_SCENERY = {kind: _scenery(*facts.scenery) for kind, facts in _FACTS.items()}


def render(kind: EnvKind, states: Sequence[SceneState]) -> np.ndarray:
    """Raster a rollout's scenes to a (T, 32, 32) float32 stack in [0, 1].

    Static scenery paints at 0.3, movable objects at 0.6, the gripper at
    1.0; overlaps keep the brightest value.  Bars and bricks are painted in
    all frames at once, in one broadcast pass.  Deterministic.
    """
    canvas = np.repeat(_SCENERY[kind], len(states), axis=0)
    bars = [t for t, state in enumerate(states) if state.bar is not None]
    ends = []
    for row, col, angle in (states[t].bar for t in bars):
        dr = -BAR_HALF_PX * math.sin(angle)
        dc = BAR_HALF_PX * math.cos(angle)
        ends.append((row - dr, col - dc, row + dr, col + dc))
    _paint_capsules(canvas, bars, ends, 1.1, OBJECT_SHADE)
    bricks = [t for t, state in enumerate(states) if state.brick is not None]
    ends = [(*states[t].brick, *states[t].brick) for t in bricks]
    _paint_capsules(canvas, bricks, ends, 1.3, OBJECT_SHADE)
    for frame, state in zip(canvas, states):
        if state.lid_offset is not None:
            r, c = round(state.lid_offset[0]), round(state.lid_offset[1])
            (r0, r1), (c0, c1) = LID_ROWS, LID_COLS
            _paint_rect(frame, r0 + r, r1 + r, c0 + c, c1 + c, OBJECT_SHADE)
        if state.handle_offset is not None:
            drow, dcol = state.handle_offset
            _paint_block(frame, HANDLE_HOME[0] + drow, HANDLE_HOME[1] + dcol, OBJECT_SHADE)
        if state.gripper is not None:
            _paint_block(frame, *state.gripper, GRIPPER_SHADE)
    return canvas


def reset(env: EnvInstance) -> np.ndarray:
    """Initial observation; identical for every hidden parameter of a kind."""
    return render(env.kind, [_FACTS[env.kind].rest])[0]


# ---------------------------------------------------------------------------
# Rollouts


def rollout_success(kind: EnvKind, theta: float | str, value: float | str) -> bool:
    """The success rule: bar contact within 0.03 m of theta, brick stop in band, or mode match."""
    if kind in (EnvKind.PUSH_BAR, EnvKind.PICK_BAR):
        return abs(float(value) - float(theta)) <= BAR_SUCCESS_OFFSET + _EPS
    if kind is EnvKind.SLIDE_BRICK:
        lo, hi = BRICK_STOP_BAND
        return (lo - _EPS) <= brick_stop_position(float(value), float(theta)) <= (hi + _EPS)
    return value == theta


def _bar_states(kind: EnvKind, theta: float, offset: float) -> list[SceneState]:
    phi = bar_deflection(offset, theta)
    draw_angle = 1.2 * math.tanh(phi / 1.2)
    reach = 1.0 / (1.0 + abs(phi))
    final_row = BAR_START_ROW + (BAR_TARGET_ROW - BAR_START_ROW) * reach
    contact_col = CENTER_COL + PX_PER_M * offset
    offset_px = PX_PER_M * offset
    grip_side = 3.0 if kind is EnvKind.PUSH_BAR else -3.0

    if kind is EnvKind.PUSH_BAR:
        approach = [(28.0, contact_col), (27.0, contact_col)]
    else:
        approach = [(12.0, contact_col), (21.0, contact_col)]
    states = [SceneState(gripper=grip, bar=(BAR_START_ROW, CENTER_COL, 0.0)) for grip in approach]
    for t in range(3, ROLLOUT_FRAMES):
        u = (t - 2) / 5.0
        row = BAR_START_ROW + (final_row - BAR_START_ROW) * u
        angle = draw_angle * u
        contact_r = row - offset_px * math.sin(angle)
        contact_c = CENTER_COL + offset_px * math.cos(angle)
        states.append(
            SceneState(gripper=(contact_r + grip_side, contact_c), bar=(row, CENTER_COL, angle))
        )
    return states


def _brick_states(theta: float, push_height: float) -> list[SceneState]:
    s = brick_stop_position(push_height, theta)
    states = []
    for step in (1, 2, 3):
        grow = RISE_BASE_ROW - RISE_SCALE_PX * push_height * (step / 3.0)
        states.append(SceneState(gripper=(grow, RISE_COL), brick=(grow - 3.0, RISE_COL)))
    for t in range(4, ROLLOUT_FRAMES):
        v = (t - 3) / 4.0
        col = TRACK_BASE_COL + TRACK_SCALE_PX * s * v
        states.append(SceneState(gripper=(RISE_BASE_ROW, RISE_COL), brick=(TRACK_ROW, col)))
    return states


def _box_states(mode: str, success: bool) -> list[SceneState]:
    states = [SceneState(gripper=(grow, 16.0), lid_offset=(0.0, 0.0)) for grow in (6.0, 10.0)]
    for t in range(3, ROLLOUT_FRAMES):
        u = (t - 2) / 5.0
        if mode == "lift":
            lid = (-LID_LIFT_PX * u, 0.0) if success else (-STUCK_PX, 0.0)
        else:
            lid = (0.0, LID_SLIDE_PX * u) if success else (0.0, STUCK_PX)
        states.append(SceneState(gripper=(10.0 + lid[0], 16.0 + lid[1]), lid_offset=lid))
    return states


def _faucet_states(mode: str, success: bool) -> list[SceneState]:
    states = [SceneState(gripper=(grow, 24.0), handle_offset=(0.0, 0.0)) for grow in (7.0, 12.0)]
    for t in range(3, ROLLOUT_FRAMES):
        u = (t - 2) / 5.0
        if mode == "cw":
            handle = (HANDLE_CW_PX * u, 0.0) if success else (STUCK_PX, 0.0)
        else:
            handle = (0.0, -HANDLE_CCW_PX * u) if success else (0.0, -STUCK_PX)
        states.append(
            SceneState(gripper=(12.0 + handle[0], 24.0 + handle[1]), handle_offset=handle)
        )
    return states


def execute(env: EnvInstance, action: EnvAction) -> ExecutionOutcome:
    """Deterministically roll out ``action`` under the hidden parameter.

    The returned video has 8 frames; frame 0 equals the reset observation.
    Every call renders; a caller that reads a rollout twice keeps it itself.
    """
    if action.kind is not env.kind:
        raise ValueError("action kind does not match environment kind")
    kind, theta, value = env.kind, env.theta_value, action.value
    success = rollout_success(kind, theta, value)
    if kind in (EnvKind.PUSH_BAR, EnvKind.PICK_BAR):
        states = _bar_states(kind, float(theta), float(value))
    elif kind is EnvKind.SLIDE_BRICK:
        states = _brick_states(float(theta), float(value))
    elif kind is EnvKind.OPEN_BOX:
        states = _box_states(str(value), success)
    else:
        states = _faucet_states(str(value), success)
    return ExecutionOutcome(Video(render(kind, (_FACTS[kind].rest, *states))), success)


def succeeds(env: EnvInstance, action: EnvAction) -> bool:
    """``execute(env, action).success``, from ``rollout_success`` alone: nothing renders."""
    if action.kind is not env.kind:
        raise ValueError("action kind does not match environment kind")
    return rollout_success(env.kind, env.theta_value, action.value)


def scripted_action(env: EnvInstance) -> EnvAction:
    """Privileged ground-truth policy: succeeds for every table theta."""
    kind = env.kind
    theta = env.theta_value
    if kind in (EnvKind.PUSH_BAR, EnvKind.PICK_BAR):
        return EnvAction(kind, float(theta))
    if kind is EnvKind.SLIDE_BRICK:
        return EnvAction(kind, float(theta) / (float(theta) + BRICK_MU0))
    return EnvAction(kind, theta)


def all_instances(kind: EnvKind) -> list[EnvInstance]:
    """One environment instance per hidden-parameter table entry."""
    return [EnvInstance(kind, theta) for theta in hidden_values(kind)]
