"""Decode executable actions from plan videos by tracking drawn bodies."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Video
from .envs import (
    BAR_ACTION_RANGE,
    CENTER_COL,
    CONTACT_FRAME,
    EnvAction,
    EnvKind,
    GRIPPER_BAND,
    OBJECT_BAND,
    PX_PER_M,
    RISE_BASE_ROW,
    RISE_SCALE_PX,
)


class PlanDecodeError(ValueError):
    """Raised when a plan video does not contain a decodable action."""


@dataclass(frozen=True)
class TrackedTrajectory:
    """Per-frame centroid of pixels inside an intensity band."""

    points: np.ndarray  # (T, 2) float64 (row, col); NaN where invalid
    valid: np.ndarray   # (T,) bool


def track_centroid(video: Video, band: tuple[float, float]) -> TrackedTrajectory:
    lo, hi = band
    length = video.length
    t, rows, cols = np.nonzero((video.pixels >= lo) & (video.pixels <= hi))
    # per-frame sums of pixel indices are exact, so sum / count equals the mean
    counts = np.bincount(t, minlength=length)
    sums = np.stack([np.bincount(t, weights=i, minlength=length) for i in (rows, cols)], axis=1)
    valid = counts > 0
    points = np.full((length, 2), np.nan, dtype=np.float64)
    points[valid] = sums[valid] / counts[valid, None]
    return TrackedTrajectory(points=points, valid=valid)


def _decode_bar(kind: EnvKind, plan: Video) -> EnvAction:
    contact = plan.pixels[CONTACT_FRAME : CONTACT_FRAME + 1]  # empty for a shorter plan
    cols = np.nonzero((contact >= GRIPPER_BAND[0]) & (contact <= GRIPPER_BAND[1]))[2]
    if not cols.size:
        raise PlanDecodeError("no gripper visible at the contact frame")
    offset = (cols.mean() - CENTER_COL) / PX_PER_M
    lo, hi = BAR_ACTION_RANGE
    if not (lo - 1e-9 <= offset <= hi + 1e-9):
        raise PlanDecodeError(f"decoded contact offset {offset} outside the action range")
    return EnvAction(kind, float(np.clip(offset, lo, hi)))


def _decode_brick(plan: Video) -> EnvAction:
    traj = track_centroid(plan, GRIPPER_BAND)
    if not traj.valid.any():
        raise PlanDecodeError("no gripper visible in the plan")
    apex = float(np.nanmin(traj.points[traj.valid, 0]))
    height = (RISE_BASE_ROW - apex) / RISE_SCALE_PX
    return EnvAction(EnvKind.SLIDE_BRICK, float(np.clip(height, 0.0, 1.0)))


def _decode_discrete(kind: EnvKind, plan: Video) -> EnvAction:
    traj = track_centroid(plan, OBJECT_BAND)
    idx = np.nonzero(traj.valid)[0]
    if idx.size < 2:
        raise PlanDecodeError("object visible in fewer than two frames")
    delta = traj.points[idx[-1]] - traj.points[idx[0]]
    if abs(delta[0]) < 1e-9 and abs(delta[1]) < 1e-9:
        raise PlanDecodeError("object shows no net displacement")
    vertical = abs(delta[0]) >= abs(delta[1])
    if kind is EnvKind.OPEN_BOX:
        return EnvAction(kind, "lift" if vertical else "slide")
    return EnvAction(kind, "cw" if vertical else "ccw")


def plan_to_action(kind: EnvKind, plan: Video) -> EnvAction:
    """Extract the action a plan video depicts.

    Bar tasks read the gripper centroid column at the contact frame and map
    it through the renderer's affine pixel-to-world transform; the brick
    task reads the gripper's apex row; box/faucet classify the net object
    displacement direction (vertical => lift/cw, horizontal => slide/ccw).
    """
    if kind in (EnvKind.PUSH_BAR, EnvKind.PICK_BAR):
        return _decode_bar(kind, plan)
    if kind is EnvKind.SLIDE_BRICK:
        return _decode_brick(plan)
    if kind in (EnvKind.OPEN_BOX, EnvKind.TURN_FAUCET):
        return _decode_discrete(kind, plan)
    raise ValueError(f"unknown kind {kind}")
