"""Reject candidate plans that resemble plans that already failed.

The buffer keeps every plan executed and failed this episode.  A
candidate's score is its distance to the nearest buffered failure; the
selected plan maximizes that score, so the loop steers away from
repeating mistakes.  An empty buffer scores every candidate +inf and the
first candidate wins.  ``select_row`` is that rule over a table of
distances: the loop applies it to its plan table, and ``select_plan`` to
the ``distance_matrix`` of the candidates and the buffered failures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Video, require_member
from .encoders import encode_video


class RejectionMetric(Enum):
    RAW_PIXEL = "raw_pixel"
    EMBEDDING = "embedding"


@dataclass
class FailedPlanBuffer:
    """Episode-scoped store of executed plans that failed; a query reads them afresh."""

    plans: list[Video] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.plans)

    def push(self, plan: Video) -> "FailedPlanBuffer":
        self.plans.append(plan)
        return self


def select_row(distances: np.ndarray, candidates: np.ndarray, failed: Sequence[int]) -> int:
    """The candidate whose nearest failure under ``distances`` is farthest: of the rows
    ``candidates``, the one whose least entry in the columns ``failed`` is greatest.  A tie,
    and an empty ``failed``, where every candidate scores +inf, go to the first candidate."""
    scores = distances[candidates][:, failed].min(axis=1, initial=math.inf)
    return int(candidates[np.argmax(scores)])


def pixel_sums_of_squares(plans: Sequence[Video | np.ndarray]) -> np.ndarray:
    """(n, n) matrix whose entry (i, j) is the summed squared pixel difference of
    ``plans[i]`` and ``plans[j]`` (Videos, or their pixels widened to float64), as
    ``pixel_l2`` sums it before its square root: ``diff * diff`` summed one cache-sized pair
    at a time.  Each plan is taken against the earlier ones only: a difference squares to
    the same bits either way."""
    rows = [(plan.pixels if isinstance(plan, Video) else plan).reshape(-1)
            .astype(np.float64, copy=False) for plan in plans]  # widened pixels read in place
    out = np.zeros((len(rows), len(rows)))
    for j in range(1, len(rows)):
        out[j, :j] = [np.sum(np.square(d, out=d)) for d in (rows[j] - row for row in rows[:j])]
    return out + out.T  # each entry meets a 0, so the mirror is exact


def distance_matrix(plans: Sequence[Video], metric: RejectionMetric | str) -> np.ndarray:
    """(n, n) matrix whose entry (i, j) is the distance between ``plans[i]`` and
    ``plans[j]`` under ``metric``, bit-equal to the per-pair forms: raw pixels take the
    square root of ``pixel_sums_of_squares``, as ``pixel_l2`` does, and refuse plans of
    more than one shape; features take the square root of a batched self-product, as
    ``np.linalg.norm`` does."""
    metric = require_member("distance_matrix's metric", metric, RejectionMetric)
    if metric is RejectionMetric.EMBEDDING:
        rows = np.stack([encode_video(plan) for plan in plans])
        diff = rows[:, None, :] - rows
        return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    if len(shapes := {plan.pixels.shape for plan in plans}) > 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")
    return np.sqrt(pixel_sums_of_squares(plans))


def nearest_failed_distance(
    plan: Video,
    buffer: FailedPlanBuffer,
    metric: RejectionMetric | str = RejectionMetric.RAW_PIXEL,
) -> float:
    """Distance from ``plan`` to its closest buffered failure; +inf if empty.

    ``metric`` is a ``RejectionMetric`` or its name.
    """
    metric = require_member("nearest_failed_distance's metric", metric, RejectionMetric)
    return float(distance_matrix([plan, *buffer.plans], metric)[0, 1:].min(initial=math.inf))


def select_plan(
    candidates: Sequence[Video],
    buffer: FailedPlanBuffer,
    metric: RejectionMetric | str = RejectionMetric.RAW_PIXEL,
) -> tuple[int, Video]:
    """Pick the candidate farthest from all previous failures: ``select_row`` over the
    ``distance_matrix`` of the candidates and the buffered failures.

    Ties resolve to the lowest index, which also covers the empty-buffer
    case where every candidate scores +inf.  ``metric`` is a
    ``RejectionMetric`` or its name.
    """
    if not candidates:
        raise ValueError("no candidate plans to select from")
    metric = require_member("select_plan's metric", metric, RejectionMetric)
    m = len(candidates)
    distances = distance_matrix([*candidates, *buffer.plans], metric)
    best = select_row(distances, np.arange(m), range(m, len(distances)))
    return best, candidates[best]
