"""Reject candidate plans that resemble plans that already failed.

The buffer keeps every plan executed and failed this episode.  A
candidate's score is its distance to the nearest buffered failure; the
selected plan maximizes that score, so the loop steers away from
repeating mistakes.  An empty buffer scores every candidate +inf and the
first candidate wins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .core import Video
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


def _rejection_metric(metric: RejectionMetric | str) -> RejectionMetric:
    try:
        return RejectionMetric(metric)
    except ValueError:
        choices = tuple(m.value for m in RejectionMetric)
        raise ValueError(f"metric must be one of {choices}, got {metric!r}") from None


def _rows(plans: Sequence[Video | np.ndarray], metric: RejectionMetric) -> Sequence[np.ndarray]:
    """One row per plan: stacked features, or a list of pixel rows widened to float64 (a
    plan given as pixels already widened is read in place)."""
    if metric is RejectionMetric.EMBEDDING:
        return np.stack([encode_video(plan) for plan in plans])
    return [(plan.pixels if isinstance(plan, Video) else plan).reshape(-1)
            .astype(np.float64, copy=False) for plan in plans]


def _sums_of_squares(rows: Sequence[np.ndarray], others: Sequence[np.ndarray]) -> np.ndarray:
    """(m, f) summed squared differences of pixel rows, ``diff * diff`` summed one
    cache-sized pair at a time, as ``pixel_l2`` sums it."""
    diffs = (row - other for row in rows for other in others)
    return np.array([np.sum(np.square(d, out=d)) for d in diffs]).reshape(len(rows), len(others))


def _distances(
    rows: Sequence[np.ndarray], others: Sequence[np.ndarray], metric: RejectionMetric
) -> np.ndarray:
    """(m, f) distances from ``rows`` to ``others``, bit-equal to the per-pair forms:
    raw pixels take the square root of ``_sums_of_squares``, as ``pixel_l2`` does;
    features take the square root of a batched self-product, as ``np.linalg.norm`` does."""
    if metric is RejectionMetric.EMBEDDING:
        diff = rows[:, None, :] - others
        return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0])
    return np.sqrt(_sums_of_squares(rows, others))


def _nearest_failed_distances(
    plans: Sequence[Video], buffer: FailedPlanBuffer, metric: RejectionMetric | str
) -> np.ndarray:
    """(m,) distance from each plan to its closest buffered failure."""
    metric = _rejection_metric(metric)
    if len(buffer) == 0:
        return np.full(len(plans), math.inf)
    shapes = {plan.pixels.shape for plan in [*plans, *buffer.plans]}
    if metric is RejectionMetric.RAW_PIXEL and len(shapes) > 1:
        raise ValueError(f"shape mismatch: {sorted(shapes)}")
    return _distances(_rows(plans, metric), _rows(buffer.plans, metric), metric).min(axis=1)


def pixel_sums_of_squares(plans: Sequence[Video | np.ndarray]) -> np.ndarray:
    """(n, n) matrix whose entry (i, j) is the summed squared pixel difference of
    ``plans[i]`` and ``plans[j]`` (Videos, or their pixels widened to float64), as
    ``pixel_l2`` sums it before its square root.  Each plan is taken against the earlier
    ones only: a difference squares to the same bits either way."""
    rows = _rows(plans, RejectionMetric.RAW_PIXEL)
    out = np.zeros((len(rows), len(rows)))
    for j in range(1, len(rows)):
        out[j, :j] = _sums_of_squares(rows[j : j + 1], rows[:j])[0]
    return out + out.T  # each entry meets a 0, so the mirror is exact


def distance_matrix(plans: Sequence[Video], metric: RejectionMetric | str) -> np.ndarray:
    """(n, n) matrix whose entry (i, j) is, bit for bit, the distance ``select_plan``
    scores ``plans[i]`` at against a failed ``plans[j]``; under raw pixels, the square
    root of ``pixel_sums_of_squares``."""
    metric = _rejection_metric(metric)
    if metric is RejectionMetric.RAW_PIXEL:
        return np.sqrt(pixel_sums_of_squares(plans))
    rows = _rows(plans, metric)
    return _distances(rows, rows, metric)


def nearest_failed_distance(
    plan: Video,
    buffer: FailedPlanBuffer,
    metric: RejectionMetric | str = RejectionMetric.RAW_PIXEL,
) -> float:
    """Distance from ``plan`` to its closest buffered failure; +inf if empty.

    ``metric`` is a ``RejectionMetric`` or its name.
    """
    return float(_nearest_failed_distances([plan], buffer, metric)[0])


def select_plan(
    candidates: Sequence[Video],
    buffer: FailedPlanBuffer,
    metric: RejectionMetric | str = RejectionMetric.RAW_PIXEL,
) -> tuple[int, Video]:
    """Pick the candidate farthest from all previous failures.

    Ties resolve to the lowest index, which also covers the empty-buffer
    case where every candidate scores +inf.  ``metric`` is a
    ``RejectionMetric`` or its name.
    """
    if not candidates:
        raise ValueError("no candidate plans to select from")
    best = int(np.argmax(_nearest_failed_distances(candidates, buffer, metric)))
    return best, candidates[best]
