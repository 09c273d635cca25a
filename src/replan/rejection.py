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
    """Episode-scoped store of executed plans that failed.

    A query stacks the plans' pixels, or under the embedding metric their
    features; each plan is encoded on the first such query only.  Pixels
    are widened to float64 only inside a query, so the buffer holds no
    more than its plans and their features.
    """

    plans: list[Video] = field(default_factory=list)
    _features: list[np.ndarray] = field(default_factory=list, repr=False)

    def __len__(self) -> int:
        return len(self.plans)

    def push(self, plan: Video) -> "FailedPlanBuffer":
        self.plans.append(plan)
        return self

    def features(self) -> list[np.ndarray]:
        """Embeddings of the buffered plans; each plan is encoded on first request only."""
        self._features.extend(encode_video(p) for p in self.plans[len(self._features):])
        return self._features


def _rejection_metric(metric: RejectionMetric | str) -> RejectionMetric:
    try:
        return RejectionMetric(metric)
    except ValueError:
        choices = tuple(m.value for m in RejectionMetric)
        raise ValueError(f"metric must be one of {choices}, got {metric!r}") from None


def _nearest_failed_distances(
    plans: Sequence[Video], buffer: FailedPlanBuffer, metric: RejectionMetric | str
) -> np.ndarray:
    """(m,) distance from each plan to its closest buffered failure.

    Raw pixels take every candidate against one failure per broadcast and
    sum ``diff * diff`` along each row, as ``pixel_l2`` does; embeddings
    take all pairs in one broadcast, each distance the square root of a
    batched self-product, as ``np.linalg.norm`` takes it.  Both are
    bit-equal to the per-pair forms.
    """
    metric = _rejection_metric(metric)
    if len(buffer) == 0:
        return np.full(len(plans), math.inf)
    if metric is RejectionMetric.RAW_PIXEL:
        shapes = {plan.pixels.shape for plan in [*plans, *buffer.plans]}
        if len(shapes) > 1:
            raise ValueError(f"shape mismatch: {sorted(shapes)}")
        rows = np.stack([plan.pixels.reshape(-1) for plan in plans]).astype(np.float64)
        diffs = (rows - failed.pixels.reshape(-1) for failed in buffer.plans)
        return np.sqrt([np.sum(np.square(d, out=d), axis=-1) for d in diffs]).min(axis=0)
    rows = np.stack([encode_video(plan) for plan in plans])
    diff = rows[:, None, :] - np.stack(buffer.features())
    return np.sqrt((diff[..., None, :] @ diff[..., :, None])[..., 0, 0]).min(axis=1)


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
