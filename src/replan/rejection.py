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

from .core import Video, pixel_l2
from .encoders import encode_video


class RejectionMetric(Enum):
    RAW_PIXEL = "raw_pixel"
    EMBEDDING = "embedding"


@dataclass
class FailedPlanBuffer:
    """Episode-scoped store of executed plans that failed."""

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


def nearest_failed_distance(
    plan: Video,
    buffer: FailedPlanBuffer,
    metric: RejectionMetric | str = RejectionMetric.RAW_PIXEL,
) -> float:
    """Distance from ``plan`` to its closest buffered failure; +inf if empty.

    ``metric`` is a ``RejectionMetric`` or its name.
    """
    metric = _rejection_metric(metric)
    if len(buffer) == 0:
        return math.inf
    if metric is RejectionMetric.RAW_PIXEL:
        return min(pixel_l2(plan, failed) for failed in buffer.plans)
    feature = encode_video(plan)
    return min(float(np.linalg.norm(feature - f)) for f in buffer.features())


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
    metric = _rejection_metric(metric)
    scores = [nearest_failed_distance(plan, buffer, metric) for plan in candidates]
    best = max(range(len(candidates)), key=lambda i: (scores[i], -i))
    return best, candidates[best]
