"""Retrieve latent state embeddings by matching failed interactions.

The table stores one projected embedding per dataset video plus one
canonical state embedding per object (the first successful entry of that
object in manifest order).  A query video is scored against every entry
by negative distance; a softmax at temperature tau turns the scores into
a categorical the retrieval samples from, returning the sampled entry's
object (``retrieve_objects``) or its canonical embedding (``retrieve``).
A round draws all of its samples from one softmax.  A failed interaction
is read only through its ``interaction_logits`` row, so a caller that
keeps the row, as the loop's per-task store does, scores it once.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .core import ExperienceDataset, Video, is_number
from .encoders import PcaProjection, encode_video, pca_apply


class DistanceMetric(Enum):
    L2 = "l2"
    COSINE = "cosine"


class BufferPolicy(Enum):
    LATEST = "latest"
    AGGREGATE = "aggregate"


@dataclass(frozen=True)
class RetrievalConfig:
    metric: DistanceMetric = DistanceMetric.L2
    tau: float | None = None  # None resolves to 0.1 * median canonical distance
    buffer_policy: BufferPolicy = BufferPolicy.LATEST

    def __post_init__(self) -> None:
        """Take enum members or their names; retrieval compares members by identity."""
        for name, enum in (("metric", DistanceMetric), ("buffer_policy", BufferPolicy)):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, enum(value))
            except ValueError:
                choices = tuple(m.value for m in enum)
                raise ValueError(
                    f"RetrievalConfig.{name} must be one of {choices}, got {value!r}"
                ) from None
        if not (self.tau is None or is_number(self.tau) and self.tau > 0):
            raise ValueError(f"RetrievalConfig.tau must be None or a number > 0, got {self.tau!r}")


@dataclass(frozen=True)
class EmbeddingTable:
    """Projected per-video embeddings plus canonical embeddings per object."""

    object_ids: tuple[str, ...]          # distinct objects, manifest order
    canonical: np.ndarray                # (m, k)
    entry_embeddings: np.ndarray         # (n, k), dataset order
    entry_object_index: np.ndarray       # (n,) index into object_ids
    projection: PcaProjection

    def __post_init__(self) -> None:
        if len(self.object_ids) != self.canonical.shape[0]:
            raise ValueError("one canonical embedding per object required")
        if self.entry_embeddings.shape[0] != self.entry_object_index.shape[0]:
            raise ValueError("entry arrays length mismatch")

    def __len__(self) -> int:
        return self.entry_embeddings.shape[0]

    def canonical_for(self, object_id: str) -> np.ndarray:
        return self.canonical[self.object_ids.index(object_id)]

    def entry_object_id(self, entry: int) -> str:
        return self.object_ids[int(self.entry_object_index[entry])]

    @cached_property
    def median_canonical_distance(self) -> float:
        return _median_pairwise_distance(self.canonical)


def _median_pairwise_distance(points: np.ndarray) -> float:
    m = points.shape[0]
    if m < 2:
        return 0.0
    diffs = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diffs * diffs).sum(axis=-1))
    # sorting, not np.median, which imports numpy.ma on first use
    pairs = np.sort(dists[np.triu_indices(m, k=1)])
    n = len(pairs)
    return float(np.mean(pairs[(n - 1) // 2 : n // 2 + 1]))


def build_table(
    dataset: ExperienceDataset,
    projection: PcaProjection,
    features: np.ndarray,
) -> EmbeddingTable:
    """Project the encoded dataset videos (row i encodes entry i); pick canonicals.

    The canonical embedding of an object is the projected embedding of
    its ``dataset.canonical_entry``, its first successful entry in
    manifest order.  Errors if ``features`` is not one row per entry.
    """
    if np.ndim(features) != 2 or len(features) != len(dataset):
        raise ValueError(f"features must have one row per entry, got shape {np.shape(features)}")
    projected = pca_apply(projection, features)
    object_ids = tuple(dataset.by_object.keys())
    id_to_pos = {oid: i for i, oid in enumerate(object_ids)}
    canonical = projected[[dataset.canonical_entry[oid] for oid in object_ids]]
    entry_index = np.array(
        [id_to_pos[item.object_id] for item in dataset.tuples], dtype=np.int64
    )
    return EmbeddingTable(
        object_ids=object_ids,
        canonical=canonical,
        entry_embeddings=projected,
        entry_object_index=entry_index,
        projection=projection,
    )


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, shifted by its maximum for stability."""
    weights = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def default_tau(table: EmbeddingTable) -> float:
    """0.1 of the median pairwise canonical distance; 1.0 when degenerate."""
    med = table.median_canonical_distance
    return 0.1 * med if med > 0 else 1.0


def interaction_logits(
    table: EmbeddingTable,
    video: Video,
    metric: DistanceMetric = DistanceMetric.L2,
    encoder: Callable[[Video], np.ndarray] = encode_video,
) -> np.ndarray:
    """Minus the distance under ``metric`` from the projected encoding of an
    interaction video to every table entry: the (n,) row retrieval reads of it."""
    query = pca_apply(table.projection, encoder(video))
    entries = table.entry_embeddings
    if metric is DistanceMetric.L2:
        diffs = entries - query
        return -np.sqrt((diffs * diffs).sum(axis=1))
    # one dot product per (1, k) row, so every logit has the scalar form's bits
    rows = entries[:, None, :]
    norms = np.sqrt((rows @ entries[:, :, None]).ravel()) * np.sqrt(query @ query)
    if not norms.all():
        raise ValueError("cosine distance undefined for zero vectors")
    return (rows @ query).ravel() / norms - 1.0  # the cosine distance is 1 - cos


def retrieval_probabilities(
    table: EmbeddingTable,
    query: Video | Sequence[Video | np.ndarray],
    config: RetrievalConfig = RetrievalConfig(),
    encoder: Callable[[Video], np.ndarray] = encode_video,
) -> np.ndarray:
    """Softmax selection probabilities over table entries for a query.

    ``query`` is one interaction video or a non-empty buffer of them, oldest
    first; a buffer item may instead be the ``interaction_logits`` row of its
    video under ``config.metric`` and ``encoder``, which is read as it is.
    The buffer policy either keeps the latest item or averages logits over
    the buffer before the softmax; only the items it keeps are scored.
    """
    if len(table) == 0:
        raise ValueError("empty table")
    query = [query] if isinstance(query, Video) else list(query)
    if not query:
        raise ValueError("empty interaction buffer; use the null embedding instead")
    if config.buffer_policy is BufferPolicy.LATEST:
        query = query[-1:]
    tau = config.tau if config.tau is not None else default_tau(table)
    logits = [item if isinstance(item, np.ndarray) else
              interaction_logits(table, item, config.metric, encoder) for item in query]
    # one kept row is read as it is: its mean would be the same bits, x / 1 = x
    return softmax((logits[0] if len(logits) == 1 else np.mean(logits, axis=0)) / tau)


def retrieve_objects(
    table: EmbeddingTable,
    query: Video | Sequence[Video | np.ndarray],
    config: RetrievalConfig,
    rng: np.random.Generator,
    count: int | None = None,
    encoder: Callable[[Video], np.ndarray] = encode_video,
) -> np.ndarray:
    """The object indices of entries sampled from the retrieval softmax of ``query``, as
    ``retrieval_probabilities`` takes it and computes it once: ``count`` of them from
    ``rng.random(count)``, the same uniforms as ``count`` single draws, or one for None."""
    if count is not None and count < 1:
        raise ValueError(f"count must be None or >= 1, got {count!r}")
    probs = retrieval_probabilities(table, query, config, encoder)
    draws = rng.random(1 if count is None else count)
    entries = np.searchsorted(np.cumsum(probs), draws, side="right")
    return table.entry_object_index[np.minimum(entries, len(probs) - 1)]


def retrieve(
    table: EmbeddingTable,
    query: Video | Sequence[Video | np.ndarray],
    config: RetrievalConfig,
    rng: np.random.Generator,
    encoder: Callable[[Video], np.ndarray] = encode_video,
    count: int | None = None,
) -> np.ndarray:
    """The canonical embeddings of the objects ``retrieve_objects`` samples: a (count, k)
    array, or the (k,) embedding of one draw for ``count`` None."""
    picked = table.canonical[retrieve_objects(table, query, config, rng, count, encoder)]
    return picked[0] if count is None else picked
