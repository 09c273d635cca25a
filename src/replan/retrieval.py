"""Retrieve latent state embeddings by matching failed interactions.

The table stores one projected embedding per dataset video plus one
canonical state embedding per object (the first successful entry of that
object in manifest order).  A query video is scored against every entry
by negative distance; a softmax at temperature tau turns the scores into
a categorical the retrieval samples from, returning the canonical
embedding of the sampled entry's object.  A round draws all of its
samples from one softmax, and an episode's ``InteractionBuffer`` keeps
each failed interaction's scores, so no interaction is scored twice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable, Sequence

import numpy as np

from .core import ExperienceDataset, Video
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
        if self.tau is not None and not self.tau > 0:
            raise ValueError("tau must be positive")


@dataclass(frozen=True)
class EmbeddingTable:
    """Projected per-video embeddings plus canonical embeddings per object."""

    object_ids: tuple[str, ...]          # distinct objects, manifest order
    canonical: np.ndarray                # (m, k)
    entry_embeddings: np.ndarray         # (n, k), dataset order
    entry_object_index: np.ndarray       # (n,) index into object_ids
    projection: PcaProjection
    _median_canonical: float = field(init=False, default=0.0)

    def __post_init__(self) -> None:
        if len(self.object_ids) != self.canonical.shape[0]:
            raise ValueError("one canonical embedding per object required")
        if self.entry_embeddings.shape[0] != self.entry_object_index.shape[0]:
            raise ValueError("entry arrays length mismatch")
        object.__setattr__(
            self, "_median_canonical", _median_pairwise_distance(self.canonical)
        )

    def __len__(self) -> int:
        return self.entry_embeddings.shape[0]

    def canonical_for(self, object_id: str) -> np.ndarray:
        return self.canonical[self.object_ids.index(object_id)]

    def entry_object_id(self, entry: int) -> str:
        return self.object_ids[int(self.entry_object_index[entry])]

    @property
    def median_canonical_distance(self) -> float:
        return self._median_canonical


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
    its first successful entry in manifest order.  Errors if the dataset
    is empty, ``features`` is not one row per entry, or an object has no
    successful entry.
    """
    if len(dataset) == 0:
        raise ValueError("cannot build a table from an empty dataset")
    if np.ndim(features) != 2 or len(features) != len(dataset):
        raise ValueError(f"features must have one row per entry, got shape {np.shape(features)}")
    projected = pca_apply(projection, features)
    object_ids = tuple(dataset.by_object.keys())
    id_to_pos = {oid: i for i, oid in enumerate(object_ids)}
    canonical = np.zeros((len(object_ids), projected.shape[1]), dtype=np.float64)
    for oid, idxs in dataset.by_object.items():
        first_success = next(
            (i for i in idxs if dataset.tuples[i].success), None
        )
        if first_success is None:
            raise ValueError(f"object {oid!r} has no successful entry")
        canonical[id_to_pos[oid]] = projected[first_success]
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


def _entry_logits(table: EmbeddingTable, query: np.ndarray, metric: DistanceMetric) -> np.ndarray:
    """Minus the distance under ``metric`` from a projected query to every entry."""
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


class InteractionBuffer(Sequence[Video]):
    """Episode-scoped failed interactions, each scored against the table once.

    A video's per-entry logits (encode, project, negative distances) are
    computed the first time a buffer policy reads it and kept after that,
    so an episode scores every interaction at most once.  The kept logits
    belong to the table, metric and encoder that computed them; a read
    with any other one starts over.
    """

    def __init__(self, videos: Iterable[Video] = ()) -> None:
        self.videos: list[Video] = list(videos)
        self._scorer: tuple | None = None
        self._logits: dict[int, np.ndarray] = {}

    def __len__(self) -> int:
        return len(self.videos)

    def __getitem__(self, index):
        return self.videos[index]

    def push(self, video: Video) -> "InteractionBuffer":
        self.videos.append(video)
        return self

    def logits(
        self,
        table: EmbeddingTable,
        metric: DistanceMetric,
        policy: BufferPolicy,
        encoder: Callable[[Video], np.ndarray] = encode_video,
    ) -> list[np.ndarray]:
        """Per-entry logits of every video ``policy`` reads, oldest first."""
        if not self.videos:
            raise ValueError("empty interaction buffer; use the null embedding instead")
        scorer = (table, metric, encoder)
        if self._scorer is None or any(a is not b for a, b in zip(scorer, self._scorer)):
            self._scorer, self._logits = scorer, {}
        read = range(len(self.videos))
        if policy is BufferPolicy.LATEST:
            read = read[-1:]
        for i in read:
            if i not in self._logits:
                query = pca_apply(table.projection, encoder(self.videos[i]))
                self._logits[i] = _entry_logits(table, query, metric)
        return [self._logits[i] for i in read]


def retrieval_probabilities(
    table: EmbeddingTable,
    query: Video | Sequence[Video],
    config: RetrievalConfig = RetrievalConfig(),
    encoder: Callable[[Video], np.ndarray] = encode_video,
) -> np.ndarray:
    """Softmax selection probabilities over table entries for a query.

    ``query`` is one interaction video or a non-empty buffer of them; the
    buffer policy either keeps the latest video or averages logits over
    the buffer before the softmax.  An ``InteractionBuffer`` keeps each
    video's logits across calls; any other query is scored afresh.
    """
    if len(table) == 0:
        raise ValueError("empty table")
    if not isinstance(query, InteractionBuffer):
        query = InteractionBuffer([query] if isinstance(query, Video) else query)
    tau = config.tau if config.tau is not None else default_tau(table)
    logits = np.mean(query.logits(table, config.metric, config.buffer_policy, encoder), axis=0)
    return softmax(logits / tau)


def retrieve(
    table: EmbeddingTable,
    query: Video | Sequence[Video],
    config: RetrievalConfig,
    rng: np.random.Generator,
    encoder: Callable[[Video], np.ndarray] = encode_video,
    count: int | None = None,
) -> np.ndarray:
    """Sample entries from the retrieval softmax; return their objects'
    canonical embeddings.

    The probabilities are computed once.  ``count`` draws that many
    entries from ``rng.random(count)``, the same uniforms as ``count``
    single calls in turn, and returns a (count, k) array; None draws one
    and returns its (k,) embedding.
    """
    if count is not None and count < 1:
        raise ValueError(f"count must be None or >= 1, got {count!r}")
    probs = retrieval_probabilities(table, query, config, encoder)
    draws = rng.random(1 if count is None else count)
    entries = np.searchsorted(np.cumsum(probs), draws, side="right")
    picked = table.canonical[table.entry_object_index[np.minimum(entries, len(probs) - 1)]]
    return picked[0] if count is None else picked
