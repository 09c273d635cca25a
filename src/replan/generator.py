"""Kernel-weighted plan generator conditioned on state embeddings.

A generator holds support rollouts from the experience dataset.  In
Planning mode the support is the successful rollouts only; in
Identification mode it is every rollout.  Candidate plans are support
videos sampled with Gaussian kernel weights centred on the conditioning
embedding; the identification generator instead returns the kernel-mean
video over the whole support, which varies smoothly with the embedding so
it can be optimized by gradient descent; ``mse_objective`` returns the
closed-form gradient.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .core import ExperienceDataset, Video, video_mse
from .retrieval import EmbeddingTable, softmax


class GeneratorMode(Enum):
    PLANNING = "planning"
    IDENTIFICATION = "identification"


@dataclass(frozen=True)
class GenerationConfig:
    n_candidates: int = 2
    noise_std: float = 0.0     # must be 0: nothing perturbs the first frame

    def __post_init__(self) -> None:
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.noise_std != 0:
            raise ValueError(f"GenerationConfig.noise_std must be 0, got {self.noise_std!r}")


@dataclass(frozen=True)
class KernelGenerator:
    mode: GeneratorMode
    videos: tuple[Video, ...]
    embeddings: np.ndarray  # (n, k) canonical embedding per support entry
    bandwidth: float

    def __post_init__(self) -> None:
        if not self.videos:
            raise ValueError("generator needs a non-empty support")
        if len(self.videos) != self.embeddings.shape[0]:
            raise ValueError("one embedding per support video required")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")

    def __len__(self) -> int:
        return len(self.videos)

    @cached_property
    def pixels(self) -> np.ndarray:
        """(n, T*H*W) float64 support matrix, built on first use."""
        return np.stack([v.pixels.reshape(-1) for v in self.videos]).astype(np.float64)

    @cached_property
    def gram(self) -> np.ndarray:
        """Support Gram matrix over frames 1..T-1, built on first use."""
        tail = self.pixels[:, self.videos[0].pixels[0].size :]
        return tail @ tail.T


def fit_generator(
    dataset: ExperienceDataset,
    table: EmbeddingTable,
    mode: GeneratorMode,
) -> KernelGenerator:
    """Build the support from the dataset (successes only in Planning mode).

    Each support entry carries the canonical embedding of its object; the
    kernel bandwidth is the median pairwise canonical distance (1.0 when
    degenerate).
    """
    items = [
        (item, table.canonical_for(item.object_id))
        for item in dataset.tuples
        if mode is GeneratorMode.IDENTIFICATION or item.success
    ]
    if not items:
        raise ValueError("no support videos for the requested mode")
    videos = tuple(item.video for item, _ in items)
    embeddings = np.stack([emb for _, emb in items])
    med = table.median_canonical_distance
    bandwidth = med if med > 0 else 1.0
    return KernelGenerator(mode=mode, videos=videos, embeddings=embeddings, bandwidth=bandwidth)


def _log_weights(g: KernelGenerator, e: np.ndarray | None) -> np.ndarray:
    """Kernel log-weights over the support: (n,) for one embedding, (m, n) for a batch."""
    if e is None:
        return np.zeros(len(g))
    e = np.asarray(e, dtype=np.float64)
    diffs = g.embeddings - e[..., None, :]
    sq = (diffs * diffs).sum(axis=-1)
    return -sq / (2.0 * g.bandwidth * g.bandwidth)


def generate_indices(
    g: KernelGenerator, e: np.ndarray | None, count: int, rng: np.random.Generator
) -> np.ndarray:
    """Support indices of sampled plans: ``count`` of them for ``e`` None (uniform
    weights) or one (k,) embedding, one per row of an (m, k) batch.  The draws
    are ``rng.random(count)``, the same uniforms as ``count`` single draws."""
    cumulative = np.cumsum(softmax(_log_weights(g, e)), axis=-1)
    draws = rng.random(len(cumulative) if cumulative.ndim == 2 else count)
    # count of cumulative weights <= u, as searchsorted(side="right") on each row
    return np.minimum((cumulative <= draws[:, None]).sum(axis=-1), len(g) - 1)


def generate(
    g: KernelGenerator,
    first_frame: np.ndarray,
    e: np.ndarray | None,
    config: GenerationConfig,
    rng: np.random.Generator,
) -> list[Video]:
    """Candidate plans as ``generate_indices`` draws them: support videos with frame 0
    replaced bit-exactly by ``first_frame`` (shared when it already matches)."""
    picks = generate_indices(g, e, config.n_candidates, rng)
    return [g.videos[pick].with_first_frame(first_frame) for pick in picks]


def id_generate(g: KernelGenerator, first_frame: np.ndarray, e: np.ndarray | None) -> Video:
    """Deterministic kernel-mean video over the support, starting at ``first_frame``.

    Identification mode only.  Smooth in ``e``, which makes the
    reconstruction loss differentiable (see ``mse_objective``).
    """
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("id_generate requires a generator in Identification mode")
    first_frame = np.asarray(first_frame, dtype=np.float32)
    weights = softmax(_log_weights(g, e))
    shape = g.videos[0].pixels.shape
    mixed = (weights[:, None] * g.pixels).sum(axis=0).reshape(shape)
    mixed = np.clip(mixed, 0.0, 1.0).astype(np.float32)
    return Video(mixed).with_first_frame(first_frame)


def mse_objective(
    g: KernelGenerator, observed: Video
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Batched loss L(e) = video_mse(observed, id_generate(g, observed[0], e))
    and its closed-form gradient.

    Uses the generator's support Gram matrix, shared by every observation,
    so each evaluation costs O(support^2) instead of touching every pixel;
    equals the direct definition to floating-point accuracy.  Accepts a
    batch (m, k) of embeddings and returns (m,) losses with their (m, k)
    gradients.
    """
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("mse_objective requires a generator in Identification mode")
    t, h, w = observed.pixels.shape
    if (t, h, w) != g.videos[0].pixels.shape:
        raise ValueError("observed video shape does not match the support")
    head = h * w
    # Frame 0 of the kernel mean is replaced by the observation, so both
    # sides share it; restrict the quadratic form to frames 1..T-1.
    obs_tail = observed.pixels.astype(np.float64).reshape(-1)[head:]
    gram = g.gram
    cross = g.pixels[:, head:] @ obs_tail
    const = float(obs_tail @ obs_tail)
    total = float(t * h * w)
    emb = g.embeddings.astype(np.float64)
    emb_sq = (emb * emb).sum(axis=1)
    bw2 = 2.0 * g.bandwidth * g.bandwidth

    def objective(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        # ||b - e||^2 expanded so both heavy products hit BLAS.
        d2 = emb_sq[None, :] - 2.0 * (b @ emb.T) + (b * b).sum(axis=1)[:, None]
        wts = softmax(-d2 / bw2)
        wg = wts @ gram
        quad = (wg * wts).sum(axis=1)
        losses = (const - 2.0 * (wts @ cross) + quad) / total
        # dL/dw = (2 G w - 2 c) / N; through the softmax and the Gaussian kernel,
        # dL/de = sum_i w_i (dL/dw_i - w . dL/dw) (E_i - e) / h^2.
        dw = (2.0 / total) * (wg - cross)
        coef = wts * (dw - (wts * dw).sum(axis=1, keepdims=True))
        grads = (coef @ emb - coef.sum(axis=1, keepdims=True) * b) * (2.0 / bw2)
        return np.maximum(losses, 0.0), grads

    return objective


def naive_mse_loss(g: KernelGenerator, observed: Video, e: np.ndarray | None) -> float:
    """Reference loss built directly from id_generate; used to pin the fast path."""
    return video_mse(observed, id_generate(g, observed.first_frame(), e))
