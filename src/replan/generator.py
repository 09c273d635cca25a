"""Kernel-weighted plan generator conditioned on state embeddings.

A generator holds support rollouts from the experience dataset.  In
Planning mode the support is the successful rollouts only; in
Identification mode it is every rollout.  Candidate plans are support
videos sampled with Gaussian kernel weights centred on the conditioning
embedding; the identification generator instead returns the kernel-mean
video, which varies smoothly with the embedding so it can be optimized
by gradient descent; ``mse_objective`` returns the closed-form gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

import numpy as np

from .core import ExperienceDataset, Video, video_mse
from .encoders import encode_frame
from .retrieval import EmbeddingTable


class GeneratorMode(Enum):
    PLANNING = "planning"
    IDENTIFICATION = "identification"


@dataclass(frozen=True)
class GenerationConfig:
    n_candidates: int = 2
    noise_std: float = 0.0     # first-frame perturbation before support matching
    horizon: int = 7           # future frames; plans carry horizon + 1 frames

    def __post_init__(self) -> None:
        if self.n_candidates < 1:
            raise ValueError("n_candidates must be >= 1")
        if self.noise_std < 0:
            raise ValueError("noise_std must be >= 0")


@dataclass(frozen=True)
class KernelGenerator:
    mode: GeneratorMode
    videos: tuple[Video, ...]
    embeddings: np.ndarray             # (n, k) canonical embedding per support entry
    first_frame_embeddings: np.ndarray  # (n, 64)
    bandwidth: float
    first_frame_top_k: int | None = None  # None keeps the full support
    _pixels: np.ndarray = field(init=False, repr=False)
    _gram_cache: dict = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.videos:
            raise ValueError("generator needs a non-empty support")
        if len(self.videos) != self.embeddings.shape[0]:
            raise ValueError("one embedding per support video required")
        if self.bandwidth <= 0:
            raise ValueError("bandwidth must be positive")
        object.__setattr__(
            self,
            "_pixels",
            np.stack([v.pixels.reshape(-1) for v in self.videos]).astype(np.float64),
        )
        object.__setattr__(self, "_gram_cache", {})

    def __len__(self) -> int:
        return len(self.videos)


def fit_generator(
    dataset: ExperienceDataset,
    table: EmbeddingTable,
    mode: GeneratorMode,
    first_frame_top_k: int | None = None,
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
    first = np.stack([encode_frame(v.first_frame()) for v in videos])
    med = table.median_canonical_distance
    bandwidth = med if med > 0 else 1.0
    return KernelGenerator(
        mode=mode,
        videos=videos,
        embeddings=embeddings,
        first_frame_embeddings=first,
        bandwidth=bandwidth,
        first_frame_top_k=first_frame_top_k,
    )


def _support_subset(g: KernelGenerator, match_frame: np.ndarray) -> np.ndarray:
    """Indices of the support entries nearest the (possibly noised) first frame."""
    k = g.first_frame_top_k
    n = len(g)
    if k is None or k >= n:
        return np.arange(n)
    feats = encode_frame(match_frame)
    diffs = g.first_frame_embeddings - feats
    dists = (diffs * diffs).sum(axis=1)
    order = np.argsort(dists, kind="stable")
    return np.sort(order[:k])


def _log_weights(g: KernelGenerator, subset: np.ndarray, e: np.ndarray | None) -> np.ndarray:
    if e is None:
        return np.zeros(len(subset))
    e = np.asarray(e, dtype=np.float64)
    diffs = g.embeddings[subset] - e
    sq = (diffs * diffs).sum(axis=1)
    return -sq / (2.0 * g.bandwidth * g.bandwidth)


def _normalized_weights(logw: np.ndarray) -> np.ndarray:
    shifted = logw - logw.max()
    w = np.exp(shifted)
    return w / w.sum()


def generate(
    g: KernelGenerator,
    first_frame: np.ndarray,
    e: np.ndarray | None,
    config: GenerationConfig,
    rng: np.random.Generator,
) -> list[Video]:
    """Sample n candidate plans; each is a support video whose frame 0 is
    replaced bit-exactly by the clean ``first_frame``.

    A null embedding gives uniform weights.  With noise_std > 0 the frame
    used for support matching is perturbed once per call; the emitted
    plans still start from the clean frame.
    """
    first_frame = np.asarray(first_frame, dtype=np.float32)
    match_frame = first_frame
    if config.noise_std > 0:
        noise = rng.normal(0.0, config.noise_std, size=first_frame.shape)
        match_frame = np.clip(first_frame + noise, 0.0, 1.0).astype(np.float32)
    subset = _support_subset(g, match_frame)
    weights = _normalized_weights(_log_weights(g, subset, e))
    cumulative = np.cumsum(weights)
    plans = []
    for _ in range(config.n_candidates):
        pick = int(np.searchsorted(cumulative, rng.random(), side="right"))
        pick = min(pick, len(subset) - 1)
        plans.append(g.videos[int(subset[pick])].with_first_frame(first_frame))
    return plans


def id_generate(g: KernelGenerator, first_frame: np.ndarray, e: np.ndarray | None) -> Video:
    """Deterministic kernel-mean video over the f0-restricted support.

    Identification mode only.  Smooth in ``e``, which makes the
    reconstruction loss differentiable (see ``mse_objective``).
    """
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("id_generate requires a generator in Identification mode")
    first_frame = np.asarray(first_frame, dtype=np.float32)
    subset = _support_subset(g, first_frame)
    weights = _normalized_weights(_log_weights(g, subset, e))
    shape = g.videos[0].pixels.shape
    mixed = (weights[:, None] * g._pixels[subset]).sum(axis=0).reshape(shape)
    mixed = np.clip(mixed, 0.0, 1.0).astype(np.float32)
    return Video(mixed).with_first_frame(first_frame)


def mse_objective(
    g: KernelGenerator, observed: Video
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Batched loss L(e) = video_mse(observed, id_generate(g, observed[0], e))
    and its closed-form gradient.

    Precomputes the support Gram matrix so each evaluation costs
    O(support^2) instead of touching every pixel; equals the direct
    definition to floating-point accuracy.  Accepts a batch (m, k) of
    embeddings and returns (m,) losses with their (m, k) gradients.
    """
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("mse_objective requires a generator in Identification mode")
    t, h, w = observed.pixels.shape
    if (t, h, w) != g.videos[0].pixels.shape:
        raise ValueError("observed video shape does not match the support")
    first_frame = observed.first_frame()
    subset = _support_subset(g, first_frame)
    head = h * w
    # Frame 0 of the kernel mean is replaced by the observation, so both
    # sides share it; restrict the quadratic form to frames 1..T-1.
    obs = observed.pixels.astype(np.float64).reshape(-1)
    # Column slices of the full support stay views; row fancy-indexing copies.
    full = subset.size == len(g)
    pixels = (g._pixels if full else g._pixels[subset])[:, head:]
    obs_tail = obs[head:]
    # The Gram matrix depends only on the support subset, so reuse it
    # across observations (one refinement call per failed interaction).
    key = (head, None if full else subset.tobytes())
    gram = g._gram_cache.get(key)
    if gram is None:
        gram = pixels @ pixels.T
        g._gram_cache[key] = gram
    cross = pixels @ obs_tail
    const = float(obs_tail @ obs_tail)
    total = float(t * h * w)
    emb = g.embeddings[subset].astype(np.float64)
    emb_sq = (emb * emb).sum(axis=1)
    bw2 = 2.0 * g.bandwidth * g.bandwidth

    def objective(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        b = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        # ||b - e||^2 expanded so both heavy products hit BLAS.
        d2 = emb_sq[None, :] - 2.0 * (b @ emb.T) + (b * b).sum(axis=1)[:, None]
        logw = -d2 / bw2
        logw -= logw.max(axis=1, keepdims=True)
        wts = np.exp(logw)
        wts /= wts.sum(axis=1, keepdims=True)
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
