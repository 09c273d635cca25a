"""Kernel-weighted plan generator conditioned on state embeddings.

A generator holds support rollouts from the experience dataset.  In
Planning mode the support is the successful rollouts only; in
Identification mode it is every rollout.  Candidate plans are support
videos sampled with Gaussian kernel weights centred on the conditioning
embedding; the identification generator instead returns the kernel-mean
video over the whole support, which varies smoothly with the embedding so
it can be optimized by gradient descent.  Support entries of one object share
its embedding, so ``mse_objective`` computes that loss and its closed-form
gradient over the distinct embeddings only.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Callable

import numpy as np

from .core import ExperienceDataset, Video, is_number, require, require_integer
from .retrieval import EmbeddingTable, softmax


class GeneratorMode(Enum):
    PLANNING = "planning"
    IDENTIFICATION = "identification"


@dataclass(frozen=True)
class GenerationConfig:
    n_candidates: int = 2
    noise_std: float = 0.0     # must be 0: nothing perturbs the first frame

    def __post_init__(self) -> None:
        require_integer("GenerationConfig.n_candidates", self.n_candidates, 1)
        noise = self.noise_std
        require("GenerationConfig.noise_std", noise, is_number(noise) and noise == 0, "0")


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
    def groups(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Distinct embedding rows, log member counts, each group's float64 mean of frames
        1..T-1 (summed in support order) and the Gram of those means; built on first use."""
        rows, owner, counts = np.unique(self.embeddings, axis=0, return_inverse=True,
                                        return_counts=True)
        tails = np.zeros((len(rows), self.videos[0].pixels[1:].size))
        for video, group in zip(self.videos, owner.reshape(-1)):
            tails[group] += video.pixels[1:].reshape(-1)
        tails /= counts[:, None]
        return rows.astype(np.float64), np.log(counts), tails, tails @ tails.T


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
    videos = tuple(item.video for item, _ in items)
    embeddings = np.stack([emb for _, emb in items])
    med = table.median_canonical_distance
    bandwidth = med if med > 0 else 1.0
    return KernelGenerator(mode=mode, videos=videos, embeddings=embeddings, bandwidth=bandwidth)


def _log_weights(emb: np.ndarray, bandwidth: float, e: np.ndarray | None) -> np.ndarray:
    """Kernel log-weights -||e - E_i||^2 / 2h^2 over the rows of ``emb``: (n,) for one
    embedding (zeros for None), (m, n) for a batch."""
    if e is None:
        return np.zeros(len(emb))
    diffs = emb - np.asarray(e, dtype=np.float64)[..., None, :]
    return -(diffs * diffs).sum(axis=-1) / (2.0 * bandwidth * bandwidth)


def cumulative_weights(g: KernelGenerator, e: np.ndarray | None) -> np.ndarray:
    """Cumulative kernel weights over the support: an (n,) row for ``e`` None (uniform
    weights) or one (k,) embedding, an (m, n) stack for an (m, k) batch."""
    return np.cumsum(softmax(_log_weights(g.embeddings, g.bandwidth, e)), axis=-1)


def draw_indices(cumulative: np.ndarray, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` support indices drawn from ``cumulative_weights``: all from one (n,) row,
    or one per row of a (count, n) stack, by ``rng.random(count)``, the same uniforms as
    ``count`` single draws.  A stack of another height fails before any draw."""
    if cumulative.ndim == 2 and len(cumulative) != count:
        raise ValueError(f"count must be the batch's {len(cumulative)} rows, got {count!r}")
    draws = rng.random(count)
    # count of cumulative weights <= u, as searchsorted(side="right") on each row
    return np.minimum((cumulative <= draws[:, None]).sum(axis=-1), cumulative.shape[-1] - 1)


def generate(
    g: KernelGenerator,
    first_frame: np.ndarray,
    e: np.ndarray | None,
    config: GenerationConfig,
    rng: np.random.Generator,
) -> list[Video]:
    """Candidate plans ``draw_indices`` draws from ``cumulative_weights`` at ``e``: support
    videos with frame 0 replaced bit-exactly by ``first_frame`` (shared when it already
    matches).  An (m, k) batch draws one plan per row, whatever ``config.n_candidates`` says."""
    count = len(e) if np.ndim(e) == 2 else config.n_candidates
    picks = draw_indices(cumulative_weights(g, e), count, rng)
    return [g.videos[pick].with_first_frame(first_frame) for pick in picks]


def id_generate(g: KernelGenerator, first_frame: np.ndarray, e: np.ndarray | None) -> Video:
    """Deterministic kernel-mean video over the support (a mix of the ``groups`` means),
    starting at ``first_frame``.  Identification mode only.  Smooth in ``e``, which
    makes the reconstruction loss differentiable (see ``mse_objective``)."""
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("id_generate requires a generator in Identification mode")
    shape = g.videos[0].pixels.shape
    tail = np.clip(softmax(_group_logits(g, e)) @ g.groups[2], 0.0, 1.0)
    mixed = np.concatenate([np.zeros(shape[1] * shape[2]), tail]).reshape(shape)
    return Video(mixed).with_first_frame(first_frame)


def _group_logits(g: KernelGenerator, e: np.ndarray | None) -> np.ndarray:
    """Kernel log-weights over the ``groups``: log n_o - ||e - E_o||^2 / 2h^2."""
    return g.groups[1] + _log_weights(g.groups[0], g.bandwidth, e)


ObservationTerms = tuple[float, np.ndarray]  # |obs tail|^2 and the (G,) cross products


def observation_terms(g: KernelGenerator, observed: Video) -> ObservationTerms:
    """What the identification loss reads of an observed video: |obs|^2 over frames
    1..T-1 and ``cross = tails @ obs_tail`` against the ``groups`` means."""
    if observed.pixels.shape != g.videos[0].pixels.shape:
        raise ValueError("observed video shape does not match the support")
    obs_tail = observed.pixels[1:].astype(np.float64).reshape(-1)
    return float(obs_tail @ obs_tail), g.groups[2] @ obs_tail


def _identification_loss(
    g: KernelGenerator, observed: Video | ObservationTerms
) -> tuple[float, float, float, np.ndarray, Callable[[np.ndarray, np.ndarray], np.ndarray]]:
    """L(e) = video_mse(observed, id_generate(g, observed[0], e)) over the ``groups``, from
    a video or its ``observation_terms``: |obs|^2, N = T*H*W, 2h^2, the folded Gram A =
    gram - 1 cross^T and ``loss_terms(wts, wu)``.  At weights W = softmax(z), which sum to
    1, u = W @ A is W @ gram - cross, dL/de = (W (u - W.u) @ E) 4 / (N 2h^2) and L =
    (|obs|^2 + loss_terms(W, W.u)) / N, for any stack of weights.  Frame 0 of the kernel
    mean is the observation's, so the Gram covers frames 1..T-1."""
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("the identification loss requires a generator in Identification mode")
    if isinstance(observed, Video):
        observed = observation_terms(g, observed)
    const, cross = observed
    gram = g.groups[3]

    def loss_terms(wts: np.ndarray, wu: np.ndarray) -> np.ndarray:
        return wu - np.vecdot(wts, cross)

    bw2 = 2.0 * g.bandwidth * g.bandwidth
    return const, float(g.videos[0].pixels.size), bw2, gram - cross, loss_terms


def mse_objective(
    g: KernelGenerator, observed: Video
) -> Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]:
    """Batched loss L(e) = video_mse(observed, id_generate(g, observed[0], e))
    and its closed-form gradient, over the distinct embeddings of ``groups`` (equal
    to the direct definition to floating-point accuracy).  Takes a (k,) embedding or
    an (m, k) batch; returns (m,) losses and (m, k) grads."""
    const, total, bw2, folded, loss_terms = _identification_loss(g, observed)
    emb = g.groups[0]

    def objective(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # dL/dW = 2u / N, so dL/de = sum_o W_o (dL/dW_o - W.dL/dW) 2 (E_o - e) / 2h^2 (the e
        # term drops as the W_o (...) sum to 0); vecdot rounds a lone row as a batch's rows
        wts = softmax(_group_logits(g, np.atleast_2d(batch)))
        u = wts @ folded
        wu = np.vecdot(wts, u)
        coef = wts * (u - wu[:, None])
        losses = np.maximum((const + loss_terms(wts, wu)) / total, 0.0)
        return losses, np.vecdot(coef[:, :, None], emb, axis=-2) * (4.0 / (total * bw2))

    return objective
