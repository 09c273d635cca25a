"""Optimization-based embedding refinement against an observed interaction.

Minimizes L(e) = video_mse(observed, id_generate(g, observed[0], e)) by plain gradient
descent with the closed-form gradient of ``mse_objective``, all starts as one batch.
A step moves the group logits z = log n_o + (2 e.E_o - ||E_o||^2) / 2h^2 by a fixed
G x G map of its coefficients, so the loop updates z alone, in nine in-place numpy calls.
The logits are shifted once so that each chain's top group's is 0, which its own step
map keeps exactly: the weights are exp(z) over their sum, and z stays bounded as it
moves with the embedding.  A step reads the folded Gram and keeps its weights, w.u and
coefficients; ``loss_terms`` scores all steps at once after the loop.  Each chain then
keeps its first step with the lowest loss (the start included, so it never scores
worse), rebuilt from the coefficients before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Video, require, require_integer
# mse_objective, unused here, stays importable from this module for perfbench/layers.py
from .generator import KernelGenerator, mse_objective  # noqa: F401
from .generator import ObservationTerms, _group_logits, _identification_loss


@dataclass(frozen=True)
class RefineConfig:
    """Descent steps and Gaussian starts per result; random draws are the one start mode."""
    init_mode: str = "random"       # must be "random"
    steps: int = 200
    restarts: int = 3               # starts per result

    def __post_init__(self) -> None:
        require("RefineConfig.init_mode", self.init_mode, self.init_mode == "random", "'random'")
        require_integer("RefineConfig.steps", self.steps, 0)
        require_integer("RefineConfig.restarts", self.restarts, 1)


@dataclass(frozen=True)
class RefineResult:
    embedding: np.ndarray
    loss: float
    trace: tuple[float, ...]  # best-so-far loss per step; non-increasing


def _descend(
    g: KernelGenerator, observed: Video | ObservationTerms, starts: np.ndarray, steps: int,
    lr: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descend every row of ``starts`` at once; best rows, their losses and the
    (steps + 1, chains) best-so-far trace."""
    const, total, bw2, folded, loss_terms = _identification_loss(g, observed)
    emb = g.groups[0]
    scale = lr * 4.0 / (total * bw2)             # e <- e - scale * (coef @ E)
    step = (2.0 * scale / bw2) * (emb @ emb.T)   # z <- z - coef @ step
    z = _group_logits(g, starts)
    top, chains = z.argmax(axis=1), np.arange(len(starts))
    # once: a chain's own step map, its top group's column zeroed, keeps that logit 0
    z -= z[chains, top, None]
    step = step - step.T[top][:, :, None]
    wts = np.empty((steps + 1, *z.shape))
    coefs = np.zeros((steps + 2, *z.shape))      # coefs[t + 1] moves step t
    wus = np.empty((steps + 1, len(z), 1))
    norm, (u, dz) = np.empty((len(z), 1)), np.empty((2, *z.shape))
    for w, wu, coef, coef_row in zip(wts, wus, coefs[1:], coefs[1:, :, None]):
        np.exp(z, out=w)
        np.add.reduce(w, axis=1, keepdims=True, out=norm)
        np.divide(w, norm, out=w)
        np.matmul(w, folded, out=u)
        np.vecdot(w, u, out=wu, keepdims=True)
        np.subtract(u, wu, out=u)
        np.multiply(w, u, out=coef)
        np.matmul(coef_row, step, out=dz[:, None])
        np.subtract(z, dz, out=z)
    losses = np.maximum((const + loss_terms(wts, wus[..., 0])) / total, 0.0)
    best = losses.argmin(axis=0)
    moved = np.cumsum(coefs, axis=0)[best, chains]
    return starts - scale * (moved @ emb), losses[best, chains], np.minimum.accumulate(losses)


def refine_embedding(
    g: KernelGenerator,
    observed: Video | ObservationTerms,
    init: np.ndarray | None,
    config: RefineConfig = RefineConfig(),
    rng: np.random.Generator | None = None,
    count: int | None = None,
) -> RefineResult | tuple[RefineResult, ...]:
    """Refine a state embedding to explain an observed interaction: a video, or its
    ``generator.observation_terms`` against ``g``.

    Each result descends from ``config.restarts`` unit-variance Gaussian draws
    from ``rng``, with step 0.1 * bandwidth, and keeps the first of its chains
    with the lowest loss.  ``init`` must be None.  The generator is left untouched.

    ``count`` refines that many embeddings against the same observation,
    each from its own starts drawn in turn, in one batched descent, and
    returns a tuple of results; None returns a single result.
    """
    if init is not None:
        raise ValueError("refine_embedding's init must be None: starts are drawn from rng")
    require_integer("refine_embedding's count", count, 1, optional=True)
    if rng is None:
        raise ValueError("refinement draws its starts from an rng, got None")
    n, restarts = 1 if count is None else count, config.restarts
    starts = rng.normal(0.0, 1.0, size=(n * restarts, g.embeddings.shape[1]))
    best_e, best, trace = _descend(g, observed, starts, config.steps, 0.1 * g.bandwidth)

    # Each result keeps the first of its own chains with the lowest loss.
    chains = np.arange(0, n * restarts, restarts) + best.reshape(n, restarts).argmin(axis=1)
    results = tuple(
        RefineResult(embedding=best_e[c], loss=float(best[c]), trace=tuple(trace[:, c].tolist()))
        for c in chains
    )
    return results[0] if count is None else results
