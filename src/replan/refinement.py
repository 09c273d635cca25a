"""Optimization-based embedding refinement against an observed interaction.

Minimizes L(e) = video_mse(observed, id_generate(g, observed[0], e)) by plain gradient
descent with the closed-form gradient of ``mse_objective``, all starts as one batch.
A step moves the group logits z = log n_o + (2 e.E_o - ||E_o||^2) / 2h^2 by a fixed
G x G map of its coefficients, so the loop updates z alone and records each step's
loss term and coefficients.  Each chain then keeps its first step with the lowest loss
(the start included, so it never scores worse), rebuilt from the coefficients before it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Video, require_integer
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
        if self.init_mode != "random":
            raise ValueError(f"RefineConfig.init_mode must be 'random', got {self.init_mode!r}")
        require_integer(self, "steps", 0)
        require_integer(self, "restarts", 1)


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
    const, total, bw2, terms = _identification_loss(g, observed)
    emb = g.groups[0]
    scale = lr * 4.0 / (total * bw2)             # e <- e - scale * (coef @ E)
    step = (2.0 * scale / bw2) * (emb @ emb.T)   # z <- z - coef @ step
    z = _group_logits(g, starts)
    losses = np.empty((steps + 1, len(starts)))
    coefs = np.zeros((steps + 2, *z.shape))      # coefs[t + 1] moves step t
    for t, coef in enumerate(coefs[1:]):
        losses[t] = terms(z, coef)[0]
        z -= coef @ step
    losses = np.maximum((const + losses) / total, 0.0)
    best, chains = losses.argmin(axis=0), np.arange(len(starts))
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
    if count is not None and count < 1:
        raise ValueError(f"count must be None or >= 1, got {count!r}")
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
