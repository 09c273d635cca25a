"""Optimization-based embedding refinement against an observed interaction.

Minimizes L(e) = video_mse(observed, id_generate(g, observed[0], e)) by
plain gradient descent on ``mse_objective``, which returns the closed-form
gradient with each loss.  All starts descend together as one batch, with
one objective evaluation per step.  The best iterate seen (including
the initial point) is returned, which guarantees the result never scores
worse than its initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Video
from .generator import GeneratorMode, KernelGenerator, mse_objective

# Batched losses and gradients: (m, k) embeddings -> ((m,), (m, k)).
Evaluate = Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class RefineConfig:
    init_mode: str = "random"       # random | retrieval | combined
    steps: int = 200
    restarts: int = 3               # random inits (random/combined modes)

    def __post_init__(self) -> None:
        if self.init_mode not in ("random", "retrieval", "combined"):
            raise ValueError(f"unknown init_mode {self.init_mode!r}")
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class RefineResult:
    embedding: np.ndarray
    loss: float
    trace: tuple[float, ...]  # best-so-far loss per step; non-increasing


def _descend(
    evaluate: Evaluate, starts: np.ndarray, steps: int, lr: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Descend every row of ``starts`` at once; best rows, their losses and the
    (steps + 1, chains) best-so-far trace."""
    e = starts.copy()
    best_e = e.copy()
    best = np.full(len(e), np.inf)
    trace = []
    for _ in range(steps + 1):
        losses, grads = evaluate(e)
        better = losses < best
        best = np.where(better, losses, best)
        best_e[better] = e[better]
        trace.append(best)
        e = e - lr * grads
    return best_e, best, np.array(trace)


def refine_embedding(
    g: KernelGenerator,
    observed: Video,
    init: np.ndarray | None,
    config: RefineConfig = RefineConfig(),
    rng: np.random.Generator | None = None,
    count: int | None = None,
) -> RefineResult | tuple[RefineResult, ...]:
    """Refine a state embedding to explain an observed interaction video.

    init_mode "random" starts from ``restarts`` unit-variance Gaussian
    draws; "retrieval" starts from ``init`` only; "combined" runs both and
    keeps the best.  Every start descends with step 0.1 * bandwidth.  The
    generator is left untouched.

    ``count`` refines that many embeddings against the same observation,
    each from its own starts drawn in turn, in one batched descent, and
    returns a tuple of results; None returns a single result.
    """
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("refinement requires an identification-mode generator")
    if count is not None and count < 1:
        raise ValueError(f"count must be None or >= 1, got {count!r}")
    n = 1 if count is None else count
    k = g.embeddings.shape[1]
    lr = 0.1 * g.bandwidth

    starts: list[np.ndarray] = []
    for _ in range(n):
        if config.init_mode in ("random", "combined"):
            if rng is None:
                raise ValueError("random initialization needs an rng")
            starts.extend(rng.normal(0.0, 1.0, size=k) for _ in range(config.restarts))
        if config.init_mode in ("retrieval", "combined"):
            if init is None:
                raise ValueError("retrieval initialization needs an init embedding")
            starts.append(np.asarray(init, dtype=np.float64))

    evaluate = mse_objective(g, observed)
    best_e, best, trace = _descend(evaluate, np.array(starts, dtype=np.float64), config.steps, lr)

    # Each result keeps the first of its own chains with the lowest loss.
    per_result = len(starts) // n
    chains = np.arange(0, len(starts), per_result)
    chains += best.reshape(-1, per_result).argmin(axis=1)
    results = tuple(
        RefineResult(embedding=best_e[c], loss=float(best[c]), trace=tuple(trace[:, c].tolist()))
        for c in chains
    )
    return results[0] if count is None else results
