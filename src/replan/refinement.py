"""Optimization-based embedding refinement against an observed interaction.

Minimizes L(e) = video_mse(observed, id_generate(g, observed[0], e)) by
plain gradient descent.  The default objective returns its closed-form
gradient with each loss; a custom ``objective=`` returns losses only and
is differentiated by central finite differences, so any batched loss over
embeddings can be refined.  All starts descend together as one batch,
with one objective evaluation per step.  The best iterate seen (including
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
    learning_rate: float | None = None  # None -> 0.1 * bandwidth
    fd_epsilon: float | None = None     # custom objectives only; None -> 1e-3 * bandwidth
    restarts: int = 3                   # random inits (random/combined modes)

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


def _probe_matrix(e: np.ndarray, eps: float) -> np.ndarray:
    """Central-difference stencil of each row of ``e``, 2k + 1 rows apiece.

    Rows 2i and 2i + 1 of a block move coordinate i by +eps and -eps; the
    last row is the point itself.
    """
    k = e.shape[-1]
    offsets = np.zeros((2 * k + 1, k))
    axes = np.arange(k)
    offsets[2 * axes, axes] = eps
    offsets[2 * axes + 1, axes] = -eps
    return (e[..., None, :] + offsets).reshape(-1, k)


def _central_differences(objective: Callable[[np.ndarray], np.ndarray], eps: float) -> Evaluate:
    """Losses and gradients of a loss-only objective from one stencil call."""

    def evaluate(batch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m, k = batch.shape
        values = np.asarray(objective(_probe_matrix(batch, eps))).reshape(m, 2 * k + 1)
        grads = (values[:, 0 : 2 * k : 2] - values[:, 1 : 2 * k : 2]) / (2.0 * eps)
        return values[:, 2 * k], grads

    return evaluate


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
    objective: Callable[[np.ndarray], np.ndarray] | None = None,
    count: int | None = None,
) -> RefineResult | tuple[RefineResult, ...]:
    """Refine a state embedding to explain an observed interaction video.

    init_mode "random" starts from ``restarts`` unit-variance Gaussian
    draws; "retrieval" starts from ``init`` only; "combined" runs both and
    keeps the best.  The generator is left untouched.  ``objective`` may
    supply a custom batched loss, refined by central differences with step
    ``fd_epsilon``; by default the generator's exact objective and its
    closed-form gradient are used.

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
    lr = config.learning_rate if config.learning_rate is not None else 0.1 * g.bandwidth

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

    if objective is None:
        evaluate = mse_objective(g, observed)
    else:
        eps = config.fd_epsilon if config.fd_epsilon is not None else 1e-3 * g.bandwidth
        evaluate = _central_differences(objective, eps)
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
