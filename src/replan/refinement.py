"""Optimization-based embedding refinement against an observed interaction.

Minimizes L(e) = video_mse(observed, id_generate(g, observed[0], e)) by
plain gradient descent with central finite differences, so any generator
exposing the identification interface can be refined without analytic
gradients.  The best iterate seen (including the initial point) is
returned, which guarantees the result never scores worse than its
initialization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import Video
from .generator import GeneratorMode, KernelGenerator, mse_objective


@dataclass(frozen=True)
class RefineConfig:
    init_mode: str = "random"       # random | retrieval | combined
    steps: int = 200
    learning_rate: float | None = None  # None -> 0.1 * bandwidth
    fd_epsilon: float | None = None     # None -> 1e-3 * bandwidth
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
    k = e.shape[0]
    probes = np.repeat(e[None, :], 2 * k + 1, axis=0)
    for i in range(k):
        probes[2 * i, i] += eps
        probes[2 * i + 1, i] -= eps
    return probes


def _descend(
    objective: Callable[[np.ndarray], np.ndarray],
    start: np.ndarray,
    steps: int,
    lr: float,
    eps: float,
) -> tuple[np.ndarray, float, list[float]]:
    # One batched objective call per step: the last probe row is the
    # unperturbed point, giving its loss alongside its gradient stencil.
    k = start.shape[0]
    e = start.astype(np.float64).copy()
    best_e = e.copy()
    best = np.inf
    trace: list[float] = []
    for _ in range(steps):
        values = objective(_probe_matrix(e, eps))
        loss = float(values[2 * k])
        if loss < best:
            best = loss
            best_e = e.copy()
        trace.append(best)
        grad = (values[0 : 2 * k : 2] - values[1 : 2 * k : 2]) / (2.0 * eps)
        e = e - lr * grad
    loss = float(objective(e)[0])
    if loss < best:
        best = loss
        best_e = e.copy()
    trace.append(best)
    return best_e, best, trace


def refine_embedding(
    g: KernelGenerator,
    observed: Video,
    init: np.ndarray | None,
    config: RefineConfig = RefineConfig(),
    rng: np.random.Generator | None = None,
    objective: Callable[[np.ndarray], np.ndarray] | None = None,
) -> RefineResult:
    """Refine a state embedding to explain an observed interaction video.

    init_mode "random" starts from ``restarts`` unit-variance Gaussian
    draws; "retrieval" starts from ``init`` only; "combined" runs both and
    keeps the best.  The generator is left untouched.  ``objective`` may
    supply a custom batched loss; by default the generator's fast exact
    objective is used.
    """
    if g.mode is not GeneratorMode.IDENTIFICATION:
        raise ValueError("refinement requires an identification-mode generator")
    if objective is None:
        objective = mse_objective(g, observed)
    k = g.embeddings.shape[1]
    lr = config.learning_rate if config.learning_rate is not None else 0.1 * g.bandwidth
    eps = config.fd_epsilon if config.fd_epsilon is not None else 1e-3 * g.bandwidth

    starts: list[np.ndarray] = []
    if config.init_mode in ("random", "combined"):
        if rng is None:
            raise ValueError("random initialization needs an rng")
        starts.extend(rng.normal(0.0, 1.0, size=k) for _ in range(config.restarts))
    if config.init_mode in ("retrieval", "combined"):
        if init is None:
            raise ValueError("retrieval initialization needs an init embedding")
        starts.append(np.asarray(init, dtype=np.float64))

    best_e: np.ndarray | None = None
    best_loss = np.inf
    best_trace: list[float] = []
    for start in starts:
        e, loss, trace = _descend(objective, start, config.steps, lr, eps)
        if loss < best_loss:
            best_e, best_loss, best_trace = e, loss, trace
    assert best_e is not None
    return RefineResult(embedding=best_e, loss=best_loss, trace=tuple(best_trace))
