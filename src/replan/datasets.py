"""Experience dataset generation from scripted and perturbed rollouts."""

from __future__ import annotations

import numpy as np

from .core import ExperienceDataset, ExperienceTuple, Video
from .envs import (
    EnvAction,
    EnvInstance,
    EnvKind,
    HiddenParam,
    execute,
    hidden_values,
    object_id,
    rollout_success,
    scripted_action,
)

Theta = float | str


def candidate_actions(kind: EnvKind) -> list[EnvAction]:
    """The scripted action for every table theta (the hypothesis set)."""
    return [
        scripted_action(EnvInstance.create(kind, theta)) for theta in hidden_values(kind)
    ]


def failing_actions(
    kind: EnvKind, theta: Theta, hypotheses: list[EnvAction] | None = None
) -> list[EnvAction]:
    """Hypothesis-set actions ``rollout_success`` rejects under ``theta``, in table order;
    ``hypotheses`` is ``candidate_actions(kind)``, built here when None."""
    theta = HiddenParam(kind, theta).value
    hypotheses = candidate_actions(kind) if hypotheses is None else hypotheses
    return [a for a in hypotheses if not rollout_success(kind, theta, a.value)]


def build_dataset(
    kind: EnvKind,
    per_theta_success: int = 1,
    per_theta_fail: int = 10,
    seed: int = 0,
) -> tuple[ExperienceDataset, list[Theta]]:
    """Roll out interactions for every table theta.

    Per theta: ``per_theta_success`` scripted successes first (the first
    one becomes the object's canonical entry), then ``per_theta_fail``
    failures executing wrong-hypothesis actions (sampled without
    replacement until exhausted, then cycled; a cycled action's entry
    holds the video its first draw rendered).
    """
    if per_theta_success < 1:
        raise ValueError(f"per_theta_success must be >= 1, got {per_theta_success}")
    if per_theta_fail < 0:
        raise ValueError(f"per_theta_fail must be >= 0, got {per_theta_fail}")
    rng = np.random.default_rng(seed)
    hypotheses = candidate_actions(kind)
    tuples: list[ExperienceTuple] = []
    thetas: list[Theta] = []
    for theta in hidden_values(kind):
        env = EnvInstance.create(kind, theta)
        oid = object_id(kind, theta)
        good = execute(env, scripted_action(env))
        if not good.success:
            raise AssertionError(f"scripted action failed for {oid}")
        for _ in range(per_theta_success):
            tuples.append(ExperienceTuple(good.video, oid, True))
            thetas.append(theta)
        pool = failing_actions(kind, theta, hypotheses)
        rendered: dict[int, Video] = {}  # pool index -> its rollout, for this theta only
        for j in range(per_theta_fail):
            if not pool:
                break
            if j % len(pool) == 0:
                order = rng.permutation(len(pool))
            i = int(order[j % len(pool)])
            if (video := rendered.get(i)) is None:
                video = rendered[i] = execute(env, pool[i]).video
            tuples.append(ExperienceTuple(video, oid, False))
            thetas.append(theta)
    dataset = ExperienceDataset(tuple(tuples))
    dataset.validate()
    return dataset, thetas


def subsample_dataset(
    dataset: ExperienceDataset,
    thetas: list[Theta],
    fraction: float,
    seed: int = 0,
) -> tuple[ExperienceDataset, list[Theta]]:
    """Keep each object's first success plus a deterministic fraction of the rest."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError("fraction must be in (0, 1]")
    if fraction == 1.0:
        return dataset, list(thetas)
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(dataset), dtype=bool)
    for idxs in dataset.by_object.values():
        first_success = next(i for i in idxs if dataset.tuples[i].success)
        keep[first_success] = True
        rest = [i for i in idxs if i != first_success]
        n_keep = int(round(fraction * len(rest)))
        if n_keep > 0:
            chosen = rng.permutation(len(rest))[:n_keep]
            for c in chosen:
                keep[rest[int(c)]] = True
    kept = [i for i in range(len(dataset)) if keep[i]]
    sub = ExperienceDataset(tuple(dataset.tuples[i] for i in kept))
    sub.validate()
    return sub, [thetas[i] for i in kept]
