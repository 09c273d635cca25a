"""Experience dataset generation from scripted and perturbed rollouts."""

from __future__ import annotations

import numpy as np

from .core import ExperienceDataset, ExperienceTuple, Video, require_integer, require_number
from .envs import (
    EnvAction,
    EnvInstance,
    EnvKind,
    execute,
    hidden_values,
    object_id,
    rollout_success,
    scripted_action,
)

Theta = float | str


def candidate_actions(kind: EnvKind) -> list[EnvAction]:
    """The scripted action for every table theta (the hypothesis set)."""
    return [scripted_action(EnvInstance(kind, theta)) for theta in hidden_values(kind)]


def failing_actions(kind: EnvKind, theta: Theta, hypotheses: list[EnvAction]) -> list[EnvAction]:
    """The actions of ``hypotheses`` (``candidate_actions(kind)``) that ``rollout_success``
    rejects under ``theta``, in table order."""
    theta = EnvInstance(kind, theta).theta_value
    return [a for a in hypotheses if not rollout_success(kind, theta, a.value)]


def build_dataset(
    kind: EnvKind,
    per_theta_success: int = 1,
    per_theta_fail: int = 10,
    seed: int = 0,
) -> ExperienceDataset:
    """Roll out interactions for every table theta.

    Per theta: ``per_theta_success`` scripted successes first (the first
    one becomes the object's canonical entry), then ``per_theta_fail``
    failures executing wrong-hypothesis actions (sampled without
    replacement until exhausted, then cycled; a cycled action's entry
    holds the video its first draw rendered).
    """
    for name, value, low in (("per_theta_success", per_theta_success, 1),
                             ("per_theta_fail", per_theta_fail, 0), ("seed", seed, 0)):
        require_integer(f"build_dataset's {name}", value, low)
    rng = np.random.default_rng(seed)
    hypotheses = candidate_actions(kind)
    tuples: list[ExperienceTuple] = []
    for theta in hidden_values(kind):
        env = EnvInstance(kind, theta)
        oid = object_id(kind, theta)
        good = execute(env, scripted_action(env))
        if not good.success:
            raise AssertionError(f"scripted action failed for {oid}")
        for _ in range(per_theta_success):
            tuples.append(ExperienceTuple(good.video, oid, True))
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
    return ExperienceDataset(tuple(tuples))


def kept_others(others: int, fraction: float) -> int:
    """How many of an object's ``others`` entries besides its canonical one
    ``subsample_dataset`` keeps at ``fraction``."""
    return int(round(fraction * others))


def subsample_dataset(
    dataset: ExperienceDataset, fraction: float, seed: int = 0
) -> ExperienceDataset:
    """Keep each object's first success plus a deterministic fraction of the rest."""
    require_number("subsample_dataset's fraction", fraction, 0, 1)
    require_integer("subsample_dataset's seed", seed, 0)
    if fraction == 1.0:
        return dataset
    rng = np.random.default_rng(seed)
    keep = np.zeros(len(dataset), dtype=bool)
    for oid, idxs in dataset.by_object.items():
        first_success = dataset.canonical_entry[oid]
        keep[first_success] = True
        rest = [i for i in idxs if i != first_success]
        n_keep = kept_others(len(rest), fraction)
        if n_keep > 0:
            chosen = rng.permutation(len(rest))[:n_keep]
            for c in chosen:
                keep[rest[int(c)]] = True
    return ExperienceDataset(tuple(dataset.tuples[i] for i in np.flatnonzero(keep)))
