"""Dataset assembly from scripted successes and wrong-hypothesis failures."""

import numpy as np
import pytest

from replan import (
    EnvInstance,
    EnvKind,
    build_dataset,
    candidate_actions,
    execute,
    failing_actions,
    hidden_values,
    subsample_dataset,
)
from replan import envs


def test_candidate_actions_cover_tables():
    assert len(candidate_actions(EnvKind.PUSH_BAR)) == 24
    assert len(candidate_actions(EnvKind.SLIDE_BRICK)) == 13
    modes = [a.value for a in candidate_actions(EnvKind.OPEN_BOX)]
    assert modes == ["lift", "slide"]
    offsets = [a.value for a in candidate_actions(EnvKind.PICK_BAR)]
    assert offsets[0] == -0.18 and offsets[-1] == 0.18


def test_failing_actions_exact():
    # bar theta 0.0 tolerates offsets within 0.03: -0.03, -0.015, 0, 0.015, 0.03
    fails = failing_actions(EnvKind.PUSH_BAR, 0.0)
    assert len(fails) == 24 - 5
    assert all(abs(a.value) > 0.03 for a in fails)

    fails = failing_actions(EnvKind.OPEN_BOX, "lift")
    assert [a.value for a in fails] == ["slide"]

    env = EnvInstance.create(EnvKind.SLIDE_BRICK, 0.32)
    fails = failing_actions(EnvKind.SLIDE_BRICK, 0.32)
    for action in fails:
        assert not execute(env, action).success
    hits = len(candidate_actions(EnvKind.SLIDE_BRICK)) - len(fails)
    assert hits >= 1  # at least its own scripted action succeeds


def test_dataset_builds_the_hypothesis_set_once(monkeypatch):
    import replan.datasets

    for kind in EnvKind:
        hypotheses = candidate_actions(kind)
        for theta in hidden_values(kind):
            assert failing_actions(kind, theta, hypotheses) == failing_actions(kind, theta)
    calls = []
    real = replan.datasets.candidate_actions
    monkeypatch.setattr(
        replan.datasets, "candidate_actions", lambda kind: calls.append(kind) or real(kind)
    )
    for kind in EnvKind:
        build_dataset(kind)
    assert calls == list(EnvKind)


def test_failing_actions_render_nothing(monkeypatch):
    renders = []
    real_render = envs.render

    def counting_render(kind, states):
        renders.append(kind)
        return real_render(kind, states)

    monkeypatch.setattr(envs, "render", counting_render)
    for kind in EnvKind:
        for theta in hidden_values(kind):
            failing_actions(kind, theta)
    assert renders == []


def test_build_dataset_renders_each_distinct_rollout_once(monkeypatch):
    # a failing action drawn again for the same theta reuses its first rollout
    import replan.datasets

    executed = []
    real = replan.datasets.execute
    monkeypatch.setattr(replan.datasets, "execute", lambda env, action:
                        executed.append((env.theta_value, action.value)) or real(env, action))
    for kind in EnvKind:
        executed.clear()
        dataset, thetas = build_dataset(kind, per_theta_fail=10)
        assert len(executed) == len(set(executed))
        pools = {theta: len(failing_actions(kind, theta)) for theta in hidden_values(kind)}
        assert len(executed) == sum(1 + min(10, pool) for pool in pools.values())
        for theta, pool in pools.items():
            fails = [item.video for item, t in zip(dataset.tuples, thetas)
                     if t == theta and not item.success]
            assert len(fails) == (10 if pool else 0)
            assert len({id(video) for video in fails}) == min(10, pool)


def test_build_dataset_counts_and_order():
    ds, thetas = build_dataset(EnvKind.SLIDE_BRICK, per_theta_success=1, per_theta_fail=10)
    assert len(ds) == len(thetas)
    assert len(ds.by_object) == 13
    for oid, idxs in ds.by_object.items():
        assert ds.tuples[idxs[0]].success, oid  # success first per object
        fails = [i for i in idxs if not ds.tuples[i].success]
        assert len(fails) <= 10
        assert len(fails) >= 1
    ds.validate()


def test_build_dataset_discrete_fail_pool():
    # one wrong mode exists; the pool cycles, so every failure repeats it
    ds, _ = build_dataset(EnvKind.OPEN_BOX, per_theta_success=1, per_theta_fail=10)
    assert len(ds) == 2 * (1 + 10)
    for idxs in ds.by_object.values():
        assert [ds.tuples[i].success for i in idxs] == [True] + [False] * 10
        fail_bytes = {ds.tuples[i].video.pixels.tobytes() for i in idxs[1:]}
        assert len(fail_bytes) == 1


def test_build_dataset_deterministic():
    a, thetas_a = build_dataset(EnvKind.PUSH_BAR, seed=7)
    b, thetas_b = build_dataset(EnvKind.PUSH_BAR, seed=7)
    assert thetas_a == thetas_b
    assert len(a) == len(b)
    for ta, tb in zip(a.tuples, b.tuples):
        assert ta.object_id == tb.object_id
        assert ta.success == tb.success
        assert ta.video.pixels.tobytes() == tb.video.pixels.tobytes()

    c, _ = build_dataset(EnvKind.PUSH_BAR, seed=8)
    order_a = [t.object_id + str(t.success) for t in a.tuples]
    order_c = [t.object_id + str(t.success) for t in c.tuples]
    assert order_a == order_c  # layout fixed; only failure sampling varies


def test_build_dataset_validation():
    with pytest.raises(ValueError, match="per_theta_success"):
        build_dataset(EnvKind.PUSH_BAR, per_theta_success=0)
    with pytest.raises(ValueError, match="per_theta_fail"):
        build_dataset(EnvKind.OPEN_BOX, per_theta_fail=-3)


def test_subsample_keeps_first_success():
    ds, thetas = build_dataset(EnvKind.SLIDE_BRICK)
    sub, sub_thetas = subsample_dataset(ds, thetas, 0.28, seed=3)
    assert len(sub) < len(ds)
    assert len(sub) == len(sub_thetas)
    assert set(sub.by_object) == set(ds.by_object)
    sub.validate()
    for oid, idxs in sub.by_object.items():
        assert sub.tuples[idxs[0]].success, oid

    same, same_thetas = subsample_dataset(ds, thetas, 1.0)
    assert len(same) == len(ds)
    assert same_thetas == thetas

    with pytest.raises(ValueError):
        subsample_dataset(ds, thetas, 0.0)
    with pytest.raises(ValueError):
        subsample_dataset(ds, thetas, 1.5)


def test_subsample_fraction_size():
    ds, thetas = build_dataset(EnvKind.PUSH_BAR)
    sub, _ = subsample_dataset(ds, thetas, 0.5, seed=0)
    # per object: 1 success + round(0.5 * 10) of the rest
    assert len(sub) == 24 * (1 + 5)
    sub2, _ = subsample_dataset(ds, thetas, 0.5, seed=0)
    assert [t.object_id for t in sub2.tuples] == [t.object_id for t in sub.tuples]
