"""Dataset assembly from scripted successes and wrong-hypothesis failures."""

import numpy as np
import pytest

import replan.datasets
from replan import (
    EnvInstance,
    EnvKind,
    ExperienceDataset,
    ExperienceTuple,
    Video,
    build_dataset,
    candidate_actions,
    execute,
    failing_actions,
    hidden_values,
    load_dataset,
    save_dataset,
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
    fails = failing_actions(EnvKind.PUSH_BAR, 0.0, candidate_actions(EnvKind.PUSH_BAR))
    assert len(fails) == 24 - 5
    assert all(abs(a.value) > 0.03 for a in fails)

    fails = failing_actions(EnvKind.OPEN_BOX, "lift", candidate_actions(EnvKind.OPEN_BOX))
    assert [a.value for a in fails] == ["slide"]

    env = EnvInstance(EnvKind.SLIDE_BRICK, 0.32)
    fails = failing_actions(EnvKind.SLIDE_BRICK, 0.32, candidate_actions(EnvKind.SLIDE_BRICK))
    for action in fails:
        assert not execute(env, action).success
    hits = len(candidate_actions(EnvKind.SLIDE_BRICK)) - len(fails)
    assert hits >= 1  # at least its own scripted action succeeds


def test_dataset_builds_the_hypothesis_set_once(monkeypatch):
    import replan.datasets

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
        hypotheses = candidate_actions(kind)
        for theta in hidden_values(kind):
            failing_actions(kind, theta, hypotheses)
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
        dataset = build_dataset(kind, per_theta_fail=10)
        assert len(executed) == len(set(executed))
        hypotheses = candidate_actions(kind)
        pools = {theta: len(failing_actions(kind, theta, hypotheses))
                 for theta in hidden_values(kind)}
        assert len(executed) == sum(1 + min(10, pool) for pool in pools.values())
        for theta, pool in pools.items():
            fails = [item.video for item in dataset.tuples
                     if item.object_id == envs.object_id(kind, theta) and not item.success]
            assert len(fails) == (10 if pool else 0)
            assert len({id(video) for video in fails}) == min(10, pool)


def test_build_dataset_counts_and_order():
    ds = build_dataset(EnvKind.SLIDE_BRICK, per_theta_success=1, per_theta_fail=10)
    assert list(ds.by_object) == [envs.object_id(EnvKind.SLIDE_BRICK, theta)
                                  for theta in hidden_values(EnvKind.SLIDE_BRICK)]
    for oid, idxs in ds.by_object.items():
        assert ds.tuples[idxs[0]].success, oid  # success first per object
        fails = [i for i in idxs if not ds.tuples[i].success]
        assert len(fails) <= 10
        assert len(fails) >= 1
        assert ds.canonical_entry[oid] == idxs[0]


def test_build_dataset_discrete_fail_pool():
    # one wrong mode exists; the pool cycles, so every failure repeats it
    ds = build_dataset(EnvKind.OPEN_BOX, per_theta_success=1, per_theta_fail=10)
    assert len(ds) == 2 * (1 + 10)
    for idxs in ds.by_object.values():
        assert [ds.tuples[i].success for i in idxs] == [True] + [False] * 10
        fail_bytes = {ds.tuples[i].video.pixels.tobytes() for i in idxs[1:]}
        assert len(fail_bytes) == 1


def test_build_dataset_deterministic():
    a = build_dataset(EnvKind.PUSH_BAR, seed=7)
    b = build_dataset(EnvKind.PUSH_BAR, seed=7)
    assert len(a) == len(b)
    for ta, tb in zip(a.tuples, b.tuples):
        assert ta.object_id == tb.object_id
        assert ta.success == tb.success
        assert ta.video.pixels.tobytes() == tb.video.pixels.tobytes()

    c = build_dataset(EnvKind.PUSH_BAR, seed=8)
    order_a = [t.object_id + str(t.success) for t in a.tuples]
    order_c = [t.object_id + str(t.success) for t in c.tuples]
    assert order_a == order_c  # layout fixed; only failure sampling varies


def test_build_dataset_validation():
    with pytest.raises(ValueError, match="per_theta_success"):
        build_dataset(EnvKind.PUSH_BAR, per_theta_success=0)
    with pytest.raises(ValueError, match="per_theta_fail"):
        build_dataset(EnvKind.OPEN_BOX, per_theta_fail=-3)


def test_subsample_keeps_first_success():
    ds = build_dataset(EnvKind.SLIDE_BRICK)
    sub = subsample_dataset(ds, 0.28, seed=3)
    assert len(sub) < len(ds)
    assert set(sub.by_object) == set(ds.by_object)
    for oid, idxs in sub.by_object.items():
        assert sub.tuples[idxs[0]].success, oid
        assert sub.canonical_entry[oid] == idxs[0]
        assert sub.tuples[idxs[0]] is ds.tuples[ds.canonical_entry[oid]]

    assert subsample_dataset(ds, 1.0) is ds

    with pytest.raises(ValueError):
        subsample_dataset(ds, 0.0)
    with pytest.raises(ValueError):
        subsample_dataset(ds, 1.5)


def test_subsample_fraction_size():
    ds = build_dataset(EnvKind.PUSH_BAR)
    sub = subsample_dataset(ds, 0.5, seed=0)
    # per object: 1 success + round(0.5 * 10) of the rest
    assert len(sub) == 24 * (1 + 5)
    sub2 = subsample_dataset(ds, 0.5, seed=0)
    assert [t.object_id for t in sub2.tuples] == [t.object_id for t in sub.tuples]


def _toy(spec):
    """One distinct 2-frame clip per (object_id, success) of ``spec``."""
    return tuple(ExperienceTuple(Video(np.full((2, 8, 8), i / 10, dtype=np.float32)), oid, ok)
                 for i, (oid, ok) in enumerate(spec))


# "b" fails first, so its first success is not its first entry; "c" never succeeds
TOY = (("a", True), ("b", False), ("a", False), ("b", True), ("b", True), ("a", False))
EMPTY = "^an experience dataset needs at least one tuple$"


@pytest.mark.parametrize("way", ["direct", "build_dataset", "subsample_dataset",
                                 "load_dataset"])
def test_each_way_a_dataset_is_made_checks_it(way, tmp_path, monkeypatch):
    # every dataset refuses to exist empty or with a success-less object, and records
    # each object's first success, however it was made
    def loaded(tuples):
        save_dataset(tmp_path / "ds", "toy", tuples)
        return load_dataset(tmp_path / "ds")

    makers = {"direct": ExperienceDataset, "load_dataset": loaded,
              "subsample_dataset": lambda tuples: subsample_dataset(
                  ExperienceDataset(tuples), 0.5, seed=1)}
    no_c, empty = "^object 'c' has no successful tuple$", EMPTY
    if way == "load_dataset":  # read_manifest refuses both before any video is read
        no_c, empty = "object 'c' has no entry whose field 'success' is true$", "no entries$"
    if way == "build_dataset":
        dataset = build_dataset(EnvKind.OPEN_BOX)
        bad = envs.object_id(EnvKind.OPEN_BOX, "slide")
        with monkeypatch.context() as patch:  # a build that labels every slide rollout failed
            patch.setattr(replan.datasets, "ExperienceTuple", lambda video, oid, success:
                          ExperienceTuple(video, oid, success and oid != bad))
            with pytest.raises(ValueError, match=f"^object {bad!r} has no successful tuple$"):
                build_dataset(EnvKind.OPEN_BOX)
        monkeypatch.setattr(replan.datasets, "hidden_values", lambda kind: [])
        with pytest.raises(ValueError, match=EMPTY):
            build_dataset(EnvKind.OPEN_BOX)
    else:
        dataset = makers[way](_toy(TOY))
        assert dataset.canonical_entry["b"] > dataset.by_object["b"][0]
        with pytest.raises(ValueError, match=no_c):
            makers[way](_toy(TOY + (("c", False),)))
        with pytest.raises(ValueError, match=empty):
            makers[way](())
    for oid, idxs in dataset.by_object.items():
        first = next(i for i in idxs if dataset.tuples[i].success)
        assert dataset.canonical_entry[oid] == first
    assert list(dataset.canonical_entry) == list(dataset.by_object)


def test_subsample_output_is_checked():
    # a subsample that dropped an object's only success could not be built
    dataset = ExperienceDataset(_toy(TOY))
    object.__setattr__(dataset, "canonical_entry", {"a": 0, "b": 1})  # b's first entry fails
    with pytest.raises(ValueError, match="^object 'b' has no successful tuple$"):
        subsample_dataset(dataset, 0.1)
