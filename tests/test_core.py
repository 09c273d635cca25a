"""Video container, ISEV wire format, and similarity metrics."""

import io
import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replan import (
    EnvInstance,
    ExperimentConfig,
    Video,
    VideoFormatError,
    build_task_assets,
    load_dataset,
    pixel_l2,
    psnr,
    read_video,
    reset,
    save_dataset,
    ssim,
    video_mse,
    write_video,
)
from replan.core import PSNR_CAP_DB, ExperienceDataset, ExperienceTuple, load_video, save_video


def const_video(value, shape=(2, 8, 8)):
    return Video(np.full(shape, value, dtype=np.float32))


# ---------------------------------------------------------------------------
# Container contract

def test_video_contract():
    v = const_video(0.5)
    assert v.length == 2 and v.height == 8 and v.width == 8
    assert v.pixels.dtype == np.float32
    assert not v.pixels.flags.writeable
    with pytest.raises(ValueError):
        v.pixels[0, 0, 0] = 1.0


def test_video_rejects_bad_pixels():
    with pytest.raises(VideoFormatError):
        Video(np.full((2, 4, 4), 1.5, dtype=np.float32))
    with pytest.raises(VideoFormatError):
        Video(np.full((2, 4, 4), -0.1, dtype=np.float32))
    bad = np.zeros((2, 4, 4), dtype=np.float32)
    bad[0, 0, 0] = np.nan
    with pytest.raises(VideoFormatError):
        Video(bad)
    with pytest.raises(VideoFormatError):
        Video(np.zeros((4, 4), dtype=np.float32))
    with pytest.raises(VideoFormatError):
        Video(np.zeros((0, 4, 4), dtype=np.float32))


def test_with_first_frame_is_bit_exact():
    v = const_video(0.25)
    frame = np.random.default_rng(0).random((8, 8)).astype(np.float32)
    out = v.with_first_frame(frame)
    assert out.pixels[0].tobytes() == frame.tobytes()
    assert out.pixels[1].tobytes() == v.pixels[1].tobytes()
    with pytest.raises(VideoFormatError):
        v.with_first_frame(np.zeros((4, 4), dtype=np.float32))


def test_with_first_frame_shares_only_byte_equal_frames():
    v = Video(np.zeros((2, 8, 8), dtype=np.float32))
    assert v.with_first_frame(np.zeros((8, 8))) is v  # float64 zeros cast to the same bytes
    assert v.with_first_frame(v.pixels[0].copy()) is v
    # -0.0 == 0.0, but the bytes differ, so the frame is replaced
    negative = v.with_first_frame(np.full((8, 8), -0.0, dtype=np.float32))
    assert negative is not v
    assert negative.pixels[0].tobytes() == np.full((8, 8), -0.0, dtype=np.float32).tobytes()
    assert v.pixels[0].tobytes() == np.zeros((8, 8), dtype=np.float32).tobytes()
    other = v.with_first_frame(np.full((8, 8), 0.5, dtype=np.float32))
    assert other is not v and (other.pixels[0] == 0.5).all()


# ---------------------------------------------------------------------------
# ISEV wire format

def test_isev_frozen_size():
    # header 20 bytes: magic + u32 version,T,H,W; payload 8*32*32 float32
    v = Video(np.zeros((8, 32, 32), dtype=np.float32))
    buf = io.BytesIO()
    n = write_video(v, buf)
    assert n == 20 + 8 * 32 * 32 * 4 == 32788
    assert len(buf.getvalue()) == 32788
    assert buf.getvalue()[:4] == b"ISEV"
    assert struct.unpack("<IIII", buf.getvalue()[4:20]) == (1, 8, 32, 32)


@settings(max_examples=30, deadline=None)
@given(
    t=st.integers(1, 4),
    h=st.integers(1, 12),
    w=st.integers(1, 12),
    seed=st.integers(0, 2**31),
)
def test_isev_roundtrip(t, h, w, seed):
    rng = np.random.default_rng(seed)
    v = Video(rng.random((t, h, w), dtype=np.float32))
    buf = io.BytesIO()
    write_video(v, buf)
    buf.seek(0)
    back = read_video(buf)
    assert back.pixels.tobytes() == v.pixels.tobytes()
    assert back.pixels.shape == (t, h, w)


def test_isev_malformed():
    v = Video(np.zeros((1, 4, 4), dtype=np.float32))
    buf = io.BytesIO()
    write_video(v, buf)
    raw = buf.getvalue()

    with pytest.raises(VideoFormatError):
        read_video(io.BytesIO(b"JUNK" + raw[4:]))
    with pytest.raises(VideoFormatError):
        read_video(io.BytesIO(raw[:10]))
    with pytest.raises(VideoFormatError):
        read_video(io.BytesIO(raw[:-4]))
    with pytest.raises(VideoFormatError):
        read_video(io.BytesIO(raw + b"\x00"))
    wrong_version = raw[:4] + struct.pack("<IIII", 2, 1, 4, 4) + raw[20:]
    with pytest.raises(VideoFormatError):
        read_video(io.BytesIO(wrong_version))
    zero_dim = raw[:4] + struct.pack("<IIII", 1, 0, 4, 4)
    with pytest.raises(VideoFormatError):
        read_video(io.BytesIO(zero_dim))


def test_isev_file_roundtrip(tmp_path):
    v = Video(np.random.default_rng(3).random((3, 8, 8), dtype=np.float32))
    path = tmp_path / "clip.isev"
    save_video(v, path)
    assert load_video(path).pixels.tobytes() == v.pixels.tobytes()


# ---------------------------------------------------------------------------
# Metrics

def test_mse_and_l2_worked_example():
    # diff of 0.5 on two of four pixels: mse = 2*0.25/4, l2 = sqrt(2*0.25)
    a = Video(np.zeros((1, 2, 2), dtype=np.float32))
    b_px = np.zeros((1, 2, 2), dtype=np.float32)
    b_px[0, 0, :] = 0.5
    b = Video(b_px)
    assert video_mse(a, b) == 0.125
    assert pixel_l2(a, b) == pytest.approx(math.sqrt(0.5))

    c = Video(np.full((1, 2, 2), 0.5, dtype=np.float32))
    assert pixel_l2(a, c) == 1.0
    assert video_mse(a, c) == 0.25


def test_l2_squared_equals_n_times_mse():
    rng = np.random.default_rng(11)
    for _ in range(5):
        a = Video(rng.random((2, 6, 6), dtype=np.float32))
        b = Video(rng.random((2, 6, 6), dtype=np.float32))
        n = a.pixels.size
        assert pixel_l2(a, b) ** 2 == pytest.approx(n * video_mse(a, b), rel=1e-12)


def test_l2_triangle_inequality():
    rng = np.random.default_rng(12)
    a, b, c = (Video(rng.random((2, 5, 5), dtype=np.float32)) for _ in range(3))
    assert pixel_l2(a, c) <= pixel_l2(a, b) + pixel_l2(b, c) + 1e-12


def test_metric_shape_mismatch():
    a = const_video(0.0, (1, 4, 4))
    b = const_video(0.0, (2, 4, 4))
    for fn in (video_mse, pixel_l2, psnr, ssim):
        with pytest.raises(ValueError):
            fn(a, b)


def test_psnr_worked_example():
    # uniform diff 0.1 -> mse 0.01 -> exactly 20 dB
    a = const_video(0.4)
    b = const_video(0.5)
    assert psnr(a, b) == pytest.approx(20.0, rel=1e-6)
    assert psnr(a, a) == 100.0
    assert psnr(const_video(0.0), const_video(1.0)) == pytest.approx(0.0, abs=1e-9)


def test_psnr_cap_and_monotonicity():
    base = np.full((1, 8, 8), 0.5, dtype=np.float32)
    tiny = base.copy()
    tiny[0, 0, 0] += 1e-7
    assert psnr(Video(base), Video(tiny)) == 100.0

    rng = np.random.default_rng(4)
    noise = rng.normal(0, 1, base.shape)
    last = np.inf
    for scale in (0.01, 0.05, 0.2):
        noisy = np.clip(base + scale * noise, 0, 1).astype(np.float32)
        val = psnr(Video(base), Video(noisy))
        assert val < last
        last = val


def test_ssim_identity_and_constant_oracle():
    v = Video(np.random.default_rng(5).random((2, 16, 16), dtype=np.float32))
    assert ssim(v, v) == pytest.approx(1.0, abs=1e-12)

    # all-zero vs all-one: mu products vanish, variances vanish, so
    # every window reduces to C1 / (1 + C1)
    zero, one = const_video(0.0, (1, 8, 8)), const_video(1.0, (1, 8, 8))
    expected = 1e-4 / (1.0 + 1e-4)
    assert ssim(zero, one) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(9.999000099990001e-05, rel=1e-12)


def test_ssim_symmetry_and_range():
    rng = np.random.default_rng(6)
    a = Video(rng.random((2, 12, 12), dtype=np.float32))
    b = Video(rng.random((2, 12, 12), dtype=np.float32))
    assert ssim(a, b) == pytest.approx(ssim(b, a), rel=1e-12)
    assert ssim(a, b) <= 1.0


def test_ssim_rejects_small_frames():
    with pytest.raises(ValueError):
        ssim(const_video(0.1, (1, 4, 4)), const_video(0.2, (1, 4, 4)))


def reference_ssim(a, b):
    """Slow oracle: per-frame loop, five reductions over sliding 8x8 windows."""
    def frame_ssim(fa, fb):
        wa = np.lib.stride_tricks.sliding_window_view(fa, (8, 8))
        wb = np.lib.stride_tricks.sliding_window_view(fb, (8, 8))
        mu_a = wa.mean(axis=(2, 3))
        mu_b = wb.mean(axis=(2, 3))
        var_a = (wa * wa).mean(axis=(2, 3)) - mu_a * mu_a
        var_b = (wb * wb).mean(axis=(2, 3)) - mu_b * mu_b
        cov = (wa * wb).mean(axis=(2, 3)) - mu_a * mu_b
        num = (2.0 * mu_a * mu_b + 1e-4) * (2.0 * cov + 9e-4)
        den = (mu_a * mu_a + mu_b * mu_b + 1e-4) * (var_a + var_b + 9e-4)
        return float(np.mean(num / den))

    pa = a.pixels.astype(np.float64)
    pb = b.pixels.astype(np.float64)
    return float(np.mean([frame_ssim(pa[t], pb[t]) for t in range(pa.shape[0])]))


@settings(max_examples=150, deadline=None)
@given(
    t=st.integers(1, 8),
    h=st.integers(8, 40),
    w=st.integers(8, 40),
    noise=st.sampled_from([None, 1e-6, 1e-3]),
    seed=st.integers(0, 2**31),
)
@example(t=1, h=8, w=8, noise=None, seed=0)
@example(t=3, h=8, w=40, noise=1e-6, seed=1)
@example(t=8, h=32, w=8, noise=1e-3, seed=2)
@example(t=8, h=32, w=32, noise=None, seed=3)
def test_ssim_matches_sliding_window_oracle(t, h, w, noise, seed):
    # noise=None draws an independent pair; otherwise b is a near-copy of a.
    rng = np.random.default_rng(seed)
    a = rng.random((t, h, w), dtype=np.float32)
    if noise is None:
        b = rng.random((t, h, w), dtype=np.float32)
    else:
        b = np.clip(a + rng.normal(0.0, noise, a.shape), 0.0, 1.0).astype(np.float32)
    va, vb = Video(a), Video(b)
    assert ssim(va, vb) == pytest.approx(reference_ssim(va, vb), abs=1e-12, rel=0)


@pytest.mark.parametrize("task", ExperimentConfig().tasks)
def test_byte_equal_shortcut_matches_the_arithmetic(task, monkeypatch):
    # a plan is scored against a ground-truth plan it is often byte-equal to;
    # psnr and ssim then return what their arithmetic gives on (video, copy)
    import replan.core

    assets = build_task_assets(ExperimentConfig(tasks=(task,)), task)
    videos = [*assets.planner.videos, *assets.plans.videos]

    def scores():
        return [(psnr(v, Video(v.pixels.copy())), ssim(v, Video(v.pixels.copy()))) for v in videos]

    shortcut = scores()
    assert set(shortcut) == {(PSNR_CAP_DB, 1.0)}
    monkeypatch.setattr(replan.core, "_same_bytes", lambda a, b: False)
    assert scores() == shortcut


def test_byte_equal_shortcut_needs_equal_bytes_and_shape():
    a = const_video(0.5, (2, 8, 8))
    nudged = a.pixels.copy()
    nudged[1, 3, 3] = 0.75
    b = Video(nudged)
    assert ssim(a, b) < 1.0 and psnr(a, b) == 10 * math.log10(1 / video_mse(a, b))
    for metric in (psnr, ssim):
        # same bytes, other shape: still a shape error
        with pytest.raises(ValueError, match="shape mismatch"):
            metric(a, Video(a.pixels.reshape(2, 4, 16)))


@pytest.mark.parametrize("task", ExperimentConfig().tasks)
def test_ssim_matches_oracle_on_plan_pairs(task):
    # the loop's own pairs: flat backgrounds and identical frame-0 windows give
    # the near-zero variances that random noise never draws
    assets = build_task_assets(ExperimentConfig(), task)
    theta = next(iter(assets.gt_plans))
    first_frame = reset(EnvInstance.create(assets.kind, theta))
    for support in assets.planner.videos:
        plan = support.with_first_frame(first_frame)
        for gt in assets.gt_plans.values():
            assert ssim(plan, gt) == pytest.approx(reference_ssim(plan, gt), abs=1e-12, rel=0)


# ---------------------------------------------------------------------------
# Experience datasets

def _toy_tuples():
    rng = np.random.default_rng(7)
    vids = [Video(rng.random((2, 8, 8), dtype=np.float32)) for _ in range(4)]
    return (
        ExperienceTuple(vids[0], "task/a", True),
        ExperienceTuple(vids[1], "task/a", False),
        ExperienceTuple(vids[2], "task/b", True),
        ExperienceTuple(vids[3], "task/b", False),
    )


def test_dataset_index_and_validate():
    ds = ExperienceDataset(_toy_tuples())
    assert ds.by_object == {"task/a": (0, 1), "task/b": (2, 3)}
    assert sum(t.success for t in ds.tuples) == 2
    ds.validate()

    no_success = ExperienceDataset(tuple(
        ExperienceTuple(t.video, t.object_id, False) for t in _toy_tuples()
    ))
    with pytest.raises(ValueError):
        no_success.validate()


def test_dataset_save_load_roundtrip(tmp_path):
    tuples = _toy_tuples()
    thetas = [0.15, 0.15, "slide", "slide"]
    manifest = save_dataset(tmp_path / "ds", "toy", tuples, thetas)
    assert manifest.name == "manifest.json"
    back, env, back_thetas = load_dataset(tmp_path / "ds")
    assert env == "toy"
    assert back_thetas == thetas
    assert len(back) == 4
    for a, b in zip(back.tuples, tuples):
        assert a.object_id == b.object_id
        assert a.success == b.success
        assert a.video.pixels.tobytes() == b.video.pixels.tobytes()
