"""Video container, ISEV wire format, and similarity metrics."""

import io
import json
import math
import re
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import replan
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
from replan.core import (
    PSNR_CAP_DB,
    ExperienceDataset,
    ExperienceTuple,
    _window_band,
    held_ssim,
    load_video,
    save_video,
    window_means,
    window_moments,
)


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


# a version-1 header whose dimensions claim about 1.1 PB, or more than fits a C size, of
# pixels, followed by 64 bytes: a reader that asks the stream for the claimed size first
# raises MemoryError or OverflowError
HUGE_HEADERS = {"2^16 - 1": (65535, 65535, 65535), "2^32 - 1": (2**32 - 1,) * 3}


@pytest.mark.parametrize("dims", HUGE_HEADERS)
def test_a_header_claiming_more_than_the_stream_holds_is_truncated(tmp_path, dims):
    raw = b"ISEV" + struct.pack("<IIII", 1, *HUGE_HEADERS[dims]) + bytes(64)
    path = tmp_path / "clip.isev"
    path.write_bytes(raw)
    for read in (lambda: read_video(io.BytesIO(raw)), lambda: load_video(path)):
        with pytest.raises(VideoFormatError, match="^truncated ISEV payload$"):
            read()


def test_a_corrupt_dataset_clip_is_named(tmp_path):
    tuples = _toy_tuples()
    save_dataset(tmp_path / "ds", "toy", tuples)
    clip = tmp_path / "ds" / json.loads((tmp_path / "ds" / "manifest.json").read_text())[
        "entries"][2]["video"]
    clip.write_bytes(b"ISEV" + struct.pack("<IIII", 1, *HUGE_HEADERS["2^16 - 1"]) + bytes(64))
    with pytest.raises(VideoFormatError, match=f"^{re.escape(str(clip))}: truncated ISEV payload$"):
        load_dataset(tmp_path / "ds")


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
def test_byte_equal_shortcut_matches_the_arithmetic(task):
    # a plan is scored against a ground-truth plan it is often byte-equal to, and the
    # loop scores a row against itself as 1.0 without a product map: what psnr's and
    # ssim's arithmetic, which has no shortcut, gives on (video, copy)
    assets = build_task_assets(ExperimentConfig(tasks=(task,)), task)
    videos = [*assets.planner.videos, *assets.plans.videos]
    scores = {(psnr(v, Video(v.pixels.copy())), ssim(v, Video(v.pixels.copy()))) for v in videos}
    assert scores == {(PSNR_CAP_DB, 1.0)}


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
    theta = next(iter(assets.gt_rows))
    first_frame = reset(EnvInstance(assets.kind, theta))
    for support in assets.planner.videos:
        plan = support.with_first_frame(first_frame)
        for gt in (assets.plans.videos[row] for row in assets.gt_rows.values()):
            assert ssim(plan, gt) == pytest.approx(reference_ssim(plan, gt), abs=1e-12, rel=0)


def four_map_ssim(a, b):
    """The pre-moment arithmetic: the four window-moment maps of both clips in one pair
    of products, with the two variances taken as one map W(a^2 + b^2) - mu_a^2 - mu_b^2."""
    t, h, w = a.pixels.shape
    if a.pixels.tobytes() == b.pixels.tobytes():
        return 1.0
    band = _window_band(max(h, w))
    maps = np.empty((4, t, h, w))
    maps[0], maps[1] = a.pixels, b.pixels
    np.square(maps[:2]).sum(axis=0, out=maps[2])
    np.multiply(maps[0], maps[1], out=maps[3])
    rows = (maps.reshape(-1, w) @ band[:w, : w - 7]).reshape(4 * t, h, -1)
    means = rows.transpose(0, 2, 1).reshape(-1, h) @ band[:h, : h - 7]
    mu_a, mu_b, e_sq, e_ab = means.reshape(4, t, -1)
    mu_ab = mu_a * mu_b
    mu_sq = mu_a * mu_a + mu_b * mu_b
    num = (2.0 * mu_ab + 1e-4) * (2.0 * (e_ab - mu_ab) + 9e-4)
    den = (mu_sq + 1e-4) * (e_sq - mu_sq + 9e-4)
    return float(np.mean(np.mean(num / den, axis=1)))


def moment_ssim(a, b):
    """Bit-level oracle of the moment arithmetic: each of W(a), W(a^2), W(b), W(b^2) and
    W(ab) is one (T, H, W) map through the band products, written out here."""
    t, h, w = a.pixels.shape
    if a.pixels.tobytes() == b.pixels.tobytes():
        return 1.0
    band = _window_band(max(h, w))

    def windows(frames):
        rows = (frames.reshape(-1, w) @ band[:w, : w - 7]).reshape(t, h, -1)
        return (rows.transpose(0, 2, 1).reshape(-1, h) @ band[:h, : h - 7]).reshape(t, -1)

    pa, pb = a.pixels.astype(np.float64), b.pixels.astype(np.float64)
    mu_a, mu_b = windows(pa), windows(pb)
    var_a, var_b = windows(pa * pa) - mu_a * mu_a, windows(pb * pb) - mu_b * mu_b
    cov = windows(pa * pb) - mu_a * mu_b
    num = (2.0 * (mu_a * mu_b) + 1e-4) * (2.0 * cov + 9e-4)
    den = (mu_a * mu_a + mu_b * mu_b + 1e-4) * (var_a + var_b + 9e-4)
    return float(np.mean(np.mean(num / den, axis=1)))


def plan_pairs():
    """(task, assets, plan index, theta) of every pair the loop can score, on all five tasks."""
    for task in ExperimentConfig().tasks:
        assets = build_task_assets(ExperimentConfig(tasks=(task,)), task)
        for i in range(len(assets.plans.videos)):
            for theta in assets.gt_rows:
                yield task, assets, i, theta


def ssim_bit_mismatches():
    """Plan pairs of all five tasks where ``held_ssim`` on the plan table's holds (in
    either order, as the loop keys a pair unordered), ``ssim`` and ``moment_ssim`` differ
    in any bit, and plan-table holds that are not the row's float64 pixels and
    ``window_moments``."""
    bad = []
    for task, assets, i, theta in plan_pairs():
        plans, row = assets.plans, assets.gt_rows[theta]
        gt = plans.videos[row]
        plan, (wide, moments) = plans.videos[i], plans.holds[i]
        if (wide.tobytes() != plan.pixels.astype(np.float64).tobytes()
                or moments.tobytes() != window_moments(plan.pixels).tobytes()):
            bad.append(f"{task} hold {i}")
        scores = (held_ssim(plans.holds[i], plans.holds[row]),
                  held_ssim(plans.holds[row], plans.holds[i]), ssim(plan, gt),
                  moment_ssim(plan, gt))
        if len({struct.pack("<d", score) for score in scores}) != 1:
            bad.append(f"{task} plan {i} theta {theta}: {scores}")
    return bad


def test_ssim_is_bit_equal_to_the_moment_oracle_across_blas_threads():
    # fresh processes under 1 and 2 threads, as test_demo_prints_the_recorded_bytes runs
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
    script = "import json, test_core as t; print(json.dumps(t.ssim_bit_mismatches()))"
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [str(src), str(tests),
                                                           os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-c", script], env=env, check=True,
                             capture_output=True, text=True, timeout=300).stdout
        assert json.loads(out.splitlines()[-1]) == [], threads


def test_moment_ssim_differs_from_the_four_map_form_by_rounding_only():
    # the variances as two moments, not one a^2 + b^2 map: every pair the loop can
    # score lands within 2.3e-16 of the old arithmetic
    def gap(plans, i, gt):
        held = held_ssim(plans.holds[i], plans.holds[gt])
        return abs(held - four_map_ssim(plans.videos[i], plans.videos[gt]))

    gaps = [gap(assets.plans, i, assets.gt_rows[theta]) for _, assets, i, theta in plan_pairs()]
    assert len(gaps) == 1329
    assert max(gaps) <= 2.3e-16


@pytest.mark.parametrize("shape", [(1, 8, 8), (2, 9, 10), (3, 16, 12), (5, 11, 27), (8, 32, 32)])
def test_held_moment_ssim_is_the_moment_oracle_on_random_clips(shape):
    # random clips reach windows no plan pair has; the in-place tail must give the
    # oracle's bits in either order (TaskAssets.ssims keys a pair unordered) and leave
    # the holds alone
    rng = np.random.default_rng(sum(shape))
    a = Video(rng.random(shape, dtype=np.float32))
    others = [Video(rng.random(shape, dtype=np.float32)),
              Video(np.clip(a.pixels + 0.01 * rng.standard_normal(shape), 0, 1)),
              const_video(0.5, shape),
              Video(a.pixels.copy())]  # byte-equal: exactly 1.0 by the arithmetic
    for b in others:
        hold_a, hold_b = ((x, window_moments(x)) for x in (a.pixels.astype(np.float64),
                                                           b.pixels.astype(np.float64)))
        held = [array.tobytes() for array in (*hold_a, *hold_b)]
        scores = (held_ssim(hold_a, hold_b), ssim(a, b), moment_ssim(a, b),
                  held_ssim(hold_b, hold_a), ssim(b, a))
        assert len({struct.pack("<d", score) for score in scores}) == 1, scores
        assert [array.tobytes() for array in (*hold_a, *hold_b)] == held
    assert ssim(a, others[-1]) == 1.0 and ssim(a, others[0]) < 1.0


def test_ssim_rejects_moments_of_another_shape():
    a, b = const_video(0.2, (2, 9, 10)), const_video(0.4, (2, 9, 10))
    assert window_moments(a.pixels).shape == (3, 2, 6)
    hold_a, hold_b = ((v.pixels.astype(np.float64), window_moments(v.pixels)) for v in (a, b))
    assert held_ssim(hold_a, hold_b) == ssim(a, b)
    message = (r"an ssim hold must be pixels of shape \(2, 9, 10\) and window moments of "
               r"shape \(3, 2, 6\)")
    with pytest.raises(ValueError, match=message):
        held_ssim(hold_a, (hold_b[0], hold_b[1][:, :1]))
    with pytest.raises(ValueError, match=message):
        held_ssim((hold_a[0], window_means(a.pixels)), hold_b)  # means are not moments
    with pytest.raises(ValueError, match=message):
        held_ssim(hold_a, (hold_b[0][:1], hold_b[1]))  # pixels of another clip


def test_window_moments_are_window_mean_and_variance():
    rng = np.random.default_rng(11)
    pixels = rng.random((3, 10, 12), dtype=np.float32)
    mu, square, var = window_moments(pixels)
    windows = np.lib.stride_tricks.sliding_window_view(pixels.astype(np.float64), (8, 8),
                                                       axis=(1, 2))
    # window_means lists each frame's windows column-major
    expected_mu = windows.mean(axis=(3, 4)).transpose(0, 2, 1).reshape(3, -1)
    expected_var = windows.var(axis=(3, 4)).transpose(0, 2, 1).reshape(3, -1)
    assert mu.tobytes() == window_means(pixels).tobytes()
    assert square.tobytes() == (mu * mu).tobytes()
    assert np.allclose(mu, expected_mu, rtol=0, atol=1e-15)
    assert np.allclose(var, expected_var, rtol=0, atol=1e-15)


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
    # a dataset validates itself on construction
    ds = ExperienceDataset(_toy_tuples())
    assert ds.by_object == {"task/a": (0, 1), "task/b": (2, 3)}
    assert ds.canonical_entry == {"task/a": 0, "task/b": 2}
    assert sum(t.success for t in ds.tuples) == 2

    no_success = tuple(ExperienceTuple(t.video, t.object_id, t.object_id == "task/a")
                       for t in _toy_tuples())
    with pytest.raises(ValueError, match="^object 'task/b' has no successful tuple$"):
        ExperienceDataset(no_success)
    with pytest.raises(ValueError, match="^an experience dataset needs at least one tuple$"):
        ExperienceDataset(())


@pytest.mark.parametrize("theta", [None, True, "slide", 0.15])
def test_a_stale_theta_in_a_manifest_entry_is_ignored(tmp_path, theta):
    # manifests written before entries dropped theta still load, whatever it holds
    tuples = _toy_tuples()
    path = save_dataset(tmp_path / "ds", "toy", tuples)
    manifest = json.loads(path.read_text())
    for entry in manifest["entries"]:
        entry["theta"] = theta
    path.write_text(json.dumps(manifest))
    back = load_dataset(tmp_path / "ds")
    assert [(t.object_id, t.success) for t in back.tuples] == [
        (t.object_id, t.success) for t in tuples]


def test_dataset_save_load_roundtrip(tmp_path):
    tuples = _toy_tuples()
    manifest = save_dataset(tmp_path / "ds", "toy", tuples)
    assert manifest.name == "manifest.json"
    assert json.loads(manifest.read_text())["env"] == "toy"
    back = load_dataset(tmp_path / "ds")
    assert len(back) == 4
    for a, b in zip(back.tuples, tuples):
        assert a.object_id == b.object_id
        assert a.success == b.success
        assert a.video.pixels.tobytes() == b.video.pixels.tobytes()


def _never(*args, **kwargs):
    raise AssertionError("bad input reached a render or an encode")


def _tiny_table():
    from replan import EmbeddingTable, PcaProjection

    return EmbeddingTable(("o",), np.ones((1, 2)), np.ones((1, 2)), np.zeros(1, dtype=np.int64),
                          PcaProjection(mean=np.zeros(2), components=np.eye(2)))


BAD_OPTIONS = [  # (the field the error names, its value, a call that passes it)
    ("build_dataset's per_theta_success", True,
     lambda v: replan.build_dataset(replan.EnvKind.OPEN_BOX, per_theta_success=v)),
    ("build_dataset's per_theta_success", 1.5,
     lambda v: replan.build_dataset(replan.EnvKind.OPEN_BOX, per_theta_success=v)),
    ("build_dataset's per_theta_fail", np.float64(2.0),
     lambda v: replan.build_dataset(replan.EnvKind.OPEN_BOX, per_theta_fail=v)),
    ("build_dataset's seed", -1, lambda v: replan.build_dataset(replan.EnvKind.OPEN_BOX, seed=v)),
    ("build_dataset's seed", "0", lambda v: replan.build_dataset(replan.EnvKind.OPEN_BOX, seed=v)),
    ("subsample_dataset's fraction", True,
     lambda v: replan.subsample_dataset(ExperienceDataset(_toy_tuples()), v)),
    ("subsample_dataset's fraction", 1.5,
     lambda v: replan.subsample_dataset(ExperienceDataset(_toy_tuples()), v)),
    ("subsample_dataset's seed", 0.5,
     lambda v: replan.subsample_dataset(ExperienceDataset(_toy_tuples()), 0.5, seed=v)),
    ("pca_fit's k", True, lambda v: replan.pca_fit(np.eye(4), v)),
    ("pca_fit's k", 2.0, lambda v: replan.pca_fit(np.eye(4), v)),
    ("interaction_logits's metric", "L2",
     lambda v: replan.interaction_logits(_tiny_table(), const_video(0.5), v, encoder=_never)),
    ("build_task_assets's task", "bogus",
     lambda v: build_task_assets(ExperimentConfig(tasks=("openbox",)), v)),
    ("ExperimentConfig.rejection_metric", "RAW_PIXEL",
     lambda v: ExperimentConfig(rejection_metric=v)),
    ("ExperimentConfig.tau", np.float64(-1.0), lambda v: ExperimentConfig(tau=v)),
    ("ExperimentConfig.trials", np.bool_(True), lambda v: ExperimentConfig(trials=v)),
]


@pytest.mark.parametrize("field, value, call", BAD_OPTIONS,
                         ids=[f"{field}={value!r}" for field, value, _ in BAD_OPTIONS])
def test_a_bad_option_is_named_before_any_render_or_encode(field, value, call, monkeypatch):
    # one rule per kind of option, in core: an enum name, an integer, a number in a range
    import replan.datasets
    import replan.loop

    for module in (replan.datasets, replan.loop):
        monkeypatch.setattr(module, "execute", _never)
    monkeypatch.setattr(replan.loop, "encode_video", _never)
    with pytest.raises(ValueError, match=rf"^{re.escape(field)} must be .*, got "
                                         rf"{re.escape(repr(value))}$"):
        call(value)
