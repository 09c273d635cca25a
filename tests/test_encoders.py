"""Block-average features and the PCA projection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from replan import (
    EnvInstance,
    EnvKind,
    Video,
    default_pca_k,
    encode_video,
    execute,
    hidden_values,
    pca_apply,
    pca_fit,
    scripted_action,
)


def reference_encode_video(video):
    """Slow oracle: strided reshape, then the mean over each 4x4 block."""
    t = video.length
    return video.pixels.astype(np.float64).reshape(t, 8, 4, 8, 4).mean(axis=(2, 4)).reshape(-1)


def encode_frame(frame):
    """One frame's 64 row-major block features, as ``encode_video`` gives a one-frame clip."""
    return encode_video(Video(np.asarray(frame, dtype=np.float32)[None]))


def test_encode_frame_single_pixel():
    frame = np.zeros((32, 32), dtype=np.float32)
    frame[9, 18] = 1.0
    feats = encode_frame(frame)
    assert feats.shape == (64,)
    # pixel (9, 18) lives in block (2, 4); blocks are row-major
    idx = (9 // 4) * 8 + 18 // 4
    assert feats[idx] == 0.0625
    assert feats.sum() == 0.0625


def test_encode_frame_shape_check():
    with pytest.raises(ValueError, match="expected 32x32 frames, got 16x16"):
        encode_frame(np.zeros((16, 16)))


def test_encode_video_concat_order():
    pixels = np.zeros((2, 32, 32), dtype=np.float32)
    pixels[1, 0, 0] = 1.0
    feats = encode_video(Video(pixels))
    assert feats.shape == (128,)
    assert feats[:64].sum() == 0.0
    assert feats[64] == 0.0625

    f0 = encode_frame(pixels[0])
    f1 = encode_frame(pixels[1])
    assert np.array_equal(feats, np.concatenate([f0, f1]))


@settings(max_examples=200, deadline=None)
@given(t=st.integers(1, 8), spread=st.integers(0, 149), seed=st.integers(0, 2**32 - 1))
def test_encode_video_matches_reshape_oracle(t, spread, seed):
    # pixels spread over up to `spread` binades below 1, subnormals included, so
    # block sums round: equal bytes need the oracle's order of additions
    rng = np.random.default_rng(seed)
    scale = np.exp2(-rng.integers(0, spread + 1, (t, 32, 32)).astype(np.float64))
    video = Video((rng.random((t, 32, 32)) * scale).astype(np.float32))
    feats = encode_video(video)
    assert feats.tobytes() == reference_encode_video(video).tobytes()
    frames = np.concatenate([encode_frame(frame) for frame in video.pixels])
    assert frames.tobytes() == feats.tobytes()


def test_encode_video_matches_oracle_on_every_rollout():
    for kind in EnvKind:
        for theta in hidden_values(kind):
            env = EnvInstance(kind, theta)
            video = execute(env, scripted_action(env)).video
            assert encode_video(video).tobytes() == reference_encode_video(video).tobytes(), (kind, theta)


def test_pca_matches_eigendecomposition():
    rng = np.random.default_rng(21)
    for trial in range(20):
        n, d = int(rng.integers(5, 40)), int(rng.integers(3, 10))
        x = rng.normal(size=(n, d)) @ np.diag(rng.uniform(0.1, 3.0, d))
        k = min(3, d, n - 1)
        proj = pca_fit(x, k)

        cov = np.cov(x, rowvar=False, ddof=1)
        evals, evecs = np.linalg.eigh(cov)
        order = np.argsort(evals)[::-1]
        expected = evecs[:, order[:k]].T
        for i in range(k):
            # eigenvectors match up to sign; align to the fitted convention
            if np.dot(expected[i], proj.components[i]) < 0:
                expected[i] = -expected[i]
            assert np.allclose(expected[i], proj.components[i], atol=1e-6), trial


def test_pca_orthonormal_and_signed():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(30, 12))
    proj = pca_fit(x, 5)
    gram = proj.components @ proj.components.T
    assert np.allclose(gram, np.eye(5), atol=1e-8)
    for row in proj.components:
        assert row[np.argmax(np.abs(row))] > 0
    refit = pca_fit(x, 5)
    assert np.array_equal(refit.components, proj.components)
    assert np.array_equal(refit.mean, proj.mean)


def test_pca_validation():
    x = np.zeros((3, 4))
    with pytest.raises(ValueError):
        pca_fit(x, 3)  # k > n - 1
    with pytest.raises(ValueError):
        pca_fit(x, 0)
    with pytest.raises(ValueError):
        pca_fit(np.zeros((1, 4)), 1)
    with pytest.raises(ValueError):
        pca_fit(np.zeros(4), 1)
    proj = pca_fit(np.random.default_rng(0).normal(size=(5, 4)), 2)
    with pytest.raises(ValueError):
        pca_apply(proj, np.zeros(5))


def test_pca_apply_batch_and_center():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(15, 8))
    proj = pca_fit(x, 3)
    batch = pca_apply(proj, x)
    assert batch.shape == (15, 3)
    for i in (0, 7, 14):
        assert np.allclose(batch[i], pca_apply(proj, x[i]), atol=1e-12)
    assert np.allclose(pca_apply(proj, proj.mean), 0.0, atol=1e-12)
    # projected training data is centered
    assert np.allclose(batch.mean(axis=0), 0.0, atol=1e-10)


def test_pca_rescale_variance():
    rng = np.random.default_rng(24)
    x = rng.normal(size=(40, 6)) * np.array([5.0, 2.0, 1.0, 0.5, 0.2, 0.1])
    proj = pca_fit(x, 3, rescale_variance=True)
    coords = pca_apply(proj, x)
    assert np.allclose(coords.std(axis=0, ddof=1), 1.0, atol=1e-8)

    raw = pca_apply(pca_fit(x, 3), x)
    assert not np.allclose(raw.std(axis=0, ddof=1), 1.0, atol=1e-2)


def test_default_pca_k():
    assert default_pca_k(100) == 16
    assert default_pca_k(10) == 9
    assert default_pca_k(3) == 2
    assert default_pca_k(2) == 1
    assert default_pca_k(100, dim=4) == 4
