"""Frame/video embeddings: block-average features plus a PCA projection.

Block means are ``B.T @ frame @ B`` for one constant (32, 8) block-mean
matrix, run through BLAS for all frames at once.  The sums run in the
order of ``reshape(8, 4, 8, 4).mean(axis=(1, 3))``, so the bytes match it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Video, require_integer
from .envs import IMAGE_SIZE

BLOCK = 4
FEATURES_PER_FRAME = (IMAGE_SIZE // BLOCK) ** 2  # 64
PCA_K_CAP = 16  # default_pca_k never keeps more components
_BLOCK_MEAN = np.kron(np.eye(IMAGE_SIZE // BLOCK), np.full((BLOCK, 1), 1.0 / BLOCK))


def _block_means(frames: np.ndarray) -> np.ndarray:
    """(T, 32, 32) frames to (T * 64,) row-major block means, frame by frame."""
    t = frames.shape[0]
    cols = frames.astype(np.float64).reshape(t * IMAGE_SIZE, IMAGE_SIZE) @ _BLOCK_MEAN
    return (_BLOCK_MEAN.T @ cols.reshape(t, IMAGE_SIZE, -1)).reshape(t * FEATURES_PER_FRAME)


def encode_video(video: Video) -> np.ndarray:
    """Concatenate per-frame block features; an 8-frame clip gives 512 dims."""
    if video.height != IMAGE_SIZE or video.width != IMAGE_SIZE:
        raise ValueError(f"expected {IMAGE_SIZE}x{IMAGE_SIZE} frames, got {video.height}x{video.width}")
    return _block_means(video.pixels)


@dataclass(frozen=True)
class PcaProjection:
    """Linear projection onto the top principal directions.

    ``components`` rows are orthonormal, ordered by decreasing explained
    variance, each signed so its largest-magnitude entry is positive.
    """

    mean: np.ndarray          # (d,)
    components: np.ndarray    # (k, d)
    scales: np.ndarray | None = None  # (k,) divisors from rescale_variance=True

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=np.float64)
        comps = np.asarray(self.components, dtype=np.float64)
        if comps.ndim != 2 or comps.shape[1] != mean.shape[0]:
            raise ValueError("components shape does not match (k, d)")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "components", comps)
        if self.scales is not None:
            object.__setattr__(self, "scales", np.asarray(self.scales, dtype=np.float64))


def pca_fit(embeddings: np.ndarray, k: int, rescale_variance: bool = False) -> PcaProjection:
    """Fit a k-component PCA on rows of ``embeddings``.

    Requires n >= 2 samples and k <= min(d, n - 1).  Deterministic: SVD
    ordering plus a sign convention (largest-|entry| of each component
    made positive; first occurrence wins ties).
    """
    require_integer("pca_fit's k", k, 1)
    x = np.asarray(embeddings, dtype=np.float64)
    if x.ndim != 2:
        raise ValueError(f"expected (n, d) embeddings, got shape {x.shape}")
    n, d = x.shape
    if n < 2:
        raise ValueError("need at least 2 samples to fit a projection")
    if not 1 <= k <= min(d, n - 1):
        raise ValueError(f"k={k} outside [1, min(d, n-1)={min(d, n - 1)}]")
    mean = x.mean(axis=0)
    centered = x - mean
    _, singular, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:k].copy()
    for i in range(k):
        j = int(np.argmax(np.abs(components[i])))
        if components[i, j] < 0:
            components[i] = -components[i]
    scales = None
    if rescale_variance:
        scales = np.maximum(singular[:k] / np.sqrt(n - 1), 1e-12)
    return PcaProjection(mean=mean, components=components, scales=scales)


def pca_apply(projection: PcaProjection, embedding: np.ndarray) -> np.ndarray:
    """Project one embedding (d,) or a batch (n, d) to k dims."""
    e = np.asarray(embedding, dtype=np.float64)
    if e.shape[-1] != projection.mean.shape[0]:
        raise ValueError(
            f"embedding dim {e.shape[-1]} does not match projection dim {projection.mean.shape[0]}"
        )
    out = (e - projection.mean) @ projection.components.T
    if projection.scales is not None:
        out = out / projection.scales
    return out


def default_pca_k(n_samples: int, dim: int = 512) -> int:
    return max(1, min(PCA_K_CAP, n_samples - 1, dim))
