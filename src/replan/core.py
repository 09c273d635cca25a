"""Video container, similarity metrics, and experience dataset types.

Videos are short grayscale clips stored as float32 arrays of shape
(T, H, W) with pixel values in [0, 1].  The binary on-disk form is the
ISEV container; datasets pair ISEV files with a JSON manifest.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

ISEV_MAGIC = b"ISEV"
ISEV_VERSION = 1

# SSIM constants for unit dynamic range: C1 = (0.01)^2, C2 = (0.03)^2.
SSIM_C1 = 1e-4
SSIM_C2 = 9e-4
SSIM_WINDOW = 8

PSNR_CAP_DB = 100.0


class VideoFormatError(ValueError):
    """Raised for malformed ISEV payloads or out-of-contract pixel data."""


def _as_frames(pixels: np.ndarray) -> np.ndarray:
    arr = np.asarray(pixels, dtype=np.float32)
    if arr.ndim != 3:
        raise VideoFormatError(f"expected (T, H, W) pixels, got shape {arr.shape}")
    t, h, w = arr.shape
    if t < 1 or h < 1 or w < 1:
        raise VideoFormatError(f"empty video dimensions {arr.shape}")
    if not np.isfinite(arr).all():
        raise VideoFormatError("video pixels must be finite")
    lo, hi = float(arr.min()), float(arr.max())
    if lo < 0.0 or hi > 1.0:
        raise VideoFormatError(f"pixels outside [0, 1]: min={lo}, max={hi}")
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Video:
    """Immutable grayscale clip; ``pixels`` has shape (T, H, W) in [0, 1]."""

    pixels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "pixels", _as_frames(self.pixels))

    @property
    def length(self) -> int:
        return self.pixels.shape[0]

    @property
    def height(self) -> int:
        return self.pixels.shape[1]

    @property
    def width(self) -> int:
        return self.pixels.shape[2]

    def frame(self, t: int) -> np.ndarray:
        return self.pixels[t]

    def first_frame(self) -> np.ndarray:
        return self.pixels[0]

    def with_first_frame(self, frame: np.ndarray) -> "Video":
        """Copy of this video with frame 0 replaced bit-exactly by ``frame``;
        this video itself when frame 0 already holds the same bytes."""
        frame = np.asarray(frame, dtype=np.float32)
        if frame.shape != self.pixels.shape[1:]:
            raise VideoFormatError(
                f"frame shape {frame.shape} does not match video {self.pixels.shape[1:]}"
            )
        if frame.tobytes() == self.pixels[0].tobytes():
            return self
        out = self.pixels.copy()
        out[0] = frame
        return Video(out)


def write_video(video: Video, dest: BinaryIO) -> int:
    """Serialize ``video`` to the ISEV container; returns bytes written.

    Layout: magic "ISEV", u32 version, u32 T, u32 H, u32 W (all
    little-endian), then T*H*W float32 pixels frame-major, row-major.
    """
    t, h, w = video.pixels.shape
    header = ISEV_MAGIC + struct.pack("<IIII", ISEV_VERSION, t, h, w)
    payload = video.pixels.astype("<f4", copy=False).tobytes(order="C")
    dest.write(header)
    dest.write(payload)
    return len(header) + len(payload)


def read_video(src: BinaryIO) -> Video:
    """Parse an ISEV container; raises VideoFormatError on any malformation."""
    header = src.read(20)
    if len(header) != 20:
        raise VideoFormatError("truncated ISEV header")
    if header[:4] != ISEV_MAGIC:
        raise VideoFormatError(f"bad magic {header[:4]!r}")
    version, t, h, w = struct.unpack("<IIII", header[4:])
    if version != ISEV_VERSION:
        raise VideoFormatError(f"unsupported ISEV version {version}")
    if t < 1 or h < 1 or w < 1:
        raise VideoFormatError(f"bad dimensions T={t} H={h} W={w}")
    expected = t * h * w * 4
    payload = src.read(expected + 1)
    if len(payload) < expected:
        raise VideoFormatError("truncated ISEV payload")
    if len(payload) > expected:
        raise VideoFormatError("trailing bytes after ISEV payload")
    pixels = np.frombuffer(payload, dtype="<f4").reshape(t, h, w)
    return Video(pixels)


def save_video(video: Video, path: str | Path) -> int:
    with open(path, "wb") as fh:
        return write_video(video, fh)


def load_video(path: str | Path) -> Video:
    with open(path, "rb") as fh:
        return read_video(fh)


def _check_same_shape(a: Video, b: Video) -> None:
    if a.pixels.shape != b.pixels.shape:
        raise ValueError(f"shape mismatch: {a.pixels.shape} vs {b.pixels.shape}")


def _same_bytes(a: Video, b: Video) -> bool:
    return a.pixels.shape == b.pixels.shape and a.pixels.tobytes() == b.pixels.tobytes()


def video_mse(a: Video, b: Video) -> float:
    """Mean squared pixel error over all T*H*W pixels."""
    _check_same_shape(a, b)
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    return float(np.mean(diff * diff))


def pixel_l2(a: Video, b: Video) -> float:
    """Euclidean distance between flattened videos."""
    _check_same_shape(a, b)
    diff = a.pixels.astype(np.float64) - b.pixels.astype(np.float64)
    return float(np.sqrt(np.sum(diff * diff)))


def psnr(a: Video, b: Video) -> float:
    """Peak signal-to-noise ratio in dB for unit range, capped at 100."""
    if _same_bytes(a, b):
        return PSNR_CAP_DB  # what an MSE of 0 gives, without computing it
    mse = video_mse(a, b)
    if mse <= 0.0:
        return PSNR_CAP_DB
    return min(PSNR_CAP_DB, float(10.0 * math.log10(1.0 / mse)))


def _window_band(n: int) -> np.ndarray:
    """(n, n - 7) band of 1/8s averaging each 8-wide window; its (m, m - 7) corner serves m < n."""
    offset = np.arange(n)[:, None] - np.arange(n - SSIM_WINDOW + 1)
    return ((offset >= 0) & (offset < SSIM_WINDOW)) / SSIM_WINDOW


def ssim(a: Video, b: Video) -> float:
    """Mean SSIM over 8x8 stride-1 windows: per-frame window mean, then frame mean.

    The window moments (Wang et al. 2004) of all frames are two BLAS
    matrix products with a constant band matrix: one averages along rows;
    after a transpose, the other averages along columns.  The window maps
    come out transposed, which their mean ignores.  The formula needs the
    two variances only as their sum, so a^2 + b^2 is one moment map.
    """
    _check_same_shape(a, b)
    t, h, w = a.pixels.shape
    if h < SSIM_WINDOW or w < SSIM_WINDOW:
        raise ValueError(f"frame smaller than SSIM window: {(h, w)}")
    if _same_bytes(a, b):
        return 1.0  # exactly what the arithmetic below gives for equal clips
    band = _window_band(max(h, w))
    maps = np.empty((4, t, h, w))
    maps[0], maps[1] = a.pixels, b.pixels
    np.square(maps[:2]).sum(axis=0, out=maps[2])
    np.multiply(maps[0], maps[1], out=maps[3])
    rows = (maps.reshape(-1, w) @ band[:w, : w - SSIM_WINDOW + 1]).reshape(4 * t, h, -1)
    means = rows.transpose(0, 2, 1).reshape(-1, h) @ band[:h, : h - SSIM_WINDOW + 1]
    mu_a, mu_b, e_sq, e_ab = means.reshape(4, t, -1)
    mu_ab = mu_a * mu_b
    mu_sq = mu_a * mu_a + mu_b * mu_b
    num = (2.0 * mu_ab + SSIM_C1) * (2.0 * (e_ab - mu_ab) + SSIM_C2)
    den = (mu_sq + SSIM_C1) * (e_sq - mu_sq + SSIM_C2)
    return float(np.mean(np.mean(num / den, axis=1)))


@dataclass(frozen=True)
class ExperienceTuple:
    """One stored interaction: the rollout video, its object id, and success."""

    video: Video
    object_id: str
    success: bool


@dataclass(frozen=True)
class ExperienceDataset:
    """Ordered collection of experience tuples with a per-object index.

    ``by_object`` maps object_id to the tuple indices in insertion order;
    it partitions all indices by construction.
    """

    tuples: tuple[ExperienceTuple, ...]
    by_object: dict[str, tuple[int, ...]] = field(init=False)

    def __post_init__(self) -> None:
        index: dict[str, list[int]] = {}
        for i, item in enumerate(self.tuples):
            index.setdefault(item.object_id, []).append(i)
        object.__setattr__(
            self, "by_object", {k: tuple(v) for k, v in index.items()}
        )

    def __len__(self) -> int:
        return len(self.tuples)

    def validate(self) -> None:
        """Check that every object has at least one successful tuple."""
        for object_id, idxs in self.by_object.items():
            if not any(self.tuples[i].success for i in idxs):
                raise ValueError(f"object {object_id!r} has no successful tuple")


def save_dataset(
    out_dir: str | Path,
    env: str,
    tuples: Sequence[ExperienceTuple],
    thetas: Sequence[float | str],
) -> Path:
    """Write ISEV files plus the JSON manifest; returns the manifest path.

    Manifest layout: {"env": ..., "entries": [{"video", "object_id",
    "success", "theta"}, ...]} with video paths relative to the manifest.
    """
    if len(tuples) != len(thetas):
        raise ValueError("tuples and thetas length mismatch")
    out = Path(out_dir)
    (out / "videos").mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (item, theta) in enumerate(zip(tuples, thetas)):
        rel = f"videos/{i:05d}.isev"
        save_video(item.video, out / rel)
        entries.append(
            {
                "video": rel,
                "object_id": item.object_id,
                "success": bool(item.success),
                "theta": theta if isinstance(theta, str) else float(theta),
            }
        )
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"env": env, "entries": entries}, indent=2))
    return manifest


def load_dataset(
    in_dir: str | Path,
) -> tuple[ExperienceDataset, str, list[float | str]]:
    """Read a manifest directory back into (dataset, env name, per-entry theta)."""
    root = Path(in_dir)
    manifest = json.loads((root / "manifest.json").read_text())
    env = manifest["env"]
    tuples = []
    thetas: list[float | str] = []
    for entry in manifest["entries"]:
        video = load_video(root / entry["video"])
        tuples.append(
            ExperienceTuple(
                video=video,
                object_id=entry["object_id"],
                success=bool(entry["success"]),
            )
        )
        thetas.append(entry["theta"])
    dataset = ExperienceDataset(tuple(tuples))
    dataset.validate()
    return dataset, env, thetas
