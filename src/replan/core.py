"""Video container, similarity metrics, and experience dataset types.

Videos are short grayscale clips stored as float32 arrays of shape
(T, H, W) with pixel values in [0, 1].  The binary on-disk form is the
ISEV container; datasets pair ISEV files with a JSON manifest.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
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


def is_number(value: object, kind: type = numbers.Real) -> bool:
    """A finite number of ``kind``; bools and NaN are not numbers here."""
    return isinstance(value, kind) and not isinstance(value, bool) and -math.inf < value < math.inf


def require_integer(config: object, name: str, low: int) -> None:
    """Fail with a ``ValueError`` naming ``<class>.<name>`` unless it is an integer >= low."""
    value = getattr(config, name)
    if not (is_number(value, numbers.Integral) and value >= low):
        raise ValueError(f"{type(config).__name__}.{name} must be an integer >= {low}, got {value!r}")


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
    payload = src.read()  # what the stream holds, never what a corrupt header claims
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


def _psnr_db(mse: float) -> float:
    return PSNR_CAP_DB if mse <= 0.0 else min(PSNR_CAP_DB, float(10.0 * math.log10(1.0 / mse)))


def psnr(a: Video, b: Video) -> float:
    """Peak signal-to-noise ratio in dB for unit range, capped at 100."""
    if _same_bytes(a, b):
        return PSNR_CAP_DB  # what an MSE of 0 gives, without computing it
    return _psnr_db(video_mse(a, b))


def psnr_table(sums: np.ndarray, count: int) -> np.ndarray:
    """``psnr`` of every pair whose summed squared pixel difference is in ``sums``, over
    ``count`` pixels: the MSE is ``sums / count`` as ``video_mse`` divides its sum, and
    each entry goes through ``psnr``'s own scalar arithmetic, so the bits are its."""
    mse = np.asarray(sums, dtype=np.float64) / count
    return np.array([_psnr_db(x) for x in mse.ravel().tolist()]).reshape(mse.shape)


@functools.cache
def _window_band(n: int) -> np.ndarray:
    """(n, n - 7) band of 1/8s averaging each 8-wide window; its (m, m - 7) corner serves m < n."""
    offset = np.arange(n)[:, None] - np.arange(n - SSIM_WINDOW + 1)
    return ((offset >= 0) & (offset < SSIM_WINDOW)) / SSIM_WINDOW


def window_means(pixels: np.ndarray) -> np.ndarray:
    """Float64 means of every 8x8 stride-1 window of each frame of a (..., H, W) stack, as
    (..., windows) maps, transposed (which a mean over windows ignores): two BLAS products
    with a band matrix built once per frame size, averaging along rows, then columns."""
    *lead, h, w = pixels.shape
    band = _window_band(max(h, w))
    rows = np.reshape(pixels, (-1, w)) @ band[:w, : w - SSIM_WINDOW + 1]
    rows = rows.reshape(-1, h, w - SSIM_WINDOW + 1).transpose(0, 2, 1)
    return (rows.reshape(-1, h) @ band[:h, : h - SSIM_WINDOW + 1]).reshape(*lead, -1)


def window_moments(pixels: np.ndarray) -> np.ndarray:
    """(3, T, windows) float64 moments of a (T, H, W) clip for ``ssim``: each window's
    mean mu, mu^2 and variance W(x^2) - mu^2, where W is ``window_means``.  W(x^2) is one
    (T, H, W) product, as the cross moment in ``held_ssim`` is, so a clip against its own
    bytes scores exactly 1."""
    x = np.asarray(pixels, dtype=np.float64)
    if min(x.shape[-2:]) < SSIM_WINDOW:
        raise ValueError(f"frame smaller than SSIM window: {x.shape[-2:]}")
    mu = window_means(x)
    square = mu * mu
    return np.stack([mu, square, window_means(x * x) - square])


SsimHold = tuple[np.ndarray, np.ndarray]  # a clip's float64 pixels and its window_moments


def held_ssim(a: Video, b: Video, hold_a: SsimHold, hold_b: SsimHold) -> float:
    """Mean SSIM (Wang et al. 2004) over 8x8 stride-1 windows: per-frame window mean,
    then frame mean.  Each window scores

        (2 mu_a mu_b + C1) (2 cov_ab + C2) / ((mu_a^2 + mu_b^2 + C1) (var_a + var_b + C2))

    with cov_ab = W(a b) - mu_a mu_b.  Everything but W(a b) depends on one clip only, so
    it comes from what the caller holds of each clip: its float64 pixels and its
    ``window_moments``.  Equal bytes score 1.0, what the arithmetic gives.  The tail runs
    in place in the W(a b) map and the numerator's, with the formula's operands and order;
    it never writes into a hold.
    """
    _check_same_shape(a, b)
    t, h, w = shape = a.pixels.shape
    moments = (3, t, (h - SSIM_WINDOW + 1) * (w - SSIM_WINDOW + 1))
    if any(x.shape != shape or mom.shape != moments for x, mom in (hold_a, hold_b)):
        raise ValueError(f"an ssim hold must be pixels of shape {shape} and window moments "
                         f"of shape {moments}")
    if _same_bytes(a, b):
        return 1.0  # exactly what the arithmetic below gives: num and den are equal
    (x_a, (mu_a, square_a, var_a)), (x_b, (mu_b, square_b, var_b)) = hold_a, hold_b
    cov = window_means(x_a * x_b)  # W(ab)
    num = mu_a * mu_b
    cov -= num
    cov *= 2.0
    cov += SSIM_C2  # 2 cov_ab + C2
    num *= 2.0
    num += SSIM_C1
    num *= cov
    den = square_a + square_b
    den += SSIM_C1
    np.add(var_a, var_b, out=cov)
    cov += SSIM_C2
    den *= cov
    num /= den
    return float(np.add.reduce(np.add.reduce(num, axis=1) / moments[2]) / t)  # as np.mean


def ssim(a: Video, b: Video) -> float:
    """``held_ssim`` of two clips, each held here: the oracle of a caller's holds."""
    _check_same_shape(a, b)
    wide = (a.pixels.astype(np.float64), b.pixels.astype(np.float64))
    return held_ssim(a, b, *((x, window_moments(x)) for x in wide))


@dataclass(frozen=True)
class ExperienceTuple:
    """One stored interaction: the rollout video, its object id, and success."""

    video: Video
    object_id: str
    success: bool


@dataclass(frozen=True)
class ExperienceDataset:
    """Ordered collection of experience tuples with a per-object index; valid by construction.

    ``by_object`` maps object_id to the tuple indices in insertion order;
    it partitions all indices.  ``canonical_entry`` maps object_id to the
    index of its first successful tuple, the entry retrieval and planning
    stand on.  An empty tuple list, or an object with no successful tuple,
    raises ``ValueError``; the latter names the object.
    """

    tuples: tuple[ExperienceTuple, ...]
    by_object: dict[str, tuple[int, ...]] = field(init=False)
    canonical_entry: dict[str, int] = field(init=False)

    def __post_init__(self) -> None:
        if not self.tuples:
            raise ValueError("an experience dataset needs at least one tuple")
        index: dict[str, list[int]] = {}
        first: dict[str, int] = {}
        for i, item in enumerate(self.tuples):
            index.setdefault(item.object_id, []).append(i)
            if item.success:
                first.setdefault(item.object_id, i)
        for object_id in index:
            if object_id not in first:
                raise ValueError(f"object {object_id!r} has no successful tuple")
        object.__setattr__(self, "by_object", {k: tuple(v) for k, v in index.items()})
        object.__setattr__(self, "canonical_entry", {k: first[k] for k in index})

    def __len__(self) -> int:
        return len(self.tuples)


def save_dataset(out_dir: str | Path, env: str, tuples: Sequence[ExperienceTuple]) -> Path:
    """Write ISEV files plus the JSON manifest; returns the manifest path.

    Manifest layout: {"env": ..., "entries": [{"video", "object_id", "success"}, ...]}
    with video paths relative to the manifest.
    """
    out = Path(out_dir)
    (out / "videos").mkdir(parents=True, exist_ok=True)
    entries = []
    for i, item in enumerate(tuples):
        rel = f"videos/{i:05d}.isev"
        save_video(item.video, out / rel)
        entries.append({"video": rel, "object_id": item.object_id, "success": bool(item.success)})
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({"env": env, "entries": entries}, indent=2))
    return manifest


def read_manifest(path: str | Path) -> dict:
    """Parse a dataset manifest and check every entry before any video is read.

    The list of entries must not be empty.  An entry's ``video`` must name an existing file
    relative to the manifest, its ``object_id`` be a string and its ``success`` a JSON bool;
    a ``ValueError`` names the path, the entry index and the field otherwise.  Other keys,
    such as the ``theta`` of older manifests, are ignored.  Every ``object_id`` needs an
    entry whose ``success`` is true; one that has none is named.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError:
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("entries"), list):
        raise ValueError(f"{path} is not a JSON object with a list of entries")
    if not manifest["entries"]:
        raise ValueError(f"{path} has no entries")
    for index, entry in enumerate(manifest["entries"]):
        if not isinstance(entry, dict):
            raise ValueError(f"{path}: entry {index} is not a JSON object")
        video = entry.get("video")
        for name, ok, need in (
            ("video", isinstance(video, str) and (path.parent / video).is_file(),
             "the path of an existing file"),
            ("object_id", isinstance(entry.get("object_id"), str), "a string"),
            ("success", isinstance(entry.get("success"), bool), "true or false"),
        ):
            if not ok:
                got = f"got {entry[name]!r}" if name in entry else "it is missing"
                raise ValueError(f"{path}: entry {index} field {name!r} must be {need}, {got}")
    succeeded = {entry["object_id"] for entry in manifest["entries"] if entry["success"]}
    for entry in manifest["entries"]:
        if entry["object_id"] not in succeeded:
            raise ValueError(f"{path}: object {entry['object_id']!r} has no entry whose "
                             "field 'success' is true")
    return manifest


def manifest_dataset(root: str | Path, manifest: dict) -> ExperienceDataset:
    """Load the clips of ``manifest``, as ``read_manifest`` returned it for
    ``<root>/manifest.json``, into its dataset; a corrupt clip is named by its path."""
    root = Path(root)
    tuples = []
    for entry in manifest["entries"]:
        try:
            video = load_video(root / entry["video"])
        except VideoFormatError as err:
            raise VideoFormatError(f"{root / entry['video']}: {err}") from None
        tuples.append(ExperienceTuple(video, entry["object_id"], entry["success"]))
    return ExperienceDataset(tuple(tuples))


def load_dataset(in_dir: str | Path) -> ExperienceDataset:
    """Read a manifest directory back into its dataset; the manifest is checked by
    ``read_manifest`` before any clip is read."""
    return manifest_dataset(in_dir, read_manifest(Path(in_dir) / "manifest.json"))
