"""CSV and SVG reporting for experiment results.

Episode CSVs are bit-identical across reruns of the same experiment
file; wall-clock columns are present but left empty unless timing was
requested, so timing never perturbs the comparison artifacts.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .encoders import pca_apply, pca_fit
from .loop import WALL_PHASES, EpisodeRow, ExperimentConfig, ResultsTable, build_task_assets
from .loop import check_task

EPISODE_COLUMNS = (
    "task",
    "method",
    "trial",
    "seed",
    "theta",
    "replans",
    "succeeded",
    "mean_psnr",
    "mean_ssim",
    *(f"wall_ms_{phase}" for phase in WALL_PHASES),
)


def _reads_as_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def format_theta(theta: float | str) -> str:
    """The CSV text of a theta; ``read_episodes_csv`` reads it back as written.

    A string theta the reader would turn into a float ("nan", "1e3"), or
    one holding a carriage return, which the writer leaves unquoted and
    the reader takes for a line end, raises ``ValueError``.
    """
    if not isinstance(theta, str):
        return f"{theta:g}"
    if "\r" in theta or _reads_as_float(theta):
        raise ValueError(f"theta {theta!r} would not read back from an episode CSV as written")
    return theta


def _opt(value: float | None, fmt: str) -> str:
    return "" if value is None else format(value, fmt)


def write_episodes_csv(
    rows: Iterable[EpisodeRow], path: str | Path, timing: bool = False
) -> None:
    # every row is formatted before the file opens, so a bad theta writes nothing
    records = [
        [
            row.task,
            row.method,
            row.trial,
            row.seed,
            format_theta(row.theta),
            row.replans,
            "true" if row.succeeded else "false",
            _opt(row.mean_psnr, ".6f"),
            _opt(row.mean_ssim, ".6f"),
            *(format(row.wall_ms[phase], ".3f") if timing else "" for phase in WALL_PHASES),
        ]
        for row in rows
    ]
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(EPISODE_COLUMNS)
        writer.writerows(records)


def _number_or(default: float | None):
    return lambda text: float(text) if text else default


def read_episodes_csv(path: str | Path) -> list[EpisodeRow]:
    """The rows of an episode CSV.  A header without every column raises ``ValueError``
    naming the path and the missing columns; a row without one cell per column, or a cell
    that does not read as its column's type, names the path and the line (and the
    column): ``succeeded`` must be ``true`` or ``false``, and an empty
    ``mean_*``/``wall_ms_*`` cell reads as None/0."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        missing = set(EPISODE_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"{path}: episode CSV missing columns: {sorted(missing)}")

        def cell(rec: dict, column: str, read, need: str):
            try:
                return read(rec[column])
            except (KeyError, ValueError):
                raise ValueError(f"{path}: line {reader.line_num} column {column!r} must be "
                                 f"{need}, got {rec[column]!r}") from None

        for rec in reader:
            if None in rec or None in rec.values():
                raise ValueError(f"{path}: line {reader.line_num} does not hold one cell per "
                                 "column")
            theta: float | str = rec["theta"]
            if _reads_as_float(theta):
                theta = float(theta)
            rows.append(
                EpisodeRow(
                    task=rec["task"],
                    method=rec["method"],
                    trial=cell(rec, "trial", int, "an integer"),
                    seed=cell(rec, "seed", int, "an integer"),
                    theta=theta,
                    replans=cell(rec, "replans", int, "an integer"),
                    succeeded=cell(rec, "succeeded", {"true": True, "false": False}.__getitem__,
                                   "true or false"),
                    mean_psnr=cell(rec, "mean_psnr", _number_or(None), "a number or empty"),
                    mean_ssim=cell(rec, "mean_ssim", _number_or(None), "a number or empty"),
                    wall_ms={phase: cell(rec, f"wall_ms_{phase}", _number_or(0.0),
                                         "a number or empty") for phase in WALL_PHASES},
                )
            )
    return rows


def write_summary_csv(table: ResultsTable, path: str | Path) -> None:
    """Per-cell means with SEMs, then a normalized footer (ours = 1.00)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    normalized = table.normalized()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "method", "mean_replans", "sem", "trials"])
        for task in table.tasks:
            for method in table.methods:
                if (method, task) not in table.cells:
                    continue
                cell = table.cells[(method, task)]
                writer.writerow(
                    [task, method, f"{cell.mean:.4f}", f"{cell.sem:.4f}", cell.count]
                )
        fh.write("# normalized mean replans, averaged over tasks (ours = 1.00)\n")
        writer.writerow(["method", "normalized_replans"])
        for method in table.methods:
            value = normalized[method]
            writer.writerow([method, "" if np.isnan(value) else f"{value:.4f}"])


# ---------------------------------------------------------------------------
# SVG bar chart

_PALETTE = ("#4878b0", "#ee854a", "#6acc64", "#d65f5f", "#956cb4", "#8c613c")


def _nice_ceiling(value: float) -> float:
    if value <= 0:
        return 1.0
    exp = np.floor(np.log10(value))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        cand = mult * 10.0 ** exp
        if cand >= value:
            return float(cand)
    return float(10.0 ** (exp + 1))


def results_svg(table: ResultsTable, title: str = "Replans until success") -> str:
    """Grouped bar chart of mean replans per task with SEM whiskers."""
    width, height = 960, 430
    left, right, top, bottom = 70, 20, 50, 70
    plot_w = width - left - right
    plot_h = height - top - bottom
    tasks, methods = table.tasks, table.methods
    top_val = max(
        (c.mean + c.sem for c in table.cells.values()), default=1.0
    )
    y_max = _nice_ceiling(top_val * 1.05)

    def y_of(v: float) -> float:
        return top + plot_h * (1.0 - v / y_max)

    group_w = plot_w / max(len(tasks), 1)
    bar_w = 0.8 * group_w / max(len(methods), 1)
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}" font-family="sans-serif">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{left}" y="24" font-size="16" fill="#222">{title}</text>',
    ]
    for i in range(5):
        v = y_max * i / 4
        y = y_of(v)
        parts.append(
            f'<line x1="{left}" y1="{y:.1f}" x2="{width - right}" y2="{y:.1f}" '
            f'stroke="#ddd" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{left - 8}" y="{y + 4:.1f}" font-size="11" fill="#444" '
            f'text-anchor="end">{v:g}</text>'
        )
    parts.append(
        f'<text x="16" y="{top + plot_h / 2:.1f}" font-size="12" fill="#444" '
        f'transform="rotate(-90 16 {top + plot_h / 2:.1f})" '
        f'text-anchor="middle">mean replans</text>'
    )
    for ti, task in enumerate(tasks):
        x0 = left + ti * group_w + 0.1 * group_w
        for mi, method in enumerate(methods):
            if (method, task) not in table.cells:
                continue
            cell = table.cells[(method, task)]
            x = x0 + mi * bar_w
            y = y_of(cell.mean)
            color = _PALETTE[mi % len(_PALETTE)]
            parts.append(
                f'<rect x="{x:.1f}" y="{y:.1f}" width="{bar_w * 0.9:.1f}" '
                f'height="{y_of(0) - y:.1f}" fill="{color}"/>'
            )
            if cell.sem > 0:
                cx = x + bar_w * 0.45
                y1, y2 = y_of(cell.mean + cell.sem), y_of(cell.mean - cell.sem)
                parts.append(
                    f'<line x1="{cx:.1f}" y1="{y1:.1f}" x2="{cx:.1f}" y2="{y2:.1f}" '
                    f'stroke="#222" stroke-width="1"/>'
                )
                for yy in (y1, y2):
                    parts.append(
                        f'<line x1="{cx - 3:.1f}" y1="{yy:.1f}" x2="{cx + 3:.1f}" '
                        f'y2="{yy:.1f}" stroke="#222" stroke-width="1"/>'
                    )
        parts.append(
            f'<text x="{left + (ti + 0.5) * group_w:.1f}" y="{height - bottom + 18}" '
            f'font-size="12" fill="#222" text-anchor="middle">{task}</text>'
        )
    for mi, method in enumerate(methods):
        lx = left + 10 + (mi % 3) * 170
        ly = height - 34 + (mi // 3) * 18
        color = _PALETTE[mi % len(_PALETTE)]
        parts.append(f'<rect x="{lx}" y="{ly - 9}" width="12" height="12" fill="{color}"/>')
        parts.append(
            f'<text x="{lx + 17}" y="{ly + 1}" font-size="11" fill="#222">{method}</text>'
        )
    parts.append(
        f'<line x1="{left}" y1="{y_of(0):.1f}" x2="{width - right}" y2="{y_of(0):.1f}" '
        f'stroke="#222" stroke-width="1"/>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_results_svg(table: ResultsTable, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(results_svg(table))


# ---------------------------------------------------------------------------
# Embedding export

def embedding_rows(config: ExperimentConfig) -> list[tuple[str, str, float, float]]:
    """Canonical embedding of every object, projected to 2 components.

    Tasks with only two objects cannot support two components; the second
    coordinate is zero there, and a task with one object puts it at the origin.
    Every task's ``data_root`` manifest is checked first.
    """
    for task in config.tasks:
        check_task(config, task)
    out = []
    for task in config.tasks:
        table = build_task_assets(config, task).table  # the rest is freed at once
        canonical = table.canonical
        coords = np.zeros((canonical.shape[0], 2))
        if (k := min(2, canonical.shape[0] - 1)) > 0:
            coords[:, :k] = pca_apply(pca_fit(canonical, k), canonical)
        for object_id, (x, y) in zip(table.object_ids, coords):
            out.append((task, object_id, float(x), float(y)))
    return out


def write_embedding_csv(
    rows: Sequence[tuple[str, str, float, float]], path: str | Path
) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["task", "object_id", "x", "y"])
        for task, object_id, x, y in rows:
            writer.writerow([task, object_id, f"{x:.6f}", f"{y:.6f}"])
