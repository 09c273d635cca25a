"""CSV round-trips, the summary format, and the SVG chart."""

import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from replan import (
    ALL_METHODS,
    ALL_TASKS,
    ExperimentConfig,
    embedding_rows,
    read_episodes_csv,
    results_svg,
    results_table,
    write_embedding_csv,
    write_episodes_csv,
    write_results_svg,
    write_summary_csv,
)
from replan.loop import EpisodeRow
from replan.report import EPISODE_COLUMNS, WALL_PHASES, format_theta


def sample_rows():
    return [
        EpisodeRow("pushbar", "ours", 0, 111, 0.3, 2, True, 51.25, 0.93,
                   {"retrieve": 1.5, "generate": 2.25, "reject": 0.125, "act": 3.0}),
        EpisodeRow("pushbar", "ours", 1, 222, -0.05, 14, False, 40.0, 0.8,
                   {"retrieve": 0.0, "generate": 0.0, "reject": 0.0, "act": 0.0}),
        EpisodeRow("openbox", "random", 0, 333, "lift", 1, True, None, None,
                   {"retrieve": 0.0, "generate": 0.0, "reject": 0.0, "act": 0.5}),
    ]


def test_format_theta():
    assert format_theta(0.3) == "0.3"
    assert format_theta(-0.05) == "-0.05"
    assert format_theta("lift") == "lift"
    assert format_theta(0.0) == "0"


@pytest.mark.parametrize("theta", ["nan", "1e3", " 1", "inf", "1_0", "a\rb", "\r\n"])
def test_unreadable_theta_is_rejected(tmp_path, theta):
    # a string that reads back as a float, or a bare carriage return, would not round-trip
    row = EpisodeRow("openbox", "avdc", 0, 1, theta, 1, True, None, None, {})
    path = tmp_path / "episodes.csv"
    with pytest.raises(ValueError, match=re.escape(repr(theta))):
        write_episodes_csv([*sample_rows(), row], path)
    assert not path.exists()


def test_episode_csv_roundtrip(tmp_path):
    path = tmp_path / "episodes.csv"
    write_episodes_csv(sample_rows(), path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(EPISODE_COLUMNS)

    back = read_episodes_csv(path)
    assert len(back) == 3
    assert back[0].task == "pushbar"
    assert back[0].theta == 0.3
    assert back[1].theta == -0.05
    assert back[2].theta == "lift"
    assert back[0].replans == 2 and back[0].succeeded
    assert not back[1].succeeded
    assert back[0].mean_psnr == pytest.approx(51.25)
    assert back[2].mean_psnr is None and back[2].mean_ssim is None
    # timing off: walls read back as zero
    assert all(v == 0.0 for r in back for v in r.wall_ms.values())


def _parses_as_float(text):
    try:
        float(text)
    except ValueError:
        return False
    return True


def same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


optional_metric = st.none() | st.floats(-1e6, 1e6)
episode_rows = st.lists(
    st.builds(
        EpisodeRow,
        task=st.sampled_from(ALL_TASKS),
        method=st.sampled_from(ALL_METHODS),
        trial=st.integers(0, 10**6),
        seed=st.integers(0, 2**63),
        # a theta is a hidden value or a mode name; any text may be offered as a name
        theta=st.floats() | st.text() | st.sampled_from(["nan", "1e3", "a\rb", "a\nb", '"']),
        replans=st.integers(1, 100),
        succeeded=st.booleans(),
        mean_psnr=optional_metric,
        mean_ssim=optional_metric,
        wall_ms=st.fixed_dictionaries({p: st.floats(0, 1e6) for p in WALL_PHASES}),
    ),
    max_size=6,
)


@settings(max_examples=200, deadline=None)
@given(rows=episode_rows, timing=st.booleans())
@example(
    rows=[
        EpisodeRow("pushbar", "ours", 0, 1, math.nan, 3, False, None, None,
                   dict.fromkeys(WALL_PHASES, 0.0)),
        EpisodeRow("openbox", "avdc", 1, 2, "lift", 1, True, 31.5, None,
                   dict.fromkeys(WALL_PHASES, 1.25)),
    ],
    timing=True,
)
def test_episode_csv_roundtrip_property(rows, timing):
    # a row either round-trips or is refused at write time, naming its theta
    with tempfile.TemporaryDirectory() as tmp:
        path, again = Path(tmp, "episodes.csv"), Path(tmp, "again.csv")
        unreadable = [
            r.theta for r in rows
            if isinstance(r.theta, str) and ("\r" in r.theta or _parses_as_float(r.theta))
        ]
        if unreadable:
            with pytest.raises(ValueError, match=re.escape(repr(unreadable[0]))):
                write_episodes_csv(rows, path, timing=timing)
            return
        write_episodes_csv(rows, path, timing=timing)
        back = read_episodes_csv(path)
        # the written file is a fixed point: what is read back writes the same bytes
        write_episodes_csv(back, again, timing=timing)
        assert again.read_bytes() == path.read_bytes()
    assert len(back) == len(rows)
    for row, got in zip(rows, back):
        assert (got.task, got.method, got.trial, got.seed, got.replans, got.succeeded) == (
            row.task, row.method, row.trial, row.seed, row.replans, row.succeeded
        )
        if isinstance(row.theta, str):
            assert got.theta == row.theta
        else:
            assert same_float(got.theta, float(format(row.theta, "g")))
        for want, value in ((row.mean_psnr, got.mean_psnr), (row.mean_ssim, got.mean_ssim)):
            assert value == (None if want is None else float(format(want, ".6f")))
        for phase in WALL_PHASES:
            expected = float(format(row.wall_ms[phase], ".3f")) if timing else 0.0
            assert got.wall_ms[phase] == expected


def test_episode_csv_timing_column(tmp_path):
    plain = tmp_path / "plain.csv"
    timed = tmp_path / "timed.csv"
    write_episodes_csv(sample_rows(), plain)
    write_episodes_csv(sample_rows(), timed, timing=True)

    # empty timing cells keep reruns byte-comparable
    line = plain.read_text().splitlines()[1]
    assert line.endswith(",,,,")
    back = read_episodes_csv(timed)
    assert back[0].wall_ms == {
        "retrieve": 1.5, "generate": 2.25, "reject": 0.125, "act": 3.0
    }

    write_episodes_csv(sample_rows(), tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == plain.read_bytes()


def test_episode_csv_schema_check(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("task,method\nx,y\n")
    with pytest.raises(ValueError):
        read_episodes_csv(bad)


BAD_CELLS = {  # column -> (a cell the reader refuses, what the column must hold)
    "trial": ("1.0", "an integer"),
    "seed": ("x", "an integer"),
    "replans": ("", "an integer"),
    "succeeded": ("yes", "true or false"),
    "mean_psnr": ("high", "a number or empty"),
    "mean_ssim": ("0,5", "a number or empty"),
    **{f"wall_ms_{phase}": ("1ms", "a number or empty") for phase in WALL_PHASES},
}


@pytest.mark.parametrize("column", BAD_CELLS)
def test_a_bad_episode_cell_is_named(tmp_path, column):
    # the second data row (line 3) of a timed CSV, one cell rewritten
    path = tmp_path / "episodes.csv"
    write_episodes_csv(sample_rows(), path, timing=True)
    lines = path.read_text().splitlines()
    header, row = lines[0].split(","), lines[2].split(",")
    text, need = BAD_CELLS[column]
    row[header.index(column)] = f'"{text}"' if "," in text else text
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: line 3 column {column!r} must be {need}, got {text!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_episodes_csv(path)


@pytest.mark.parametrize("cells", [-1, 1])
def test_an_episode_row_without_one_cell_per_column_is_named(tmp_path, cells):
    # a row cut short, or one with a cell too many, is not read as a row with empty cells
    path = tmp_path / "episodes.csv"
    write_episodes_csv(sample_rows(), path, timing=True)
    lines = path.read_text().splitlines()
    lines[2] = lines[2].rsplit(",", 1)[0] if cells < 0 else lines[2] + ",9"
    path.write_text("\n".join(lines) + "\n")
    message = f"{path}: line 3 does not hold one cell per column"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_episodes_csv(path)


@pytest.mark.parametrize("dropped", [("theta",), ("mean_ssim", "wall_ms_act")])
def test_an_episode_csv_without_a_column_is_named(tmp_path, dropped):
    # the header error names the path, as every other error of the reader does
    path = tmp_path / "episodes.csv"
    write_episodes_csv(sample_rows(), path, timing=True)
    header, *rows = [line.split(",") for line in path.read_text().splitlines()]
    keep = [i for i, column in enumerate(header) if column not in dropped]
    path.write_text("".join(",".join(line[i] for i in keep) + "\n" for line in [header, *rows]))
    message = f"{path}: episode CSV missing columns: {sorted(dropped)}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        read_episodes_csv(path)


def test_summary_csv_layout(tmp_path):
    rows = [
        EpisodeRow("t1", "ours", i, 0, 0.0, r, True, None, None, {})
        for i, r in enumerate((1, 2))
    ] + [
        EpisodeRow("t1", "avdc", i, 0, 0.0, r, True, None, None, {})
        for i, r in enumerate((3, 3))
    ]
    table = results_table(rows)
    path = tmp_path / "summary.csv"
    write_summary_csv(table, path)
    text = path.read_text().splitlines()

    assert text[0] == "task,method,mean_replans,sem,trials"
    assert "t1,ours,1.5000,0.5000,2" in text
    assert "t1,avdc,3.0000,0.0000,2" in text
    comment = [i for i, line in enumerate(text) if line.startswith("#")]
    assert len(comment) == 1
    assert text[comment[0] + 1] == "method,normalized_replans"
    assert "ours,1.0000" in text
    assert "avdc,2.0000" in text


def test_summary_csv_without_baseline(tmp_path):
    rows = [EpisodeRow("t1", "avdc", 0, 0, 0.0, 2, True, None, None, {})]
    path = tmp_path / "no-baseline.csv"
    write_summary_csv(results_table(rows), path)
    text = path.read_text()
    assert "avdc,\n" in text  # NaN renders as an empty cell


def test_results_svg_contents(tmp_path):
    rows = []
    for task in ("pushbar", "openbox"):
        for method in ("avdc", "ours"):
            for trial, r in enumerate((2, 3, 4)):
                rows.append(
                    EpisodeRow(task, method, trial, 0, 0.0, r, True, None, None, {})
                )
    table = results_table(rows)
    svg = results_svg(table)
    assert svg.startswith("<svg") and svg.rstrip().endswith("</svg>")
    for label in ("pushbar", "openbox", "avdc", "ours", "Replans until success"):
        assert label in svg
    assert svg == results_svg(table)  # deterministic

    out = tmp_path / "chart.svg"
    write_results_svg(table, out)
    assert out.read_text() == svg

    retitled = results_svg(table, title="Mean rounds")
    assert "Mean rounds" in retitled


def test_embedding_rows_two_object_task():
    rows = embedding_rows(ExperimentConfig(tasks=("openbox",)))
    assert len(rows) == 2
    tasks = {r[0] for r in rows}
    ids = {r[1] for r in rows}
    assert tasks == {"openbox"}
    assert ids == {"openbox/lift", "openbox/slide"}
    # two objects support one component; y pads to zero
    for _, _, x, y in rows:
        assert y == 0.0
    xs = sorted(r[2] for r in rows)
    assert xs[0] == pytest.approx(-xs[1], rel=1e-9)
    assert xs[1] > 0


def test_embedding_rows_one_object_task(tmp_path):
    # one canonical embedding supports no component; the object sits at the origin
    from replan import EnvKind, build_dataset, save_dataset

    dataset = build_dataset(EnvKind.TURN_FAUCET, per_theta_fail=2)
    save_dataset(tmp_path / "turnfaucet", "turnfaucet",
                 [t for t in dataset.tuples if t.object_id == "turnfaucet/cw"])
    config = ExperimentConfig(tasks=("turnfaucet",), data_root=str(tmp_path))
    assert embedding_rows(config) == [("turnfaucet", "turnfaucet/cw", 0.0, 0.0)]


def test_embedding_csv(tmp_path):
    rows = [("openbox", "openbox/lift", 1.25, 0.0), ("openbox", "openbox/slide", -1.25, 0.0)]
    path = tmp_path / "embed.csv"
    write_embedding_csv(rows, path)
    text = path.read_text().splitlines()
    assert text[0] == "task,object_id,x,y"
    assert text[1] == "openbox,openbox/lift,1.250000,0.000000"
    assert len(text) == 3
