"""End-to-end command line workflow."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from replan import EpisodeRow, ExperimentConfig, load_dataset, read_episodes_csv
from replan import write_episodes_csv
from replan.cli import build_parser, main
from replan.report import EPISODE_COLUMNS


def run_cli(*argv):
    return main([str(a) for a in argv])


def test_parser_rejects_unknown_env(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["gen-data", "--env", "jenga", "--out", "x"])


def test_parser_lists_subcommands():
    assert "{gen-data,run,ablate,report}" in build_parser().format_help()


def test_gen_data(tmp_path, capsys):
    data = tmp_path / "openbox"
    assert run_cli("gen-data", "--env", "openbox", "--out", data) == 0
    out = capsys.readouterr().out
    assert "22 rollouts" in out and "2 objects" in out

    manifest = json.loads((data / "manifest.json").read_text())
    assert manifest["env"] == "openbox"
    # an entry is what the method reads; its object id names the hidden value
    assert {tuple(entry) for entry in manifest["entries"]} == {("video", "object_id", "success")}
    dataset = load_dataset(data)
    assert len(dataset) == 22
    assert set(dataset.by_object) == {"openbox/lift", "openbox/slide"}


def cli_error(capsys, *argv):
    """The message of the one ``error:`` line ``main`` prints to stderr for ``argv``,
    which it must end with exit code 2 and nothing on stdout."""
    assert run_cli(*argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err
    return err.removeprefix("error: ").removesuffix("\n")


def test_gen_data_rejects_negative_fail_count(tmp_path, capsys):
    data = tmp_path / "openbox"
    message = cli_error(capsys, "gen-data", "--env", "openbox", "--out", data,
                        "--per-theta-fail", "-3")
    assert message == "build_dataset's per_theta_fail must be an integer >= 0, got -3"
    assert not data.exists()


def test_run_with_a_bad_config_prints_one_error_line_and_no_traceback(tmp_path):
    exp = tmp_path / "bad.json"
    exp.write_text(json.dumps({"trials": 0}))
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-m", "replan.cli", "run", "--experiment", str(exp),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "error: ExperimentConfig.trials must be an integer >= 1, got 0\n"
    assert not (tmp_path / "out").exists()


def experiment_json(tmp_path, data_root=None, **overrides):
    payload = {
        "tasks": ["openbox"],
        "methods": ["random", "ours"],
        "trials": 40,
    }
    if data_root is not None:
        payload["data_root"] = str(data_root)
    payload.update(overrides)
    path = tmp_path / "experiment.json"
    path.write_text(json.dumps(payload))
    return path


def test_report_on_a_csv_where_a_method_lacks_a_task(tmp_path):
    # ours has no openbox episodes: its normalized value, and avdc's against it, are blank
    rows = [EpisodeRow(task, method, 0, 0, 0.0, replans, True, None, None, {})
            for task, method, replans in (("pushbar", "ours", 2), ("openbox", "avdc", 3),
                                          ("pushbar", "avdc", 4))]
    write_episodes_csv(rows, tmp_path / "episodes.csv")
    summary = tmp_path / "summary.csv"
    assert run_cli("report", "--in", tmp_path, "--csv", summary,
                   "--svg", tmp_path / "chart.svg") == 0
    lines = summary.read_text().splitlines()
    assert lines[1:4] == ["pushbar,ours,2.0000,0.0000,1", "pushbar,avdc,4.0000,0.0000,1",
                          "openbox,avdc,3.0000,0.0000,1"]
    assert lines[-3:] == ["method,normalized_replans", "ours,", "avdc,"]


def test_report_embed_csv_rejects_a_config_that_names_pca_k(tmp_path, capsys):
    # config.json files written before the PCA dimension was worked out from the dataset
    # hold "pca_k": null; the key is unknown now, as any removed key is
    write_episodes_csv([EpisodeRow("openbox", "ours", 0, 0, 0.0, 2, True, None, None, {})],
                       tmp_path / "episodes.csv")
    config = {**ExperimentConfig(tasks=("openbox",)).to_dict(), "pca_k": None}
    (tmp_path / "config.json").write_text(json.dumps(config))
    embed_csv = tmp_path / "embed.csv"
    message = cli_error(capsys, "report", "--in", tmp_path, "--csv", tmp_path / "summary.csv",
                        "--svg", tmp_path / "chart.svg", "--embed-csv", embed_csv)
    assert message == "unknown experiment keys: ['pca_k']"
    assert not embed_csv.exists() and not (tmp_path / "summary.csv").exists()


def test_run_and_report_workflow(tmp_path, capsys):
    data_root = tmp_path / "data"
    run_cli("gen-data", "--env", "openbox", "--out", data_root / "openbox")

    exp = experiment_json(tmp_path, data_root=data_root)
    out = tmp_path / "results"
    assert run_cli("run", "--experiment", exp, "--out", out) == 0
    stdout = capsys.readouterr().out
    assert "normalized ours: 1.000" in stdout

    episodes = out / "episodes.csv"
    rows = read_episodes_csv(episodes)
    assert len(rows) == 80
    assert (out / "summary.csv").exists()
    config = json.loads((out / "config.json").read_text())
    assert config["tasks"] == ["openbox"]
    assert config["trials"] == 40

    header = episodes.read_text().splitlines()[0]
    assert header == ",".join(EPISODE_COLUMNS)

    report_csv = tmp_path / "summary2.csv"
    report_svg = tmp_path / "chart.svg"
    embed_csv = tmp_path / "embed.csv"
    assert run_cli(
        "report", "--in", out, "--csv", report_csv, "--svg", report_svg,
        "--embed-csv", embed_csv,
    ) == 0
    capsys.readouterr()
    assert report_csv.read_text().startswith("task,method,mean_replans")
    assert report_svg.read_text().startswith("<svg")
    embed_lines = embed_csv.read_text().splitlines()
    assert embed_lines[0] == "task,object_id,x,y"
    assert len(embed_lines) == 3  # two openbox objects

    # the report command accepts the CSV file path as well as the directory
    report_csv2 = tmp_path / "summary3.csv"
    assert run_cli("report", "--in", episodes, "--csv", report_csv2, "--svg", report_svg) == 0
    capsys.readouterr()
    assert report_csv2.read_text() == report_csv.read_text()


def test_rerun_is_bit_identical(tmp_path, capsys):
    exp = experiment_json(tmp_path, trials=15)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    run_cli("run", "--experiment", exp, "--out", out_a)
    run_cli("run", "--experiment", exp, "--out", out_b)
    capsys.readouterr()
    assert (out_a / "episodes.csv").read_bytes() == (out_b / "episodes.csv").read_bytes()
    assert (out_a / "summary.csv").read_bytes() == (out_b / "summary.csv").read_bytes()


def episodes_under_blas_threads(tmp_path, exp, coretypes=()):
    """The episodes CSV of ``replan run`` under 1 and under 2 OpenBLAS threads, then under
    1 thread with each of ``coretypes``, the OpenBLAS kernel sets named by
    ``OPENBLAS_CORETYPE``."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    blas = [{"OPENBLAS_NUM_THREADS": threads} for threads in ("1", "2")]
    blas += [{"OPENBLAS_NUM_THREADS": "1", "OPENBLAS_CORETYPE": core} for core in coretypes]
    outs = []
    for i, settings in enumerate(blas):
        out = tmp_path / f"blas{i}"
        env = {**os.environ, **settings,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        subprocess.run(
            [sys.executable, "-m", "replan.cli", "run", "--experiment", str(exp), "--out", str(out)],
            env=env, check=True, capture_output=True, timeout=120,
        )
        outs.append((out / "episodes.csv").read_bytes())
    return outs


def test_episodes_identical_across_blas_threads(tmp_path):
    # BLAS may split reductions differently with more threads, or another kernel set
    # round its set-up floats differently (Prescott's do for these three tasks); the
    # decisions, and so the CSV, must not move.  pushbar refines over the most embedding
    # groups (17)
    exp = experiment_json(
        tmp_path, tasks=["pushbar", "slidebrick", "openbox"], methods=["ours", "ours_refine"],
        trials=10,
    )
    outs = episodes_under_blas_threads(tmp_path, exp, coretypes=["Prescott"])
    assert len(outs) == 3 and len(set(outs)) == 1
    assert len(outs[0].splitlines()) == 1 + 3 * 2 * 10


def test_wide_episodes_identical_across_blas_threads(tmp_path):
    # batched rejection: candidate-to-failure feature distances are BLAS products
    exp = experiment_json(
        tmp_path, tasks=["pushbar"], methods=["ours"], trials=20, n_candidates=5,
        rejection_metric="embedding", buffer_policy="aggregate",
    )
    outs = episodes_under_blas_threads(tmp_path, exp)
    assert outs[0] == outs[1]
    assert len(outs[0].splitlines()) == 1 + 20


def test_run_timing_flag(tmp_path, capsys):
    exp = experiment_json(tmp_path, trials=5, methods=["ours"])
    out = tmp_path / "timed"
    run_cli("run", "--experiment", exp, "--out", out, "--timing")
    capsys.readouterr()
    rows = read_episodes_csv(out / "episodes.csv")
    assert any(sum(r.wall_ms.values()) > 0 for r in rows)


def test_run_prints_cell_progress(tmp_path, capsys):
    import logging

    exp = experiment_json(tmp_path, trials=4)
    run_cli("run", "--experiment", exp, "--out", tmp_path / "out")
    lines = capsys.readouterr().out.splitlines()
    rows = read_episodes_csv(tmp_path / "out" / "episodes.csv")
    assert lines[:2] == [
        f"{'openbox':>12} {method:>15}: mean replans "
        f"{np.mean([r.replans for r in rows if r.method == method]):.3f}"
        for method in ("random", "ours")
    ]
    assert lines[2].startswith("wrote ")
    # the stdout handler is gone once the command returns
    progress = logging.getLogger("replan.loop")
    assert progress.handlers == [] and progress.level == logging.NOTSET


def test_ablate_smoke(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exp = experiment_json(tmp_path, methods=["ours"], trials=4)
    assert run_cli(
        "ablate", "--sweep", "rejection-metric", "--experiment", exp,
        "--out", tmp_path / "sweep", "--trials", "3",
    ) == 0
    stdout = capsys.readouterr().out
    assert "raw_pixel" in stdout and "embedding" in stdout
    for label in ("raw_pixel", "embedding"):
        sub = tmp_path / "sweep" / label
        assert (sub / "episodes.csv").exists()
        assert (sub / "summary.csv").exists()
        config = json.loads((sub / "config.json").read_text())
        assert config["rejection_metric"] == label
        assert config["trials"] == 3
