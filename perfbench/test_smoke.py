"""Smoke test of the benchmark harness at tiny size.

Copies the harness and ``src/`` into a temporary checkout with every
workload cut to two trials, runs each workload untraced and traced, and
checks that every metric ``BENCHMARK.json`` names is printed with its unit.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _checkout(tmp_path: Path, with_src: bool = True) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
        workloads = tmp_path / HERE.name / "workloads.py"
        text = re.sub(r'"trials": \d+', '"trials": 2', workloads.read_text())
        workloads.write_text(text)
    return tmp_path


def _run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [*SPEC["command"], "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def tiny(tmp_path_factory) -> Path:
    return _checkout(tmp_path_factory.mktemp("checkout"))


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_printed_with_unit(tiny: Path, workload: str, trace: int) -> None:
    proc = _run(tiny, workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, lines
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    for metric in named:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
        assert any(
            line.startswith(f"{metric['name']} = ") and line.endswith(f" {metric['unit']}")
            for line in lines
        )


def test_fails_without_sources(tmp_path: Path) -> None:
    proc = _run(_checkout(tmp_path, with_src=False), SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
