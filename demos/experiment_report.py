"""
End to end: a seeded benchmark grid, its statistics, and the report files.
"""

import tempfile
from pathlib import Path

from replan import (
    ExperimentConfig,
    plan_quality,
    run_experiment,
    write_episodes_csv,
    write_results_svg,
    write_summary_csv,
)


def run_example():
    # Step 1: declare the grid. Everything downstream is a pure function
    # of this config; trial seeds derive from (master_seed, task, method,
    # trial), so any cell can be reproduced in isolation.
    config = ExperimentConfig(
        tasks=("openbox", "turnfaucet"),
        methods=("random", "avdc", "ours"),
        trials=60,
    )
    result = run_experiment(config)
    print("episodes:", len(result.rows))

    # Step 2: per-cell statistics. "replans until success" counts
    # plan-execute rounds, so lower is better and 1.0 is perfect.
    table = result.table
    for task in config.tasks:
        cells = ", ".join(
            f"{m} {table.cell(m, task).mean:.2f}+-{table.cell(m, task).sem:.2f}"
            for m in config.methods
        )
        print(f"  {task}: {cells}")

    # Step 3: normalized aggregate (mean over tasks of each method's
    # ratio to ours) and plan quality against the scripted ground truth.
    for method, value in table.normalized().items():
        print(f"  normalized {method}: {value:.3f}")
    for method, (mean_psnr, mean_ssim) in plan_quality(result.rows).items():
        print(f"  {method}: plan psnr {mean_psnr:.2f}, ssim {mean_ssim:.4f}")

    # Step 4: write the report artifacts: one CSV row per episode, the
    # summary table with its normalized footer, and a bar-chart SVG.
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        write_episodes_csv(result.rows, out / "episodes.csv")
        write_summary_csv(table, out / "summary.csv")
        write_results_svg(table, out / "results.svg")
        for name in ("episodes.csv", "summary.csv", "results.svg"):
            print(f"  wrote {name}: {(out / name).stat().st_size} bytes")
        print("\nsummary.csv:")
        print((out / "summary.csv").read_text())


if __name__ == "__main__":
    run_example()
