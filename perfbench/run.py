"""Benchmark of the replan loop: one workload, cold processes, closed loop.

Run from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 0 --seconds 40 --trace 0

A run is a sequence of chunks.  Each chunk is a fresh ``child.py`` process
(users of ``replan run`` always start cold) that runs one
``ExperimentConfig`` grid, one episode at a time, with its own
``master_seed`` (see ``workloads.chunk_seed``).  ``--seconds`` divided by
the workload's nominal chunk time gives the number of chunks.

``--trace 0`` runs the chunks untraced, then repeats chunk 0 in another
fresh process: its ``episodes.csv`` must hash the same.  It prints the
end-to-end metrics over the episodes of all chunks.  ``--trace 1`` runs
every chunk untraced and then traced (the two must hash the same), adds
fixed-input microbenchmarks, and prints the per-layer metrics with the
tracing overhead.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import CHUNK_SECONDS, DEFAULT_SEED, WORKLOADS, chunk_seed  # noqa: E402

SETUP_SAMPLES = 3    # set-up time is the median over at least this many
SLOW_FACTOR = 1.5    # no chunk is started that would end past this x --seconds
CHILD_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(root / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
        # One BLAS thread: set-up spread falls from about 8% to under 1%.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
    )
    return env


def spawn(root: Path, workload: str, seed: int, mode: str, budget_s: float) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--mode", mode, "--out", str(root / OUT_DIR),
    ]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=child_env(root), capture_output=True, text=True,
            timeout=max(1.0, budget_s),
        )
    except subprocess.TimeoutExpired:
        return {"error": f"{mode} chunk exceeded {budget_s:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"{mode} chunk exited {proc.returncode}: {proc.stderr[-2000:]}"}
    result = json.loads(lines[-1])
    if "error" in result:
        return {"error": f"{mode} chunk raised: {result['error'][-2000:]}"}
    result["wall_s"] = time.perf_counter() - start
    return result


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        target = root / ".git" / ref[5:]
        return target.read_text().strip() if target.is_file() else ref[5:]
    return ref


def pooled(chunks: list[dict]) -> tuple[list[float], list[int]]:
    """Episode wall times (ms) and replans over the distinct episodes of ``chunks``."""
    return (
        [t for c in chunks for t in c["episode_ms"]],
        [r for c in chunks for r in c["replans"]],
    )


def end_to_end(
    chunks: list[dict], repeat: dict, setups: list[float], error_rate: float
) -> dict[str, tuple[float, str]]:
    # An episode runs ``replans`` rounds of retrieve -> generate -> reject ->
    # decode -> execute, and how many it needs is drawn with the trial, so
    # time is taken per round.  The repeat of chunk 0 is timed like any
    # chunk; throughput is the median over chunks, so a chunk that ran
    # during a slow spell of the machine does not move it.
    timed = chunks + [repeat]
    round_ms = [t for c in timed for t in c["round_ms"]]
    distinct = pooled(chunks)[1]
    return {
        "rounds_per_s": (median(1e3 * sum(c["replans"]) / sum(c["episode_ms"]) for c in timed), "1/s"),
        "round_ms_p50": (median(round_ms), "ms"),
        "round_ms_p90": (quantiles(round_ms, n=10, method="inclusive")[8], "ms"),
        "setup_s": (median(setups) / 1e3, "s"),
        "peak_rss_mb": (median(r["rss_mb"] for r in timed), "MB"),
        "mean_replans": (sum(distinct) / len(distinct), "replans"),
        "valid_fraction": (1.0 - error_rate, "fraction"),
    }


def per_layer(plain: list[dict], traced: list[dict], micro: dict) -> dict[str, tuple[float, str]]:
    def stat(name: str, key: str) -> float:
        return median(r["layers"].get(name, {}).get(key, 0.0) for r in traced)

    def calls(name: str) -> float:
        return traced[0]["layers"].get(name, {}).get("calls", 0)

    counts = traced[0]["counts"]
    out: dict[str, tuple[float, str]] = {}
    for name in (
        "core.ssim", "core.psnr", "refinement.refine_embedding", "generator.mse_objective",
        "generator.generate", "retrieval.retrieve", "encoders.encode_video",
        "encoders.pca_apply", "rejection.select_plan", "rejection.push",
        "actor.plan_to_action", "envs.execute", "envs.render",
    ):
        out[f"{name}.calls"] = (calls(name), "count")
        out[f"{name}.ms"] = (stat(name, "ms"), "ms")
    out["retrieval.retrieval_probabilities.calls"] = (
        calls("retrieval.retrieval_probabilities"), "count")
    out["refinement.refine_embedding.self_ms"] = (
        stat("refinement.refine_embedding", "self_ms"), "ms")
    out["generator.objective.evals"] = (calls("generator.objective"), "count")
    out["generator.objective.rows"] = (counts.get("generator.objective.rows", 0), "count")
    out["generator.objective.ms"] = (stat("generator.objective", "ms"), "ms")
    for name in (
        "generator.fit_generator", "retrieval.build_table", "encoders.pca_fit",
        "datasets.build_dataset", "loop.build_assets", "report.write_episodes_csv",
    ):
        out[f"{name}.ms"] = (stat(name, "ms"), "ms")
    out["loop.run_episode.self_ms"] = (stat("loop.run_episode", "self_ms"), "ms")
    for name, value in micro.items():
        out[name] = (value, "ms")

    scored = counts.get("loop.plans_scored", 0)
    out["core.metric_cache.hit_ratio"] = (
        1.0 - calls("core.ssim") / scored if scored else 0.0, "ratio")
    decodes = calls("actor.plan_to_action")
    out["actor.decode_ok_ratio"] = (
        1.0 - counts.get("actor.plan_to_action.errors", 0) / decodes if decodes else 0.0, "ratio")
    executes = calls("envs.execute")
    out["envs.render_per_execute"] = (
        calls("envs.render") / executes if executes else 0.0, "ratio")
    episode_ms = stat("loop.run_episode", "ms")
    out["loop.layer_coverage"] = (
        1.0 - out["loop.run_episode.self_ms"][0] / episode_ms if episode_ms else 0.0, "ratio")
    out["loop.phase_coverage"] = (
        sum(r["phase_ms"] for r in plain) / sum(sum(r["episode_ms"]) for r in plain), "ratio")
    # Chunk k runs the same episodes untraced and traced.
    out["trace.overhead_ratio"] = (
        median(sum(t["episode_ms"]) / sum(p["episode_ms"]) for p, t in zip(plain, traced)),
        "ratio")
    out["trace.spans"] = (traced[0]["spans"], "count")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="replan loop benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "replan" / "__init__.py").is_file():
        print(f"error: no replan sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    (root / OUT_DIR).mkdir(exist_ok=True)

    start = time.perf_counter()
    def remaining() -> float:
        return CHILD_TIMEOUT_S - (time.perf_counter() - start)

    micro = spawn(root, args.workload, args.seed, "micro", remaining()) if args.trace else {}
    errors = [micro["error"]] if "error" in micro else []
    plain: list[dict] = []     # chunk k untraced, k = 0, 1, ...
    checks: list[dict] = []    # the same chunks again: chunk 0 untraced, or chunk k traced
    # --seconds over the workload's nominal chunk time gives the number of
    # chunk processes: untraced, the last of them repeats chunk 0; traced,
    # every chunk runs twice.  On an overloaded machine no chunk starts that
    # would end, with its repeat, past SLOW_FACTOR x --seconds.
    count = max(1, round(args.seconds / CHUNK_SECONDS[args.workload] / (1 + args.trace)))
    count -= 1 - args.trace if count > 1 else 0
    chunk_s = 0.0
    for k in range(count):
        elapsed = time.perf_counter() - start
        if errors or (k and elapsed + 2 * chunk_s > SLOW_FACTOR * args.seconds):
            break
        seed = chunk_seed(args.seed, k)
        result = spawn(root, args.workload, seed, "plain", remaining())
        if "error" not in result and args.trace:
            traced = spawn(root, args.workload, seed, "trace", remaining())
            if "error" in traced:
                result = traced
            else:
                checks.append(traced)
        if "error" in result:
            errors.append(result["error"])
            break
        plain.append(result)
        chunk_s = (time.perf_counter() - start - elapsed) / (1 + args.trace)
    if plain and not errors and not args.trace:
        result = spawn(root, args.workload, args.seed, "plain", remaining())
        if "error" in result:
            errors.append(result["error"])
        else:
            checks.append(result)
    # Set-up time is a median over cold processes; top up with set-up-only ones.
    setups = [r["setup_ms"] for r in plain + checks]
    while not errors and not args.trace and len(setups) < SETUP_SAMPLES:
        result = spawn(root, args.workload, args.seed, "setup", remaining())
        if "error" in result:
            errors.append(result["error"])
        else:
            setups.append(result["setup_ms"])

    reps = plain + checks
    expected = reps[0]["expected"] if reps else 1
    attempted = expected * (len(reps) + len(errors))
    failed = sum(r["invalid"] for r in reps) + expected * len(errors)
    problems = list(errors)
    pairs = zip(checks, plain) if args.trace else zip(checks, plain[:1])
    for k, (check, chunk) in enumerate(pairs):
        if check["digest"] != chunk["digest"]:
            problems.append(f"{args.workload}: episodes.csv of chunk {k} differs between "
                            f"repetitions: {chunk['digest']} vs {check['digest']}")
    reference = json.loads((HERE / "reference.json").read_text())
    if args.seed == reference["seed"]:
        for k, (chunk, want) in enumerate(zip(plain, reference["sha256"].get(args.workload, []))):
            if chunk["digest"] != want:
                problems.append(
                    f"{args.workload}: episodes.csv sha256 of chunk {k} is {chunk['digest']}, "
                    f"not the reference {want} for seed {reference['seed']}")
    if failed:
        problems.append(f"{args.workload}: {failed} of {attempted} episodes raised or were invalid")
    rounds = sum(len(r["round_ms"]) for r in plain + checks)
    if not args.trace and plain and rounds < 2:
        problems.append(f"{args.workload}: {rounds} replanning rounds timed, too few for percentiles")

    env = (micro or (reps[0] if reps else {})).get("env", {})
    print(f"workload {args.workload}  seed {args.seed}  payload {json.dumps(WORKLOADS[args.workload])}")
    print(f"environment {json.dumps(env)}  commit {git_commit(root)}")
    print(f"chunks: {len(plain)} untraced and {len(checks)} repeated "
          f"({'traced' if args.trace else 'untraced'}), one fresh process each, "
          f"closed loop with one client; wall s {[round(r['wall_s'], 2) for r in reps]}")
    if reference["seed"] == args.seed:
        print(f"digests: {[c['digest'] for c in plain]}")
    metrics: dict[str, tuple[float, str]] = {}
    if plain and len(checks) == (len(plain) if args.trace else 1) and not problems:
        if args.trace:
            metrics = per_layer(plain, checks, micro["micro"])
            if checks[0]["missing"]:
                print(f"not traced (call site missing): {checks[0]['missing']}")
            print("encodes inside retrieval use encode_video bound as a default argument, "
                  "so they count under retrieval.*, not encoders.encode_video")
            print(f"spans written to {OUT_DIR}/spans-{args.workload}.jsonl")
        else:
            metrics = end_to_end(plain, checks[0], setups, failed / attempted)
            episode_ms, _ = pooled(plain + checks)
            n = len(episode_ms)
            print(f"round_ms over n={rounds} replanning rounds ({rounds - int(0.9 * rounds)} "
                  f"beyond p90) of {n} episodes; rounds_per_s is the median over "
                  f"{len(plain) + 1} chunks; {len(setups)} set-up samples")
            print(f"episodes_per_s {1e3 * n / sum(episode_ms):.6g}  "
                  f"episode_ms_p50 {median(episode_ms):.6g}  "
                  f"episode_ms_p90 {quantiles(episode_ms, n=10, method='inclusive')[8]:.6g} "
                  f"(not bounded: they follow the replans the drawn trials need)")
            print(f"rounds_per_s per chunk "
                  f"{[round(1e3 * sum(r['replans']) / sum(r['episode_ms']), 2) for r in plain + checks]}")
            print(f"error_rate {failed / attempted:.6f} ({failed} of {attempted})")
        for name, (value, unit) in metrics.items():
            print(f"{name} = {value:.6g} {unit}")
    for problem in problems:
        print(f"FAIL {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
