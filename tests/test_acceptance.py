"""Acceptance suite: ten end-to-end checks covering oracle equivalence,
closed-loop soundness, benchmark orderings, ablations, and reproducibility.

Each test prints one PASS/FAIL line with the measured numbers so the
whole gate can be audited from the pytest output (run with -s or read
the captured stdout of a failure).
"""

import json
import math
import time

import numpy as np
import pytest

from replan import (
    BufferPolicy,
    DistanceMetric,
    EmbeddingTable,
    EnvKind,
    ExperienceDataset,
    ExperienceTuple,
    ExperimentConfig,
    FailedPlanBuffer,
    GeneratorMode,
    PcaProjection,
    RefineConfig,
    RejectionMetric,
    RetrievalConfig,
    Video,
    ablation_sweep,
    all_instances,
    build_table,
    encode_video,
    execute,
    fit_generator,
    id_generate,
    pca_fit,
    plan_quality,
    plan_to_action,
    refine_embedding,
    retrieval_probabilities,
    retrieve,
    run_experiment,
    scripted_action,
    select_plan,
)
from replan.cli import main

# Saturating tasks for the candidate-count and rejection-metric ablations;
# the bar tasks' nearly flat planning kernel keeps paying for extra
# candidates well past n=2, which would mask the orderings under test.
ABLATION_TASKS = ("openbox", "turnfaucet", "slidebrick")


def _verdict(num: int, ok: bool, detail: str) -> bool:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


@pytest.fixture(scope="module")
def full_suite():
    """One timed run of the complete default task x method x trial grid."""
    start = time.perf_counter()
    result = run_experiment(ExperimentConfig())
    return result, time.perf_counter() - start


def _flat64(video: Video) -> np.ndarray:
    return np.asarray(video.pixels, dtype=np.float64).reshape(-1)


def _identity_projection(k: int) -> PcaProjection:
    return PcaProjection(mean=np.zeros(k), components=np.eye(k), k=k)


def _random_table(rng: np.random.Generator, k: int, entries: int) -> EmbeddingTable:
    objects = int(rng.integers(1, entries + 1))
    return EmbeddingTable(
        object_ids=tuple(f"o{j}" for j in range(objects)),
        canonical=rng.uniform(size=(objects, k)),
        entry_embeddings=rng.uniform(size=(entries, k)),
        entry_object_index=rng.integers(0, objects, entries).astype(np.int64),
        projection=_identity_projection(k),
    )


def test_criterion_01_retrieval_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(4210)
    worst = 0.0
    for _ in range(1000):
        k = int(rng.integers(1, 5))
        table = _random_table(rng, k, int(rng.integers(1, 9)))
        config = RetrievalConfig(
            metric=DistanceMetric.L2 if rng.random() < 0.5 else DistanceMetric.COSINE,
            tau=float(rng.uniform(0.05, 2.0)),
            buffer_policy=BufferPolicy.LATEST
            if rng.random() < 0.5
            else BufferPolicy.AGGREGATE,
        )
        queries = [
            Video(rng.uniform(0.05, 0.95, (1, 1, k)).astype(np.float32))
            for _ in range(int(rng.integers(1, 4)))
        ]
        got = retrieval_probabilities(table, queries, config, encoder=_flat64)

        # independent path: scalar math, no shared softmax code
        use = queries[-1:] if config.buffer_policy is BufferPolicy.LATEST else queries
        rows = []
        for q in use:
            qv = _flat64(q)
            row = []
            for e in table.entry_embeddings:
                if config.metric is DistanceMetric.L2:
                    d = math.sqrt(sum((a - b) ** 2 for a, b in zip(qv, e)))
                else:
                    qn = math.sqrt(sum(a * a for a in qv))
                    en = math.sqrt(sum(b * b for b in e))
                    d = 1.0 - sum(a * b for a, b in zip(qv, e)) / (qn * en)
                row.append(-d)
            rows.append(row)
        logits = [sum(col) / len(use) for col in zip(*rows)]
        weights = [math.exp(l / config.tau) for l in logits]
        total = sum(weights)
        worst = max(
            worst, max(abs(g - w / total) for g, w in zip(got, weights))
        )

    # sampling frequencies: 5 objects, one entry each, 1e5 draws
    srng = np.random.default_rng(99)
    canon = srng.uniform(0.1, 0.9, (5, 2))
    table = EmbeddingTable(
        object_ids=tuple(f"s{j}" for j in range(5)),
        canonical=canon,
        entry_embeddings=canon.copy(),
        entry_object_index=np.arange(5, dtype=np.int64),
        projection=_identity_projection(2),
    )
    config = RetrievalConfig(tau=0.25)
    query = Video(srng.uniform(0.2, 0.8, (1, 1, 2)).astype(np.float32))
    probs = retrieval_probabilities(table, query, config, encoder=_flat64)
    draws = 100_000
    counts = np.zeros(5)
    for _ in range(draws):
        picked = retrieve(table, query, config, srng, encoder=_flat64)
        counts[int(np.where((canon == picked).all(axis=1))[0][0])] += 1
    sigmas = np.sqrt(draws * probs * (1.0 - probs))
    max_z = float(np.max(np.abs(counts - draws * probs) / sigmas))

    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and max_z <= 3.0 and elapsed < 10.0
    assert _verdict(
        1,
        ok,
        f"max |p - oracle| {worst:.2e} over 1000 instances; "
        f"sampling max z {max_z:.2f} over {draws} draws; {elapsed:.1f}s < 10s",
    )


def test_criterion_02_rejection_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(881)
    mismatches = 0
    for _ in range(1000):
        cands = [
            Video(rng.uniform(0, 1, (2, 32, 32)).astype(np.float32))
            for _ in range(int(rng.integers(1, 6)))
        ]
        fails = [
            Video(rng.uniform(0, 1, (2, 32, 32)).astype(np.float32))
            for _ in range(int(rng.integers(0, 6)))
        ]
        buffer = FailedPlanBuffer()
        for f in fails:
            buffer.push(f)
        metric = (
            RejectionMetric.RAW_PIXEL if rng.random() < 0.5 else RejectionMetric.EMBEDDING
        )
        idx, plan = select_plan(cands, buffer, metric)

        scores = []
        for c in cands:
            if not fails:
                scores.append(math.inf)
                continue
            ds = []
            for f in fails:
                if metric is RejectionMetric.RAW_PIXEL:
                    diff = np.asarray(c.pixels, np.float64) - np.asarray(f.pixels, np.float64)
                    ds.append(math.sqrt(float((diff * diff).sum())))
                else:
                    ds.append(float(np.linalg.norm(encode_video(c) - encode_video(f))))
            scores.append(min(ds))
        want = max(range(len(cands)), key=lambda i: (scores[i], -i))
        if idx != want or plan is not cands[idx]:
            mismatches += 1

    # empty buffer: every candidate ties at +inf, index 0 wins
    empty_ok = all(
        select_plan(
            [
                Video(rng.uniform(0, 1, (1, 32, 32)).astype(np.float32))
                for _ in range(int(rng.integers(1, 6)))
            ],
            FailedPlanBuffer(),
        )[0]
        == 0
        for _ in range(50)
    )
    # exact tie between identical twins resolves to the lower index
    base = Video(np.zeros((1, 32, 32), dtype=np.float32))
    far = Video(np.full((1, 32, 32), 0.9, dtype=np.float32))
    near = Video(np.full((1, 32, 32), 0.1, dtype=np.float32))
    buf = FailedPlanBuffer().push(base)
    tie_ok = all(
        select_plan([near, far, Video(far.pixels.copy()), near], buf, metric)[0] == 1
        for metric in RejectionMetric
    )

    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and empty_ok and tie_ok and elapsed < 10.0
    assert _verdict(
        2,
        ok,
        f"{mismatches} argmax mismatches over 1000 instances; "
        f"empty-buffer {'ok' if empty_ok else 'BAD'}, ties {'ok' if tie_ok else 'BAD'}; "
        f"{elapsed:.1f}s < 10s",
    )


def test_criterion_03_pca_oracle():
    rng = np.random.default_rng(52)
    worst_proj = 0.0
    worst_orth = 0.0
    for _ in range(20):
        n = int(rng.integers(6, 40))
        d = int(rng.integers(3, 16))
        k = int(rng.integers(1, min(6, d, n - 1) + 1))
        x = rng.normal(size=(n, d))
        projection = pca_fit(x, k)

        cov = np.cov(x, rowvar=False, ddof=1)
        evals, evecs = np.linalg.eigh(cov)
        want = evecs[:, np.argsort(evals)[::-1][:k]].T
        for row in range(k):
            if want[row][np.argmax(np.abs(want[row]))] < 0:
                want[row] = -want[row]

        worst_proj = max(worst_proj, float(np.max(np.abs(projection.components - want))))
        gram = projection.components @ projection.components.T
        worst_orth = max(worst_orth, float(np.max(np.abs(gram - np.eye(k)))))

    ok = worst_proj < 1e-6 and worst_orth < 1e-8
    assert _verdict(
        3,
        ok,
        f"max |components - eigh oracle| {worst_proj:.2e} (< 1e-6) "
        f"over 20 matrices; orthonormality residual {worst_orth:.2e} (< 1e-8)",
    )


def test_criterion_04_closed_loop_soundness():
    start = time.perf_counter()
    total = 0
    wins = 0
    for kind in EnvKind:
        for env in all_instances(kind):
            gt = execute(env, scripted_action(env))
            replay = execute(env, plan_to_action(kind, gt.video))
            total += 1
            wins += int(gt.success and replay.success)
    elapsed = time.perf_counter() - start
    ok = total == 65 and wins == 65 and elapsed < 5.0
    assert _verdict(
        4,
        ok,
        f"scripted plan -> decode -> execute succeeded {wins}/{total} "
        f"(need 65/65); {elapsed:.2f}s < 5s",
    )


def test_criterion_05_two_mode_benchmark():
    start = time.perf_counter()
    cfg = ExperimentConfig(
        tasks=("openbox", "turnfaucet"), methods=("random", "avdc", "ours"), trials=400
    )
    table = run_experiment(cfg).table
    elapsed = time.perf_counter() - start

    parts = []
    ok = elapsed < 120.0
    for task in cfg.tasks:
        rnd = table.cell("random", task)
        avdc = table.cell("avdc", task)
        ours = table.cell("ours", task)
        gap = avdc.mean - ours.mean
        need = 2.0 * (avdc.sem + ours.sem)
        ok = (
            ok
            and 1.85 <= rnd.mean <= 2.15
            and 1.40 <= ours.mean <= 1.65
            and gap > need
        )
        parts.append(
            f"{task}: random {rnd.mean:.3f}, avdc {avdc.mean:.3f}, "
            f"ours {ours.mean:.3f}, gap {gap:.3f} > {need:.3f}"
        )
    assert _verdict(5, ok, "; ".join(parts) + f"; {elapsed:.1f}s < 120s")


def test_criterion_06_continuous_benchmark():
    start = time.perf_counter()
    tasks = ("pushbar", "pickbar", "slidebrick")
    cfg = ExperimentConfig(tasks=tasks, methods=("avdc", "ours", "ours_refine"), trials=400)
    table = run_experiment(cfg).table
    elapsed = time.perf_counter() - start

    parts = []
    per_task = True
    for task in tasks:
        avdc = table.cell("avdc", task)
        ours = table.cell("ours", task)
        gap = avdc.mean - ours.mean
        need = 2.0 * (avdc.sem + ours.sem)
        per_task = per_task and gap > need
        parts.append(f"{task}: ours {ours.mean:.3f} vs avdc {avdc.mean:.3f} (gap {gap:.3f} > {need:.3f})")
    norm = table.normalized("ours")
    ordering = norm["ours"] < norm["ours_refine"] < norm["avdc"]
    ok = per_task and ordering and elapsed < 600.0
    assert _verdict(
        6,
        ok,
        "; ".join(parts)
        + f"; normalized {norm['ours']:.3f} < {norm['ours_refine']:.3f} < {norm['avdc']:.3f}"
        + f"; {elapsed:.1f}s < 600s",
    )


def _ours_aggregate(result) -> float:
    return float(np.mean([result.table.cell("ours", t).mean for t in ABLATION_TASKS]))


def test_criterion_07_ablation_orderings(full_suite):
    base = ExperimentConfig(tasks=ABLATION_TASKS, trials=400)

    by_n = ablation_sweep("n-candidates", base)
    aggs = {n: _ours_aggregate(by_n[f"n={n}"]) for n in (1, 2, 3, 4, 5)}
    saving = (aggs[1] - aggs[2]) / aggs[1]
    spread = max(aggs[n] for n in (2, 3, 4, 5)) / min(aggs[n] for n in (2, 3, 4, 5))

    by_metric = ablation_sweep("rejection-metric", base)
    raw = _ours_aggregate(by_metric["raw_pixel"])
    emb = _ours_aggregate(by_metric["embedding"])

    norm = full_suite[0].table.normalized("ours")
    modules_ok = (
        norm["avdc_rejection"] < norm["avdc"]
        and norm["avdc_retrieval"] < norm["avdc"]
        and norm["ours"] < norm["avdc_rejection"]
        and norm["ours"] < norm["avdc_retrieval"]
    )

    ok = aggs[2] < aggs[1] and spread <= 1.10 and raw <= emb and modules_ok
    assert _verdict(
        7,
        ok,
        f"n=2 {aggs[2]:.3f} < n=1 {aggs[1]:.3f} (saving {saving:.1%}); "
        f"n=2..5 spread {spread:.3f} <= 1.10; "
        f"raw_pixel {raw:.3f} <= embedding {emb:.3f}; "
        f"modules ours {norm['ours']:.3f} < rej {norm['avdc_rejection']:.3f} / "
        f"ret {norm['avdc_retrieval']:.3f} < avdc {norm['avdc']:.3f}",
    )


def _motion_pattern_videos() -> list[Video]:
    """Three synthetic objects with high-contrast full-frame motion."""
    rows, cols = np.mgrid[0:32, 0:32]
    videos = []
    for i in range(3):
        px = np.full((8, 32, 32), 0.1, dtype=np.float32)
        for t in range(1, 8):
            if i == 0:
                mask = (rows + t) % 8 < 4
            elif i == 1:
                mask = (cols + 2 * t) % 8 < 4
            else:
                mask = ((rows + cols + t) // 4) % 2 == 0
            px[t] = np.where(mask, 0.95, 0.05).astype(np.float32)
        videos.append(Video(px))
    return videos


def test_criterion_08_planted_recovery():
    videos = _motion_pattern_videos()
    tuples = tuple(ExperienceTuple(v, f"syn/{i}", True) for i, v in enumerate(videos))
    dataset = ExperienceDataset(tuples)
    raw = np.stack([encode_video(t.video) for t in tuples])
    # whitened so canonicals sit at the same O(1) scale as the random inits
    projection = pca_fit(raw, 2, rescale_variance=True)
    table = build_table(dataset, projection, raw)
    g = fit_generator(dataset, table, GeneratorMode.IDENTIFICATION)

    wins = 0
    finals = []
    for seed in range(20):
        planted = seed % 3
        target = 2.0 * table.canonical[planted]
        observed = id_generate(g, videos[planted].first_frame(), target)
        result = refine_embedding(
            g, observed, None, RefineConfig(steps=2000), np.random.default_rng(1000 + seed)
        )
        nearest = int(np.argmin(np.linalg.norm(table.canonical - result.embedding, axis=1)))
        wins += int(nearest == planted and result.loss < 1e-3)
        finals.append(result.loss)

    ok = wins >= 18
    assert _verdict(
        8,
        ok,
        f"planted object recovered with loss < 1e-3 in {wins}/20 seeds "
        f"(need >= 18); median final loss {np.median(finals):.1e}",
    )


def test_criterion_09_plan_quality(full_suite):
    quality = plan_quality(full_suite[0].rows)
    ours_psnr, ours_ssim = quality["ours"]
    avdc_psnr, avdc_ssim = quality["avdc"]
    ok = ours_psnr > avdc_psnr and ours_ssim > avdc_ssim
    assert _verdict(
        9,
        ok,
        f"PSNR ours {ours_psnr:.3f} > avdc {avdc_psnr:.3f}; "
        f"SSIM ours {ours_ssim:.4f} > avdc {avdc_ssim:.4f}",
    )


def test_criterion_10_reproducibility(full_suite, tmp_path):
    spec = {
        "tasks": ["openbox", "turnfaucet"],
        "methods": ["random", "avdc", "ours"],
        "trials": 25,
        "master_seed": 3,
    }
    experiment = tmp_path / "experiment.json"
    experiment.write_text(json.dumps(spec))
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main(["run", "--experiment", str(experiment), "--out", str(out)]) == 0
        outs.append(out)
    episodes_same = (outs[0] / "episodes.csv").read_bytes() == (outs[1] / "episodes.csv").read_bytes()
    summary_same = (outs[0] / "summary.csv").read_bytes() == (outs[1] / "summary.csv").read_bytes()

    result, elapsed = full_suite
    rows_ok = len(result.rows) == 5 * 6 * 400
    ok = episodes_same and summary_same and rows_ok and elapsed < 900.0
    assert _verdict(
        10,
        ok,
        f"episodes.csv bit-identical: {episodes_same}; summary.csv bit-identical: "
        f"{summary_same}; full {len(result.rows)}-episode suite in {elapsed:.1f}s < 900s",
    )
