"""Steering away from past failures, and inverting the generator.

Two mechanisms keep replanning from repeating itself: the rejection
module picks the candidate plan farthest from everything that already
failed, and gradient refinement walks an embedding until the
identification generator reproduces an observed interaction.
"""

import numpy as np

from replan import (
    EnvKind,
    ExperienceDataset,
    ExperienceTuple,
    FailedPlanBuffer,
    GenerationConfig,
    GeneratorMode,
    RefineConfig,
    Video,
    build_assets,
    build_dataset,
    build_table,
    encode_video,
    fit_generator,
    generate,
    id_generate,
    nearest_failed_distance,
    pca_fit,
    refine_embedding,
    select_plan,
)


def synthetic_objects():
    # three videos with full-frame motion patterns, far apart in pixel space
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


def run_example():
    # Step 1: fit task assets (projection, table, planning and
    # identification generators) on a rendered box dataset.
    dataset = build_dataset(EnvKind.OPEN_BOX, seed=11)
    assets = build_assets(EnvKind.OPEN_BOX, dataset)
    first_frame = assets.dataset.tuples[0].video.first_frame()

    # Step 2: sample candidate plans with no embedding (uniform weights
    # over the matching support), as a blind planner would.
    rng = np.random.default_rng(3)
    config = GenerationConfig(n_candidates=4)
    candidates = generate(assets.planner, first_frame, None, config, rng)
    print("candidates:", len(candidates), "of", candidates[0].pixels.shape)

    # Step 3: pretend the first candidate was executed and failed. The
    # rejection module scores candidates by their distance to the buffer
    # and keeps the one least like the failure.
    buffer = FailedPlanBuffer().push(candidates[0])
    for i, cand in enumerate(candidates):
        print(f"  candidate {i}: distance to failures {nearest_failed_distance(cand, buffer):8.3f}")
    index, plan = select_plan(candidates, buffer)
    print("selected candidate", index)

    # Step 4: refinement, on a generator whose objects are far enough
    # apart for the loss landscape to have a real basin. Plant an
    # embedding, observe the generator's own output there, and recover
    # the embedding from a random start by gradient descent.
    videos = synthetic_objects()
    tuples = tuple(ExperienceTuple(v, f"syn/{i}", True) for i, v in enumerate(videos))
    synth = ExperienceDataset(tuples)
    raw = np.stack([encode_video(t.video) for t in tuples])
    table = build_table(synth, pca_fit(raw, 2, rescale_variance=True), raw)
    identifier = fit_generator(synth, table, GeneratorMode.IDENTIFICATION)

    planted = 1
    target = 2.0 * table.canonical[planted]
    observed = id_generate(identifier, videos[planted].first_frame(), target)
    result = refine_embedding(
        identifier, observed, None, RefineConfig(steps=2000), np.random.default_rng(5)
    )
    print(f"\nrefine: loss {result.trace[0]:.4f} -> {result.loss:.2e}")

    # Step 5: the recovered embedding names the planted object.
    for i, oid in enumerate(table.object_ids):
        d = float(np.linalg.norm(result.embedding - table.canonical[i]))
        tag = "  <- planted" if i == planted else ""
        print(f"  |e - canonical({oid})| = {d:.3f}{tag}")


if __name__ == "__main__":
    run_example()
