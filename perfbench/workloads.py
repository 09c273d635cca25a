"""Workload definitions: each is an ``ExperimentConfig`` payload.

A run of a workload is a sequence of chunks.  Chunk ``k`` runs the payload
in a fresh process with ``master_seed = chunk_seed(seed, k)``; chunk 0 uses
the workload seed itself, so the same seed always yields the same episodes
and a held-out seed reaches ``master_seed`` unchanged.  Every chunk is a
new draw of trials, so a run measures many distinct episodes and its
figures depend little on which seed was drawn.  Every workload starts with
``pushbar``, whose assets also feed the fixed-input microbenchmarks.
"""

from __future__ import annotations

WORKLOADS: dict[str, dict] = {
    # Paper's main table without refinement: plan scoring (ssim/psnr),
    # rendering and decoding dominate; refinement never runs.
    "grid": {
        "tasks": ["pushbar", "pickbar", "slidebrick", "openbox", "turnfaucet"],
        "methods": ["avdc", "avdc_rejection", "avdc_retrieval", "ours"],
        "trials": 10,
    },
    # Finite-difference refinement dominates; two support sizes (264, 143).
    "refine": {
        "tasks": ["pushbar", "slidebrick"],
        "methods": ["ours_refine"],
        "trials": 20,
    },
    # Criterion 07's sweep settings: 5 candidates, embedding rejection,
    # aggregate retrieval that re-encodes every past interaction per round.
    "wide": {
        "tasks": ["pushbar", "pickbar"],
        "methods": ["ours"],
        "trials": 60,
        "n_candidates": 5,
        "rejection_metric": "embedding",
        "buffer_policy": "aggregate",
    },
}

# Nominal seconds per chunk (process start, set-up and episodes) on a
# 2-core x86 machine; ``--seconds`` divided by it gives the chunk count.
CHUNK_SECONDS = {"grid": 7.5, "refine": 10, "wide": 8.5}

DEFAULT_SEED = 0
CHUNK_STRIDE = 1_000_003


def chunk_seed(seed: int, chunk: int) -> int:
    """``master_seed`` of chunk ``chunk`` of a run with workload seed ``seed``."""
    return seed + chunk * CHUNK_STRIDE


def payload(workload: str, seed: int) -> dict:
    """The experiment payload for ``workload`` at ``master_seed = seed``."""
    return {**WORKLOADS[workload], "master_seed": seed}
