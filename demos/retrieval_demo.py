"""
From pixels to a searchable embedding table.

A small experience dataset is rendered for the box task, every video is
compressed to block features and projected with PCA, and the resulting
table is queried with a fresh failed interaction: softmax retrieval
puts nearly all of its mass on the object that produced the failure.
"""

import numpy as np

from replan import (
    EnvAction,
    EnvInstance,
    EnvKind,
    RetrievalConfig,
    build_dataset,
    build_table,
    default_pca_k,
    default_tau,
    encode_video,
    execute,
    pca_fit,
    retrieval_probabilities,
    retrieve,
)


def run_example():
    # Step 1: render a dataset. One scripted success per hidden value plus
    # ten wrong-mode failures, labelled by object id.
    dataset = build_dataset(EnvKind.OPEN_BOX, seed=11)
    counts = {oid: len(idx) for oid, idx in dataset.by_object.items()}
    print("dataset:", len(dataset), "videos", counts)

    # Step 2: block features + PCA. 8 frames x 64 block means = 512 dims,
    # projected down to a compact embedding.
    raw = np.stack([encode_video(item.video) for item in dataset.tuples])
    k = default_pca_k(raw.shape[0], raw.shape[1])
    projection = pca_fit(raw, k)
    print("features:", raw.shape, "->", k, "components")

    # Step 3: the embedding table keeps one canonical embedding per object
    # (its first successful video) plus every per-video embedding.
    table = build_table(dataset, projection, raw)
    print("objects:", table.object_ids)
    print("default softmax temperature:", round(default_tau(table), 4))

    # Step 4: fail on purpose, then ask the table who did it. The lid
    # needs lifting but we slide; the stuck video is the query.
    env = EnvInstance(EnvKind.OPEN_BOX, "lift")
    stuck = execute(env, EnvAction(EnvKind.OPEN_BOX, "slide")).video
    config = RetrievalConfig()
    probs = retrieval_probabilities(table, stuck, config)
    per_object = {oid: 0.0 for oid in table.object_ids}
    for entry, p in enumerate(probs):
        per_object[table.entry_object_id(entry)] += p
    for oid, mass in per_object.items():
        print(f"  p({oid}) = {mass:.4f}")

    # Step 5: retrieval samples an entry from that softmax and hands back
    # the canonical embedding of its object, ready to condition a planner.
    rng = np.random.default_rng(0)
    picked = retrieve(table, stuck, config, rng)
    match = [
        oid
        for oid in table.object_ids
        if np.array_equal(picked, table.canonical_for(oid))
    ]
    print("retrieved canonical embedding of:", match[0])


if __name__ == "__main__":
    run_example()
