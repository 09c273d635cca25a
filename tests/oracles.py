"""Slow reference forms shared by several test modules."""

import numpy as np

from replan import DistanceMetric, id_generate, video_mse


def naive_mse_loss(g, observed, e):
    """Identification loss built directly from ``id_generate``: the definition that
    ``mse_objective`` and the refinement descent compute in closed form."""
    return video_mse(observed, id_generate(g, observed.first_frame(), e))


def embedding_distance(metric, a, b):
    """One pair's distance under ``metric``, in scalar form: the definition that
    retrieval scores every table entry with at once."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"embedding shape mismatch: {a.shape} vs {b.shape}")
    if metric is DistanceMetric.L2:
        return float(np.linalg.norm(a - b))
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ValueError("cosine distance undefined for zero vectors")
    return float(1.0 - np.dot(a, b) / (na * nb))
