"""Slow reference forms shared by several test modules."""

from replan import id_generate, video_mse


def naive_mse_loss(g, observed, e):
    """Identification loss built directly from ``id_generate``: the definition that
    ``mse_objective`` and the refinement descent compute in closed form."""
    return video_mse(observed, id_generate(g, observed.first_frame(), e))
