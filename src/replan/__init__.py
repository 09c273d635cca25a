"""Replanning with implicit state estimation on desk-scale manipulation tasks.

The package splits into layers: video container and metrics (``core``),
simulators (``envs``), block/PCA encoders (``encoders``), embedding
retrieval (``retrieval``), kernel plan generation (``generator``),
embedding refinement (``refinement``), failed-plan rejection
(``rejection``), plan-to-action decoding (``actor``), dataset synthesis
(``datasets``), the replanning loop and experiment grid (``loop``), and
reporting (``report``).
"""

from .actor import PlanDecodeError, TrackedTrajectory, plan_to_action, track_centroid
from .core import (
    ExperienceDataset,
    ExperienceTuple,
    Video,
    VideoFormatError,
    load_dataset,
    load_video,
    pixel_l2,
    psnr,
    read_video,
    save_dataset,
    save_video,
    ssim,
    video_mse,
    write_video,
)
from .datasets import (
    build_dataset,
    candidate_actions,
    failing_actions,
    subsample_dataset,
)
from .encoders import (
    PcaProjection,
    default_pca_k,
    encode_video,
    pca_apply,
    pca_fit,
)
from .envs import (
    EnvAction,
    EnvInstance,
    EnvKind,
    ExecutionOutcome,
    all_instances,
    bar_deflection,
    brick_stop_position,
    execute,
    hidden_values,
    object_id,
    render,
    reset,
    sample_hidden,
    scripted_action,
)
from .generator import (
    GenerationConfig,
    GeneratorMode,
    KernelGenerator,
    fit_generator,
    generate,
    id_generate,
    mse_objective,
    observation_terms,
)
from .loop import (
    ALL_METHODS,
    ALL_TASKS,
    EpisodeRecord,
    EpisodeRow,
    ExperimentConfig,
    ExperimentResult,
    Method,
    ResultsTable,
    TaskAssets,
    ablation_sweep,
    build_assets,
    build_task_assets,
    plan_quality,
    results_table,
    run_episode,
    run_experiment,
    trial_seed,
)
from .refinement import RefineConfig, RefineResult, refine_embedding
from .rejection import (
    FailedPlanBuffer,
    RejectionMetric,
    nearest_failed_distance,
    select_plan,
)
from .report import (
    embedding_rows,
    read_episodes_csv,
    results_svg,
    write_embedding_csv,
    write_episodes_csv,
    write_results_svg,
    write_summary_csv,
)
from .retrieval import (
    BufferPolicy,
    DistanceMetric,
    EmbeddingTable,
    RetrievalConfig,
    build_table,
    default_tau,
    interaction_logits,
    retrieval_probabilities,
    retrieve,
)

__version__ = "0.1.0"
