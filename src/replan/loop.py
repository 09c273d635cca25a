"""Replanning loop, experiment runner, and ablation sweeps.

An episode replans for up to ``max_replans`` rounds: propose candidate
plans (conditioned on retrieved or refined state embeddings after the
first failure), reject candidates near previously failed plans, decode
the selected plan to an action, execute, and on failure grow the failed
plan/interaction buffers.  Both buffers are episode-scoped; plans are
indices into the task's ``PlanTable``.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import time
from dataclasses import asdict, dataclass, replace
from enum import Enum
from pathlib import Path
from typing import Iterable

import numpy as np

from .core import ExperienceDataset, Video, load_dataset, psnr, ssim
from .datasets import build_dataset, candidate_actions, subsample_dataset
from .encoders import default_pca_k, encode_video, pca_fit
from .envs import (
    EnvAction,
    EnvInstance,
    EnvKind,
    execute,
    hidden_values,
    reset,
    sample_hidden,
    scripted_action,
)
from .actor import PlanDecodeError, plan_to_action as decode_plan
from .generator import GeneratorMode, KernelGenerator, fit_generator
# the per-round call sites keep the names perfbench/layers.py traces
from .generator import generate_indices as generate
from .refinement import RefineConfig, refine_embedding
from .rejection import RejectionMetric, distance_matrix
from .retrieval import (
    BufferPolicy,
    DistanceMetric,
    EmbeddingTable,
    InteractionBuffer,
    RetrievalConfig,
    build_table,
    retrieve,
)

ALL_TASKS = tuple(kind.value for kind in EnvKind)

logger = logging.getLogger(__name__)


class Method(Enum):
    RANDOM = "random"
    AVDC = "avdc"
    AVDC_REJECTION = "avdc_rejection"
    AVDC_RETRIEVAL = "avdc_retrieval"
    OURS = "ours"
    OURS_REFINE = "ours_refine"

    @property
    def uses_retrieval(self) -> bool:
        return self in (Method.AVDC_RETRIEVAL, Method.OURS)

    @property
    def uses_rejection(self) -> bool:
        return self in (Method.AVDC_REJECTION, Method.OURS, Method.OURS_REFINE)

    @property
    def uses_refinement(self) -> bool:
        return self is Method.OURS_REFINE

    def candidate_count(self, n_candidates: int) -> int:
        # Single-candidate methods: no rejection means extra plans are unused.
        if self in (Method.RANDOM, Method.AVDC, Method.AVDC_RETRIEVAL):
            return 1
        return n_candidates


ALL_METHODS = tuple(m.value for m in Method)


@dataclass(frozen=True)
class PlanTable:
    """Planner-support entry i as a plan: its video with the reset frame as
    frame 0, what ``actor.plan_to_action`` decodes it to (or the
    ``PlanDecodeError`` text) and row i of the rejection distances under
    ``metric``.  Set-up grows as (support size)^2 x T*H*W."""

    videos: tuple[Video, ...]
    actions: tuple[EnvAction | str, ...]
    metric: RejectionMetric
    distances: np.ndarray


def select_plan(plans: PlanTable, candidates: np.ndarray, failed: list[int]) -> int:
    """The candidate farthest from every failed plan, as ``rejection.select_plan``
    picks it: ties, and an empty ``failed``, go to the first candidate."""
    scores = plans.distances[np.ix_(candidates, failed)].min(axis=1, initial=math.inf)
    return int(candidates[np.argmax(scores)])


def plan_to_action(plans: PlanTable, index: int) -> EnvAction:
    """The action plan ``index`` decodes to; ``PlanDecodeError`` if it does not decode."""
    if isinstance(action := plans.actions[index], str):
        raise PlanDecodeError(action)
    return action


@dataclass
class TaskAssets:
    """Everything an episode needs for one task, fit on its dataset."""

    kind: EnvKind
    dataset: ExperienceDataset
    table: EmbeddingTable
    planner: KernelGenerator
    identifier: KernelGenerator
    gt_plans: dict[float | str, Video]
    plans: PlanTable


def build_assets(
    kind: EnvKind, dataset: ExperienceDataset, pca_k: int | None = None,
    rejection_metric: RejectionMetric | str = RejectionMetric.RAW_PIXEL,
) -> TaskAssets:
    raw = np.stack([encode_video(item.video) for item in dataset.tuples])
    k = pca_k if pca_k is not None else default_pca_k(raw.shape[0], raw.shape[1])
    projection = pca_fit(raw, k)
    table = build_table(dataset, projection, raw)
    planner = fit_generator(dataset, table, GeneratorMode.PLANNING)
    identifier = fit_generator(dataset, table, GeneratorMode.IDENTIFICATION)
    gt_plans = {}
    for theta in hidden_values(kind):
        env = EnvInstance.create(kind, theta)
        gt_plans[theta] = execute(env, scripted_action(env)).video
    first_frame = reset(env)  # the same for every hidden value of a kind
    videos = tuple(video.with_first_frame(first_frame) for video in planner.videos)
    actions = []
    for video in videos:
        try:
            actions.append(decode_plan(kind, video))
        except PlanDecodeError as err:
            actions.append(str(err))
    metric = RejectionMetric(rejection_metric)
    plans = PlanTable(videos, tuple(actions), metric, distance_matrix(videos, metric))
    return TaskAssets(kind, dataset, table, planner, identifier, gt_plans, plans)


@dataclass(frozen=True)
class RoundRecord:
    round_index: int            # 1-based
    action: float | str | None  # None when the plan failed to decode
    success: bool
    plan_psnr: float | None
    plan_ssim: float | None


@dataclass(frozen=True)
class EpisodeRecord:
    kind: EnvKind
    theta: float | str
    method: Method
    rounds: tuple[RoundRecord, ...]
    replans_until_success: int
    succeeded: bool
    wall_ms: dict[str, float]

    @property
    def mean_plan_psnr(self) -> float | None:
        vals = [r.plan_psnr for r in self.rounds if r.plan_psnr is not None]
        return float(np.mean(vals)) if vals else None

    @property
    def mean_plan_ssim(self) -> float | None:
        vals = [r.plan_ssim for r in self.rounds if r.plan_ssim is not None]
        return float(np.mean(vals)) if vals else None


def run_episode(
    env: EnvInstance,
    method: Method,
    assets: TaskAssets,
    config: ExperimentConfig,
    rng: np.random.Generator,
) -> EpisodeRecord:
    """Run one episode; failed episodes report max_replans rounds used."""
    if env.kind is not assets.kind:
        raise ValueError("assets were built for a different task")
    plans, failed = assets.plans, []
    if method.uses_rejection and plans.metric is not RejectionMetric(config.rejection_metric):
        raise ValueError(f"assets were built for rejection metric {plans.metric.value!r}")
    interactions = InteractionBuffer()
    gt_plan = assets.gt_plans[env.theta_value]
    retr_config = RetrievalConfig(
        metric=DistanceMetric.L2,
        tau=config.tau,
        buffer_policy=BufferPolicy(config.buffer_policy),
    )
    n = method.candidate_count(config.n_candidates)
    refine_config = RefineConfig(
        init_mode="random", steps=config.refine_steps, restarts=config.refine_restarts
    )
    hypotheses = candidate_actions(env.kind) if method is Method.RANDOM else []
    wall = {"retrieve": 0.0, "generate": 0.0, "reject": 0.0, "act": 0.0}
    rounds: list[RoundRecord] = []
    succeeded = False
    replans = config.max_replans

    for round_index in range(1, config.max_replans + 1):
        if method is Method.RANDOM:
            t0 = time.perf_counter()
            action = hypotheses[int(rng.integers(len(hypotheses)))]
            wall["act"] += 1e3 * (time.perf_counter() - t0)
            outcome = execute(env, action)
            rounds.append(
                RoundRecord(round_index, action.value, outcome.success, None, None)
            )
            if outcome.success:
                succeeded, replans = True, round_index
                break
            interactions.push(outcome.video)
            continue

        # Until a plan has executed and failed there is no interaction to
        # condition on (round 1, or rounds whose plans did not decode), and
        # all n candidates come from uniform weights; else one per embedding.
        t0 = time.perf_counter()
        embeddings: np.ndarray | None = None
        if interactions and method.uses_retrieval:
            embeddings = retrieve(assets.table, interactions, retr_config, rng, count=n)
        elif interactions and method.uses_refinement:
            refined = refine_embedding(
                assets.identifier, interactions[-1], None, refine_config, rng, count=n
            )
            embeddings = np.stack([r.embedding for r in refined])
        wall["retrieve"] += 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        candidates = generate(assets.planner, embeddings, n, rng)
        wall["generate"] += 1e3 * (time.perf_counter() - t0)

        t0 = time.perf_counter()
        pick = select_plan(plans, candidates, failed) if method.uses_rejection else candidates[0]
        wall["reject"] += 1e3 * (time.perf_counter() - t0)

        plan = plans.videos[pick]
        plan_psnr, plan_ssim = psnr(plan, gt_plan), ssim(plan, gt_plan)

        t0 = time.perf_counter()
        try:
            action = plan_to_action(plans, pick)
        except PlanDecodeError:
            action = None
        wall["act"] += 1e3 * (time.perf_counter() - t0)

        if action is None:
            # Undecodable plan: count the round as failed, learn from the plan.
            failed.append(pick)
            rounds.append(RoundRecord(round_index, None, False, plan_psnr, plan_ssim))
            continue

        outcome = execute(env, action)
        rounds.append(
            RoundRecord(round_index, action.value, outcome.success, plan_psnr, plan_ssim)
        )
        if outcome.success:
            succeeded, replans = True, round_index
            break
        failed.append(pick)
        interactions.push(outcome.video)

    return EpisodeRecord(
        kind=env.kind,
        theta=env.theta_value,
        method=method,
        rounds=tuple(rounds),
        replans_until_success=replans,
        succeeded=succeeded,
        wall_ms=wall,
    )


# ---------------------------------------------------------------------------
# Experiments


# Smallest valid value of each integer field of ExperimentConfig; pca_k may also be None.
_INT_FLOORS = {
    "trials": 1, "max_replans": 1, "n_candidates": 1, "master_seed": 0, "per_theta_success": 1,
    "per_theta_fail": 0, "pca_k": 1, "refine_steps": 0, "refine_restarts": 1,
}


def _is_number(value: object, kind: type = numbers.Real) -> bool:
    """A finite number of ``kind``; bools and NaN are not numbers here."""
    return isinstance(value, kind) and not isinstance(value, bool) and -math.inf < value < math.inf


@dataclass(frozen=True)
class ExperimentConfig:
    tasks: tuple[str, ...] = ALL_TASKS
    methods: tuple[str, ...] = ALL_METHODS
    trials: int = 400
    max_replans: int = 14
    n_candidates: int = 2
    tau: float | None = None
    noise_std: float = 0.0  # must be 0: nothing perturbs the first frame
    rejection_metric: str = "raw_pixel"
    dataset_fraction: float = 1.0
    master_seed: int = 0
    per_theta_success: int = 1
    per_theta_fail: int = 10
    pca_k: int | None = None
    buffer_policy: str = "latest"
    refine_steps: int = 80
    refine_restarts: int = 1
    data_root: str | None = None

    def __post_init__(self) -> None:
        """Check every field up front, so a bad config fails before any compute."""
        def require(name: str, ok: bool, need: str) -> None:
            if not ok:
                value = getattr(self, name)
                raise ValueError(f"ExperimentConfig.{name} must be {need}, got {value!r}")

        for name, choices in (("tasks", ALL_TASKS), ("methods", ALL_METHODS)):
            value = getattr(self, name)
            ok = isinstance(value, (list, tuple)) and len(value) > 0
            ok = ok and all(v in choices for v in value) and len(set(value)) == len(value)
            require(name, ok, f"a non-empty list of distinct names from {choices}")
            object.__setattr__(self, name, tuple(value))
        for name, enum in (("rejection_metric", RejectionMetric), ("buffer_policy", BufferPolicy)):
            choices = tuple(m.value for m in enum)
            require(name, getattr(self, name) in choices, f"one of {choices}")
        for name, low in _INT_FLOORS.items():
            value = getattr(self, name)
            ok = name == "pca_k" and value is None or _is_number(value, numbers.Integral)
            require(name, ok and (value is None or value >= low), f"an integer >= {low}")
        tau, fraction = self.tau, self.dataset_fraction
        require("tau", tau is None or _is_number(tau) and tau > 0, "None or a number > 0")
        require("noise_std", _is_number(self.noise_std) and self.noise_std == 0, "0")
        require("dataset_fraction", _is_number(fraction) and 0 < fraction <= 1, "in (0, 1]")
        require("data_root", self.data_root is None or isinstance(self.data_root, str),
                "None or a path string")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        known = {f: payload[f] for f in cls.__dataclass_fields__ if f in payload}
        unknown = set(payload) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
        return cls(**known)

    def to_dict(self) -> dict:
        return {**asdict(self), "tasks": list(self.tasks), "methods": list(self.methods)}


def trial_seed(master_seed: int, task: str, method: str, trial: int) -> int:
    """Stable per-trial seed; independent of any swept parameter."""
    text = f"{master_seed}|{task}|{method}|{trial}"
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class EpisodeRow:
    task: str
    method: str
    trial: int
    seed: int
    theta: float | str
    replans: int
    succeeded: bool
    mean_psnr: float | None
    mean_ssim: float | None
    wall_ms: dict[str, float]


@dataclass(frozen=True)
class CellStats:
    mean: float
    sem: float
    count: int


@dataclass(frozen=True)
class ResultsTable:
    tasks: tuple[str, ...]
    methods: tuple[str, ...]
    cells: dict[tuple[str, str], CellStats]  # (method, task) -> stats

    def cell(self, method: str, task: str) -> CellStats:
        return self.cells[(method, task)]

    def normalized(self, baseline: str = "ours") -> dict[str, float]:
        """Per-method mean over tasks of (method mean / baseline mean)."""
        out = {}
        for method in self.methods:
            if baseline not in self.methods:
                out[method] = float("nan")
                continue
            ratios = [
                self.cells[(method, task)].mean / self.cells[(baseline, task)].mean
                for task in self.tasks
            ]
            out[method] = float(np.mean(ratios))
        return out


def results_table(rows: Iterable[EpisodeRow]) -> ResultsTable:
    rows = list(rows)
    tasks = tuple(dict.fromkeys(r.task for r in rows))
    methods = tuple(dict.fromkeys(r.method for r in rows))
    cells = {}
    for method in methods:
        for task in tasks:
            vals = np.array(
                [r.replans for r in rows if r.method == method and r.task == task],
                dtype=np.float64,
            )
            if vals.size == 0:
                continue
            sem = float(vals.std(ddof=1) / np.sqrt(vals.size)) if vals.size > 1 else 0.0
            cells[(method, task)] = CellStats(float(vals.mean()), sem, int(vals.size))
    return ResultsTable(tasks=tasks, methods=methods, cells=cells)


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    rows: list[EpisodeRow]
    table: ResultsTable


def build_task_assets(config: ExperimentConfig, task: str) -> TaskAssets:
    kind = EnvKind(task)
    if config.data_root is not None:
        dataset, env_name, thetas = load_dataset(Path(config.data_root) / task)
        if env_name != task:
            raise ValueError(f"dataset at {config.data_root}/{task} is for {env_name}")
    else:
        data_seed = trial_seed(config.master_seed, task, "dataset", 0)
        dataset, thetas = build_dataset(
            kind,
            per_theta_success=config.per_theta_success,
            per_theta_fail=config.per_theta_fail,
            seed=data_seed,
        )
    if config.dataset_fraction < 1.0:
        frac_seed = trial_seed(config.master_seed, task, "fraction", 0)
        dataset, thetas = subsample_dataset(
            dataset, thetas, config.dataset_fraction, seed=frac_seed
        )
    return build_assets(kind, dataset, config.pca_k, config.rejection_metric)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full task x method x trial grid declared by ``config``.

    Each finished task x method cell logs its mean replans at INFO level.
    """
    rows: list[EpisodeRow] = []
    for task in config.tasks:
        assets = build_task_assets(config, task)
        kind = assets.kind
        for method_name in config.methods:
            method = Method(method_name)
            for trial in range(config.trials):
                seed = trial_seed(config.master_seed, task, method_name, trial)
                rng = np.random.default_rng(seed)
                theta = sample_hidden(kind, rng)
                env = EnvInstance(kind, theta)
                record = run_episode(env, method, assets, config, rng)
                rows.append(
                    EpisodeRow(
                        task=task,
                        method=method_name,
                        trial=trial,
                        seed=seed,
                        theta=record.theta,
                        replans=record.replans_until_success,
                        succeeded=record.succeeded,
                        mean_psnr=record.mean_plan_psnr,
                        mean_ssim=record.mean_plan_ssim,
                        wall_ms=record.wall_ms,
                    )
                )
            mean = np.mean([r.replans for r in rows[-config.trials:]])
            logger.info("%12s %15s: mean replans %.3f", task, method_name, mean)
    return ExperimentResult(config=config, rows=rows, table=results_table(rows))


def plan_quality(rows: Iterable[EpisodeRow]) -> dict[str, tuple[float, float]]:
    """Per-method mean plan PSNR and SSIM over episodes that produced plans."""
    rows = list(rows)
    out = {}
    for method in dict.fromkeys(r.method for r in rows):
        p = [r.mean_psnr for r in rows if r.method == method and r.mean_psnr is not None]
        s = [r.mean_ssim for r in rows if r.method == method and r.mean_ssim is not None]
        if p and s:
            out[method] = (float(np.mean(p)), float(np.mean(s)))
    return out


SWEEP_NAMES = ("n-candidates", "rejection-metric", "modules", "data-fraction")


def ablation_sweep(
    name: str, base: ExperimentConfig
) -> dict[str, ExperimentResult]:
    """Run one named sweep; grid points share trial seeds for pairing."""
    if name == "n-candidates":
        grid = {
            f"n={n}": replace(base, methods=("ours",), n_candidates=n)
            for n in (1, 2, 3, 4, 5)
        }
    elif name == "rejection-metric":
        grid = {
            metric: replace(base, methods=("ours",), rejection_metric=metric)
            for metric in ("raw_pixel", "embedding")
        }
    elif name == "modules":
        grid = {
            "modules": replace(
                base, methods=("avdc", "avdc_rejection", "avdc_retrieval", "ours")
            )
        }
    elif name == "data-fraction":
        grid = {
            f"fraction={frac:g}": replace(
                base, methods=("avdc", "ours"), dataset_fraction=frac
            )
            for frac in (0.28, 1.0)
        }
    else:
        raise ValueError(f"unknown sweep {name!r}; choose from {SWEEP_NAMES}")
    return {label: run_experiment(cfg) for label, cfg in grid.items()}
