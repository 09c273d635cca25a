"""Replanning loop, experiment runner, and ablation sweeps.

An episode replans for up to ``max_replans`` rounds: propose candidate plans
(conditioned on retrieved objects or refined state embeddings after the first failure),
reject candidates near previously failed plans, decode the selected plan to an
action and judge it by the success rule.  A failed plan joins the episode's
failed-plan buffer; a round that retrieves or refines reads what it needs of the
earlier failed rollouts from ``TaskAssets.rollouts``, which renders each (theta,
plan-table row) pair once per task and keeps no pixels.  A round that does not refine
draws from the task's weight rows of the retrieved objects, or its uniform row.  Plans
are indices into the task's ``PlanTable``, whose rows include every ground-truth plan.
A round scores its plan against the ground-truth row by PSNR, a lookup in that table,
and by SSIM, kept per task in ``TaskAssets.ssims``: a pair is scored once in either
order, from the one-clip terms the table holds, so it builds one product map.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from enum import Enum
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .core import ExperienceDataset, SsimHold, Video, manifest_dataset, psnr_table, window_moments
from .core import read_manifest, require, require_integer, require_member, require_number
# psnr, unused here, stays importable from this module for perfbench/layers.py
from .core import psnr  # noqa: F401
from .datasets import build_dataset, candidate_actions, kept_others, subsample_dataset
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
    succeeds,
)
from .actor import PlanDecodeError, plan_to_action as decode_plan
from .generator import GeneratorMode, KernelGenerator, ObservationTerms, cumulative_weights
from .generator import fit_generator, observation_terms
from .refinement import RefineConfig, refine_embedding
from .rejection import RejectionMetric, distance_matrix, pixel_sums_of_squares
from .retrieval import BufferPolicy, EmbeddingTable, RetrievalConfig, build_table
from .retrieval import interaction_logits
# the per-round call sites keep the names perfbench/layers.py traces: ssim, generate,
# retrieve and select_plan
from .core import held_ssim as ssim
from .generator import draw_indices as generate
from .rejection import select_row as select_plan
from .retrieval import retrieve_objects as retrieve

ALL_TASKS = tuple(kind.value for kind in EnvKind)
WALL_PHASES = ("retrieve", "generate", "reject", "act")  # EpisodeRecord.wall_ms keys

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

    @property
    def reads(self) -> str | None:  # its key in a TaskAssets.rollouts entry, if any
        return "terms" if self.uses_refinement else "logits" if self.uses_retrieval else None

    def candidate_count(self, n_candidates: int) -> int:
        # without rejection, plans past the first are never read
        return n_candidates if self.uses_rejection else 1


ALL_METHODS = tuple(m.value for m in Method)


@dataclass(frozen=True)
class PlanTable:
    """Row i is planner-support entry i as a plan, then each ground-truth plan whose bytes
    no support entry has: its video (frame 0 the reset frame), what ``core.held_ssim``
    holds of it (its float64 pixels, widened once for the summed squared differences,
    and its ``core.window_moments``), row i of ``core.psnr`` against every row, what
    ``actor.plan_to_action`` decodes it to (or the ``PlanDecodeError`` text) and row i of
    the rejection distances under each metric.  The PSNR and raw-pixel distance rows come
    from one table of summed squared differences.  Set-up grows as (rows)^2 x T*H*W."""

    videos: tuple[Video, ...]
    holds: tuple[SsimHold, ...]  # (T, H, W) float64 pixels, (3, T, windows) moments
    psnr: np.ndarray  # (rows, rows) float64
    actions: tuple[EnvAction | str, ...]
    distances: dict[RejectionMetric, np.ndarray]


def plan_to_action(plans: PlanTable, index: int) -> EnvAction:
    """The action plan ``index`` decodes to; ``PlanDecodeError`` if it does not decode."""
    if isinstance(action := plans.actions[index], str):
        raise PlanDecodeError(action)
    return action


@dataclass
class TaskAssets:
    """Everything an episode needs for one task, fit on its dataset.  Each hidden value's
    scripted plan is the plan-table row ``gt_rows[theta]``: the planner-support entry with
    its bytes, or a row appended after the support when none has them (only a
    ``data_root`` dataset can lack one), where generation never draws.  ``weights`` row o,
    and ``uniform``, are the planner's ``cumulative_weights`` at object o's and no embedding.
    ``rollouts`` keeps each pushed failed rollout under its (theta, plan-table row) as what
    its readers (``Method.reads``) need, ``interaction_logits`` under ``table`` and
    ``observation_terms`` against ``identifier``, from one ``execute`` render for every reader
    of the run that pushes it.  ``ssims`` keeps ``core.ssim`` of each scored pair of distinct
    (plan, ground-truth) rows, sorted, as ``ssim`` is symmetric bit for bit.  Each holds at most
    ``len(hidden_values(kind)) * len(plans.videos)`` entries."""

    kind: EnvKind
    dataset: ExperienceDataset
    table: EmbeddingTable
    planner: KernelGenerator
    identifier: KernelGenerator
    gt_rows: dict[float | str, int]
    plans: PlanTable
    hypotheses: list[EnvAction]  # what the random method draws from
    weights: np.ndarray  # (objects, support)
    uniform: np.ndarray  # (support,)
    rollouts: dict[tuple[float | str, int], dict[str, np.ndarray | ObservationTerms]] = field(
        default_factory=dict)
    ssims: dict[tuple[int, int], float] = field(default_factory=dict)

    @property
    def gt_plans(self) -> dict[float | str, Video]:
        # read by perfbench/layers.py only; goes with benchmark v2
        return {theta: self.plans.videos[row] for theta, row in self.gt_rows.items()}


def build_assets(kind: EnvKind, dataset: ExperienceDataset) -> TaskAssets:
    gt_plans = {}
    for theta in hidden_values(kind):
        env = EnvInstance(kind, theta)
        gt_plans[theta] = execute(env, scripted_action(env)).video
    shape = gt_plans[theta].pixels.shape
    if clips := {item.video.pixels.shape for item in dataset.tuples} - {shape}:
        raise ValueError(f"dataset clips of shape {sorted(clips)} are not the simulator's {shape}")
    raw = np.stack([encode_video(item.video) for item in dataset.tuples])
    projection = pca_fit(raw, default_pca_k(*raw.shape))
    table = build_table(dataset, projection, raw)
    planner = fit_generator(dataset, table, GeneratorMode.PLANNING)
    identifier = fit_generator(dataset, table, GeneratorMode.IDENTIFICATION)
    first_frame = reset(env)  # the same for every hidden value of a kind
    videos = [video.with_first_frame(first_frame) for video in planner.videos]
    row = {video.pixels.tobytes(): i for i, video in enumerate(videos)}
    for gt in gt_plans.values():  # a plan no support video matches takes a new row
        if row.setdefault(gt.pixels.tobytes(), len(videos)) == len(videos):
            videos.append(gt)
    gt_rows = {theta: row[gt.pixels.tobytes()] for theta, gt in gt_plans.items()}
    actions = []
    for video in videos:
        try:
            actions.append(decode_plan(kind, video))
        except PlanDecodeError as err:
            actions.append(str(err))
    wide = [video.pixels.astype(np.float64) for video in videos]
    sums = pixel_sums_of_squares(wide)
    distances = {RejectionMetric.RAW_PIXEL: np.sqrt(sums),
                 RejectionMetric.EMBEDDING: distance_matrix(videos, RejectionMetric.EMBEDDING)}
    # one clip per product, as ssim's own: a stacked product may round otherwise
    holds = tuple((x, window_moments(x)) for x in wide)
    plans = PlanTable(tuple(videos), holds, psnr_table(sums, videos[0].pixels.size),
                      tuple(actions), distances)
    return TaskAssets(kind, dataset, table, planner, identifier, gt_rows, plans,
                      candidate_actions(kind), cumulative_weights(planner, table.canonical),
                      cumulative_weights(planner, None))


@dataclass(frozen=True)
class RoundRecord:
    action: float | str | None  # None when the plan failed to decode
    success: bool
    plan_psnr: float | None
    plan_ssim: float | None


@dataclass(frozen=True)
class EpisodeRecord:
    rounds: tuple[RoundRecord, ...]  # a failed episode runs every round
    wall_ms: dict[str, float]

    @property
    def replans_until_success(self) -> int:
        return len(self.rounds)

    @property
    def succeeded(self) -> bool:
        return self.rounds[-1].success

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
    if env.theta_value not in assets.gt_rows:
        raise ValueError(f"theta {env.theta_value!r} has no ground-truth plan in task "
                         f"{assets.kind.value!r}, whose hidden values are {list(assets.gt_rows)}")
    plans, failed = assets.plans, []
    distances = plans.distances[RejectionMetric(config.rejection_metric)]
    interactions: list[np.ndarray | ObservationTerms] = []  # what it read, oldest first
    reader = method.reads
    gt = assets.gt_rows[env.theta_value]
    retr_config = RetrievalConfig(tau=config.tau, buffer_policy=config.buffer_policy)
    n = method.candidate_count(config.n_candidates)
    refine_config = RefineConfig(steps=config.refine_steps, restarts=config.refine_restarts)
    wall = dict.fromkeys(WALL_PHASES, 0.0)
    rounds: list[RoundRecord] = []

    for round_index in range(1, config.max_replans + 1):
        plan_psnr = plan_ssim = None
        if method is Method.RANDOM:
            t0 = time.perf_counter()
            action = assets.hypotheses[int(rng.integers(len(assets.hypotheses)))]
            wall["act"] += 1e3 * (time.perf_counter() - t0)
        else:
            # Until a plan has executed and failed there is no interaction to
            # condition on (round 1, or rounds whose plans did not decode), and
            # all n candidates come from uniform weights; else one per retrieved
            # object's weights row, or per refined embedding.
            t0 = time.perf_counter()
            weights, embeddings = assets.uniform, None
            if interactions and method.uses_retrieval:
                objects = retrieve(assets.table, interactions, retr_config, rng, count=n)
                weights = assets.weights[objects]
            elif interactions and method.uses_refinement:
                refined = refine_embedding(
                    assets.identifier, interactions[-1], None, refine_config, rng, count=n
                )
                embeddings = np.stack([r.embedding for r in refined])
            wall["retrieve"] += 1e3 * (time.perf_counter() - t0)

            t0 = time.perf_counter()
            if embeddings is not None:
                weights = cumulative_weights(assets.planner, embeddings)
            candidates = generate(weights, n, rng)
            wall["generate"] += 1e3 * (time.perf_counter() - t0)

            t0 = time.perf_counter()
            pick = int(candidates[0])
            if method.uses_rejection:
                pick = select_plan(distances, candidates, failed)
            wall["reject"] += 1e3 * (time.perf_counter() - t0)

            plan_psnr = float(plans.psnr[pick, gt])
            pair = (pick, gt) if pick <= gt else (gt, pick)  # held_ssim is symmetric
            if pick == gt:
                plan_ssim = 1.0  # what held_ssim's arithmetic gives a row against itself
            elif (plan_ssim := assets.ssims.get(pair)) is None:
                plan_ssim = assets.ssims[pair] = ssim(plans.holds[pick], plans.holds[gt])

            t0 = time.perf_counter()
            try:
                action = plan_to_action(plans, pick)
            except PlanDecodeError:
                action = None
            wall["act"] += 1e3 * (time.perf_counter() - t0)
            # a later round runs only if this plan failed, decoded or not
            failed.append(pick)

        # an undecodable plan (action None) counts as a failed round that rendered nothing
        success = action is not None and succeeds(env, action)
        value = None if action is None else action.value
        rounds.append(RoundRecord(value, success, plan_psnr, plan_ssim))
        if success:
            break
        # retrieval and refinement read a failed rollout, from the next round on
        if action is not None and reader and round_index < config.max_replans:
            entry = assets.rollouts.setdefault((env.theta_value, pick), {})
            if reader not in entry:  # one render, reduced for each of the run's readers it lacks
                video = execute(env, action).video
                for name in {reader, *(Method(m).reads for m in config.methods)} - {None, *entry}:
                    entry[name] = (observation_terms(assets.identifier, video) if name == "terms"
                                   else interaction_logits(assets.table, video))
            interactions.append(entry[reader])

    return EpisodeRecord(rounds=tuple(rounds), wall_ms=wall)


# ---------------------------------------------------------------------------
# Experiments


# Smallest valid value of each integer field of ExperimentConfig.
_INT_FLOORS = {
    "trials": 1, "max_replans": 1, "n_candidates": 1, "master_seed": 0, "per_theta_success": 1,
    "per_theta_fail": 0, "refine_steps": 0, "refine_restarts": 1,
}


@dataclass(frozen=True)
class ExperimentConfig:
    tasks: tuple[str, ...] = ALL_TASKS
    methods: tuple[str, ...] = ALL_METHODS
    trials: int = 400
    max_replans: int = 14
    n_candidates: int = 2
    tau: float | None = None
    rejection_metric: str = "raw_pixel"
    dataset_fraction: float = 1.0
    master_seed: int = 0
    per_theta_success: int = 1
    per_theta_fail: int = 10
    buffer_policy: str = "latest"
    refine_steps: int = 80
    refine_restarts: int = 1
    data_root: str | None = None
    # not a field: nothing perturbs the first frame, and perfbench/layers.py reads it;
    # goes with benchmark v2
    noise_std = 0.0

    def __post_init__(self) -> None:
        """Check every field up front, so a bad config fails before any compute.  An enum
        field takes a member or its name and keeps the name; a numpy scalar is kept as the
        Python number it equals."""
        def check(name: str, rule: Callable[..., object], *args: object) -> object:
            value = rule(f"ExperimentConfig.{name}", getattr(self, name), *args)
            object.__setattr__(self, name, value)
            return value

        for name, choices in (("tasks", ALL_TASKS), ("methods", ALL_METHODS)):
            value = getattr(self, name)
            ok = isinstance(value, (list, tuple)) and len(value) > 0
            ok = ok and all(v in choices for v in value) and len(set(value)) == len(value)
            check(name, require, ok, f"a non-empty list of distinct names from {choices}")
            object.__setattr__(self, name, tuple(value))
        for name, enum in (("rejection_metric", RejectionMetric), ("buffer_policy", BufferPolicy)):
            object.__setattr__(self, name, check(name, require_member, enum).value)
        for name, low in _INT_FLOORS.items():
            check(name, require_integer, low)
        check("tau", require_number, 0, math.inf, True)
        check("dataset_fraction", require_number, 0, 1)
        root = self.data_root
        check("data_root", require, root is None or isinstance(root, str), "None or a path string")

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))

    @classmethod
    def from_dict(cls, payload: dict) -> "ExperimentConfig":
        if not isinstance(payload, dict):
            kind = type(payload).__name__
            raise ValueError(f"an experiment config must be a JSON object, got {kind}")
        if unknown := set(payload) - set(cls.__dataclass_fields__):
            raise ValueError(f"unknown experiment keys: {sorted(unknown)}")
        return cls(**payload)

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

    def normalized(self) -> dict[str, float]:
        """Per-method mean over tasks of (method mean / ``ours`` mean); NaN for a method
        whose cell, or ``ours``', is missing for some task."""
        out = {}
        for method in self.methods:
            pairs = [(self.cells.get((method, task)), self.cells.get(("ours", task)))
                     for task in self.tasks]
            if any(cell is None or base is None for cell, base in pairs):
                out[method] = float("nan")
                continue
            out[method] = float(np.mean([cell.mean / base.mean for cell, base in pairs]))
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


def check_task(config: ExperimentConfig, task: str) -> dict | None:
    """Fail, before ``task`` builds, unless ``data_root`` is None or its
    ``<data_root>/<task>/manifest.json`` exists, passes ``core.read_manifest``, holds
    ``task``'s dataset and keeps at least 2 clips at ``dataset_fraction``; returns the
    checked manifest (None without ``data_root``)."""
    if config.data_root is None:
        return None
    path = Path(config.data_root) / task / "manifest.json"
    where = f"ExperimentConfig.data_root {config.data_root!r}, task {task!r}"
    if not path.is_file():
        raise ValueError(f"{where}: {path} does not exist")
    try:
        manifest = read_manifest(path)
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    if (env := manifest.get("env")) != task:
        raise ValueError(f"{where}: {path} holds a dataset for {env!r}")
    counts = Counter(entry["object_id"] for entry in manifest["entries"])
    kept = sum(1 + kept_others(n - 1, config.dataset_fraction) for n in counts.values())
    if kept < 2:
        raise ValueError(f"{where}: {path} keeps {kept} clip at dataset_fraction "
                         f"{config.dataset_fraction:g}, and a task needs at least 2")
    return manifest


def build_task_assets(config: ExperimentConfig, task: str) -> TaskAssets:
    """``task``'s assets: its dataset, loaded from the manifest ``check_task`` read and
    checked before anything renders or encodes, or built from the simulator without
    ``data_root``, then subsampled to ``dataset_fraction``."""
    kind = require_member("build_task_assets's task", task, EnvKind)
    if (manifest := check_task(config, task)) is not None:
        dataset = manifest_dataset(Path(config.data_root) / task, manifest)
    else:
        data_seed = trial_seed(config.master_seed, task, "dataset", 0)
        dataset = build_dataset(
            kind,
            per_theta_success=config.per_theta_success,
            per_theta_fail=config.per_theta_fail,
            seed=data_seed,
        )
    if config.dataset_fraction < 1.0:
        frac_seed = trial_seed(config.master_seed, task, "fraction", 0)
        dataset = subsample_dataset(dataset, config.dataset_fraction, seed=frac_seed)
    return build_assets(kind, dataset)


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run the full task x method x trial grid declared by ``config``.

    Each finished task x method cell logs its mean replans at INFO level.  Every
    task's ``data_root`` manifest is checked before the first builds.
    """
    (result,) = _run_tasks(config, (config,))
    return result


def _run_tasks(
    base: ExperimentConfig, configs: tuple[ExperimentConfig, ...]
) -> list[ExperimentResult]:
    """Run each of ``configs``, which differ from ``base`` only in what episodes read,
    task by task: a task's assets are built once from ``base``, serve every config and
    are freed before the next task builds, so one task's assets are alive at a time."""
    for task in base.tasks:  # every task's inputs, before the first builds
        check_task(base, task)
    rows: list[list[EpisodeRow]] = [[] for _ in configs]
    for task in base.tasks:
        assets = build_task_assets(base, task)
        kind = assets.kind
        for config, out in zip(configs, rows):
            for method_name in config.methods:
                method = Method(method_name)
                for trial in range(config.trials):
                    seed = trial_seed(config.master_seed, task, method_name, trial)
                    rng = np.random.default_rng(seed)
                    env = EnvInstance(kind, sample_hidden(kind, rng))
                    record = run_episode(env, method, assets, config, rng)
                    out.append(
                        EpisodeRow(
                            task=task,
                            method=method_name,
                            trial=trial,
                            seed=seed,
                            theta=env.theta_value,
                            replans=record.replans_until_success,
                            succeeded=record.succeeded,
                            mean_psnr=record.mean_plan_psnr,
                            mean_ssim=record.mean_plan_ssim,
                            wall_ms=record.wall_ms,
                        )
                    )
                mean = np.mean([r.replans for r in out[-config.trials:]])
                logger.info("%12s %15s: mean replans %.3f", task, method_name, mean)
        del assets  # freed now, not when the next build rebinds the name
    return [ExperimentResult(config, out, results_table(out)) for config, out in zip(configs, rows)]


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
    """Run one named sweep; grid points share trial seeds for pairing.  Only
    ``data-fraction`` changes the dataset, so every other sweep builds each task's
    assets once, runs all its grid points on them and frees them."""
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
    if name == "data-fraction":
        return {label: run_experiment(cfg) for label, cfg in grid.items()}
    return dict(zip(grid, _run_tasks(base, tuple(grid.values()))))
