"""Layer tracing and fixed-input microbenchmarks for the replan library.

The tracer replaces public functions with timing wrappers by patching the
name where the caller looks it up at call time.  ``loop``, ``refinement``
and ``retrieval`` import with ``from .x import f``, so the patch goes on
the consuming module (``replan.loop.ssim``, not ``replan.core.ssim``).

``retrieval.retrieval_probabilities`` binds ``encoder=encode_video`` as a
default argument at import time, and ``retrieval.build_table`` does the
same.  Encodes made inside retrieval are therefore counted under
``retrieval.*``, never under ``encoders.encode_video``.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from pathlib import Path
from statistics import median

import numpy as np

# (module or class path, attribute, span name).  A name may be patched at
# several call sites; all of them record under the same span name.
PATCHES = (
    ("replan.loop", "build_task_assets", "loop.build_task_assets"),
    ("replan.loop", "build_assets", "loop.build_assets"),
    ("replan.loop", "run_episode", "loop.run_episode"),
    ("replan.loop", "build_dataset", "datasets.build_dataset"),
    ("replan.loop", "encode_video", "encoders.encode_video"),
    ("replan.rejection", "encode_video", "encoders.encode_video"),
    ("replan.loop", "pca_fit", "encoders.pca_fit"),
    ("replan.retrieval", "pca_apply", "encoders.pca_apply"),
    ("replan.loop", "build_table", "retrieval.build_table"),
    ("replan.loop", "retrieve", "retrieval.retrieve"),
    ("replan.retrieval", "retrieval_probabilities", "retrieval.retrieval_probabilities"),
    ("replan.loop", "fit_generator", "generator.fit_generator"),
    ("replan.loop", "generate", "generator.generate"),
    ("replan.loop", "refine_embedding", "refinement.refine_embedding"),
    ("replan.loop", "select_plan", "rejection.select_plan"),
    ("replan.rejection.FailedPlanBuffer", "push", "rejection.push"),
    ("replan.loop", "plan_to_action", "actor.plan_to_action"),
    ("replan.loop", "psnr", "core.psnr"),
    ("replan.loop", "ssim", "core.ssim"),
    ("replan.loop", "execute", "envs.execute"),
    ("replan.datasets", "execute", "envs.execute"),
    ("replan.envs", "render", "envs.render"),
    ("replan.report", "write_episodes_csv", "report.write_episodes_csv"),
)


def resolve(path: str):
    """Import ``a.b`` or ``a.b.Class`` and return the object."""
    try:
        return importlib.import_module(path)
    except ModuleNotFoundError:
        module, _, attr = path.rpartition(".")
        return getattr(importlib.import_module(module), attr)


class Tracer:
    """In-memory spans (name, start, end, parent, episode) plus counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.episode = "-"
        self.missing: list[str] = []

    def wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.episode])
            stack.append(idx)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                counts[name + ".errors"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx][1] = start
                spans[idx][2] = end

        return traced

    def install(self) -> None:
        """Patch every call site in ``PATCHES``; record the ones not found."""
        for owner_path, attr, name in PATCHES:
            owner = resolve(owner_path)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{owner_path}.{attr}")
                continue
            if name == "loop.run_episode":
                wrapped = self._episode_wrapper(self.wrap(name, fn))
            elif name == "loop.build_task_assets":
                wrapped = self._setup_wrapper(self.wrap(name, fn))
            else:
                wrapped = self.wrap(name, fn)
            setattr(owner, attr, wrapped)
        refinement = resolve("replan.refinement")
        factory = getattr(refinement, "mse_objective", None)
        if factory is None:
            self.missing.append("replan.refinement.mse_objective")
        else:
            refinement.mse_objective = self._objective_factory(factory)

    def _episode_wrapper(self, traced):
        trials: Counter = Counter()

        def run_episode(env, method, *args, **kwargs):
            cell = (env.kind.value, method.value)
            self.episode = f"{cell[0]}|{cell[1]}|{trials[cell]}"
            trials[cell] += 1
            try:
                record = traced(env, method, *args, **kwargs)
            finally:
                self.episode = "-"
            self.counts["loop.plans_scored"] += sum(
                r.plan_psnr is not None for r in record.rounds
            )
            return record

        return run_episode

    def _setup_wrapper(self, traced):
        def build_task_assets(config, task, *args, **kwargs):
            self.episode = f"{task}|setup|-"
            try:
                return traced(config, task, *args, **kwargs)
            finally:
                self.episode = "-"

        return build_task_assets

    def _objective_factory(self, factory):
        traced_factory = self.wrap("generator.mse_objective", factory)

        def mse_objective(*args, **kwargs):
            traced_objective = self.wrap("generator.objective", traced_factory(*args, **kwargs))

            def objective(batch):
                self.counts["generator.objective.rows"] += (
                    1 if np.ndim(batch) == 1 else len(batch)
                )
                return traced_objective(batch)

            return objective

        return mse_objective

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, summed ms and self ms (span minus children)."""
        child_s = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            stat = out.setdefault(name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
            stat["calls"] += 1
            stat["ms"] += 1e3 * (end - start)
            stat["self_ms"] += 1e3 * (end - start - child_s[i])
        return out

    def write(self, path: Path) -> None:
        """Write spans as JSON lines; times in ms from the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            for i, (name, start, end, parent, episode) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start_ms": round(1e3 * (start - t0), 4),
                            "end_ms": round(1e3 * (end - t0), 4),
                            "parent": parent,
                            "episode": episode,
                        }
                    )
                    + "\n"
                )


# ---------------------------------------------------------------------------
# Fixed-input microbenchmarks


def _per_call_ms(fn, batch_s: float = 0.03, batches: int = 5) -> float:
    """Median per-call time over ``batches`` timed batches of equal size."""
    fn()
    start = time.perf_counter()
    fn()
    once = max(time.perf_counter() - start, 1e-7)
    n = max(1, int(batch_s / once))
    per_call = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        per_call.append(1e3 * (time.perf_counter() - start) / n)
    return median(per_call)


def microbenchmarks(config, seed: int) -> dict[str, float]:
    """Per-call ms of the eleven loop functions on inputs fixed by ``seed``.

    Inputs come from ``build_task_assets`` for ``pushbar``, which every
    workload includes: a planner support video as the plan, one failed
    dataset interaction as the observation and three more as the episode
    buffer.  ``execute`` gets a new contact offset on every call, so each
    call is a cold rollout, as for an action the episode has not tried.
    """
    from replan.actor import PlanDecodeError, plan_to_action
    from replan.core import psnr, ssim
    from replan.encoders import encode_video, pca_apply
    from replan.envs import EnvAction, EnvInstance, execute, reset, sample_hidden
    from replan.generator import GenerationConfig, generate, mse_objective
    from replan.loop import build_task_assets
    from replan.refinement import RefineConfig, refine_embedding
    from replan.rejection import FailedPlanBuffer, RejectionMetric, select_plan
    from replan.retrieval import BufferPolicy, RetrievalConfig, retrieval_probabilities

    assets = build_task_assets(config, "pushbar")
    rng = np.random.default_rng(seed)
    env = EnvInstance(assets.kind, sample_hidden(assets.kind, rng))
    first_frame = reset(env)
    failures = [t.video for t in assets.dataset.tuples if not t.success]
    observed, *history = [failures[int(i)] for i in rng.choice(len(failures), 4, replace=False)]
    candidates = [failures[int(i)] for i in rng.choice(len(failures), config.n_candidates)]
    plan = assets.planner.videos[int(rng.integers(len(assets.planner)))]
    gt = assets.gt_plans[env.theta_value]
    raw = encode_video(observed)
    k = assets.identifier.embeddings.shape[1]
    objective = mse_objective(assets.identifier, observed)
    point = rng.normal(size=k)
    stencil = rng.normal(size=(2 * k + 1, k))
    gen_config = GenerationConfig(n_candidates=1, noise_std=config.noise_std)
    retr_config = RetrievalConfig(tau=config.tau, buffer_policy=BufferPolicy(config.buffer_policy))
    refine_config = RefineConfig(
        init_mode="random", steps=config.refine_steps, restarts=config.refine_restarts
    )
    metric = RejectionMetric(config.rejection_metric)
    buffer = FailedPlanBuffer()
    for video in history:
        buffer.push(video)
    offsets = iter(np.linspace(-0.2, 0.2, 1_000_003))

    def decode():
        try:
            plan_to_action(assets.kind, plan)
        except PlanDecodeError:
            pass

    return {
        "core.ssim.call_ms": _per_call_ms(lambda: ssim(plan, gt)),
        "core.psnr.call_ms": _per_call_ms(lambda: psnr(plan, gt)),
        "refinement.refine_embedding.call_ms": _per_call_ms(
            lambda: refine_embedding(
                assets.identifier, observed, None, refine_config, np.random.default_rng(seed)
            )
        ),
        "generator.mse_objective.call_ms_1": _per_call_ms(lambda: objective(point)),
        "generator.mse_objective.call_ms_33": _per_call_ms(lambda: objective(stencil)),
        "generator.generate.call_ms": _per_call_ms(
            lambda: generate(assets.planner, first_frame, None, gen_config, rng)
        ),
        "retrieval.retrieval_probabilities.call_ms": _per_call_ms(
            lambda: retrieval_probabilities(assets.table, history, retr_config)
        ),
        "encoders.encode_video.call_ms": _per_call_ms(lambda: encode_video(observed)),
        "encoders.pca_apply.call_ms": _per_call_ms(
            lambda: pca_apply(assets.table.projection, raw)
        ),
        "rejection.select_plan.call_ms": _per_call_ms(
            lambda: select_plan(candidates, buffer, metric)
        ),
        "actor.plan_to_action.call_ms": _per_call_ms(decode),
        "envs.execute.call_ms": _per_call_ms(
            lambda: execute(env, EnvAction(assets.kind, next(offsets)))
        ),
    }
