"""The exploration engine: strategy → dedup → evaluate → frontier.

:class:`Explorer` wires the pieces together into the run loop:

1. ask the :class:`~repro.explore.strategies.Strategy` for a batch of
   proposals (at most the remaining budget at full fidelity);
2. canonicalize each point and look its fingerprint up in the
   :class:`~repro.explore.store.RunStore` — hits are served from the
   journal without compiling anything;
3. fan the misses out through the job runtime of :mod:`repro.exec`
   (serial with a shared compilation cache, or a process pool with
   ``jobs > 1``), journal
   every result, and offer full-fidelity feasible scores to the
   incremental :class:`~repro.explore.pareto.ParetoFrontier`;
4. tell the strategy what happened (in proposal order, so parallel
   execution cannot perturb the search trajectory) and repeat until
   the budget is spent or the strategy runs dry.

The budget counts *full-fidelity points processed* — reused or fresh —
so re-running an exploration with the same seed and budget is a pure
journal replay (zero compiles), and raising the budget continues where
the previous run stopped.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from ..arch.config import ArchitectureConfig
from ..core.cache import CompilationCache
from ..core.pipeline import preprocess_stage
from ..exec.executors import Executor
from ..exec.faults import FaultPlan
from ..exec.resilience import RetryPolicy
from ..exec.runtime import JobRuntime
from ..ir.graph import Graph
from .evaluator import FULL, PROXY, EvaluationResult, PointEvaluator
from .objectives import resolve_objectives
from .pareto import FrontierEntry, ParetoFrontier
from .space import SearchSpace, default_space
from .store import RunStore, StoreError
from .strategies import Proposal, make_strategy

__all__ = ["ExplorationCounters", "ExplorationResult", "Explorer", "ExploreError"]


class ExploreError(RuntimeError):
    """Raised on unusable exploration configurations."""


@dataclass
class ExplorationCounters:
    """What one :meth:`Explorer.run` actually did."""

    evaluated_full: int = 0
    evaluated_proxy: int = 0
    reused_full: int = 0
    reused_proxy: int = 0
    infeasible: int = 0
    #: Points whose evaluation failed even after the retry budget.
    #: They consume budget but are never journalled (a transient
    #: failure must not poison resumed runs) and never reach the
    #: frontier.
    failed: int = 0

    @property
    def compiles(self) -> int:
        """Points actually compiled this run (evaluations, not reuses)."""
        return self.evaluated_full + self.evaluated_proxy

    @property
    def processed(self) -> int:
        return (
            self.evaluated_full
            + self.evaluated_proxy
            + self.reused_full
            + self.reused_proxy
            + self.infeasible
            + self.failed
        )

    def summary(self) -> str:
        text = (
            f"evaluated {self.evaluated_full} "
            f"(+{self.evaluated_proxy} proxy) | "
            f"reused {self.reused_full} (+{self.reused_proxy} proxy) | "
            f"infeasible {self.infeasible}"
        )
        if self.failed:
            text += f" | failed {self.failed}"
        return text


@dataclass
class ExplorationResult:
    """Everything one exploration run produced."""

    strategy: str
    budget: int
    objectives: tuple[str, ...]
    frontier: ParetoFrontier
    results: list[EvaluationResult] = field(default_factory=list)
    counters: ExplorationCounters = field(default_factory=ExplorationCounters)
    store_path: Optional[str] = None
    store_size: int = 0

    def best(self, objective: str) -> FrontierEntry:
        """The frontier entry optimal on one objective."""
        return self.frontier.best(objective)

    def summary(self) -> str:
        """Multi-line human-readable account (CI greps these lines)."""
        lines = [
            f"strategy {self.strategy}, budget {self.budget}, "
            f"objectives ({', '.join(self.objectives)})",
            f"points processed {self.counters.processed}: "
            + self.counters.summary(),
            f"compiles this run: {self.counters.compiles}",
        ]
        if self.store_path is not None:
            lines.append(f"run store: {self.store_path} ({self.store_size} records)")
        lines.append(f"Pareto frontier: {self.frontier.summary()}")
        return "\n".join(lines)


class Explorer:
    """Multi-objective design-space search over one model.

    Parameters
    ----------
    model:
        The graph to explore (raw graphs are canonicalized once).
    base_arch:
        Architecture template for
        :class:`~repro.explore.evaluator.PointEvaluator`.
    space:
        Search space; defaults to :func:`~repro.explore.space.default_space`.
    objectives:
        Objective names the frontier ranks on (any registered name).
    strategy:
        Registered strategy name, or ``(name, options_dict)``.
    budget:
        Full-fidelity points to process (reused + fresh).
    store:
        ``None`` for in-memory dedup only, a path for an on-disk
        journal, or an existing :class:`RunStore`.
    resume:
        Allow continuing an existing on-disk store (refused otherwise).
    seed:
        Strategy RNG seed.
    jobs:
        Worker processes for evaluation fan-out (``1`` = serial).
    max_total_pes:
        Optional chip budget (see :class:`PointEvaluator`).
    warm_start:
        Evaluate the paper-grid *anchor* configurations first (every
        mapping x scheduling combination at the space's largest PE
        budget and finest granularity).  Anchors consume budget like
        any other full evaluation and guarantee the frontier sees the
        known-good corners of the space even under tiny budgets or
        unlucky seeds; strategies observe them like their own
        proposals (the evolutionary archive seeds from them).
    executor:
        Execution backend for point evaluation (name or
        :class:`~repro.exec.Executor` instance); defaults to
        ``process`` when ``jobs`` asks for parallelism, else
        ``inline``.
    retry / job_timeout / fault_plan:
        Fault-tolerance knobs forwarded to the evaluation runtime —
        same semantics as on :class:`repro.session.Session` (retry
        policy for transient failures, per-evaluation wall-clock
        budget, deterministic fault injection for tests).

    :meth:`repro.session.Session.explore` and an
    :class:`~repro.exec.jobs.ExploreJob` submitted through
    :meth:`~repro.session.Session.submit` run this engine.
    """

    def __init__(
        self,
        model: Graph,
        *,
        base_arch: Optional[ArchitectureConfig] = None,
        space: Optional[SearchSpace] = None,
        objectives: Sequence[str] = ("latency", "energy"),
        strategy: str = "random",
        strategy_options: Optional[dict[str, Any]] = None,
        budget: int = 40,
        store: Union[RunStore, str, None] = None,
        resume: bool = True,
        seed: int = 0,
        jobs: Optional[int] = 1,
        cache: Optional[CompilationCache] = None,
        max_total_pes: Optional[int] = None,
        warm_start: bool = True,
        executor: Union[Executor, str, None] = None,
        retry: Union[RetryPolicy, int, None] = None,
        job_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if budget < 1:
            raise ExploreError(f"budget must be >= 1, got {budget}")
        self.space = space if space is not None else default_space()
        self.objective_names = tuple(objectives)
        resolve_objectives(self.objective_names)  # fail fast on typos
        self.strategy_name = strategy
        self.strategy_options = dict(strategy_options or {})
        self.budget = budget
        self.seed = seed
        self.warm_start = warm_start
        self.cache = cache if cache is not None else CompilationCache()
        canonical = preprocess_stage(model, self.cache)
        self.evaluator = PointEvaluator(
            canonical,
            base_arch=base_arch,
            cache=self.cache,
            max_total_pes=(
                max_total_pes
                if max_total_pes is not None
                else self.space.max_total_pes
            ),
        )
        self._runtime = JobRuntime(
            executor,
            jobs=jobs,
            use_cache=True,
            cache=self.cache,
            serial_note="evaluating serially",
            retry=retry,
            job_timeout=job_timeout,
            fault_plan=fault_plan,
        )
        if isinstance(store, RunStore):
            if store.graph_fingerprint != self.evaluator.graph_fingerprint:
                raise StoreError(
                    "run store was created for a different model "
                    "(graph fingerprint mismatch)"
                )
            self.store = store
        elif store is None:
            self.store = RunStore(None, self.evaluator.graph_fingerprint)
        else:
            self.store = RunStore.open(
                store, self.evaluator.graph_fingerprint, resume=resume
            )

    # -- run loop ------------------------------------------------------

    def run(self) -> ExplorationResult:
        """Execute the exploration and return frontier plus journal."""
        objectives = resolve_objectives(self.objective_names)
        frontier = ParetoFrontier(objectives)
        self._replay(frontier)
        strategy = make_strategy(
            self.strategy_name,
            self.space,
            seed=self.seed,
            budget=self.budget,
            objectives=self.objective_names,
            **self.strategy_options,
        )
        counters = ExplorationCounters()
        log: list[EvaluationResult] = []

        try:
            processed_full = 0
            if self.warm_start:
                anchors = self._trim(self._anchor_proposals(), self.budget)
                if anchors:
                    # Claim the anchor points on the strategy so it does
                    # not re-propose them, which would burn budget slots
                    # on in-run duplicates.
                    claim = getattr(strategy, "claim", None)
                    if claim is not None:
                        for proposal in anchors:
                            claim(proposal.point)
                    batch = self._process(anchors, frontier, counters)
                    processed_full += len(anchors)
                    log.extend(batch)
                    strategy.observe(batch)

            while processed_full < self.budget:
                limit = self.budget - processed_full
                proposals = strategy.propose(limit)
                if not proposals:
                    break
                proposals = self._trim(proposals, limit)
                batch = self._process(proposals, frontier, counters)
                processed_full += sum(1 for p in proposals if p.fidelity == FULL)
                log.extend(batch)
                strategy.observe(batch)
        finally:
            # The journal is already durable per append; releasing the
            # worker pool and file handle here keeps interrupts clean.
            # (Externally-owned executor instances are left running.)
            self._runtime.shutdown()
            self.store.close()
        if counters.failed:
            warnings.warn(
                f"exploration finished with {counters.failed} failed "
                "evaluation(s); they consumed budget but were not "
                "journalled and did not reach the frontier",
                RuntimeWarning,
                stacklevel=2,
            )
        return ExplorationResult(
            strategy=self.strategy_name,
            budget=self.budget,
            objectives=self.objective_names,
            frontier=frontier,
            results=log,
            counters=counters,
            store_path=self.store.path,
            store_size=len(self.store),
        )

    def _anchor_proposals(self) -> list[Proposal]:
        """The paper-grid corners of the space, as full proposals.

        One anchor per mapping x scheduling combination (or a single
        one when the space lacks those dimensions), each at the
        largest PE budget, finest granularity, dynamic ordering —
        the configuration family the paper itself evaluates.
        """
        preferred = {
            "extra_pes": max,
            "rows_per_set": min,
            "pes_per_tile": min,
            "d_max_cap": min,
            "crossbar_dim": max,
        }
        base: dict = {}
        for dim in self.space.dimensions:
            if dim.name in preferred:
                base[dim.name] = preferred[dim.name](dim.choices)
            elif dim.name == "order_mode" and "dynamic" in dim.choices:
                base[dim.name] = "dynamic"
            else:
                base[dim.name] = dim.choices[0]
        names = set(self.space.names)
        combos: list[dict] = [{}]
        for knob in ("mapping", "scheduling"):
            if knob in names:
                combos = [
                    {**combo, knob: value}
                    for combo in combos
                    for value in self.space.dimension(knob).choices
                ]
        proposals = []
        seen: set[str] = set()
        for combo in combos:
            point = self.space.canonicalize({**base, **combo})
            if not self.space.is_valid(point):
                continue
            key = self.evaluator.fingerprint(point)
            if key in seen:
                continue
            seen.add(key)
            proposals.append(Proposal(point, FULL))
        return proposals

    def _replay(self, frontier: ParetoFrontier) -> None:
        """Seed the frontier from journalled full evaluations."""
        wanted = set(self.objective_names)
        for record in self.store:
            if (
                record.fidelity == FULL
                and record.feasible
                and wanted <= set(record.objectives)
            ):
                frontier.add(record.fingerprint, record.objectives, record.point)

    @staticmethod
    def _trim(proposals: Sequence[Proposal], limit: int) -> list[Proposal]:
        """Keep every proxy proposal but at most ``limit`` full ones."""
        trimmed: list[Proposal] = []
        full = 0
        for proposal in proposals:
            if proposal.fidelity == FULL:
                if full >= limit:
                    continue
                full += 1
            trimmed.append(proposal)
        return trimmed

    def _process(
        self,
        proposals: Sequence[Proposal],
        frontier: ParetoFrontier,
        counters: ExplorationCounters,
    ) -> list[EvaluationResult]:
        """Evaluate one batch: dedup, compile misses, journal, rank."""
        evaluator = self.evaluator
        resolved: list[tuple[Proposal, dict, str]] = []
        to_compile: dict[str, tuple[dict, str]] = {}
        for proposal in proposals:
            point = self.space.canonicalize(proposal.point)
            fingerprint = evaluator.fingerprint(point, proposal.fidelity)
            resolved.append((proposal, point, fingerprint))
            if fingerprint in self.store or fingerprint in to_compile:
                continue
            if evaluator.infeasibility(point, self.space):
                continue
            to_compile[fingerprint] = (point, proposal.fidelity)

        evaluations = {}
        crashed: dict[str, str] = {}
        if to_compile:
            jobs = [
                evaluator.task_for(point, fidelity).to_job("explore")
                for point, fidelity in to_compile.values()
            ]
            for outcome in self._runtime.map_jobs(
                jobs,
                graphs={"explore": evaluator.canonical},
                ordered=False,
                capture=True,
            ):
                if outcome.ok:
                    evaluations[outcome.key] = outcome.value
                else:
                    crashed[outcome.key] = (
                        f"{outcome.error.kind}: {outcome.error.message}"
                    )

        batch: list[EvaluationResult] = []
        emitted: set[str] = set()
        for proposal, point, fingerprint in resolved:
            fresh = fingerprint not in emitted
            emitted.add(fingerprint)
            if fingerprint in crashed:
                # Failed after the retry budget: consume the slot but
                # keep it out of the journal and the frontier — a
                # transient crash must not replay as a permanent score.
                result = evaluator.infeasible_result(
                    point, proposal.fidelity, [crashed[fingerprint]]
                )
                if fresh:
                    counters.failed += 1
                batch.append(result)
                continue
            if fingerprint in evaluations:
                result = evaluator.result_from_eval(
                    point, proposal.fidelity, evaluations[fingerprint]
                )
                if fresh:
                    self.store.append(result.to_record())
                    if proposal.fidelity == PROXY:
                        counters.evaluated_proxy += 1
                    else:
                        counters.evaluated_full += 1
                        frontier.add(
                            result.fingerprint, result.objectives, result.point
                        )
                batch.append(result)
                continue
            record = self.store.get(fingerprint)
            if record is not None:
                result = EvaluationResult.from_record(record)
                if fresh:
                    if not result.feasible:
                        counters.infeasible += 1
                    elif result.fidelity == PROXY:
                        counters.reused_proxy += 1
                    else:
                        counters.reused_full += 1
            else:
                reasons = evaluator.infeasibility(point, self.space)
                result = evaluator.infeasible_result(
                    point, proposal.fidelity, reasons
                )
                if fresh:
                    self.store.append(result.to_record())
                    counters.infeasible += 1
            batch.append(result)
        return batch
