"""Configuration sweeps reproducing the paper's evaluation (Sec. V).

A sweep runs each model through the paper's configuration grid —
layer-by-layer baseline, ``wdup+x``, ``xinf``, ``wdup+xinf+x`` for
``x in {4, 8, 16, 32}`` — and returns speedups and utilizations
relative to the baseline, i.e. the data series of Figures 6(c), 7(a)
and 7(b).

The grid runs on the job layer of :mod:`repro.exec`: every cell lowers
onto an :class:`~repro.exec.jobs.EvaluateJob` and fans out through a
pluggable :class:`~repro.exec.executors.Executor` (``inline``,
``thread``, ``process``, or any backend registered via
:func:`repro.exec.register_executor`).  The entry points are
:meth:`repro.session.Session.sweep` and
:meth:`repro.session.Session.map` over a
:class:`~repro.exec.jobs.SweepJob`.

Caching and parallelism behave as they always have: every config point
compiles through the pass pipeline with a shared
:class:`~repro.core.cache.CompilationCache` per benchmark (so a sweep
preprocesses and tiles each model exactly once, and the
``wdup``/``wdup+xinf`` pair at each ``x`` shares its duplication
rewrite and Stage I sets), process workers hold per-process caches,
and pool failures fall back to serial execution with identical
results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace as _dc_replace
from typing import Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

from ..arch.config import ArchitectureConfig
from ..arch.presets import paper_case_study
from ..core.cache import CompilationCache
from ..core.pipeline import ScheduleOptions, preprocess_stage
from ..exec.jobs import EvaluateJob, Evaluation, JobError, JobResult, SweepJob
from ..exec.runtime import JobRuntime, execute_job
from ..ir.graph import Graph
from ..mapping.tiling import minimum_pe_requirement
from ..models.zoo import BenchmarkSpec, benchmark_by_name
from ..sim.metrics import Metrics

#: The paper's extra-PE sweep values (Sec. V-B).
PAPER_XS = (4, 8, 16, 32)

#: Backward-compatible alias: the scored outcome of one evaluation.
TaskEval = Evaluation


@dataclass(frozen=True)
class ConfigPoint:
    """One evaluated (configuration, x) point.

    ``energy_uj`` is the first-order inference energy estimate of
    :func:`repro.sim.energy.estimate_energy` — the same objective the
    exploration engine scores — so the sweep and explore paths report
    comparable numbers.  It is ``None`` only for hand-built points.
    """

    benchmark: str
    config: str  # 'layer-by-layer' | 'wdup' | 'xinf' | 'wdup+xinf'
    extra_pes: int
    metrics: Metrics
    speedup: float
    utilization: float
    energy_uj: Optional[float] = None
    #: Static-verifier report for this cell (``sweep(..., verify=True)``).
    verify_report: Optional[Any] = field(default=None, compare=False, repr=False)
    #: Compilation-cache deltas observed while evaluating this cell:
    #: stage lookups served by the in-memory tier, by the persistent
    #: artifact store, and computed from scratch.  Provenance metadata —
    #: excluded from equality (a disk-served point equals a cold one).
    cache_memory_hits: int = field(default=0, compare=False)
    cache_store_hits: int = field(default=0, compare=False)
    cache_misses: int = field(default=0, compare=False)
    #: Execution provenance: how many attempts this cell took and
    #: which backend produced the final result (``inline`` / ``thread``
    #: / ``process``).  Metadata like the ``cache_*`` fields — a point
    #: that needed a retry equals one that ran clean.
    attempts: int = field(default=1, compare=False)
    backend: str = field(default="inline", compare=False)

    @property
    def label(self) -> str:
        """Plot-style label, e.g. ``wdup+16``."""
        if self.config in ("layer-by-layer", "xinf"):
            return self.config
        return f"{self.config.replace('+xinf', '')}+{self.extra_pes}" + (
            "+xinf" if "xinf" in self.config else ""
        )

    @property
    def retried(self) -> bool:
        """Whether this cell needed more than one attempt."""
        return self.attempts > 1


@dataclass(frozen=True)
class FailedPoint:
    """One grid cell that failed even after the retry budget.

    Carries the captured :class:`~repro.exec.jobs.JobError` plus the
    same execution provenance as a successful :class:`ConfigPoint`, so
    exports can report every cell of the grid whether it produced
    metrics or not.
    """

    benchmark: str
    config: str
    extra_pes: int
    error: JobError
    attempts: int = 1
    backend: str = "inline"

    @property
    def label(self) -> str:
        """Plot-style label of the failed cell (matches ConfigPoint)."""
        if self.config in ("layer-by-layer", "xinf"):
            return self.config
        return f"{self.config.replace('+xinf', '')}+{self.extra_pes}" + (
            "+xinf" if "xinf" in self.config else ""
        )


@dataclass
class SweepResult:
    """All configuration points of one benchmark.

    ``points`` holds the successful grid cells; ``failures`` holds the
    cells that failed even after the retry budget (empty on a clean
    run — check :attr:`ok` before trusting the grid to be complete).
    """

    benchmark: str
    min_pes: int
    baseline: Metrics
    points: list[ConfigPoint] = field(default_factory=list)
    #: Grid cells that failed after exhausting the retry budget.
    failures: list[FailedPoint] = field(default_factory=list)
    #: Energy estimate of the layer-by-layer baseline, in microjoules.
    baseline_energy_uj: Optional[float] = None
    #: Static-verifier report of the baseline cell (verified sweeps only).
    baseline_verify_report: Optional[Any] = field(
        default=None, compare=False, repr=False
    )
    #: Cache deltas of the baseline cell as ``(memory_hits,
    #: store_hits, misses)`` — provenance metadata, like the per-point
    #: ``cache_*`` fields.
    baseline_cache: Optional[tuple[int, int, int]] = field(
        default=None, compare=False, repr=False
    )

    @property
    def ok(self) -> bool:
        """Whether every grid cell of this benchmark succeeded."""
        return not self.failures

    def best_speedup(self) -> ConfigPoint:
        """The point with the highest speedup."""
        return max(self.points, key=lambda p: p.speedup)

    def best_utilization(self) -> ConfigPoint:
        """The point with the highest utilization."""
        return max(self.points, key=lambda p: p.utilization)

    def best_energy(self) -> ConfigPoint:
        """The point with the lowest estimated inference energy."""
        scored = [p for p in self.points if p.energy_uj is not None]
        if not scored:
            raise ValueError(
                f"{self.benchmark}: no energy estimates on any config point"
            )
        return min(scored, key=lambda p: p.energy_uj)

    def series(self, config: str) -> list[ConfigPoint]:
        """Points of one configuration, ordered by extra PEs."""
        return sorted(
            (p for p in self.points if p.config == config),
            key=lambda p: p.extra_pes,
        )


@dataclass(frozen=True)
class SweepTask:
    """One (benchmark, configuration, x) evaluation of a sweep grid.

    Plain-data and picklable; lowers onto an
    :class:`~repro.exec.jobs.EvaluateJob` via :func:`grid_job`.
    """

    benchmark: str
    config: str
    mapping: str
    scheduling: str
    extra_pes: int
    min_pes: int

    @property
    def is_baseline(self) -> bool:
        return self.config == "layer-by-layer"


def grid_tasks(spec: BenchmarkSpec, xs: Sequence[int] = PAPER_XS) -> list[SweepTask]:
    """The paper's configuration grid for one benchmark, in canonical
    order: baseline, ``xinf``, then ``wdup``/``wdup+xinf`` per ``x``."""
    tasks = [
        SweepTask(spec.name, "layer-by-layer", "none", "layer-by-layer", 0, spec.min_pes),
        SweepTask(spec.name, "xinf", "none", "clsa-cim", 0, spec.min_pes),
    ]
    for x in xs:
        tasks.append(SweepTask(spec.name, "wdup", "wdup", "layer-by-layer", x, spec.min_pes))
        tasks.append(SweepTask(spec.name, "wdup+xinf", "wdup", "clsa-cim", x, spec.min_pes))
    return tasks


@dataclass(frozen=True)
class EvalTask:
    """One arbitrary ``(architecture, options)`` evaluation.

    The plain-data task form the exploration engine proposes; it lowers
    onto an :class:`~repro.exec.jobs.EvaluateJob` (:meth:`to_job`).
    ``key`` identifies the task in streamed results and must be unique
    within one stream.
    """

    key: str
    arch: ArchitectureConfig
    options: ScheduleOptions
    #: Skip the energy estimate (proxy evaluations want latency only).
    want_energy: bool = True

    def to_job(self, graph: Union[Graph, str]) -> EvaluateJob:
        """Lower onto the canonical job form."""
        return EvaluateJob(
            graph=graph,
            arch=self.arch,
            options=self.options,
            assume_canonical=True,
            want_energy=self.want_energy,
            key=self.key,
        )


def grid_job(
    task: SweepTask,
    options_overrides: Optional[Mapping[str, Any]],
    verify: bool = False,
) -> EvaluateJob:
    """Lower a paper-grid cell onto the canonical job form.

    The graph travels by benchmark name: the runtime resolves it
    driver-side for in-process backends and ships it once through the
    pool initializer for the ``process`` backend.  With ``verify`` the
    job carries the static-verifier flag, so every envelope streams
    back with a :class:`~repro.verify.VerifyReport` attached.
    """
    return EvaluateJob(
        graph=task.benchmark,
        arch=paper_case_study(task.min_pes + task.extra_pes),
        options=ScheduleOptions(
            mapping=task.mapping,
            scheduling=task.scheduling,
            **(dict(options_overrides) if options_overrides else {}),
        ),
        assume_canonical=True,
        verify=verify,
        key=f"{task.benchmark}/{task.config}+{task.extra_pes}",
    )


# ---------------------------------------------------------------------------
# running the grid (behind Session.sweep and Session.map)
# ---------------------------------------------------------------------------


def resolve_benchmarks(
    benchmarks: Iterable[Union[str, BenchmarkSpec]],
) -> list[BenchmarkSpec]:
    """Mixed names/specs → specs (names resolve against the zoo)."""
    return [
        benchmark_by_name(item) if isinstance(item, str) else item
        for item in benchmarks
    ]


def canonicalize_spec(
    spec: BenchmarkSpec,
    graph: Optional[Graph],
    cache: Optional[CompilationCache],
) -> Graph:
    """Preprocess one benchmark and check its published PE minimum."""
    model = graph if graph is not None else spec.build()
    canonical = preprocess_stage(model, cache)
    measured_min = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    if measured_min != spec.min_pes:
        raise AssertionError(
            f"{spec.name}: measured PE minimum {measured_min} differs from "
            f"published {spec.min_pes}"
        )
    return canonical


def stream_grid(
    runtime: JobRuntime,
    specs: Sequence[BenchmarkSpec],
    xs: Sequence[int] = PAPER_XS,
    options_overrides: Optional[Mapping[str, Any]] = None,
    graphs: Optional[Mapping[str, Graph]] = None,
    *,
    ordered: bool = False,
    capture: bool = False,
    verify: bool = False,
) -> Iterator[JobResult]:
    """Stream the paper grid as :class:`JobResult` envelopes.

    Each envelope's ``value`` is a :class:`ConfigPoint`.  The baseline
    point of each benchmark (``config == 'layer-by-layer'``, speedup
    1.0) always streams before that benchmark's other points and is
    evaluated driver-side (its metrics anchor every speedup); the
    remaining cells fan out through the runtime's executor, in
    submission order when ``ordered`` else in completion order.  Specs
    repeated by name are evaluated once.  With ``capture``, per-cell
    failures surface as envelopes with ``error`` set instead of
    raising (baselines always raise — without them no speedup exists).
    With ``verify`` every cell also runs the static verifier and the
    envelopes carry ``verify_report``.
    """
    unique: dict[str, BenchmarkSpec] = {}
    for spec in specs:
        unique.setdefault(spec.name, spec)
    canonicals = {
        spec.name: canonicalize_spec(
            spec, (graphs or {}).get(spec.name), runtime.cache_for(spec.name)
        )
        for spec in unique.values()
    }

    baselines: dict[str, TaskEval] = {}
    pending: list[SweepTask] = []
    for spec in unique.values():
        for task in grid_tasks(spec, xs):
            if task.is_baseline:
                job = _dc_replace(
                    grid_job(task, options_overrides, verify),
                    graph=canonicals[spec.name],
                )
                result = execute_job(
                    job,
                    runtime.cache_for(spec.name),
                    runtime.pass_manager,
                    runtime.hooks,
                    capture=False,
                )
                baselines[spec.name] = result.value
                yield _dc_replace(
                    result,
                    value=_point(task, result.value, baselines, result),
                )
            else:
                pending.append(task)

    by_key = {}
    jobs = []
    for task in pending:
        job = grid_job(task, options_overrides, verify)
        by_key[job.key] = task
        jobs.append(job)
    for result in runtime.map_jobs(
        jobs, graphs=canonicals, ordered=ordered, capture=capture
    ):
        task = by_key[result.key]
        if result.ok:
            point = _point(task, result.value, baselines, result)
            yield _dc_replace(result, value=point)
        else:
            failed = FailedPoint(
                benchmark=task.benchmark,
                config=task.config,
                extra_pes=task.extra_pes,
                error=result.error,
                attempts=result.attempts,
                backend=result.backend,
            )
            yield _dc_replace(result, value=failed)


def _point(
    task: SweepTask,
    evaluation: TaskEval,
    baselines: Mapping[str, TaskEval],
    result: Optional[JobResult] = None,
) -> ConfigPoint:
    baseline = baselines[task.benchmark].metrics
    metrics = evaluation.metrics
    return ConfigPoint(
        benchmark=task.benchmark,
        config=task.config,
        extra_pes=task.extra_pes,
        metrics=metrics,
        speedup=metrics.speedup_over(baseline),
        utilization=metrics.utilization,
        energy_uj=evaluation.energy_uj,
        verify_report=None if result is None else result.verify_report,
        cache_memory_hits=0 if result is None else result.cache_memory_hits,
        cache_store_hits=0 if result is None else result.cache_store_hits,
        cache_misses=0 if result is None else result.cache_misses,
        attempts=1 if result is None else result.attempts,
        backend="inline" if result is None else result.backend,
    )


def assemble_sweep_results(
    specs: Sequence[BenchmarkSpec],
    xs: Sequence[int],
    points: Iterable[Union[ConfigPoint, FailedPoint]],
) -> list[SweepResult]:
    """Fold streamed config points into per-benchmark results.

    Points sort into canonical grid order regardless of the completion
    order they streamed in, so parallel and serial runs assemble
    identically.  :class:`FailedPoint` entries (captured per-cell
    failures) land in ``SweepResult.failures`` instead of ``points``.
    """
    order = {
        (spec.name, task.config, task.extra_pes): index
        for spec in specs
        for index, task in enumerate(grid_tasks(spec, xs))
    }
    results: dict[str, SweepResult] = {}
    failed: list[FailedPoint] = []
    for point in points:
        if isinstance(point, FailedPoint):
            failed.append(point)
        elif point.config == "layer-by-layer":
            results[point.benchmark] = SweepResult(
                benchmark=point.benchmark,
                min_pes=next(
                    s.min_pes for s in specs if s.name == point.benchmark
                ),
                baseline=point.metrics,
                baseline_energy_uj=point.energy_uj,
                baseline_verify_report=point.verify_report,
                baseline_cache=(
                    point.cache_memory_hits,
                    point.cache_store_hits,
                    point.cache_misses,
                ),
            )
        else:
            results[point.benchmark].points.append(point)
    for failure in failed:
        # Baselines run driver-side and always raise on failure, so a
        # FailedPoint's benchmark is guaranteed to have a SweepResult.
        results[failure.benchmark].failures.append(failure)
    for result in results.values():
        result.points.sort(
            key=lambda p: order[(p.benchmark, p.config, p.extra_pes)]
        )
        result.failures.sort(
            key=lambda p: order[(p.benchmark, p.config, p.extra_pes)]
        )
    return [results[spec.name] for spec in specs]


def run_grid(
    runtime: JobRuntime,
    specs: Sequence[BenchmarkSpec],
    xs: Sequence[int] = PAPER_XS,
    options_overrides: Optional[Mapping[str, Any]] = None,
    graphs: Optional[Mapping[str, Graph]] = None,
    verify: bool = False,
) -> list[SweepResult]:
    """Run and assemble the grid (the engine behind ``Session.sweep``).

    With ``verify`` every cell runs the static verifier and its
    :class:`~repro.verify.VerifyReport` rides on the assembled points
    (``ConfigPoint.verify_report`` / ``SweepResult.baseline_verify_report``).
    A failing cell lands in ``SweepResult.failures`` and the remaining
    cells still run.
    """
    stream = stream_grid(
        runtime,
        specs,
        xs,
        options_overrides,
        graphs,
        ordered=False,
        capture=True,
        verify=verify,
    )
    return assemble_sweep_results(specs, xs, (r.value for r in stream))


def sweep_job_stream(
    runtime: JobRuntime, job: SweepJob, *, ordered: bool = True, capture: bool = True
) -> Iterator[JobResult]:
    """Expand a :class:`~repro.exec.jobs.SweepJob` into its grid stream."""
    specs = resolve_benchmarks(job.benchmarks)
    return stream_grid(
        runtime,
        specs,
        job.xs if job.xs is not None else PAPER_XS,
        job.options_overrides,
        job.graphs,
        ordered=ordered,
        capture=capture,
        verify=job.verify,
    )
