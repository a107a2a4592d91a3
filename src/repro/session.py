"""The public compilation API: :class:`Session`.

A session binds a target architecture to a compilation cache, a pass
manager, and an execution backend, and exposes the verbs users
actually need::

    from repro import Session, ScheduleOptions, paper_case_study
    from repro.exec import CompileJob, EvaluateJob, SweepJob

    session = Session(paper_case_study(133), executor="process")
    compiled = session.compile(model)            # CompiledModel
    metrics = session.evaluate(compiled)         # Eq. 2/3 metrics
    results = session.sweep(["tinyyolov3"])      # the Fig. 7 grid
    explored = session.explore("tinyyolov3")     # Pareto search (DSE)

    future = session.submit(CompileJob(model))   # JobFuture
    for result in session.map([EvaluateJob(model, opts) for opts in grid]):
        ...                                      # JobResult stream

Everything above runs on one execution layer (:mod:`repro.exec`):
work is described by typed jobs (:class:`~repro.exec.jobs.CompileJob`,
:class:`~repro.exec.jobs.EvaluateJob`,
:class:`~repro.exec.jobs.SweepJob`,
:class:`~repro.exec.jobs.ExploreJob`), every executed job yields one
:class:`~repro.exec.jobs.JobResult` envelope, and the ``executor``
knob picks the backend — ``inline`` (default), ``thread``,
``process``, or any backend registered through
:func:`repro.exec.register_executor`.

Repeated compiles through one session share stage results via the
session cache (preprocessing, tiling, duplication rewrites...), and
hooks observe every pass and job as it runs; a hook that raises never
aborts the work (a pass or compile hook failure becomes a compile
diagnostic, a job hook failure a ``RuntimeWarning``).  ``compile``
accepts raw or canonical graphs; ``evaluate`` accepts a graph or an
existing :class:`~repro.core.pipeline.CompiledModel`; ``sweep``
accepts benchmark specs or names.

Compilation itself is :meth:`repro.core.passes.PassManager.compile`,
whose passes compute and cache every stage; :meth:`Session.compile`,
:func:`repro.core.pipeline.compile_model` and every compile or evaluate
job take that one path.
"""

from __future__ import annotations

import sys
import threading
import time
import warnings
from concurrent.futures import CancelledError as FuturesCancelledError
from concurrent.futures import TimeoutError as FuturesTimeoutError
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Iterable,
    Iterator,
    Optional,
    Sequence,
    Union,
)

if TYPE_CHECKING:  # heavy subsystems: imported for annotations only
    from os import PathLike

    from .analysis.sweep import SweepResult
    from .explore.engine import ExplorationResult
    from .explore.space import SearchSpace
    from .explore.store import RunStore
    from .models.zoo import BenchmarkSpec
    from .sim.metrics import Metrics
    from .store.disk import ArtifactStore
    from .verify.diagnostics import VerifyReport

from .arch.config import ArchitectureConfig
from .core.cache import CompilationCache
from .core.passes import CompilationContext, PassManager, default_pass_manager, fire_hooks
from .core.pipeline import CompiledModel, ScheduleOptions
from .exec.executors import Executor
from .exec.faults import FaultPlan
from .exec.futures import JobFuture
from .exec.jobs import ExploreJob, Job, JobError, JobResult, SweepJob, job_key
from .exec.resilience import RetryEvent, RetryPolicy
from .exec.runtime import JobRuntime
from .ir.graph import Graph

__all__ = ["Session", "SessionHooks"]


@dataclass
class SessionHooks:
    """Optional observation points for a session's work.

    Any subset of the callbacks may be set; unset ones are skipped.
    ``on_pass_start(name, ctx)`` / ``on_pass_end(name, ctx, seconds)``
    fire around every executed pass, ``on_compile_start(ctx)`` /
    ``on_compile_end(compiled)`` around each whole compilation, and
    ``on_job_submit(job)`` / ``on_job_done(result)`` around every job
    that flows through :meth:`Session.submit` / :meth:`Session.map`
    (composite jobs fire ``on_job_done`` once per streamed result).

    ``on_job_retry(event)`` fires every time the runtime decides to
    re-attempt a failed job, with a
    :class:`~repro.exec.resilience.RetryEvent` describing the failed
    attempt, the triggering error, and the backoff before the next
    try.

    Exceptions raised inside a hook are caught — user telemetry must
    never abort a compile or a job.  A failing pass- or compile-level
    hook is recorded as a diagnostic of that compile; a failing
    job-level hook (submit/done/retry) emits one ``RuntimeWarning``
    naming the event.  Pass- and compile-level hooks cannot
    cross a process boundary (the ``process`` executor degrades such
    sessions to thread workers with a warning); job-level hooks
    (submit/done/retry) always fire driver-side and work with every
    backend.
    """

    on_pass_start: Optional[Callable[[str, CompilationContext], None]] = None
    on_pass_end: Optional[Callable[[str, CompilationContext, float], None]] = None
    on_compile_start: Optional[Callable[[CompilationContext], None]] = None
    on_compile_end: Optional[Callable[[CompiledModel], None]] = None
    on_job_submit: Optional[Callable[[Job], None]] = None
    on_job_done: Optional[Callable[[JobResult], None]] = None
    on_job_retry: Optional[Callable[["RetryEvent"], None]] = None


class Session:
    """Compilation facade binding an architecture, cache and passes.

    Parameters
    ----------
    arch:
        Target architecture of :meth:`compile`/:meth:`evaluate` and
        the default architecture of submitted jobs.  (:meth:`sweep`
        derives per-point architectures from the paper's ``PE_min +
        x`` rule and ignores this.)
    cache:
        ``True`` (default) creates a private
        :class:`~repro.core.cache.CompilationCache`; pass an existing
        cache to share stage results between sessions (e.g. a baseline
        and a tuned configuration on different PE budgets), or
        ``None``/``False`` to compile uncached.
    hooks:
        A :class:`SessionHooks` (or any object with the same optional
        callables), or a sequence of them.
    pass_manager:
        Custom :class:`~repro.core.passes.PassManager`; defaults to the
        standard pass order.
    executor:
        Execution backend for :meth:`submit`/:meth:`map` (and the
        default backend of :meth:`sweep`/:meth:`explore`): a
        registered name (``"inline"``, ``"thread"``, ``"process"``,
        or a plugin), an :class:`~repro.exec.Executor` instance, or
        ``None`` for inline execution.  Instances are externally
        owned: :meth:`close` leaves them running.
    store:
        Persistent artifact store layered under the compilation
        cache: an :class:`~repro.store.disk.ArtifactStore` instance,
        or ``True`` to open the default store (``$REPRO_STORE_PATH``,
        else ``$XDG_CACHE_HOME/clsa-cim-repro/store``).  With a store
        attached, stage results survive processes and sessions: a
        fresh session recompiling an already-seen model serves every
        stage from disk.  Requires caching (``cache`` must not be
        disabled).  Mutually exclusive with ``store_path``.
    store_path:
        Filesystem path to open (or create) an artifact store at —
        shorthand for ``store=ArtifactStore(path)``.
    retry:
        Fault-tolerance policy for submitted jobs: a
        :class:`~repro.exec.resilience.RetryPolicy`, an ``int``
        (shorthand for that many attempts with default backoff), or
        ``None`` to fail on the first error.  Only transient failures
        (worker crashes, timeouts, broken pools) are retried —
        deterministic compile errors fail fast regardless of budget.
    job_timeout:
        Per-job wall-clock budget in seconds.  Process workers that
        blow the budget are SIGKILLed and respawned; thread/inline
        jobs observe the deadline cooperatively between passes.
        Combined with ``retry``, a timed-out job is re-attempted.
    fault_plan:
        A :class:`~repro.exec.faults.FaultPlan` injecting
        deterministic failures keyed by ``(job key, attempt)`` —
        testing/CI chaos harness, not for production use.
    """

    def __init__(
        self,
        arch: ArchitectureConfig,
        *,
        cache: Union[CompilationCache, bool, None] = True,
        hooks: Union[Any, Sequence[Any], None] = None,
        pass_manager: Optional[PassManager] = None,
        executor: Union[Executor, str, None] = None,
        store: Union["ArtifactStore", bool, None] = None,
        store_path: Union[str, "PathLike[str]", None] = None,
        retry: Union[RetryPolicy, int, None] = None,
        job_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        self.arch = arch
        resolved_store: Optional["ArtifactStore"] = None
        if store is not None or store_path is not None:
            from .store.paths import resolve_store

            resolved_store = resolve_store(store=store, store_path=store_path)
        if cache is True:
            self.cache: Optional[CompilationCache] = CompilationCache(
                store=resolved_store
            )
        elif cache is False or cache is None:
            if resolved_store is not None:
                raise ValueError(
                    "a persistent store requires caching; "
                    "pass cache=True (or a CompilationCache) with store="
                )
            self.cache = None
        else:
            self.cache = cache
            if resolved_store is not None:
                self.cache.attach_store(resolved_store)
        self.store: Optional["ArtifactStore"] = (
            resolved_store
            if resolved_store is not None
            else getattr(self.cache, "store", None)
        )
        if hooks is None:
            self.hooks: tuple[Any, ...] = ()
        elif isinstance(hooks, (list, tuple)):
            self.hooks = tuple(hooks)
        else:
            self.hooks = (hooks,)
        self._custom_pass_manager = pass_manager is not None
        self.pass_manager = pass_manager if pass_manager is not None else default_pass_manager()
        self._executor_spec = executor
        #: The owned backend of the last closed runtime (see :meth:`close`).
        self._closed_executor: Optional[Executor] = None
        self._retry = retry
        self._job_timeout = job_timeout
        self._fault_plan = fault_plan
        self._runtime: Optional[JobRuntime] = None
        self._job_counter = 0
        self._inflight: list[JobFuture] = []
        self._inflight_lock = threading.Lock()

    def __repr__(self) -> str:
        cached = "cached" if self.cache is not None else "uncached"
        name = getattr(self.executor, "name", None) or "inline"
        return f"Session({self.arch.summary()}, {cached}, executor={name})"

    # -- execution plumbing --------------------------------------------

    @property
    def executor(self) -> Executor:
        """The resolved execution backend of this session."""
        return self.runtime.executor

    @property
    def runtime(self) -> JobRuntime:
        """The lazily-created job runtime behind submit/map/sweep."""
        if self._runtime is None:
            spec = (
                self._closed_executor
                if self._closed_executor is not None
                else self._executor_spec
            )
            self._runtime = JobRuntime(
                spec if spec is not None else "inline",
                use_cache=self.cache is not None,
                cache=self.cache,
                pass_manager=self.pass_manager if self._custom_pass_manager else None,
                hooks=self.hooks,
                arch=self.arch,
                store=self.store,
                retry=self._retry,
                job_timeout=self._job_timeout,
                fault_plan=self._fault_plan,
            )
            if self._closed_executor is not None:
                self._runtime.owns_executor = True
        return self._runtime

    def close(self, grace: Optional[float] = 5.0) -> None:
        """Release pooled executor resources (owned backends only).

        Drain-aware and idempotent: in-flight jobs submitted through
        :meth:`submit` get up to ``grace`` seconds to finish
        (``grace=0`` skips the wait, ``None`` waits indefinitely);
        whatever is still pending afterwards is cancelled.  Then any
        still-live pool workers are reaped (SIGKILL) before the pool
        shuts down, so a Ctrl-C'd sweep never leaves orphaned worker
        processes behind.  A second ``close()`` is a no-op.  The closed
        backend stays this session's: a later :meth:`submit` to a thread
        or remote backend raises ``RuntimeError``.
        """
        with self._inflight_lock:
            pending = [f for f in self._inflight if not f.done()]
            self._inflight = []
        deadline = None if grace is None else time.monotonic() + grace
        for future in pending:
            remaining: Optional[float] = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            try:
                future.raw.exception(timeout=remaining)
            except (FuturesTimeoutError, FuturesCancelledError):
                pass  # still running (or already cancelled) — cancel below
        for future in pending:
            if not future.done():
                future.cancel()
        if self._runtime is not None:
            self._runtime.close()
            if self._runtime.owns_executor:
                # Later runtimes wrap (and own) this closed backend
                # instead of starting a pool that nothing shuts down.
                self._closed_executor = self._runtime.executor
            self._runtime = None

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- compile -------------------------------------------------------

    def compile(
        self,
        graph: Graph,
        options: Optional[ScheduleOptions] = None,
        *,
        assume_canonical: bool = False,
    ) -> CompiledModel:
        """Compile ``graph`` for this session's architecture.

        ``options`` defaults to the paper's best configuration
        (``wdup`` mapping + ``clsa-cim`` scheduling); registered
        third-party mapping/scheduler names are accepted the same way
        as builtins.
        """
        return self.pass_manager.compile(
            graph,
            self.arch,
            options,
            assume_canonical=assume_canonical,
            cache=self.cache,
            hooks=self.hooks,
        )

    # -- evaluate ------------------------------------------------------

    def evaluate(
        self,
        model: Union[Graph, CompiledModel],
        options: Optional[ScheduleOptions] = None,
        *,
        assume_canonical: bool = False,
    ) -> "Metrics":
        """Metrics of a compiled model (compiling a graph first).

        ``options`` is only consulted when ``model`` is a graph.
        """
        if isinstance(model, CompiledModel):
            return model.evaluate()
        compiled = self.compile(model, options, assume_canonical=assume_canonical)
        return compiled.evaluate()

    def verify(
        self,
        target: Union[Graph, CompiledModel, str, "PathLike[str]"],
        *,
        rules: Optional[Iterable[str]] = None,
        cost: Optional[str] = None,
    ) -> "VerifyReport":
        """Statically verify a graph, a compiled model, or a saved artifact.

        Accepts a :class:`CompiledModel` (fresh or loaded), a bare
        :class:`Graph` (IR + architecture rules against this session's
        arch), or a filesystem path to a saved artifact.  ``rules``
        restricts the run to named rules; ``cost="cheap"`` skips the
        expensive whole-schedule analyses.
        """
        from .verify.engine import verify_artifact, verify_compiled, verify_graph

        if isinstance(target, CompiledModel):
            return verify_compiled(target, rules=rules, cost=cost)
        if isinstance(target, Graph):
            return verify_graph(target, self.arch, rules=rules)
        return verify_artifact(target, rules=rules, cost=cost)

    # -- jobs ----------------------------------------------------------

    def submit(self, job: Job) -> JobFuture:
        """Schedule one job on this session's executor.

        Atomic jobs (:class:`~repro.exec.jobs.CompileJob`,
        :class:`~repro.exec.jobs.EvaluateJob`) run asynchronously on
        pooled backends; composite jobs
        (:class:`~repro.exec.jobs.SweepJob`,
        :class:`~repro.exec.jobs.ExploreJob`) drive their own fan-out
        through the executor and resolve eagerly — the returned future
        is already complete, valued with the assembled
        ``list[SweepResult]`` / ``ExplorationResult``.

        Jobs without an explicit ``arch`` compile for this session's
        architecture; errors are captured on the
        :class:`~repro.exec.jobs.JobResult` envelope rather than
        raised (``result.unwrap()`` re-raises).
        """
        self._fire("on_job_submit", job)
        if isinstance(job, (SweepJob, ExploreJob)):
            result = self._guarded_composite(job)
            self._fire("on_job_done", result)
            return JobFuture.completed(result, job=job)
        future = self.runtime.submit(job)
        future.job = job
        future.add_done_callback(self._job_done_callback)
        with self._inflight_lock:
            # Prune settled handles so long-lived sessions stay O(live).
            self._inflight = [f for f in self._inflight if not f.done()]
            self._inflight.append(future)
        return future

    def map(
        self,
        jobs: Union[Job, Iterable[Job]],
        *,
        ordered: bool = True,
    ) -> Iterator[JobResult]:
        """Run jobs through this session's executor, streaming results.

        ``jobs`` is a single job or an iterable.  A batch of atomic
        jobs fans out over the executor and streams one
        :class:`~repro.exec.jobs.JobResult` per job — in submission
        order (``ordered``, the default) or as completed.  A
        :class:`~repro.exec.jobs.SweepJob` expands into its grid and
        streams one result per config point (``value`` is the
        :class:`~repro.analysis.sweep.ConfigPoint`; each benchmark's
        baseline row streams first); an
        :class:`~repro.exec.jobs.ExploreJob` yields a single result.
        Mixed batches run strictly in order, each composite internally
        parallel.  Per-job errors are captured on the envelope.
        """
        items = [jobs] if isinstance(jobs, Job) else list(jobs)
        return self._map_stream(items, ordered)

    def _map_stream(self, items: Sequence[Job], ordered: bool) -> Iterator[JobResult]:
        composite = any(isinstance(job, (SweepJob, ExploreJob)) for job in items)
        if not composite:
            for job in items:
                self._fire("on_job_submit", job)
            for result in self.runtime.map_jobs(items, ordered=ordered, capture=True):
                self._fire("on_job_done", result)
                yield result
            return
        for job in items:
            self._fire("on_job_submit", job)
            if isinstance(job, SweepJob):
                yield from self._sweep_job_results(job, ordered)
            elif isinstance(job, ExploreJob):
                result = self._guarded_composite(job)
                self._fire("on_job_done", result)
                yield result
            else:
                for result in self.runtime.map_jobs(
                    [job], ordered=ordered, capture=True
                ):
                    self._fire("on_job_done", result)
                    yield result

    def _sweep_job_results(self, job: SweepJob, ordered: bool) -> Iterator[JobResult]:
        """Stream one sweep job's grid, capturing expansion failures.

        Per-cell errors already arrive as envelopes (``capture=True``);
        a failure of the expansion itself (unknown benchmark, baseline
        compile error) becomes one final error envelope instead of
        escaping the stream.
        """
        from .analysis.sweep import sweep_job_stream

        key = self._composite_key(job)
        try:
            stream = sweep_job_stream(self.runtime, job, ordered=ordered, capture=True)
        except Exception:
            result = self._error_result(key)
            self._fire("on_job_done", result)
            yield result
            return
        while True:
            try:
                result = next(stream)
            except StopIteration:
                return
            except Exception:
                result = self._error_result(key)
                self._fire("on_job_done", result)
                yield result
                return
            self._fire("on_job_done", result)
            yield result

    def _composite_key(self, job: Job) -> str:
        self._job_counter += 1
        return job_key(job, self._job_counter)

    @staticmethod
    def _error_result(key: str) -> JobResult:
        import traceback

        exc = sys.exc_info()[1]
        assert exc is not None
        return JobResult(
            key=key,
            error=JobError(
                kind=type(exc).__name__,
                message=str(exc),
                traceback=traceback.format_exc(),
            ),
        )

    def _guarded_composite(self, job: Union[SweepJob, ExploreJob]) -> JobResult:
        """Run one composite job, capturing failures on the envelope."""
        key = self._composite_key(job)
        try:
            if isinstance(job, SweepJob):
                from .analysis.sweep import (
                    PAPER_XS,
                    assemble_sweep_results,
                    resolve_benchmarks,
                    sweep_job_stream,
                )

                specs = resolve_benchmarks(job.benchmarks)
                xs = job.xs if job.xs is not None else PAPER_XS
                stream = sweep_job_stream(
                    self.runtime, job, ordered=False, capture=False
                )
                value: Any = assemble_sweep_results(
                    specs, xs, (r.value for r in stream)
                )
            else:
                value = self._explore_job(job)
        except Exception:
            return self._error_result(key)
        return JobResult(key=key, value=value)

    def _explore_job(self, job: ExploreJob) -> "ExplorationResult":
        return self.explore(
            job.model,
            space=job.space,
            objectives=job.objectives,
            strategy=job.strategy,
            strategy_options=dict(job.strategy_options or {}) or None,
            budget=job.budget,
            store=job.store,
            resume=job.resume,
            seed=job.seed,
            max_total_pes=job.max_total_pes,
            warm_start=job.warm_start,
        )

    # -- sweep ---------------------------------------------------------

    def sweep(
        self,
        benchmarks: Sequence[Union[str, "BenchmarkSpec"]],
        xs: Optional[Sequence[int]] = None,
        *,
        jobs: Optional[int] = 1,
        executor: Union[Executor, str, None] = None,
        options_overrides: Optional[dict] = None,
        graphs: Optional[dict[str, Graph]] = None,
        verify: bool = False,
    ) -> list["SweepResult"]:
        """Run the paper's configuration grid (Fig. 7) per benchmark.

        ``benchmarks`` mixes :class:`~repro.models.zoo.BenchmarkSpec`
        objects and benchmark names; ``xs`` defaults to the paper's
        extra-PE values.  With ``jobs > 1`` (or ``executor=`` naming a
        parallel backend) config points fan out over the chosen
        executor; the serial path shares this session's cache, so
        repeated sweeps reuse stages.  The session's pass/compile
        hooks and any custom pass manager apply to every point — since
        neither can cross a process boundary, the ``process`` backend
        runs such sweeps serially (with a ``RuntimeWarning``); the
        ``thread`` backend keeps both working in parallel.  With
        ``verify`` every grid cell additionally runs the static
        verifier and its report rides on the returned points
        (``ConfigPoint.verify_report``).

        A grid point that fails (even after the session's retry
        budget) does not abort the sweep: the remaining points still
        run, the failure lands in ``SweepResult.failures``, and one
        summary ``RuntimeWarning`` reports the count.
        """
        from .analysis.sweep import PAPER_XS, resolve_benchmarks, run_grid

        specs = resolve_benchmarks(benchmarks)
        runtime, transient = self._sweep_runtime(jobs, executor)
        try:
            results = run_grid(
                runtime,
                specs,
                xs=tuple(xs) if xs is not None else PAPER_XS,
                options_overrides=options_overrides,
                graphs=graphs,
                verify=verify,
            )
        finally:
            if transient:
                runtime.shutdown()
        failed = sum(len(r.failures) for r in results)
        if failed:
            total = sum(len(r.failures) + len(r.points) for r in results)
            warnings.warn(
                f"sweep finished with {failed}/{total} failed grid point(s); "
                "see SweepResult.failures for details",
                RuntimeWarning,
                stacklevel=2,
            )
        return results

    def _sweep_runtime(
        self, jobs: Optional[int], executor: Union[Executor, str, None]
    ) -> tuple[JobRuntime, bool]:
        """The runtime a sweep/explore call should fan out through.

        Per-call ``jobs``/``executor`` arguments create a transient
        runtime (shut down after the call); the defaults reuse the
        session's own runtime and its warm executor.
        """
        if executor is None and jobs == 1:
            return self.runtime, False
        runtime = JobRuntime(
            executor,
            jobs=jobs,
            use_cache=self.cache is not None,
            cache=self.cache,
            pass_manager=self.pass_manager if self._custom_pass_manager else None,
            hooks=self.hooks,
            arch=self.arch,
            store=self.store,
            serial_note="sweeping serially",
            retry=self._retry,
            job_timeout=self._job_timeout,
            fault_plan=self._fault_plan,
        )
        return runtime, True

    # -- explore -------------------------------------------------------

    def explore(
        self,
        model: Union[Graph, str],
        *,
        space: Optional["SearchSpace"] = None,
        objectives: Sequence[str] = ("latency", "energy"),
        strategy: str = "random",
        strategy_options: Optional[dict] = None,
        budget: int = 40,
        store: Union["RunStore", str, None] = None,
        resume: bool = True,
        seed: int = 0,
        jobs: Optional[int] = 1,
        executor: Union[Executor, str, None] = None,
        max_total_pes: Optional[int] = None,
        warm_start: bool = True,
    ) -> "ExplorationResult":
        """Multi-objective design-space search around this session.

        ``model`` is a graph or a zoo model name.  The search space
        defaults to :func:`repro.explore.default_space` (schedule
        knobs, duplication caps, PE budget, PEs per tile); points are
        scored on ``objectives`` (any names registered through
        :func:`repro.explore.register_objective`) and the result
        carries the incremental Pareto frontier.  ``store`` names a
        JSONL run store: every evaluation is journalled, and re-runs
        reuse journalled points without recompiling (``resume``).
        This session's architecture serves as the template for
        explored architectures (crossbar timing, NoC, DRAM specs);
        its cache is shared with the exploration, and ``jobs`` /
        ``executor`` fan evaluation out over the chosen backend.
        """
        from .explore.engine import Explorer
        from .models.zoo import build

        graph = build(model) if isinstance(model, str) else model
        if executor is None and jobs == 1 and self._executor_spec is not None:
            # Reuse the session's *resolved* backend (its real worker
            # count, warm pools); the explorer treats instances as
            # externally owned and leaves them running.
            executor = self.executor
        explorer = Explorer(
            graph,
            base_arch=self.arch,
            space=space,
            objectives=objectives,
            strategy=strategy,
            strategy_options=strategy_options,
            budget=budget,
            store=store,
            resume=resume,
            seed=seed,
            jobs=jobs,
            cache=self.cache,
            max_total_pes=max_total_pes,
            warm_start=warm_start,
            executor=executor,
            retry=self._retry,
            job_timeout=self._job_timeout,
            fault_plan=self._fault_plan,
        )
        return explorer.run()

    # -- helpers -------------------------------------------------------

    def _job_done_callback(self, future: JobFuture) -> None:
        try:
            result = future.result()
        except Exception:
            return  # pool-level failure; nothing to observe
        self._fire("on_job_done", result)

    def _fire(self, event: str, payload: Any) -> None:
        """Invoke one job-level hook event; a hook that raises warns.

        (Pass- and compile-level events fire in
        :meth:`~repro.core.passes.PassManager.compile`, which records
        hook failures as compile diagnostics.)
        """
        fire_hooks(self.hooks, event, None, payload)
