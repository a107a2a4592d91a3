"""Job execution: one engine behind every fan-out path.

:func:`execute_job` runs a single atomic job (compile / evaluate) and
wraps the outcome in the canonical :class:`~repro.exec.jobs.JobResult`
envelope; :class:`JobRuntime` drives batches of jobs through a
pluggable :class:`~repro.exec.executors.Executor` with the semantics
the sweep and exploration engines rely on:

* named graphs resolve driver-side for in-process backends and ship
  once through the pool initializer for the ``process`` backend;
* one compilation cache per graph name (or one shared cache), with
  per-process clones behind the process boundary;
* pool failures — at construction, submit, or result time — degrade
  to inline execution with a ``RuntimeWarning``, producing identical
  results;
* custom pass managers and pass-level hooks cannot cross a process
  boundary, so a ``process`` backend combined with either runs inline
  with a warning (the ``thread`` and ``inline`` backends share memory
  and keep both working).

Results stream back as an iterator, in submission order
(``ordered=True``) or completion order.
"""

from __future__ import annotations

import json
import os
import shutil
import signal as _signal
import tempfile
import threading
import time
import traceback as _traceback
import warnings
from concurrent import futures
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field as dc_field, replace
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Mapping, Optional, Sequence, Union

if TYPE_CHECKING:
    from ..store.disk import ArtifactStore

from ..arch.config import ArchitectureConfig
from ..core.cache import CompilationCache
from ..core.passes import default_pass_manager, fire_hooks
from ..ir.graph import Graph
from .executors import Executor, ExecutorUnavailable, make_executor
from .faults import FaultPlan, FaultSpec, apply_fault
from .futures import JobFuture
from .jobs import (
    CompileJob,
    EvaluateJob,
    Evaluation,
    Job,
    JobError,
    JobResult,
    job_key,
)
from .resilience import (
    JobTimeoutError,
    RetryEvent,
    RetryPolicy,
    WorkerCrashError,
    check_deadline,
    deadline_scope,
    normalize_retry,
)
from .worker import DIRECT, run_job

__all__ = ["JobRuntime", "execute_job"]

#: Driver loop granularity: tight when a watchdog or fault plan needs
#: prompt reactions, relaxed otherwise.
_WATCHDOG_TICK_S = 0.05
_IDLE_TICK_S = 0.25


class _BackendFailed(Exception):
    """Internal: the pooled backend is unusable; degrade a ladder rung."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason

#: Hook attributes that must run in the compiling interpreter.
_PASS_EVENTS = (
    "on_pass_start",
    "on_pass_end",
    "on_compile_start",
    "on_compile_end",
)


def _has_pass_hooks(hooks: Sequence[Any]) -> bool:
    """Whether any hook observes compilation itself (not just jobs)."""
    return any(
        getattr(hook, event, None) is not None
        for hook in hooks
        for event in _PASS_EVENTS
    )


# ---------------------------------------------------------------------------
# single-job execution (runs driver-side and inside process workers)
# ---------------------------------------------------------------------------


def execute_job(
    job: Job,
    cache: Optional[CompilationCache] = None,
    pass_manager: Any = None,
    hooks: Sequence[Any] = (),
    capture: bool = True,
    timeout: Optional[float] = None,
    attempt: int = 1,
    fault: Optional[FaultSpec] = None,
    backend: str = "inline",
    in_worker: bool = False,
    store_root: Optional[str] = None,
) -> JobResult:
    """Run one atomic job and wrap the outcome in a :class:`JobResult`.

    With ``capture`` (the default) any exception the job raises is
    recorded as a :class:`~repro.exec.jobs.JobError` on the envelope;
    without it, exceptions propagate — the sweep and exploration
    drivers run uncaptured so their historical error behaviour is
    preserved.

    The resilience context: ``timeout`` installs a cooperative
    wall-clock deadline around compilation (checked between passes; a
    blown budget fails the job with
    :class:`~repro.exec.resilience.JobTimeoutError`), ``attempt`` and
    ``backend`` are stamped on the envelope as provenance, and
    ``fault`` is an injected :class:`~repro.exec.faults.FaultSpec`
    applied at job start (``in_worker`` decides whether a ``kill``
    fault really SIGKILLs the process; ``store_root`` gives ``corrupt``
    faults a target).
    """
    key = job_key(job)
    try:
        with deadline_scope(timeout):
            apply_fault(fault, in_worker=in_worker, store_root=store_root)
            check_deadline("job start")
            value, timings, diagnostics, delta, verify_report = _run_atomic(
                job, cache, pass_manager, hooks
            )
        return JobResult(
            key=key,
            value=value,
            timings=timings,
            diagnostics=tuple(diagnostics),
            cache_hits=delta.hits,
            cache_misses=delta.misses,
            cache_store_hits=delta.store_hits,
            cache_stages=delta.stages,
            verify_report=verify_report,
            attempts=attempt,
            backend=backend,
        )
    except Exception as exc:
        if not capture:
            raise
        return JobResult(
            key=key,
            error=JobError(
                kind=type(exc).__name__,
                message=str(exc),
                traceback=_traceback.format_exc(),
            ),
            attempts=attempt,
            backend=backend,
        )


@dataclass(frozen=True)
class _CacheDelta:
    """Cache-counter movement observed around one job."""

    hits: int = 0
    store_hits: int = 0
    misses: int = 0
    stages: dict[str, tuple[int, int, int]] = dc_field(default_factory=dict)


def _cache_delta(
    before: Mapping[str, tuple[int, int, int]],
    after: Mapping[str, tuple[int, int, int]],
) -> _CacheDelta:
    """Per-stage ``(memory, store, miss)`` movement between snapshots."""
    stages: dict[str, tuple[int, int, int]] = {}
    memory = store = misses = 0
    for stage, (mem1, sto1, mis1) in after.items():
        mem0, sto0, mis0 = before.get(stage, (0, 0, 0))
        delta = (max(0, mem1 - mem0), max(0, sto1 - sto0), max(0, mis1 - mis0))
        if any(delta):
            stages[stage] = delta
            memory += delta[0]
            store += delta[1]
            misses += delta[2]
    return _CacheDelta(
        hits=memory + store, store_hits=store, misses=misses, stages=stages
    )


def _run_atomic(
    job: Job,
    cache: Optional[CompilationCache],
    pass_manager: Any,
    hooks: Sequence[Any],
) -> tuple[Any, dict[str, float], list[str], _CacheDelta, Any]:
    if not isinstance(job, (CompileJob, EvaluateJob)):
        raise TypeError(f"cannot execute job of kind {job.kind!r} atomically")
    graph = job.graph
    assume_canonical = job.assume_canonical
    if isinstance(graph, str):
        from ..models.zoo import build

        graph = build(graph)
        assume_canonical = False
    if job.arch is None:
        raise ValueError(
            f"job {job_key(job)!r} names no architecture; submit it through "
            "a Session (which supplies its own) or set job.arch"
        )
    before = cache.stats_snapshot() if cache is not None else {}
    manager = pass_manager if pass_manager is not None else default_pass_manager()
    compiled = manager.compile(
        graph,
        job.arch,
        job.options,
        assume_canonical=assume_canonical,
        cache=cache,
        hooks=hooks,
    )
    value: Any = compiled
    if isinstance(job, EvaluateJob):
        energy = None
        if job.want_energy:
            from ..sim.energy import estimate_energy

            energy = estimate_energy(compiled)
        value = Evaluation(metrics=compiled.evaluate(), energy=energy)
    verify_report = None
    if getattr(job, "verify", False):
        from ..verify.engine import verify_compiled

        verify_report = verify_compiled(compiled)
    after = cache.stats_snapshot() if cache is not None else {}
    return (
        value,
        dict(compiled.timings),
        list(compiled.diagnostics),
        _cache_delta(before, after),
        verify_report,
    )


# ---------------------------------------------------------------------------
# runtime
# ---------------------------------------------------------------------------

#: A prepared batch entry: (envelope key, graph name or None, job).
_Prepared = tuple[str, Optional[str], Job]


class _Flight:
    """Driver-side state of one job across attempts and pool deaths."""

    __slots__ = ("entry", "attempt", "pool_deaths", "fault", "ready_at", "running_since")

    def __init__(self, entry: _Prepared) -> None:
        self.entry = entry
        #: 1-based attempt currently running (or about to).
        self.attempt = 1
        #: Pool deaths attributed to this job; two mean quarantine.
        self.pool_deaths = 0
        #: Fault shipped with the current attempt, if any.
        self.fault: Optional[FaultSpec] = None
        #: Monotonic time this flight becomes eligible to (re)submit.
        self.ready_at = 0.0
        #: First driver-side observation of the future running
        #: (in-process watchdog only).
        self.running_since: Optional[float] = None

    @property
    def key(self) -> str:
        return self.entry[0]


class JobRuntime:
    """Drives atomic jobs through an executor with caching + fallback.

    Parameters
    ----------
    executor:
        Backend name, instance, or ``None``.  ``None`` resolves from
        ``jobs``: ``process`` when parallelism was requested, else
        ``inline``.  Instances are treated as externally owned —
        :meth:`shutdown` leaves them running.
    jobs:
        Worker-count hint for backends resolved from a name
        (``None`` = one per CPU; must be >= 1 otherwise).
    use_cache / cache:
        Compilation-cache policy: disabled, one shared cache, or (the
        default) one private cache per graph name.  Process workers
        always hold per-process caches.
    store:
        Optional persistent :class:`~repro.store.disk.ArtifactStore`
        layered under every cache this runtime creates (and attached
        to a provided shared ``cache``).  Its path ships through the
        process-pool initializer, so pool workers read and write the
        same store instead of starting cold.
    pass_manager / hooks:
        Applied to every compiled job.  Both work on the ``inline``
        and ``thread`` backends; on ``process`` they force inline
        execution with a ``RuntimeWarning``.
    arch:
        Default architecture stamped onto jobs that carry none
        (a submitting session's own architecture).
    serial_note:
        Tail of the last-rung fallback warning, e.g. ``"sweeping
        serially"`` — existing tooling greps these messages.
    retry / job_timeout / fault_plan:
        The resilience knobs.  ``retry`` is a
        :class:`~repro.exec.resilience.RetryPolicy`, an int
        (``max_attempts`` shorthand), or ``None`` (no retries);
        ``job_timeout`` is a per-job wall-clock budget in seconds
        (cooperative deadline checks on every backend, plus a
        SIGKILL watchdog for stuck process workers); ``fault_plan`` is
        a deterministic :class:`~repro.exec.faults.FaultPlan` injected
        for testing.  Independent of all three, pooled process
        execution always survives a ``BrokenProcessPool``: the pool is
        rebuilt (graphs and store re-shipped through the initializer),
        exactly the in-flight jobs are requeued, and a job that kills
        the pool twice is quarantined as a failed
        :class:`~repro.exec.jobs.JobResult` instead of looping.
    """

    def __init__(
        self,
        executor: Union[Executor, str, None] = None,
        *,
        jobs: Optional[int] = None,
        use_cache: bool = True,
        cache: Optional[CompilationCache] = None,
        store: Optional["ArtifactStore"] = None,
        pass_manager: Any = None,
        hooks: Sequence[Any] = (),
        arch: Optional[ArchitectureConfig] = None,
        serial_note: str = "running serially",
        retry: Union[RetryPolicy, int, None] = None,
        job_timeout: Optional[float] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if jobs is not None and jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {jobs}")
        self.executor: Executor = make_executor(executor, jobs=jobs)
        #: Instances passed in are externally owned and never shut down.
        self.owns_executor = executor is None or isinstance(executor, str)
        self.use_cache = use_cache
        self._shared_cache = cache
        self.store = store if store is not None else getattr(cache, "store", None)
        if cache is not None and store is not None:
            cache.attach_store(store)
        self._caches: dict[str, CompilationCache] = {}
        self.pass_manager = pass_manager
        self.hooks: tuple[Any, ...] = tuple(hooks)
        self.arch = arch
        self.serial_note = serial_note
        self.retry: RetryPolicy = normalize_retry(retry)
        self.job_timeout = job_timeout
        if job_timeout is not None and job_timeout <= 0:
            raise ValueError(f"job_timeout must be > 0, got {job_timeout}")
        self.fault_plan = fault_plan
        # Stable names for embedded graphs (by identity), so repeated
        # batches/submissions over the same graph reuse one shipped
        # payload entry and the live process pool.
        self._auto_graphs: list[tuple[Graph, str]] = []
        self._auto_counter = 0
        # Degradation-ladder thread rung, created on first use.
        self._fallback_thread: Optional[Executor] = None
        # Worker heartbeat directory (process backend), created lazily.
        self._heartbeat_dir: Optional[str] = None
        # Serializes pool (re)construction across concurrent drivers.
        self._pool_lock = threading.Lock()

    @property
    def _resilient(self) -> bool:
        """Whether any resilience knob beyond the defaults is active."""
        return (
            self.retry.max_attempts > 1
            or self.job_timeout is not None
            or bool(self.fault_plan)
        )

    # -- caches --------------------------------------------------------

    def cache_for(self, name: Optional[str] = None) -> Optional[CompilationCache]:
        """The driver-side compilation cache of one graph name."""
        if not self.use_cache:
            return None
        if self._shared_cache is not None:
            return self._shared_cache
        return self._caches.setdefault(
            name or DIRECT, CompilationCache(store=self.store)
        )

    # -- preparation ---------------------------------------------------

    def _prepare(
        self,
        jobs: Sequence[Job],
        graphs: Optional[Mapping[str, Graph]],
    ) -> list[_Prepared]:
        """Assign keys and default architectures; classify graph refs.

        String graphs matching a provided named graph resolve through
        the runtime (driver-side, or the worker payload behind a
        process boundary); any other string is a zoo model name that
        :func:`execute_job` builds inside the error-capture boundary.
        """
        prepared: list[_Prepared] = []
        seen: set[str] = set()
        for index, job in enumerate(jobs):
            if not isinstance(job, (CompileJob, EvaluateJob)):
                raise TypeError(
                    f"JobRuntime executes atomic jobs; got {job.kind!r} "
                    "(composite jobs run through Session.map/submit)"
                )
            key = job_key(job, index)
            if key in seen:
                raise ValueError(
                    f"duplicate job key {key!r}: keys must be unique "
                    "within a batch"
                )
            seen.add(key)
            changes: dict[str, Any] = {}
            if job.key is None:
                changes["key"] = key
            if job.arch is None and self.arch is not None:
                changes["arch"] = self.arch
            name: Optional[str] = None
            if isinstance(job.graph, str) and graphs is not None and job.graph in graphs:
                name = job.graph
            if changes:
                job = replace(job, **changes)
            prepared.append((key, name, job))
        return prepared

    def _resolved(
        self, entry: _Prepared, graphs: Optional[Mapping[str, Graph]]
    ) -> Job:
        """The job with any graph name replaced by the graph itself."""
        _key, name, job = entry
        if name is not None:
            assert graphs is not None
            return replace(job, graph=graphs[name])  # type: ignore[type-var]
        return job

    def _store_root(self) -> Optional[str]:
        return self.store.root if self.store is not None else None

    def _execute_local(
        self,
        entry: _Prepared,
        graphs: Optional[Mapping[str, Graph]],
        capture: bool,
        backend: str = "inline",
    ) -> JobResult:
        """Run one job in the calling thread, honouring the retry
        policy, the job timeout (cooperatively), and the fault plan."""
        key, name, _job = entry
        policy = self.retry
        attempt = 1
        while True:
            fault = self.fault_plan.get(key, attempt) if self.fault_plan else None
            try:
                result = execute_job(
                    self._resolved(entry, graphs),
                    self.cache_for(name),
                    self.pass_manager,
                    self.hooks,
                    capture,
                    self.job_timeout,
                    attempt,
                    fault,
                    backend,
                    False,
                    self._store_root(),
                )
            except Exception as exc:  # capture=False path
                kind, message = type(exc).__name__, str(exc)
                if not policy.should_retry(kind, attempt):
                    raise
            else:
                if result.error is None or not policy.should_retry(
                    result.error.kind, attempt
                ):
                    return result
                kind, message = result.error.kind, result.error.message
            backoff = policy.backoff(key, attempt)
            fire_hooks(
                self.hooks,
                "on_job_retry",
                None,
                RetryEvent(key, attempt, attempt + 1, kind, message, backoff, backend),
            )
            if backoff > 0:
                time.sleep(backoff)
            attempt += 1

    def _blocked_from_processes(self) -> bool:
        return self.executor.crosses_process and (
            self.pass_manager is not None or _has_pass_hooks(self.hooks)
        )

    # -- degradation ladder --------------------------------------------

    def _thread_rung(self) -> Optional[Executor]:
        """The ladder's thread rung (sized like the primary backend)."""
        if self._fallback_thread is None:
            from .executors import ThreadExecutor

            width = getattr(self.executor, "max_workers", None)
            try:
                self._fallback_thread = ThreadExecutor(width)
            except Exception:
                return None
        return self._fallback_thread

    def _rung_after(self, executor: Executor) -> Optional[Executor]:
        """The next ladder rung below ``executor`` (``None`` = inline)."""
        if executor.crosses_process:
            return self._thread_rung()
        return None

    def _warn_degrade(
        self, executor: Executor, reason: str, stacklevel: int = 4
    ) -> Optional[Executor]:
        """Warn that ``executor`` is being abandoned; return the next rung."""
        nxt = self._rung_after(executor)
        note = (
            f"degrading to {nxt.name} workers" if nxt is not None else self.serial_note
        )
        warnings.warn(f"{reason}; {note}", RuntimeWarning, stacklevel=stacklevel)
        return nxt

    # -- submission ----------------------------------------------------

    def submit(
        self,
        job: Job,
        *,
        graphs: Optional[Mapping[str, Graph]] = None,
        capture: bool = True,
    ) -> JobFuture:
        """Schedule one atomic job; returns a :class:`JobFuture`.

        With any resilience knob active (retries, a job timeout, or a
        fault plan) the job runs under the same fault-tolerant driver
        as :meth:`map_jobs`, on a dedicated driver thread; its future
        reports the final post-retry outcome, and ``cancel()`` only
        succeeds before the driver starts (see
        :class:`~repro.exec.futures.JobFuture`).
        """
        (entry,) = self._prepare([job], graphs)
        if self._resilient:
            return self._submit_resilient(entry, graphs, capture)
        executor = self.executor
        if executor.crosses_process:
            if self._blocked_from_processes():
                warnings.warn(
                    "custom pass manager/hooks cannot cross the process "
                    f"boundary; {self.serial_note}",
                    RuntimeWarning,
                    stacklevel=2,
                )
            else:
                try:
                    (wire,), shipped = self._ship_embedded([entry], graphs)
                    self._prepare_pool(executor, [wire], shipped)
                    return executor.submit(run_job, wire[2], capture)
                except ExecutorUnavailable as exc:
                    warnings.warn(
                        f"process pool unavailable ({exc}); {self.serial_note}",
                        RuntimeWarning,
                        stacklevel=2,
                    )
            return JobFuture.completed(self._execute_local(entry, graphs, capture))
        if executor.parallel:
            _key, name, _job = entry
            return executor.submit(
                execute_job,
                self._resolved(entry, graphs),
                self.cache_for(name),
                self.pass_manager,
                self.hooks,
                capture,
                self.job_timeout,
                1,
                None,
                executor.name,
                False,
                self._store_root(),
            )
        return JobFuture.completed(self._execute_local(entry, graphs, capture))

    def _submit_resilient(
        self,
        entry: _Prepared,
        graphs: Optional[Mapping[str, Graph]],
        capture: bool,
    ) -> JobFuture:
        """Run one job through the fault-tolerant driver on its own thread."""
        raw: "futures.Future[JobResult]" = futures.Future()

        def drive() -> None:
            if not raw.set_running_or_notify_cancel():
                return  # cancelled before the driver started
            try:
                results = list(
                    self._drive_batch([entry], graphs, ordered=True, capture=capture)
                )
                raw.set_result(results[0])
            except BaseException as exc:  # noqa: BLE001 - relayed via the future
                raw.set_exception(exc)

        thread = threading.Thread(
            target=drive, name=f"repro-job-{entry[0]}", daemon=True
        )
        thread.start()
        return JobFuture(raw, job=entry[2])

    # -- batched streaming ---------------------------------------------

    def map_jobs(
        self,
        jobs: Iterable[Job],
        *,
        graphs: Optional[Mapping[str, Graph]] = None,
        ordered: bool = True,
        capture: bool = True,
    ) -> Iterator[JobResult]:
        """Run a batch of atomic jobs, streaming result envelopes.

        ``ordered`` yields in submission order; otherwise results
        stream in completion order — job values are identical either
        way (cache-delta bookkeeping on the thread backend is
        best-effort, see :class:`~repro.exec.jobs.JobResult`).
        """
        prepared = self._prepare(list(jobs), graphs)
        yield from self._drive_batch(prepared, graphs, ordered=ordered, capture=capture)

    def _drive_batch(
        self,
        prepared: Sequence[_Prepared],
        graphs: Optional[Mapping[str, Graph]],
        *,
        ordered: bool,
        capture: bool,
    ) -> Iterator[JobResult]:
        """Run prepared entries down the degradation ladder.

        Starts on the configured backend; every backend failure steps
        one rung down (process → thread → inline) with a
        ``RuntimeWarning``, re-running only the entries whose results
        were never produced.  Envelope ``backend`` provenance records
        where each job actually ran.
        """
        pending: Sequence[_Prepared] = prepared
        executor: Optional[Executor] = self.executor
        if (
            executor is not None
            and executor.parallel
            and len(pending) > 1
            and self._blocked_from_processes()
        ):
            executor = self._warn_degrade(
                executor,
                "custom pass manager/hooks cannot cross the process boundary",
                stacklevel=4,
            )
        while executor is not None and executor.parallel and len(pending) > 1:
            if executor.crosses_process:
                pending, graphs = self._ship_embedded(pending, graphs)
            leftover = yield from self._pooled(executor, pending, graphs, ordered, capture)
            if leftover is None:
                return
            pending = leftover
            executor = self._rung_after(executor)
        for entry in pending:
            yield self._execute_local(entry, graphs, capture)

    def _ship_embedded(
        self,
        pending: Sequence[_Prepared],
        graphs: Optional[Mapping[str, Graph]],
    ) -> tuple[list[_Prepared], dict[str, Graph]]:
        """Name each distinct embedded graph so it ships to workers once.

        Jobs carrying the same in-memory :class:`Graph` object would
        otherwise pickle it once *per job* across the process
        boundary; naming by identity routes them through the
        ship-once initializer payload (and one per-process worker
        cache per graph).  Names are assigned in first-use order, so
        repeated batches over the same graphs re-produce the same
        payload and the live pool is reused.
        """
        extended: dict[str, Graph] = dict(graphs or {})
        shipped: list[_Prepared] = []
        for key, name, job in pending:
            graph = getattr(job, "graph", None)
            if name is None and isinstance(graph, Graph):
                name = self._auto_name(graph, extended)
                extended[name] = graph
                job = replace(job, graph=name)  # type: ignore[type-var]
            shipped.append((key, name, job))
        return shipped, extended

    def _auto_name(self, graph: Graph, taken: Mapping[str, Graph]) -> str:
        """The runtime-stable shipping name of one embedded graph."""
        for candidate, name in self._auto_graphs:
            if candidate is graph:
                return name
        name = f"__graph{self._auto_counter}__"
        while name in taken:
            self._auto_counter += 1
            name = f"__graph{self._auto_counter}__"
        self._auto_counter += 1
        self._auto_graphs.append((graph, name))
        return name

    def _prepare_pool(
        self,
        executor: Executor,
        pending: Sequence[_Prepared],
        graphs: Optional[Mapping[str, Graph]],
    ) -> None:
        """Ship the named graphs referenced by ``pending`` to workers."""
        prepare = getattr(executor, "prepare", None)
        if prepare is None:
            return
        referenced = {name for _key, name, _job in pending if name is not None}
        assert graphs is not None or not referenced
        payload = {name: graphs[name] for name in referenced} if graphs else {}
        store_root = self._store_root()
        with self._pool_lock:
            try:
                prepare(payload, self.use_cache, store_root, self._ensure_heartbeat_dir())
            except TypeError:
                # Third-party executor predating the newer initializer
                # parameters: workers run without heartbeats (and
                # possibly without the persistent tier).
                if store_root is None:
                    prepare(payload, self.use_cache)
                    return
                try:
                    prepare(payload, self.use_cache, store_root)
                except TypeError:
                    prepare(payload, self.use_cache)

    # -- heartbeats ----------------------------------------------------

    def _ensure_heartbeat_dir(self) -> str:
        """The driver-owned directory workers advertise their jobs in."""
        if self._heartbeat_dir is None:
            self._heartbeat_dir = tempfile.mkdtemp(prefix="repro-heartbeat-")
        return self._heartbeat_dir

    def _read_heartbeats(self) -> dict[str, tuple[int, float]]:
        """Current worker heartbeats as ``{job key: (pid, started)}``."""
        directory = self._heartbeat_dir
        records: dict[str, tuple[int, float]] = {}
        if directory is None:
            return records
        try:
            names = os.listdir(directory)
        except OSError:
            return records
        for name in names:
            if not name.endswith(".json"):
                continue
            try:
                with open(os.path.join(directory, name), encoding="utf-8") as handle:
                    data = json.load(handle)
                records[str(data["key"])] = (int(data["pid"]), float(data["started"]))
            except (OSError, ValueError, KeyError, TypeError):
                continue  # torn write or stale file; attribution degrades
        return records

    def _clear_heartbeats(self) -> None:
        directory = self._heartbeat_dir
        if directory is None:
            return
        try:
            names = os.listdir(directory)
        except OSError:
            return
        for name in names:
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass

    def _pooled(
        self,
        executor: Executor,
        pending: Sequence[_Prepared],
        graphs: Optional[Mapping[str, Graph]],
        ordered: bool,
        capture: bool,
    ) -> Any:
        """Fan ``pending`` out over one pooled executor, resiliently.

        The driver loop submits every entry, then keeps the batch
        alive through failures:

        * a failed job retries per the runtime's
          :class:`~repro.exec.resilience.RetryPolicy` (deterministic
          seeded backoff, ``on_job_retry`` fired per retry);
        * a dead process pool is rebuilt in place — graphs and store
          re-ship through the initializer — with exactly the in-flight
          jobs requeued; crash *culprits* (injected kills, or the jobs
          worker heartbeats show running) are charged one pool death
          and quarantined as failed envelopes after their second;
        * with a ``job_timeout``, a watchdog SIGKILLs the worker of any
          job stuck past its deadline plus a grace period (cooperative
          in-job checks fire first when the job still checks them); on
          in-process backends the stuck future is abandoned instead,
          so the stream never hangs.

        Yields result envelopes as they arrive.  When the *backend
        itself* is unusable (pool cannot be built or rebuilt, submit
        fails) the generator returns the entries whose results were
        never produced — the caller steps down the degradation ladder;
        a clean run returns ``None``.  Consumer abandonment
        (GeneratorExit) or interrupts kill outstanding workers and
        propagate.
        """
        crosses = executor.crosses_process
        policy = self.retry
        timeout = self.job_timeout
        plan = self.fault_plan
        order: list[str] = [entry[0] for entry in pending]
        total = len(order)
        flights: dict[str, _Flight] = {entry[0]: _Flight(entry) for entry in pending}
        waiting: list[_Flight] = [flights[key] for key in order]
        active: dict["futures.Future[JobResult]", _Flight] = {}
        abandoned: set["futures.Future[JobResult]"] = set()
        finished: dict[str, JobResult] = {}
        yielded: set[str] = set()
        emit_idx = 0
        n_final = 0
        watchdog_killed = False

        def flush() -> Iterator[JobResult]:
            nonlocal emit_idx
            if ordered:
                while emit_idx < total and order[emit_idx] in finished:
                    key = order[emit_idx]
                    emit_idx += 1
                    yielded.add(key)
                    yield finished.pop(key)
            else:
                for key in list(finished):
                    yielded.add(key)
                    yield finished.pop(key)

        def finalize(flight: _Flight, result: JobResult) -> None:
            nonlocal n_final
            finished[flight.key] = result
            n_final += 1

        def finalize_error(flight: _Flight, kind: str, message: str) -> None:
            # Driver-built failure (timeout, quarantine): honour the
            # capture contract exactly like a job-raised exception.
            if not capture:
                if kind == "JobTimeoutError":
                    raise JobTimeoutError(message)
                raise WorkerCrashError(message)
            finalize(
                flight,
                JobResult(
                    key=flight.key,
                    error=JobError(kind=kind, message=message),
                    attempts=flight.attempt,
                    backend=executor.name,
                ),
            )

        def schedule_retry(flight: _Flight, kind: str, message: str) -> None:
            backoff = policy.backoff(flight.key, flight.attempt)
            fire_hooks(
                self.hooks,
                "on_job_retry",
                None,
                RetryEvent(
                    flight.key,
                    flight.attempt,
                    flight.attempt + 1,
                    kind,
                    message,
                    backoff,
                    executor.name,
                )
            )
            flight.attempt += 1
            flight.ready_at = time.monotonic() + backoff
            waiting.append(flight)

        def do_submit(flight: _Flight, fault: Optional[FaultSpec]) -> Any:
            entry = flight.entry
            if crosses:
                return executor.submit(
                    run_job, entry[2], capture, flight.attempt, timeout, fault
                )
            return executor.submit(
                execute_job,
                self._resolved(entry, graphs),
                self.cache_for(entry[1]),
                self.pass_manager,
                self.hooks,
                capture,
                timeout,
                flight.attempt,
                fault,
                executor.name,
                False,
                self._store_root(),
            )

        def submit_flight(flight: _Flight) -> None:
            nonlocal watchdog_killed
            fault = plan.get(flight.key, flight.attempt) if plan else None
            flight.fault = fault
            flight.running_since = None
            try:
                handle = do_submit(flight, fault)
            except (BrokenProcessPool, OSError) as exc:
                if not crosses:
                    waiting.append(flight)
                    raise _BackendFailed(
                        f"{executor.name} pool failed at submit ({exc})"
                    ) from exc
                # The pool died between results (typically the watchdog
                # shot a hung worker after its siblings drained, so no
                # live future was left to surface the death): resurrect
                # in place and resubmit instead of abandoning the rung.
                watchdog_killed = False
                resurrect()
                try:
                    handle = do_submit(flight, fault)
                except (ExecutorUnavailable, OSError, RuntimeError) as exc2:
                    waiting.append(flight)
                    raise _BackendFailed(
                        f"{executor.name} pool failed at submit ({exc2})"
                    ) from exc2
            except (ExecutorUnavailable, RuntimeError) as exc:
                waiting.append(flight)
                raise _BackendFailed(
                    f"{executor.name} pool failed at submit ({exc})"
                ) from exc
            active[handle.raw] = flight

        def resurrect() -> None:
            # Rebuild the dead pool in place: graphs and the store path
            # re-ship through the initializer, so respawned workers
            # start disk-warm instead of cold.
            self._clear_heartbeats()
            with self._pool_lock:
                reset = getattr(executor, "reset", None)
                if reset is not None:
                    reset()
            if n_final < total:
                try:
                    self._prepare_pool(executor, pending, graphs)
                except ExecutorUnavailable as rebuild_exc:
                    raise _BackendFailed(
                        f"process pool could not be rebuilt ({rebuild_exc})"
                    ) from rebuild_exc

        def pool_died(exc: BaseException, first: _Flight) -> None:
            # Attribute the death, requeue exactly the in-flight jobs,
            # quarantine repeat offenders, resurrect the pool.
            nonlocal watchdog_killed
            in_flight = [first] + list(active.values())
            active.clear()
            running = self._read_heartbeats() if crosses else {}
            injected = [
                f for f in in_flight if f.fault is not None and f.fault.action == "kill"
            ]
            if injected:
                # An injected kill-fault only fired if its job started
                # (heartbeat written immediately before the fault), so
                # attribution stays deterministic across re-runs.
                started = [f for f in injected if not running or f.key in running]
                culprits = started or injected
            elif watchdog_killed:
                culprits = []  # self-inflicted: the watchdog shot a worker
            elif running:
                culprits = [f for f in in_flight if f.key in running]
            else:
                culprits = list(in_flight)
            watchdog_killed = False
            culprit_set = {f.key for f in culprits}
            for flight in in_flight:
                if flight.key in culprit_set:
                    flight.pool_deaths += 1
                    if flight.pool_deaths >= 2:
                        finalize_error(
                            flight,
                            "WorkerCrashError",
                            f"quarantined after killing the worker pool "
                            f"{flight.pool_deaths} times ({exc})",
                        )
                        continue
                    schedule_retry(
                        flight,
                        "WorkerCrashError",
                        f"worker pool died while running this job ({exc})",
                    )
                else:
                    # Innocent bystander: requeue the same attempt.
                    flight.ready_at = 0.0
                    waiting.append(flight)
            resurrect()

        def watchdog() -> None:
            # Hard wall-clock enforcement for jobs stuck past their
            # deadline plus a grace period (the grace lets cooperative
            # in-job deadline checks win whenever the job still runs
            # them).
            nonlocal watchdog_killed
            assert timeout is not None
            grace = max(0.5, 0.5 * timeout)
            now_wall = time.time()
            now_mono = time.monotonic()
            beats = self._read_heartbeats() if crosses else {}
            for fut, flight in list(active.items()):
                overdue = False
                pid: Optional[int] = None
                if crosses:
                    record = beats.get(flight.key)
                    if record is not None:
                        pid, started = record
                        overdue = now_wall - started > timeout + grace
                else:
                    if flight.running_since is None and fut.running():
                        flight.running_since = now_mono
                    overdue = (
                        flight.running_since is not None
                        and now_mono - flight.running_since > timeout + grace
                    )
                if not overdue:
                    continue
                del active[fut]
                abandoned.add(fut)
                fut.cancel()  # no-op when running; the future is orphaned
                if crosses and pid is not None:
                    watchdog_killed = True
                    try:
                        os.kill(pid, _signal.SIGKILL)
                    except OSError:
                        pass
                    message = (
                        f"job exceeded its {timeout:g}s deadline and its "
                        f"worker was killed by the watchdog"
                    )
                else:
                    message = (
                        f"job exceeded its {timeout:g}s deadline; the "
                        f"{executor.name} worker was abandoned"
                    )
                if policy.should_retry("JobTimeoutError", flight.attempt):
                    schedule_retry(flight, "JobTimeoutError", message)
                else:
                    finalize_error(flight, "JobTimeoutError", message)

        try:
            if crosses:
                try:
                    self._prepare_pool(executor, pending, graphs)
                except ExecutorUnavailable as exc:
                    self._warn_degrade(executor, f"process pool unavailable ({exc})")
                    return list(pending)
            while n_final < total or finished:
                now = time.monotonic()
                for flight in [f for f in waiting if f.ready_at <= now]:
                    waiting.remove(flight)
                    submit_flight(flight)
                yield from flush()
                if n_final >= total and not finished:
                    break
                if active:
                    tick = (
                        _WATCHDOG_TICK_S
                        if (timeout is not None or plan)
                        else _IDLE_TICK_S
                    )
                    done, _not_done = futures.wait(
                        list(active),
                        timeout=tick,
                        return_when=futures.FIRST_COMPLETED,
                    )
                elif waiting:
                    # Only backoff-delayed work left: sleep to its window.
                    delay = min(f.ready_at for f in waiting) - time.monotonic()
                    if delay > 0:
                        time.sleep(min(delay, _IDLE_TICK_S))
                    done = set()
                else:
                    done = set()
                for fut in done:
                    flight_done = active.pop(fut, None)
                    if flight_done is None:
                        abandoned.discard(fut)
                        continue
                    try:
                        result: JobResult = fut.result()
                    except futures.CancelledError:
                        flight_done.ready_at = 0.0
                        waiting.append(flight_done)
                        continue
                    except BaseException as exc:
                        if crosses and isinstance(exc, (BrokenProcessPool, OSError)):
                            pool_died(exc, flight_done)
                            continue
                        # Uncaptured job exception (capture=False path).
                        kind = type(exc).__name__
                        if policy.should_retry(kind, flight_done.attempt):
                            schedule_retry(flight_done, kind, str(exc))
                            continue
                        raise
                    if result.error is not None and policy.should_retry(
                        result.error.kind, flight_done.attempt
                    ):
                        schedule_retry(
                            flight_done, result.error.kind, result.error.message
                        )
                    else:
                        finalize(flight_done, result)
                if timeout is not None and active:
                    watchdog()
        except _BackendFailed as exc:
            yield from flush()
            self._warn_degrade(executor, exc.reason)
            return [flights[key].entry for key in order if key not in yielded]
        except BaseException:
            # Consumer abandoned the stream (GeneratorExit) or
            # interrupted — don't block on (or orphan) unfinished work.
            self._abort(executor, active)
            raise
        return None

    def _abort(
        self,
        executor: Executor,
        active: Mapping["futures.Future[JobResult]", "_Flight"],
    ) -> None:
        """Cancel outstanding work; reap process workers entirely.

        Interrupts and abandoned streams must not leave orphaned
        workers grinding through compiles nobody will read: queued
        futures are cancelled, and process backends additionally
        SIGKILL their workers (a fresh pool is built lazily on next
        use).
        """
        for fut in list(active):
            fut.cancel()
        if executor.crosses_process:
            with self._pool_lock:
                kill = getattr(executor, "kill_workers", None)
                if kill is not None:
                    kill()
                else:
                    reset = getattr(executor, "reset", None)
                    if reset is not None:
                        reset()

    # -- lifecycle -----------------------------------------------------

    def shutdown(self, force: bool = False) -> None:
        """Release the executor (owned backends only, unless forced)."""
        if self._fallback_thread is not None:
            self._fallback_thread.shutdown(wait=False, cancel_futures=True)
            self._fallback_thread = None
        if self.owns_executor or force:
            self.executor.shutdown(wait=False, cancel_futures=True)
        if self._heartbeat_dir is not None:
            shutil.rmtree(self._heartbeat_dir, ignore_errors=True)
            self._heartbeat_dir = None

    def close(self, force: bool = False) -> None:
        """Shut the runtime down, reaping any worker processes.

        Unlike :meth:`shutdown`, which lets already-running work
        drain, ``close`` SIGKILLs the workers of an owned (or
        ``force``-d) process backend — the guarantee that an
        interrupted sweep (Ctrl-C) cannot leave orphaned workers
        grinding on.  Safe to call repeatedly; also runs on ``with``
        exit.
        """
        if self.owns_executor or force:
            kill = getattr(self.executor, "kill_workers", None)
            if kill is not None:
                with self._pool_lock:
                    kill()
        self.shutdown(force)

    def __enter__(self) -> "JobRuntime":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.close()
