"""The job manager: registry and state machine behind the HTTP frontend.

Every submitted job gets a :class:`JobRecord` — a uuid, the state
machine ``queued → running → done/failed/cancelled``, and eventually
the :class:`~repro.exec.jobs.JobResult` envelope — and executes on a
:class:`~repro.exec.executors.ThreadExecutor` (bounded concurrency,
unbounded queue, cancellable queued jobs).  Execution itself goes
through a per-job :class:`~repro.session.Session`, so the service
inherits the whole resilience stack (retry budgets, cooperative job
timeouts, captured error envelopes) without reimplementing any of it.

Caching is two-tier exactly like the library: with a persistent
:class:`~repro.store.disk.ArtifactStore` every job compiles through a
fresh in-memory cache layered on the shared store — concurrent clients
sweeping the same model see ``cache_store_hits`` and zero recompiles;
without a store all jobs share one in-memory cache.

Terminal records are evicted ``result_ttl`` seconds after finishing
(lazily, on any registry access), bounding the service's memory.
"""

from __future__ import annotations

import threading
import time
import uuid
from concurrent import futures as cf
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Union

from ..arch.presets import paper_case_study
from ..core.cache import CompilationCache
from ..exec.executors import ThreadExecutor
from ..exec.futures import JobFuture
from ..exec.jobs import COMPOSITE_KINDS, Job, JobError, JobResult, job_key
from ..exec.resilience import RetryPolicy
from ..session import Session

__all__ = ["JobManager", "JobRecord", "JobState", "TERMINAL_STATES"]


class JobState:
    """The job lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"


#: States a job never leaves.
TERMINAL_STATES = (JobState.DONE, JobState.FAILED, JobState.CANCELLED)

ALL_STATES = (JobState.QUEUED, JobState.RUNNING) + TERMINAL_STATES


@dataclass
class JobRecord:
    """One submitted job: identity, state, and (eventually) its result."""

    id: str
    job: Job
    key: str
    state: str = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    #: Monotonic completion stamp driving TTL eviction.
    _finished_mono: Optional[float] = None
    timeout: Optional[float] = None
    result: Optional[JobResult] = None
    future: Optional[JobFuture] = None

    @property
    def kind(self) -> str:
        return self.job.kind

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def status_dict(self) -> Dict[str, Any]:
        """The JSON status body of ``GET /v1/jobs/<id>``."""
        record: Dict[str, Any] = {
            "id": self.id,
            "kind": self.kind,
            "key": self.key,
            "state": self.state,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
        }
        if self.result is not None:
            record["ok"] = self.result.ok
            record["attempts"] = self.result.attempts
            record["backend"] = self.result.backend
            if self.result.error is not None:
                record["error"] = {
                    "kind": self.result.error.kind,
                    "message": self.result.error.message,
                }
        return record


class JobManager:
    """Thread-safe in-memory job registry over a thread pool.

    Parameters
    ----------
    jobs:
        Concurrency limit of the underlying
        :class:`~repro.exec.executors.ThreadExecutor` (``None`` = one
        per CPU).
    store:
        Shared persistent :class:`~repro.store.disk.ArtifactStore`
        (``None`` = in-memory caching only).
    retry / job_timeout:
        Server-side defaults applied to every job's session; a
        request-level ``timeout`` overrides ``job_timeout`` per job.
    result_ttl:
        Seconds a terminal record stays retrievable (default 1 hour).
    arch:
        Base architecture for jobs that carry none (sweep/explore use
        the same ``paper_case_study(1)`` template as the CLI).
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        *,
        store: Optional[Any] = None,
        retry: Union[RetryPolicy, int, None] = None,
        job_timeout: Optional[float] = None,
        result_ttl: float = 3600.0,
        arch: Optional[Any] = None,
    ) -> None:
        self._executor = ThreadExecutor(jobs)
        self._store = store
        self._retry = retry
        self._job_timeout = job_timeout
        self._result_ttl = result_ttl
        self._base_arch = arch if arch is not None else paper_case_study(1)
        # RLock on purpose: Future.cancel() runs done-callbacks
        # synchronously in the cancelling thread, re-entering the lock.
        self._lock = threading.RLock()
        self._records: Dict[str, JobRecord] = {}
        self._shared_cache = CompilationCache() if store is None else None
        self._closed = False
        self._counter = 0
        #: Cumulative cache deltas over every finished job.
        self.cache_totals = {"memory_hits": 0, "store_hits": 0, "misses": 0}

    # -- registry -----------------------------------------------------

    def submit(self, job: Job, *, timeout: Optional[float] = None) -> JobRecord:
        """Queue one job; returns its (live) record."""
        with self._lock:
            if self._closed:
                raise RuntimeError("JobManager is shut down")
            self._evict_expired()
            self._counter += 1
            record = JobRecord(
                id=uuid.uuid4().hex,
                job=job,
                key=job_key(job, self._counter),
                timeout=timeout,
            )
            self._records[record.id] = record
            future = self._executor.submit(self._execute, record)
            record.future = future
        future.add_done_callback(lambda fut: self._finalize(record, fut))
        return record

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for ``job_id`` (``None`` if unknown or evicted)."""
        with self._lock:
            self._evict_expired()
            return self._records.get(job_id)

    def list_records(self) -> list[JobRecord]:
        with self._lock:
            self._evict_expired()
            return list(self._records.values())

    def cancel(self, job_id: str) -> Optional[JobRecord]:
        """Cancel a job; no-op on terminal records.

        Queued jobs never run; running jobs are marked cancelled and
        their eventual (discarded) result never overwrites the
        cancelled envelope — the computing thread is cooperative, not
        killable, exactly like :meth:`JobFuture.cancel`.
        """
        with self._lock:
            record = self._records.get(job_id)
            if record is None:
                return None
            if record.terminal:
                return record
            if record.future is not None and record.future.cancel():
                # Still queued: the done-callback fires synchronously
                # under this RLock and writes the cancelled envelope.
                return record
            self._mark_cancelled(record)
            return record

    def _mark_cancelled(self, record: JobRecord) -> None:
        record.state = JobState.CANCELLED
        record.result = JobResult(
            key=record.key,
            error=JobError(kind="Cancelled", message="job cancelled by client"),
        )
        record.finished_at = time.time()
        record._finished_mono = time.monotonic()

    def _evict_expired(self) -> None:
        if self._result_ttl is None:
            return
        now = time.monotonic()
        expired = [
            job_id
            for job_id, record in self._records.items()
            if record.terminal
            and record._finished_mono is not None
            and now - record._finished_mono > self._result_ttl
        ]
        for job_id in expired:
            del self._records[job_id]

    # -- execution ----------------------------------------------------

    def _job_cache(self) -> CompilationCache:
        if self._store is not None:
            # Fresh memory tier per job over the shared store: a warm
            # store shows up as cache_store_hits, never as phantom
            # memory hits from another client's job.
            return CompilationCache(store=self._store)
        assert self._shared_cache is not None
        return self._shared_cache

    def _execute(self, record: JobRecord) -> JobResult:
        with self._lock:
            if record.state == JobState.CANCELLED:
                return record.result or JobResult(key=record.key)
            record.state = JobState.RUNNING
            record.started_at = time.time()
        job = record.job
        arch = getattr(job, "arch", None)
        session = Session(
            arch if arch is not None else self._base_arch,
            cache=self._job_cache(),
            retry=self._retry,
            job_timeout=record.timeout
            if record.timeout is not None
            else self._job_timeout,
        )
        try:
            if job.kind in COMPOSITE_KINDS:
                return session.submit(job).result()
            results = list(session.map([job]))
            return results[0]
        finally:
            session.close()

    def _finalize(self, record: JobRecord, future: JobFuture) -> None:
        with self._lock:
            if record.state == JobState.CANCELLED:
                if record.result is None:  # cancelled while queued
                    self._mark_cancelled(record)
                else:
                    record.finished_at = time.time()
                    record._finished_mono = time.monotonic()
                return
            if future.cancelled():
                self._mark_cancelled(record)
                return
            exc = future.raw.exception()
            if exc is not None:
                record.state = JobState.FAILED
                record.result = JobResult(
                    key=record.key,
                    error=JobError(kind=type(exc).__name__, message=str(exc)),
                )
            else:
                result: JobResult = future.raw.result()
                record.result = result
                record.state = JobState.DONE if result.ok else JobState.FAILED
                self._accumulate(record.job.kind, result)
            record.finished_at = time.time()
            record._finished_mono = time.monotonic()

    def _accumulate(self, kind: str, result: JobResult) -> None:
        totals = self.cache_totals
        if result.value is not None and kind == "sweep":
            try:
                for sweep in result.value:
                    if sweep.baseline_cache is not None:
                        memory, store_hits, misses = sweep.baseline_cache
                        totals["memory_hits"] += memory
                        totals["store_hits"] += store_hits
                        totals["misses"] += misses
                    for point in sweep.points:
                        totals["memory_hits"] += point.cache_memory_hits
                        totals["store_hits"] += point.cache_store_hits
                        totals["misses"] += point.cache_misses
                return
            except (TypeError, AttributeError):  # pragma: no cover
                pass
        totals["memory_hits"] += result.cache_memory_hits
        totals["store_hits"] += result.cache_store_hits
        totals["misses"] += result.cache_misses

    # -- introspection ------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """The JSON body of ``GET /v1/stats``."""
        with self._lock:
            self._evict_expired()
            by_state = {state: 0 for state in ALL_STATES}
            for record in self._records.values():
                by_state[record.state] += 1
            stats: Dict[str, Any] = {
                "jobs": by_state,
                "total_submitted": self._counter,
                "executor": {"name": self._executor.name, "jobs": self._executor.max_workers},
                "cache": dict(self.cache_totals),
            }
            if self._store is not None:
                stats["store"] = self._store.stats().to_dict()
            return stats

    # -- lifecycle ----------------------------------------------------

    def shutdown(self, grace: Optional[float] = 10.0) -> None:
        """Stop accepting jobs, drain in-flight work, then cancel.

        Idempotent: a second call is a no-op.  Waits up to ``grace``
        seconds for non-terminal jobs, then cancels whatever is left
        (queued jobs never run; running jobs get cancelled envelopes).
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = [r for r in self._records.values() if not r.terminal]
        deadline = None if grace is None else time.monotonic() + grace
        for record in pending:
            future = record.future
            if future is None:
                continue
            remaining = (
                None if deadline is None else max(0.0, deadline - time.monotonic())
            )
            try:
                future.raw.exception(timeout=remaining)
            except (cf.TimeoutError, cf.CancelledError):
                pass  # still in flight (or already cancelled) — handled below
        with self._lock:
            for record in self._records.values():
                if not record.terminal:
                    if record.future is not None:
                        record.future.cancel()
                    if not record.terminal:
                        self._mark_cancelled(record)
        self._executor.shutdown(wait=False, cancel_futures=True)
