"""The :class:`JobFuture` handle returned by job submission.

A thin, backend-agnostic wrapper over :class:`concurrent.futures.Future`
that always resolves to a :class:`~repro.exec.jobs.JobResult`.  Inline
execution wraps an already-completed future; thread and process
backends wrap live pool futures.
"""

from __future__ import annotations

import warnings
from concurrent import futures
from typing import Any, Callable, Optional

from .jobs import Job, JobResult

__all__ = ["JobFuture"]


class JobFuture:
    """Handle on one submitted job.

    Mirrors the :class:`concurrent.futures.Future` surface
    (``done``/``cancel``/``result``/``exception``/
    ``add_done_callback``) but ``result()`` returns the job's
    :class:`~repro.exec.jobs.JobResult` envelope.
    """

    def __init__(
        self,
        raw: "futures.Future[Any]",
        *,
        job: Optional[Job] = None,
    ) -> None:
        self.raw = raw
        self.job = job
        self._result: Optional[JobResult] = None

    @classmethod
    def completed(cls, result: JobResult, *, job: Optional[Job] = None) -> "JobFuture":
        """A future that already resolved to ``result``."""
        raw: "futures.Future[Any]" = futures.Future()
        raw.set_result(result)
        return cls(raw, job=job)

    @classmethod
    def failed(cls, exc: BaseException, *, job: Optional[Job] = None) -> "JobFuture":
        """A future that already failed with ``exc``."""
        raw: "futures.Future[Any]" = futures.Future()
        raw.set_exception(exc)
        return cls(raw, job=job)

    def done(self) -> bool:
        """Whether the underlying work finished (or was cancelled)."""
        return self.raw.done()

    def running(self) -> bool:
        """Whether the underlying work is currently executing."""
        return self.raw.running()

    def cancel(self) -> bool:
        """Attempt to cancel the job; returns whether it is *actually*
        cancelled.

        ``True`` only when the underlying future reports ``CANCELLED``
        after the attempt — the job was still queued and will never
        run.  Anything else returns ``False``: a job that is already
        running (including a process worker that has picked the job
        up, or a resilient submit whose driver thread has started)
        keeps computing and its eventual result is discarded.  Note
        the raw ``Future.cancel`` return value alone is optimistic for
        wrapped futures — a cached result can exist even when the raw
        state says cancelled — so the true state is re-read instead of
        trusted.
        """
        if self._result is not None:
            return False
        self.raw.cancel()
        return self.raw.cancelled() and self._result is None

    def cancelled(self) -> bool:
        """Whether the job was cancelled before it could run."""
        return self.raw.cancelled() and self._result is None

    def result(self, timeout: Optional[float] = None) -> JobResult:
        """Block for (at most ``timeout`` seconds) and return the result."""
        if self._result is None:
            self._result = self.raw.result(timeout)
        return self._result

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The exception the underlying work raised, if any."""
        return self.raw.exception(timeout)

    def add_done_callback(self, fn: Callable[["JobFuture"], None]) -> None:
        """Call ``fn(self)`` exactly once when the underlying work completes.

        Fires on completion, failure, and cancellation alike; a
        callback added after the future already settled runs
        immediately.  Each registered callback fires at most once, and
        a callback that raises emits a ``RuntimeWarning`` instead of
        propagating — a user callback must never break the executor
        driver loop (or the caller registering it late).
        """
        fired = [False]

        def invoke(_raw: "futures.Future[Any]") -> None:
            if fired[0]:
                return
            fired[0] = True
            try:
                fn(self)
            except Exception as exc:  # noqa: BLE001 - isolation by design
                warnings.warn(
                    f"JobFuture done-callback {fn!r} raised "
                    f"{type(exc).__name__}: {exc}",
                    RuntimeWarning,
                    stacklevel=2,
                )

        self.raw.add_done_callback(invoke)
