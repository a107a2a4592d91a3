"""The unified execution layer: jobs, futures, and pluggable executors.

One submission surface for every way the repo fans work out::

    from repro import Session, paper_case_study
    from repro.exec import EvaluateJob, SweepJob

    session = Session(paper_case_study(133), executor="process")
    future = session.submit(EvaluateJob(graph, options))   # JobFuture
    for result in session.map(SweepJob(("tinyyolov3",))):  # JobResult stream
        print(result.key, result.value)

Jobs are plain-data descriptions (:class:`CompileJob`,
:class:`EvaluateJob`, :class:`SweepJob`, :class:`ExploreJob`); every
executed job yields one :class:`JobResult` envelope (value, per-pass
timings, diagnostics, cache deltas, captured error).  Backends
implement the :class:`Executor` protocol — builtin ``inline``,
``thread`` and ``process``, remote/sharded backends plug in through
:func:`register_executor`.
"""

from .executors import (
    Executor,
    ExecutorUnavailable,
    InlineExecutor,
    ProcessExecutor,
    ThreadExecutor,
    executor_names,
    make_executor,
    register_executor,
    unregister_executor,
)
from .faults import FaultPlan, FaultSpec, InjectedFault, TransientFault
from .futures import JobFuture
from .jobs import (
    CompileJob,
    EvaluateJob,
    Evaluation,
    ExploreJob,
    Job,
    JobError,
    JobFailedError,
    JobResult,
    SweepJob,
    job_key,
)
from .resilience import (
    Deadline,
    JobTimeoutError,
    RetryEvent,
    RetryPolicy,
    WorkerCrashError,
    check_deadline,
    current_deadline,
    deadline_scope,
)
from .runtime import (
    JobRuntime,
    execute_job,
)

__all__ = [
    "CompileJob",
    "Deadline",
    "EvaluateJob",
    "Evaluation",
    "Executor",
    "ExecutorUnavailable",
    "ExploreJob",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InlineExecutor",
    "Job",
    "JobError",
    "JobFailedError",
    "JobFuture",
    "JobResult",
    "JobRuntime",
    "JobTimeoutError",
    "ProcessExecutor",
    "RetryEvent",
    "RetryPolicy",
    "SweepJob",
    "ThreadExecutor",
    "TransientFault",
    "WorkerCrashError",
    "check_deadline",
    "current_deadline",
    "deadline_scope",
    "execute_job",
    "executor_names",
    "job_key",
    "make_executor",
    "register_executor",
    "unregister_executor",
]
