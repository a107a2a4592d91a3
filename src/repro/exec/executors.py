"""Pluggable execution backends: the :class:`Executor` protocol.

Three builtin backends share one submission surface:

``inline``
    Runs the callable immediately in the calling thread and returns an
    already-completed future.  Zero overhead, fully deterministic —
    the default, and the fallback every parallel path degrades to.
``thread``
    A lazily-created :class:`concurrent.futures.ThreadPoolExecutor`.
    Shares the calling process's memory, so session hooks, custom pass
    managers and the session compilation cache all keep working;
    compilation is CPU-bound Python, so threads mostly help when many
    points are cache-served or when overlapping the energy/metrics
    scoring.
``process``
    A :class:`concurrent.futures.ProcessPoolExecutor` that absorbs the
    worker bootstrap historically private to ``repro.analysis.sweep``:
    named graphs ship to every worker once (serialized through
    :mod:`repro.ir.serialize` via the pool initializer), workers
    rebuild them lazily and keep per-process compilation caches, and
    the pool persists across batches so cache warmth survives (see
    :meth:`ProcessExecutor.prepare`).

Third-party backends (remote, sharded...) plug in through
:func:`register_executor` and become addressable by name everywhere an
executor is accepted — ``Session(..., executor="mybackend")``,
``Session.sweep(..., executor=...)`` and the CLI ``--executor`` flag.
"""

from __future__ import annotations

import os
from concurrent import futures
from typing import Any, Callable, Mapping, Optional, Protocol, runtime_checkable

from ..ir.graph import Graph
from .futures import JobFuture
from .worker import init_worker

__all__ = [
    "Executor",
    "ExecutorUnavailable",
    "InlineExecutor",
    "ProcessExecutor",
    "ThreadExecutor",
    "executor_names",
    "make_executor",
    "register_executor",
]


class ExecutorUnavailable(RuntimeError):
    """Raised when a backend cannot start (e.g. sandboxed process pools).

    The runtime catches this and falls back to inline execution with a
    ``RuntimeWarning`` — results are identical either way.
    """


@runtime_checkable
class Executor(Protocol):
    """The submission surface every backend implements.

    ``submit`` schedules one callable and returns a
    :class:`~repro.exec.futures.JobFuture`; ``shutdown`` releases any
    pooled resources.  ``crosses_process`` tells the runtime whether
    submitted callables leave this interpreter (and therefore must be
    picklable and cannot share hooks, pass managers, or caches).
    """

    name: str
    #: Whether submitted callables run outside this interpreter.
    crosses_process: bool
    #: Whether submissions may run concurrently (pooled backends).
    parallel: bool

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> JobFuture: ...

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None: ...


class InlineExecutor:
    """Immediate in-thread execution (the serial reference backend)."""

    name = "inline"
    crosses_process = False
    parallel = False

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> JobFuture:
        raw: "futures.Future[Any]" = futures.Future()
        try:
            raw.set_result(fn(*args))
        except Exception as exc:
            raw.set_exception(exc)
        return JobFuture(raw)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Nothing to release."""


class ThreadExecutor:
    """Thread-pool execution sharing the calling process's memory."""

    name = "thread"
    crosses_process = False
    parallel = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers if max_workers else (os.cpu_count() or 1)
        self._pool: Optional[futures.ThreadPoolExecutor] = None
        self._closed = False

    def _ensure_pool(self) -> futures.ThreadPoolExecutor:
        if self._closed:
            raise RuntimeError("ThreadExecutor is shut down")
        if self._pool is None:
            self._pool = futures.ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="repro-exec"
            )
        return self._pool

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> JobFuture:
        return JobFuture(self._ensure_pool().submit(fn, *args))

    def reset(self) -> None:
        """Drop the worker pool (cancelling queued work); lazily rebuilt."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        """Release the pool for good: a later :meth:`submit` raises."""
        self._closed = True
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
        self._pool = None


class ProcessExecutor:
    """Process-pool execution with graph shipping and worker caches.

    The pool is created lazily by :meth:`prepare`, which ships the
    given named graphs to every worker through the pool initializer
    (serialized once, rebuilt lazily per process).  Re-preparing with
    the *same* graph objects reuses the live pool, so per-process
    compilation caches stay warm across batches — the property the
    exploration engine's strategy loop depends on.  Graphs are held by
    strong reference and compared by identity: an ``id()``-based key
    could alias a recycled address to a stale pool initialized with a
    different graph.
    """

    name = "process"
    crosses_process = True
    parallel = True

    def __init__(self, max_workers: Optional[int] = None) -> None:
        self.max_workers = max_workers if max_workers else (os.cpu_count() or 1)
        self._pool: Optional[futures.ProcessPoolExecutor] = None
        self._shipped: Optional[dict[str, Graph]] = None
        self._use_cache: Optional[bool] = None
        self._store_path: Optional[str] = None
        self._heartbeat_dir: Optional[str] = None
        self._retired: list[futures.ProcessPoolExecutor] = []

    @property
    def pool(self) -> Optional[futures.ProcessPoolExecutor]:
        """The live worker pool (``None`` before :meth:`prepare`)."""
        return self._pool

    def worker_pids(self) -> tuple[int, ...]:
        """PIDs of every worker process this executor has spawned and
        not yet released (live pool plus retired-but-draining pools)."""
        pids: list[int] = []
        for pool in [self._pool, *self._retired]:
            if pool is None:
                continue
            processes = getattr(pool, "_processes", None) or {}
            pids.extend(int(pid) for pid in list(processes))
        return tuple(pids)

    def kill_workers(self) -> tuple[int, ...]:
        """SIGKILL every worker process and drop all pools.

        The reap path for interrupted runs: a Ctrl-C mid-sweep must not
        leave orphaned workers grinding through a compile the driver no
        longer wants.  Returns the PIDs that were signalled.
        """
        import signal as _signal

        pids = self.worker_pids()
        for pid in pids:
            try:
                os.kill(pid, _signal.SIGKILL)
            except (ProcessLookupError, PermissionError, OSError):
                pass
        for pool in [self._pool, *self._retired]:
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
        self._retired.clear()
        self._pool = None
        self._shipped = None
        self._use_cache = None
        self._store_path = None
        self._heartbeat_dir = None
        return pids

    def prepare(
        self,
        graphs: Mapping[str, Graph],
        use_cache: bool = True,
        store_path: Optional[str] = None,
        heartbeat_dir: Optional[str] = None,
    ) -> None:
        """Make sure a pool exists with ``graphs`` shipped to every worker.

        The live pool is reused whenever every wanted graph is already
        shipped (by object identity) under the same name and the cache
        policy is unchanged — in particular, preparing with *fewer*
        graphs never disturbs a warm pool.  When a rebuild is needed
        the old pool is **retired**, not cancelled: it keeps draining
        its queued futures in the background, so outstanding
        ``submit`` results still arrive while new work lands on a
        fresh pool carrying the merged payload.  Raises
        :class:`ExecutorUnavailable` when no pool can be created
        (restricted sandboxes); the runtime then falls back to inline
        execution.
        """
        wanted = dict(graphs)
        if (
            self._pool is not None
            and self._use_cache == use_cache
            and self._store_path == store_path
            and self._heartbeat_dir == heartbeat_dir
            and self._shipped is not None
            and all(
                name in self._shipped and self._shipped[name] is graph
                for name, graph in wanted.items()
            )
        ):
            return
        merged = dict(self._shipped or {})
        merged.update(wanted)
        self._retire()
        from ..ir import serialize

        payload = {name: serialize.dumps(graph) for name, graph in merged.items()}
        try:
            # Attribute lookup at call time on purpose: tests exercise
            # sandbox fallbacks by patching futures.ProcessPoolExecutor.
            self._pool = futures.ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=init_worker,
                initargs=(payload, use_cache, store_path, heartbeat_dir),
            )
        except (OSError, ValueError, RuntimeError) as exc:
            raise ExecutorUnavailable(str(exc)) from exc
        self._shipped = merged
        self._use_cache = use_cache
        self._store_path = store_path
        self._heartbeat_dir = heartbeat_dir

    def _retire(self) -> None:
        """Let the old pool drain queued work in the background."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=False)
            self._retired.append(self._pool)
        self._pool = None

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> JobFuture:
        if self._pool is None:
            self.prepare({}, use_cache=True)
        assert self._pool is not None
        return JobFuture(self._pool.submit(fn, *args))

    def reset(self) -> None:
        """Drop the live pool (cancelling queued work); lazily rebuilt."""
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = None
        self._shipped = None
        self._use_cache = None
        self._store_path = None
        self._heartbeat_dir = None

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=wait, cancel_futures=cancel_futures)
        for retired in self._retired:
            retired.shutdown(wait=wait, cancel_futures=cancel_futures)
        self._retired.clear()
        self._pool = None
        self._shipped = None
        self._use_cache = None
        self._store_path = None
        self._heartbeat_dir = None

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

#: A factory receives the requested worker count (``None`` = backend
#: default) and returns a fresh executor instance.
ExecutorFactory = Callable[[Optional[int]], Executor]

_EXECUTORS: dict[str, ExecutorFactory] = {}
_BUILTIN_EXECUTORS = ("inline", "thread", "process")


def register_executor(
    name: str, factory: ExecutorFactory, replace: bool = False
) -> None:
    """Register an executor backend under ``name``.

    The factory is called with the requested worker count whenever the
    name is resolved (``Session(executor=name)``, CLI ``--executor``).
    Remote or sharded backends plug in here without core changes.
    """
    if not replace and name in _EXECUTORS:
        raise ValueError(f"executor {name!r} is already registered")
    _EXECUTORS[name] = factory


def unregister_executor(name: str) -> None:
    """Remove a registered backend (builtin names are protected)."""
    if name in _BUILTIN_EXECUTORS:
        raise ValueError(f"cannot unregister builtin executor {name!r}")
    _EXECUTORS.pop(name, None)


def executor_names() -> tuple[str, ...]:
    """All registered backend names (builtins first)."""
    return tuple(_EXECUTORS)


def make_executor(
    spec: "Executor | str | None", *, jobs: Optional[int] = None
) -> Executor:
    """Resolve an executor from a name, an instance, or ``None``.

    ``None`` resolves to ``process`` when ``jobs`` asks for parallelism
    (>1 workers, or ``None`` meaning one per CPU) and ``inline``
    otherwise.
    Instances pass through unchanged.
    """
    if spec is None:
        spec = "process" if jobs is None or jobs > 1 else "inline"
    if isinstance(spec, str):
        try:
            factory = _EXECUTORS[spec]
        except KeyError:
            names = ", ".join(sorted(executor_names()))
            raise KeyError(
                f"unknown executor {spec!r}; registered backends: {names} "
                "(plugins register via repro.exec.register_executor)"
            ) from None
        return factory(jobs)
    return spec


def _make_remote(jobs: Optional[int]) -> Executor:
    # Reads $REPRO_SERVER_URL; raises ValueError without a server URL.
    from ..service.client import RemoteExecutor

    return RemoteExecutor(jobs=jobs)


register_executor("inline", lambda jobs: InlineExecutor())
register_executor("thread", lambda jobs: ThreadExecutor(jobs))
register_executor("process", lambda jobs: ProcessExecutor(jobs))
register_executor("remote", _make_remote)
