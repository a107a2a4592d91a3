"""The Python client: :class:`Client`, job handles, and the ``remote``
executor.

:class:`Client` is a stdlib-``urllib`` HTTP client over the wire
protocol; its job methods return :class:`RemoteJobHandle` objects that
poll the server and decode result envelopes back into the same types
the local API produces.  :class:`RemoteExecutor` adapts a client to
the :class:`~repro.exec.executors.Executor` protocol, so
``Session(executor="remote")`` (with ``$REPRO_SERVER_URL`` set)
transparently offloads its jobs to a running server.

Error taxonomy: HTTP-level rejections (bad payload, unknown job, a
server-side 5xx) raise :class:`RemoteError`; network-level failures
(connection refused, reset) surface as :class:`OSError` (urllib's
``URLError`` subclasses it), which the job runtime already treats as a
dead pool — triggering resurrection and, if that fails, the
degradation ladder down to local execution.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request
from concurrent import futures as cf
from typing import Any, Callable, Dict, Mapping, Optional, Sequence

from ..exec.futures import JobFuture
from ..exec.jobs import (
    CompileJob,
    EvaluateJob,
    ExploreJob,
    Job,
    JobResult,
    SweepJob,
)
from .manager import TERMINAL_STATES
from .wire import decode_result, encode_job

__all__ = ["Client", "RemoteError", "RemoteExecutor", "RemoteJobHandle"]


class RemoteError(RuntimeError):
    """An HTTP-level rejection from the compile service."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class Client:
    """HTTP client for one compile service.

    ``base_url`` is the server root (e.g. ``http://127.0.0.1:8787``);
    ``timeout`` bounds each HTTP request, not job completion.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    # -- transport ----------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        body: Optional[Dict[str, Any]] = None,
        *,
        accept: Sequence[int] = (200,),
    ) -> tuple[int, Dict[str, Any]]:
        data = None if body is None else json.dumps(body).encode("utf-8")
        request = urllib.request.Request(
            self.base_url + path,
            data=data,
            method=method,
            headers={"Content-Type": "application/json"} if data else {},
        )
        try:
            with urllib.request.urlopen(request, timeout=self.timeout) as response:
                status = response.status
                payload = json.loads(response.read().decode("utf-8"))
        except urllib.error.HTTPError as exc:
            try:
                detail = json.loads(exc.read().decode("utf-8")).get("error", "")
            except Exception:  # noqa: BLE001 - body may be anything
                detail = exc.reason
            raise RemoteError(exc.code, str(detail)) from None
        # urllib.error.URLError subclasses OSError and propagates as-is:
        # the runtime treats it like a dead pool (resurrect / degrade).
        if status not in accept:
            raise RemoteError(status, str(payload))
        return status, payload

    # -- service surface ----------------------------------------------

    def health(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/health")[1]

    def stats(self) -> Dict[str, Any]:
        return self._request("GET", "/v1/stats")[1]

    def jobs(self) -> list[Dict[str, Any]]:
        """Status dicts of every live job on the server."""
        return list(self._request("GET", "/v1/jobs")[1]["jobs"])

    def submit_job(
        self, job: Job, *, timeout: Optional[float] = None
    ) -> "RemoteJobHandle":
        """Submit one job description; returns a pollable handle."""
        body = {"job": encode_job(job), "timeout": timeout}
        _, payload = self._request("POST", "/v1/jobs", body, accept=(201,))
        return RemoteJobHandle(self, payload["id"])

    def status(self, job_id: str) -> Dict[str, Any]:
        return self._request("GET", f"/v1/jobs/{job_id}")[1]

    def result(self, job_id: str) -> Optional[JobResult]:
        """The decoded envelope, or ``None`` while the job is running."""
        status, payload = self._request(
            "GET", f"/v1/jobs/{job_id}/result", accept=(200, 202)
        )
        if status == 202:
            return None
        return decode_result(payload["result"])

    def cancel(self, job_id: str) -> Dict[str, Any]:
        return self._request("DELETE", f"/v1/jobs/{job_id}")[1]

    # -- convenience job verbs ----------------------------------------

    def compile(self, graph: Any, options: Any = None, arch: Any = None,
                **kwargs: Any) -> "RemoteJobHandle":
        return self.submit_job(
            CompileJob(graph=graph, options=options, arch=arch, **kwargs)
        )

    def evaluate(self, graph: Any, options: Any = None, arch: Any = None,
                 **kwargs: Any) -> "RemoteJobHandle":
        return self.submit_job(
            EvaluateJob(graph=graph, options=options, arch=arch, **kwargs)
        )

    def sweep(self, benchmarks: Sequence[Any], xs: Optional[Sequence[int]] = None,
              **kwargs: Any) -> "RemoteJobHandle":
        return self.submit_job(
            SweepJob(
                benchmarks=tuple(benchmarks),
                xs=None if xs is None else tuple(xs),
                **kwargs,
            )
        )

    def explore(self, model: Any, *, max_extra_pes: Optional[int] = None,
                **kwargs: Any) -> "RemoteJobHandle":
        job = ExploreJob(model=model, **kwargs)
        body = {"job": encode_job(job), "timeout": None}
        if max_extra_pes is not None:
            body["job"]["max_extra_pes"] = int(max_extra_pes)
        _, payload = self._request("POST", "/v1/jobs", body, accept=(201,))
        return RemoteJobHandle(self, payload["id"])

    def executor(self, jobs: Optional[int] = None) -> "RemoteExecutor":
        """A :class:`RemoteExecutor` bound to this client's server."""
        return RemoteExecutor(self.base_url, jobs=jobs, timeout=self.timeout)


class RemoteJobHandle:
    """JobFuture-like handle on one server-side job."""

    def __init__(self, client: Client, job_id: str) -> None:
        self.client = client
        self.id = job_id

    def status(self) -> Dict[str, Any]:
        return self.client.status(self.id)

    def done(self) -> bool:
        return self.status()["state"] in TERMINAL_STATES

    def cancel(self) -> bool:
        """Request cancellation; True if the job ends up cancelled."""
        return self.client.cancel(self.id)["state"] == "cancelled"

    def result(
        self, timeout: Optional[float] = None, *, poll: float = 0.2
    ) -> JobResult:
        """Poll until terminal and return the decoded envelope."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            envelope = self.client.result(self.id)
            if envelope is not None:
                return envelope
            if deadline is not None and time.monotonic() > deadline:
                raise TimeoutError(f"job {self.id} still running after {timeout}s")
            time.sleep(poll)


# ---------------------------------------------------------------------------
# the "remote" executor


class RemoteExecutor:
    """`Executor` adapter offloading submitted jobs to a compile service.

    The runtime hands ``submit`` its shipped-job tuple (``run_job``,
    the job, capture flag, and optionally attempt/timeout); the
    function itself never crosses the wire — the server re-derives
    execution from the job description, riding its own
    retry/timeout configuration.  One background poller thread
    resolves all outstanding futures; jobs whose local future is
    cancelled first are cancelled server-side too.
    """

    name = "remote"
    crosses_process = True
    parallel = True

    #: Poll interval of the background result poller, seconds.
    poll_interval = 0.1

    def __init__(
        self,
        base_url: Optional[str] = None,
        *,
        jobs: Optional[int] = None,
        timeout: float = 30.0,
    ) -> None:
        if base_url is None:
            import os

            base_url = os.environ.get("REPRO_SERVER_URL")
            if not base_url:
                raise ValueError(
                    "RemoteExecutor needs a server URL: pass base_url= or "
                    "set $REPRO_SERVER_URL (start one with 'repro serve')"
                )
        self.client = Client(base_url, timeout=timeout)
        self.jobs = jobs
        self._lock = threading.Lock()
        self._pending: Dict[str, "cf.Future[JobResult]"] = {}
        self._poller: Optional[threading.Thread] = None
        self._closed = False
        self._shipped: Dict[str, Any] = {}

    # -- pool-protocol hooks the runtime calls ------------------------

    def prepare(
        self,
        graphs: Mapping[str, Any],
        use_cache: bool = True,
        store_path: Optional[str] = None,
        heartbeat_dir: Optional[str] = None,
    ) -> None:
        """Remember named graphs so shipped jobs embed real IR."""
        self._shipped.update(graphs)

    def reset(self) -> None:
        """Pool-death recovery hook: nothing pooled locally."""

    # -- submission ---------------------------------------------------

    def _resolve(self, job: Job) -> Job:
        """Embed a shipped graph so the server needs no name registry."""
        from dataclasses import replace

        graph = getattr(job, "graph", None)
        if isinstance(graph, str) and graph in self._shipped:
            return replace(job, graph=self._shipped[graph])  # type: ignore[type-var]
        return job

    def submit(self, fn: Callable[..., Any], /, *args: Any) -> JobFuture:
        """Offload one shipped job (``fn`` is the local ``run_job``)."""
        if self._closed:
            raise RuntimeError("RemoteExecutor is shut down")
        job = self._resolve(args[0])
        timeout = args[3] if len(args) > 3 else None
        handle = self.client.submit_job(job, timeout=timeout)
        raw: "cf.Future[JobResult]" = cf.Future()
        raw.set_running_or_notify_cancel()
        with self._lock:
            self._pending[handle.id] = raw
            if self._poller is None:
                self._poller = threading.Thread(
                    target=self._poll_loop, name="repro-remote-poller", daemon=True
                )
                self._poller.start()
        return JobFuture(raw)

    # -- polling ------------------------------------------------------

    def _poll_loop(self) -> None:
        while True:
            with self._lock:
                if self._closed or not self._pending:
                    self._poller = None
                    return
                pending = dict(self._pending)
            for job_id, raw in pending.items():
                try:
                    envelope = self.client.result(job_id)
                except RemoteError as exc:
                    self._settle(job_id, exc)
                    continue
                except OSError as exc:
                    self._settle(job_id, exc)
                    continue
                if envelope is None:
                    continue
                # Terminal envelopes pass through as-is: the driver
                # loop already consults its retry policy on
                # ``result.error.kind``, so transient server-side
                # failures (timeouts, crashes) retry without any
                # exception re-raising here.
                self._settle(job_id, None, envelope)
            time.sleep(self.poll_interval)

    def _settle(
        self,
        job_id: str,
        exc: Optional[BaseException],
        envelope: Optional[JobResult] = None,
    ) -> None:
        with self._lock:
            raw = self._pending.pop(job_id, None)
        if raw is None or raw.done():
            return
        if exc is not None:
            raw.set_exception(exc)
        else:
            assert envelope is not None
            raw.set_result(envelope)

    def shutdown(self, wait: bool = True, cancel_futures: bool = False) -> None:
        with self._lock:
            if self._closed:
                return
            self._closed = True
            pending = dict(self._pending)
            self._pending.clear()
        for job_id, raw in pending.items():
            if cancel_futures:
                raw.cancel()
                try:
                    self.client.cancel(job_id)
                except (RemoteError, OSError):
                    pass  # best-effort: the server evicts via TTL anyway
