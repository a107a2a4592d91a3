"""The HTTP frontend: ``repro serve`` as a library object.

Stdlib-only (:class:`http.server.ThreadingHTTPServer`); the routes are
a thin JSON layer over :class:`~repro.service.manager.JobManager`:

=======  =========================  =========================================
Method   Path                       Meaning
=======  =========================  =========================================
GET      ``/v1/health``             liveness probe (``{"status": "ok"}``)
GET      ``/v1/stats``              jobs by state, cache/store counters
POST     ``/v1/jobs``               submit one job (wire-encoded payload)
GET      ``/v1/jobs``               list job statuses
GET      ``/v1/jobs/<id>``          one job's status
GET      ``/v1/jobs/<id>/result``   result envelope (202 while running)
DELETE   ``/v1/jobs/<id>``          cancel (no-op on terminal jobs)
=======  =========================  =========================================

Every response is JSON.  Submission bodies look like ``{"job":
<encode_job(...)>, "timeout": <seconds|null>}``; result bodies are
``encode_result`` envelopes.  Errors carry ``{"error": <message>}``
with a 4xx status — a malformed payload never takes the service down.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Union

from ..exec.resilience import RetryPolicy
from .manager import JobManager
from .wire import WireError, decode_job, encode_result

__all__ = ["CompileServer"]

#: Cap on accepted request bodies (64 MiB — embedded graphs are big).
MAX_BODY_BYTES = 64 * 1024 * 1024


class _Handler(BaseHTTPRequestHandler):
    """Route dispatch for one request (the server holds the manager)."""

    server: "CompileServer"
    protocol_version = "HTTP/1.1"

    # -- plumbing -----------------------------------------------------

    def log_message(self, format: str, *args: Any) -> None:  # noqa: A002
        if self.server.verbose:  # pragma: no cover - log formatting
            super().log_message(format, *args)

    def _send_json(self, status: int, body: Dict[str, Any]) -> None:
        payload = json.dumps(body).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def _error(self, status: int, message: str) -> None:
        self._send_json(status, {"error": message})

    def _read_body(self) -> Optional[Dict[str, Any]]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0 or length > MAX_BODY_BYTES:
            self._error(400, f"bad Content-Length {length}")
            return None
        try:
            return json.loads(self.rfile.read(length).decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            self._error(400, f"malformed JSON body: {exc}")
            return None

    # -- routes -------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts == ["v1", "health"]:
            self._send_json(200, {"status": "ok"})
            return
        if parts == ["v1", "stats"]:
            self._send_json(200, self.server.manager.stats())
            return
        if parts == ["v1", "jobs"]:
            records = self.server.manager.list_records()
            self._send_json(200, {"jobs": [r.status_dict() for r in records]})
            return
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            record = self.server.manager.get(parts[2])
            if record is None:
                self._error(404, f"unknown job {parts[2]!r}")
                return
            self._send_json(200, record.status_dict())
            return
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "result":
            self._get_result(parts[2])
            return
        self._error(404, f"no such route {self.path!r}")

    def _get_result(self, job_id: str) -> None:
        record = self.server.manager.get(job_id)
        if record is None:
            self._error(404, f"unknown job {job_id!r}")
            return
        if not record.terminal or record.result is None:
            self._send_json(202, record.status_dict())
            return
        try:
            envelope = encode_result(record.kind, record.result)
        except WireError as exc:
            self._error(500, f"result not wire-encodable: {exc}")
            return
        self._send_json(200, {"status": record.status_dict(), "result": envelope})

    def do_POST(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if parts != ["v1", "jobs"]:
            self._error(404, f"no such route {self.path!r}")
            return
        body = self._read_body()
        if body is None:
            return
        try:
            job = decode_job(body["job"])
        except (WireError, KeyError, TypeError, ValueError) as exc:
            self._error(400, f"bad job payload: {exc}")
            return
        timeout = body.get("timeout")
        try:
            record = self.server.manager.submit(
                job, timeout=None if timeout is None else float(timeout)
            )
        except RuntimeError as exc:
            self._error(503, str(exc))
            return
        self._send_json(201, record.status_dict())

    def do_DELETE(self) -> None:  # noqa: N802
        parts = [p for p in self.path.split("?")[0].split("/") if p]
        if len(parts) != 3 or parts[:2] != ["v1", "jobs"]:
            self._error(404, f"no such route {self.path!r}")
            return
        record = self.server.manager.cancel(parts[2])
        if record is None:
            self._error(404, f"unknown job {parts[2]!r}")
            return
        self._send_json(200, record.status_dict())


class CompileServer(ThreadingHTTPServer):
    """The compile service: HTTP frontend + job manager in one object.

    ``port=0`` binds an ephemeral port (read it back from
    :attr:`url`).  Use as a context manager, or pair
    :meth:`start` (background thread) with :meth:`shutdown_service`.
    """

    daemon_threads = True

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8787,
        *,
        jobs: Optional[int] = None,
        store: Optional[Any] = None,
        store_path: Optional[str] = None,
        retry: Union[RetryPolicy, int, None] = None,
        job_timeout: Optional[float] = None,
        result_ttl: float = 3600.0,
        verbose: bool = False,
    ) -> None:
        resolved = None
        if store is not None or store_path is not None:
            from ..store.paths import resolve_store

            resolved = resolve_store(store=store, store_path=store_path)
        self.manager = JobManager(
            jobs,
            store=resolved,
            retry=retry,
            job_timeout=job_timeout,
            result_ttl=result_ttl,
        )
        self.verbose = verbose
        self._serve_thread: Optional[threading.Thread] = None
        self._stopped = False
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        """Base URL clients should use (reflects the bound port)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def start(self) -> "CompileServer":
        """Serve requests on a background daemon thread."""
        if self._serve_thread is None:
            self._serve_thread = threading.Thread(
                target=self.serve_forever, name="repro-serve", daemon=True
            )
            self._serve_thread.start()
        return self

    def shutdown_service(self, grace: Optional[float] = 10.0) -> None:
        """Drain jobs (up to ``grace`` seconds), then stop serving.

        Idempotent, like :meth:`JobManager.shutdown`.
        """
        if self._stopped:
            return
        self._stopped = True
        self.manager.shutdown(grace)
        self.shutdown()  # stops serve_forever (no-op if never started)
        if self._serve_thread is not None:
            self._serve_thread.join(timeout=10.0)
            self._serve_thread = None
        self.server_close()

    def __enter__(self) -> "CompileServer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.shutdown_service()
