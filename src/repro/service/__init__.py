"""Compile-as-a-service: job-queue HTTP service and client.

The service layer turns the library into a shared daemon::

    # server process
    from repro.service import CompileServer
    with CompileServer(port=8787, store_path="/var/cache/repro").start() as srv:
        ...

    # any client process
    from repro.service import Client
    client = Client("http://127.0.0.1:8787")
    handle = client.sweep(["tinyyolov3"], xs=(4, 8))
    results = handle.result().unwrap()       # list[SweepResult]

The server runs jobs on a bounded thread pool (``--jobs`` slots, any
number queued).  The ``remote`` executor, registered on import of
:mod:`repro.exec`, is :class:`RemoteExecutor`: it offloads submitted
jobs to a running server (``Session(executor="remote")`` with
``$REPRO_SERVER_URL``).
"""

from .client import Client, RemoteError, RemoteExecutor, RemoteJobHandle
from .manager import JobManager, JobRecord, JobState, TERMINAL_STATES
from .server import CompileServer
from .wire import WIRE_VERSION, WireError, decode_job, decode_result, encode_job, encode_result

__all__ = [
    "Client",
    "CompileServer",
    "JobManager",
    "JobRecord",
    "JobState",
    "RemoteError",
    "RemoteExecutor",
    "RemoteJobHandle",
    "TERMINAL_STATES",
    "WIRE_VERSION",
    "WireError",
    "decode_job",
    "decode_result",
    "encode_job",
    "encode_result",
]
