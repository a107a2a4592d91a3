"""Tests for the service job registry/state machine (repro.service.manager)."""

import threading
import time

import pytest

from repro import ScheduleOptions, paper_case_study
from repro.core import SetGranularity
from repro.exec import EvaluateJob, JobResult
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import tiny_sequential
from repro.service import JobManager, JobState, TERMINAL_STATES

COARSE_OPTIONS = ScheduleOptions(granularity=SetGranularity(rows_per_set=4))


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture(scope="module")
def arch(canonical):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return paper_case_study(min_pes + 4)


def wait_terminal(manager, record, timeout=120.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if manager.get(record.id) is None or record.terminal:
            return
        time.sleep(0.02)
    raise TimeoutError(f"job {record.id} still {record.state}")


class _BlockingManager(JobManager):
    """Replaces real execution with an event gate to pin state machines."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.release = threading.Event()
        self.started = threading.Event()

    def _execute(self, record):
        with self._lock:
            if record.state == JobState.CANCELLED:
                return record.result or JobResult(key=record.key)
            record.state = JobState.RUNNING
            record.started_at = time.time()
        self.started.set()
        self.release.wait(30)
        return JobResult(key=record.key, value=None)


class _CountingManager(JobManager):
    """Replaces real execution with a short sleep, counting overlap."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.gauge = threading.Lock()
        self.active = 0
        self.peak = 0

    def _execute(self, record):
        with self.gauge:
            self.active += 1
            self.peak = max(self.peak, self.active)
        time.sleep(0.05)
        with self.gauge:
            self.active -= 1
        return JobResult(key=record.key, value=None)


class TestLifecycle:
    def test_evaluate_job_runs_to_done(self, canonical, arch):
        manager = JobManager(1)
        try:
            record = manager.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, arch=arch,
                            assume_canonical=True)
            )
            assert record.state in (JobState.QUEUED, JobState.RUNNING)
            wait_terminal(manager, record)
            assert record.state == JobState.DONE
            assert record.result is not None and record.result.ok
            assert record.result.value.metrics.latency_cycles > 0
            assert record.finished_at is not None
            status = record.status_dict()
            assert status["state"] == "done"
            assert status["ok"] is True
            assert status["backend"] == "inline"
            assert manager.cache_totals["misses"] > 0
        finally:
            manager.shutdown(grace=0)

    def test_failed_job_keeps_service_alive(self, canonical, arch):
        manager = JobManager(1)
        try:
            bad = manager.submit(EvaluateJob("no-such-model"))
            wait_terminal(manager, bad)
            assert bad.state == JobState.FAILED
            assert bad.result.error is not None
            good = manager.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, arch=arch,
                            assume_canonical=True)
            )
            wait_terminal(manager, good)
            assert good.state == JobState.DONE
        finally:
            manager.shutdown(grace=0)

    def test_jobs_bounds_concurrency(self):
        manager = _CountingManager(2)
        try:
            records = [manager.submit(EvaluateJob("tiny_sequential")) for _ in range(6)]
            for record in records:
                wait_terminal(manager, record)
            assert [record.state for record in records] == [JobState.DONE] * 6
            assert 1 <= manager.peak <= 2
        finally:
            manager.shutdown(grace=0)

    def test_unknown_id_and_listing(self, canonical, arch):
        manager = JobManager(1)
        try:
            assert manager.get("nope") is None
            record = manager.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, arch=arch,
                            assume_canonical=True)
            )
            assert manager.get(record.id) is record
            assert record.id in [r.id for r in manager.list_records()]
            wait_terminal(manager, record)
        finally:
            manager.shutdown(grace=0)


class TestCancel:
    def test_cancel_queued_job_never_runs(self):
        manager = _BlockingManager(1)
        try:
            blocker = manager.submit(EvaluateJob("tiny_sequential"))
            assert manager.started.wait(10)
            queued = manager.submit(EvaluateJob("tiny_sequential"))
            cancelled = manager.cancel(queued.id)
            assert cancelled is queued
            assert queued.state == JobState.CANCELLED
            assert queued.result.error.kind == "Cancelled"
            manager.release.set()
            wait_terminal(manager, blocker)
            assert blocker.state == JobState.DONE
        finally:
            manager.release.set()
            manager.shutdown(grace=0)

    def test_cancel_running_job_discards_late_result(self):
        manager = _BlockingManager(1)
        try:
            record = manager.submit(EvaluateJob("tiny_sequential"))
            assert manager.started.wait(10)
            manager.cancel(record.id)
            assert record.state == JobState.CANCELLED
            assert record.result.error.kind == "Cancelled"
            manager.release.set()
            record.future.raw.exception(timeout=30)
            time.sleep(0.05)  # let the done-callback run
            assert record.state == JobState.CANCELLED
            assert record.result.error is not None
        finally:
            manager.release.set()
            manager.shutdown(grace=0)

    def test_cancel_terminal_job_is_noop(self, canonical, arch):
        manager = JobManager(1)
        try:
            record = manager.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, arch=arch,
                            assume_canonical=True)
            )
            wait_terminal(manager, record)
            assert manager.cancel(record.id) is record
            assert record.state == JobState.DONE
        finally:
            manager.shutdown(grace=0)


class TestTtlAndStats:
    def test_terminal_records_evicted_after_ttl(self, canonical, arch):
        manager = JobManager(1, result_ttl=0.05)
        try:
            record = manager.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, arch=arch,
                            assume_canonical=True)
            )
            wait_terminal(manager, record)
            assert manager.get(record.id) is record
            time.sleep(0.1)
            assert manager.get(record.id) is None
        finally:
            manager.shutdown(grace=0)

    def test_stats_shape(self, canonical, arch):
        manager = JobManager(2)
        try:
            record = manager.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, arch=arch,
                            assume_canonical=True)
            )
            wait_terminal(manager, record)
            stats = manager.stats()
            assert stats["jobs"]["done"] == 1
            assert stats["total_submitted"] == 1
            assert stats["executor"] == {"name": "thread", "jobs": 2}
            assert set(stats["cache"]) == {"memory_hits", "store_hits", "misses"}
            assert "store" not in stats
        finally:
            manager.shutdown(grace=0)


class TestShutdown:
    def test_shutdown_drains_then_cancels(self):
        manager = _BlockingManager(1)
        blocker = manager.submit(EvaluateJob("tiny_sequential"))
        queued = manager.submit(EvaluateJob("tiny_sequential"))
        assert manager.started.wait(10)
        manager.shutdown(grace=0.1)
        manager.release.set()
        assert blocker.terminal and queued.terminal
        assert queued.state == JobState.CANCELLED
        assert blocker.state in TERMINAL_STATES

    def test_shutdown_idempotent_and_rejects_submissions(self):
        manager = JobManager(1)
        manager.shutdown()
        manager.shutdown()  # no-op
        with pytest.raises(RuntimeError, match="shut down"):
            manager.submit(EvaluateJob("tiny_sequential"))

    def test_shutdown_waits_for_inflight_within_grace(self):
        manager = _BlockingManager(1)
        record = manager.submit(EvaluateJob("tiny_sequential"))
        assert manager.started.wait(10)
        threading.Timer(0.1, manager.release.set).start()
        manager.shutdown(grace=10.0)
        assert record.state == JobState.DONE
