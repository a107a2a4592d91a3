"""Tests for fault-tolerant execution: retries, deadlines, fault injection.

Unit coverage for :mod:`repro.exec.resilience` and
:mod:`repro.exec.faults`, plus chaos scenarios driving the process
backend through injected worker kills, deadline overruns, and poison
jobs (``jobs=2`` keeps the pool real but cheap on small CI boxes).
"""

import os
import time
import warnings

import pytest

from repro import (
    EvaluateJob,
    ScheduleOptions,
    Session,
    SessionHooks,
    paper_case_study,
)
from repro.analysis import sweep_to_csv
from repro.core import SetGranularity
from repro.exec import (
    Deadline,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    JobTimeoutError,
    RetryPolicy,
    TransientFault,
    WorkerCrashError,
    check_deadline,
    deadline_scope,
)
from repro.exec.faults import apply_fault
from repro.exec.resilience import NO_RETRY, normalize_retry
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import BenchmarkSpec, tiny_sequential

COARSE = {"granularity": SetGranularity(rows_per_set=4)}
COARSE_OPTIONS = ScheduleOptions(granularity=SetGranularity(rows_per_set=4))


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture(scope="module")
def arch(canonical):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return paper_case_study(min_pes + 4)


@pytest.fixture(scope="module")
def spec(canonical):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return BenchmarkSpec(
        "tiny_sequential",
        canonical.shape_of(canonical.input_names()[0]).hwc,
        base_layers=len(canonical.base_layers()),
        min_pes=min_pes,
    )


def chaos_sweep(spec, canonical, arch, plan, *, hooks=None, store=None,
                cache=False, timeout=5.0, retry=3):
    """One 4-point process-pool sweep under ``plan``, warnings silenced."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        session = Session(arch, cache=cache, hooks=hooks, store=store,
                          retry=retry, job_timeout=timeout, fault_plan=plan)
        with session:
            return session.sweep(
                [spec], xs=(2,), jobs=2, executor="process",
                options_overrides=COARSE,
                graphs={"tiny_sequential": canonical},
            )[0]


class TestRetryPolicy:
    def test_backoff_is_deterministic(self):
        policy = RetryPolicy(seed=7)
        assert policy.backoff("k", 1) == policy.backoff("k", 1)
        assert RetryPolicy(seed=7).backoff("k", 2) == policy.backoff("k", 2)

    def test_backoff_varies_with_seed_and_key(self):
        policy = RetryPolicy(seed=0, jitter=0.25)
        assert policy.backoff("a", 1) != RetryPolicy(seed=1, jitter=0.25).backoff("a", 1)
        assert policy.backoff("a", 1) != policy.backoff("b", 1)

    def test_backoff_bounds_and_growth(self):
        policy = RetryPolicy(
            backoff_base_s=0.1, backoff_factor=2.0, backoff_max_s=1.0, jitter=0.0
        )
        assert policy.backoff("k", 1) == pytest.approx(0.1)
        assert policy.backoff("k", 2) == pytest.approx(0.2)
        assert policy.backoff("k", 9) == pytest.approx(1.0)  # capped
        jittered = RetryPolicy(backoff_base_s=0.1, jitter=0.25)
        raw = 0.1
        assert raw * 0.75 <= jittered.backoff("k", 1) <= raw * 1.25

    def test_classification(self):
        policy = RetryPolicy()
        assert policy.retryable("WorkerCrashError")
        assert policy.retryable("JobTimeoutError")
        assert policy.retryable("BrokenProcessPool")
        assert policy.retryable("TransientFault")
        assert not policy.retryable("ValueError")  # deterministic: fail fast
        assert not policy.retryable("InjectedFault")

    def test_should_retry_respects_budget(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.should_retry("WorkerCrashError", 1)
        assert policy.should_retry("WorkerCrashError", 2)
        assert not policy.should_retry("WorkerCrashError", 3)
        assert not policy.should_retry("ValueError", 1)

    def test_normalize(self):
        assert normalize_retry(None) is NO_RETRY
        assert normalize_retry(4).max_attempts == 4
        policy = RetryPolicy(max_attempts=2)
        assert normalize_retry(policy) is policy
        with pytest.raises(TypeError):
            normalize_retry(True)


class TestDeadline:
    def test_check_is_noop_without_scope(self):
        check_deadline("anywhere")

    def test_none_scope_installs_nothing(self):
        with deadline_scope(None) as deadline:
            assert deadline is None
            check_deadline("inside")

    def test_expired_deadline_raises(self):
        with deadline_scope(0.0):
            with pytest.raises(JobTimeoutError, match="deadline"):
                check_deadline("unit test")

    def test_scopes_nest_and_restore(self):
        with deadline_scope(60.0) as outer:
            assert isinstance(outer, Deadline)
            with deadline_scope(0.0):
                with pytest.raises(JobTimeoutError):
                    check_deadline()
            check_deadline()  # outer deadline restored, far from expiry
        check_deadline()  # no deadline left


class TestFaultPlan:
    def test_keyed_by_key_and_attempt(self):
        spec = FaultSpec("raise")
        plan = FaultPlan({("job", 1): spec})
        assert plan.get("job", 1) is spec
        assert plan.get("job", 2) is None
        assert plan.get("other", 1) is None

    def test_seeded_is_deterministic(self):
        keys = [f"job-{i}" for i in range(8)]
        one = FaultPlan.seeded(keys, seed=3, kills=2, sleeps=1)
        two = FaultPlan.seeded(list(reversed(keys)), seed=3, kills=2, sleeps=1)
        assert one.faults == two.faults
        actions = sorted(s.action for s in one.faults.values())
        assert actions == ["kill", "kill", "sleep"]

    def test_seeded_rejects_oversubscription(self):
        with pytest.raises(ValueError):
            FaultPlan.seeded(["a", "b"], kills=3)

    def test_merged_overlays(self):
        base = FaultPlan({("a", 1): FaultSpec("raise")})
        extra = FaultPlan({("b", 1): FaultSpec("kill")})
        merged = base.merged(extra)
        assert merged.get("a", 1) is not None and merged.get("b", 1) is not None


class TestApplyFault:
    def test_raise_transient_and_fatal(self):
        with pytest.raises(TransientFault):
            apply_fault(FaultSpec("raise", transient=True), in_worker=False)
        with pytest.raises(InjectedFault):
            apply_fault(FaultSpec("raise", transient=False), in_worker=False)

    def test_kill_outside_worker_is_a_crash_error(self):
        # Driver-side backends must not SIGKILL the driver itself.
        with pytest.raises(WorkerCrashError):
            apply_fault(FaultSpec("kill"), in_worker=False)

    def test_sleep_respects_cooperative_deadline(self):
        start = time.monotonic()
        with deadline_scope(0.05):
            with pytest.raises(JobTimeoutError):
                apply_fault(FaultSpec("sleep", seconds=30.0), in_worker=False)
        assert time.monotonic() - start < 5.0

    def test_corrupt_garbles_a_store_object(self, tmp_path):
        objects = tmp_path / "objects"
        objects.mkdir()
        victim = objects / "aa.json"
        victim.write_text('{"format": "clsa-cim-store-entry"}')
        apply_fault(
            FaultSpec("corrupt", transient=True),
            in_worker=False,
            store_root=str(tmp_path),
        )
        assert victim.read_text() != '{"format": "clsa-cim-store-entry"}'


class TestJobFutureCancel:
    def test_cancel_after_resolution_reports_failure(self, canonical, arch):
        session = Session(arch)
        future = session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)
        )
        assert future.done()
        assert future.cancel() is False  # already ran: cancellation failed
        assert future.cancelled() is False
        assert future.result().ok


class TestInlineRetry:
    def test_transient_fault_retries_with_provenance(self, canonical, arch):
        events = []
        hooks = SessionHooks(on_job_retry=events.append)
        plan = FaultPlan({("pt", 1): FaultSpec("raise", transient=True)})
        session = Session(arch, hooks=hooks, retry=3, fault_plan=plan)
        result = session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key="pt")
        ).result()
        assert result.ok
        assert result.attempts == 2
        assert result.backend == "inline"
        assert [(e.key, e.attempt, e.error_kind) for e in events] == [
            ("pt", 1, "TransientFault")
        ]

    def test_raising_retry_hook_warns(self, canonical, arch):
        def explode(event):
            raise RuntimeError("boom")

        plan = FaultPlan({("pt", 1): FaultSpec("raise", transient=True)})
        hooks = SessionHooks(on_job_retry=explode)
        session = Session(arch, hooks=hooks, retry=3, fault_plan=plan)
        with pytest.warns(RuntimeWarning, match="hook on_job_retry raised RuntimeError: boom"):
            result = session.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key="pt")
            ).result()
        assert result.ok and result.attempts == 2

    def test_fatal_fault_fails_fast(self, canonical, arch):
        plan = FaultPlan({("pt", 1): FaultSpec("raise", transient=False)})
        session = Session(arch, retry=3, fault_plan=plan)
        result = session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key="pt")
        ).result()
        assert not result.ok
        assert result.error.kind == "InjectedFault"
        assert result.attempts == 1  # deterministic failure: no retry

    def test_retry_budget_exhaustion_surfaces_last_error(self, canonical, arch):
        plan = FaultPlan({
            ("pt", attempt): FaultSpec("raise", transient=True)
            for attempt in (1, 2)
        })
        session = Session(arch, retry=2, fault_plan=plan)
        result = session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key="pt")
        ).result()
        assert not result.ok
        assert result.error.kind == "TransientFault"
        assert result.attempts == 2


class TestProcessChaos:
    def test_injected_kill_recovers_every_point(self, spec, canonical, arch):
        events = []
        hooks = SessionHooks(on_job_retry=events.append)
        plan = FaultPlan({("tiny_sequential/wdup+2", 1): FaultSpec("kill")})
        result = chaos_sweep(spec, canonical, arch, plan, hooks=hooks)
        assert not result.failures
        by_label = {p.label: p for p in result.points}
        assert set(by_label) == {"xinf", "wdup+2", "wdup+2+xinf"}
        assert by_label["wdup+2"].attempts == 2
        assert by_label["wdup+2"].backend == "process"
        assert [(e.key, e.error_kind) for e in events] == [
            ("tiny_sequential/wdup+2", "WorkerCrashError")
        ]

    def test_seeded_plan_replays_byte_identically(self, spec, canonical, arch):
        keys = [
            "tiny_sequential/xinf+0",
            "tiny_sequential/wdup+2",
            "tiny_sequential/wdup+xinf+2",
        ]
        runs = []
        for _ in range(2):
            plan = FaultPlan.seeded(keys, seed=11, kills=1)
            result = chaos_sweep(spec, canonical, arch, plan)
            assert not result.failures
            runs.append(sweep_to_csv([result]))
        assert runs[0] == runs[1]
        assert ",2,process,ok," in runs[0]  # the killed point retried once

    def test_poison_job_is_quarantined_not_fatal(self, spec, canonical, arch):
        plan = FaultPlan({
            ("tiny_sequential/wdup+2", 1): FaultSpec("kill"),
            ("tiny_sequential/wdup+2", 2): FaultSpec("kill"),
        })
        result = chaos_sweep(spec, canonical, arch, plan)
        assert {p.label for p in result.points} == {"xinf", "wdup+2+xinf"}
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.label == "wdup+2"
        assert failure.error.kind == "WorkerCrashError"
        assert "quarantined" in failure.error.message
        assert failure.attempts == 2
        assert not result.ok

    def test_watchdog_kills_hung_worker_and_retry_stays_pooled(
        self, spec, canonical, arch
    ):
        # The hang never returns on its own within the test budget: the
        # only way this finishes fast is the watchdog SIGKILL plus pool
        # resurrection, with the retry resubmitted to the process pool.
        plan = FaultPlan(
            {("tiny_sequential/xinf+0", 1): FaultSpec("hang", seconds=120.0)}
        )
        start = time.monotonic()
        result = chaos_sweep(spec, canonical, arch, plan, timeout=1.0)
        assert time.monotonic() - start < 60.0
        assert not result.failures
        by_label = {p.label: p for p in result.points}
        assert by_label["xinf"].attempts == 2
        assert by_label["xinf"].backend == "process"

    def test_timeout_respawn_keeps_store_warmth(
        self, spec, canonical, arch, tmp_path
    ):
        from repro.store.disk import ArtifactStore

        store = ArtifactStore(str(tmp_path / "store"))
        # Warm run primes the persistent store...
        warm = chaos_sweep(spec, canonical, arch, None, store=store, cache=True)
        assert not warm.failures
        assert store.stats().entries > 0
        # ...so after a watchdog kill the respawned workers reopen it
        # disk-warm and the whole grid is served from the store.
        plan = FaultPlan(
            {("tiny_sequential/wdup+2", 1): FaultSpec("hang", seconds=120.0)}
        )
        result = chaos_sweep(
            spec, canonical, arch, plan, store=store, cache=True, timeout=1.0
        )
        assert not result.failures
        by_label = {p.label: p for p in result.points}
        assert by_label["wdup+2"].attempts == 2
        assert sum(p.cache_store_hits for p in result.points) > 0

    def test_close_reaps_pool_workers(self, canonical, arch):
        from repro.exec import JobRuntime

        # A string spec makes the runtime own (and therefore reap) the pool.
        runtime = JobRuntime("process", jobs=2, use_cache=False, arch=arch)
        batch = [
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key=key)
            for key in ("a", "b")
        ]
        results = list(
            runtime.map_jobs(batch, graphs={"tiny_sequential": canonical})
        )
        assert all(r.ok for r in results)
        pids = list(runtime.executor.worker_pids())
        assert pids  # the pool stays warm between batches
        runtime.close()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            alive = []
            for pid in pids:
                try:
                    os.kill(pid, 0)
                except ProcessLookupError:
                    continue
                alive.append(pid)
            if not alive:
                break
            time.sleep(0.05)
        assert not alive, f"workers survived close(): {alive}"
