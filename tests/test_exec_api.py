"""Tests for the unified execution API (repro.exec + Session.submit/map).

Covers the executor backends, the typed job/result surface, the
acceptance criterion that every backend produces byte-identical sweep
rows, the ``Explorer`` entry points (direct, ``Session.explore`` and
``ExploreJob``), and the hook-dispatch exception guard.
"""

import dataclasses
import json
import warnings

import pytest

from repro import (
    CompileJob,
    EvaluateJob,
    ScheduleOptions,
    Session,
    SessionHooks,
    SweepJob,
    paper_case_study,
)
from repro.core import SetGranularity
from repro.exec import (
    Evaluation,
    ExploreJob,
    InlineExecutor,
    JobFailedError,
    JobFuture,
    JobResult,
    ThreadExecutor,
    executor_names,
    make_executor,
    register_executor,
    unregister_executor,
)
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import BenchmarkSpec, tiny_sequential

#: Coarse granularity keeps these sweeps fast.
COARSE = {"granularity": SetGranularity(rows_per_set=4)}
COARSE_OPTIONS = ScheduleOptions(granularity=SetGranularity(rows_per_set=4))


@pytest.fixture(scope="module")
def canonical():
    return preprocess(tiny_sequential(), quantization=None).graph


@pytest.fixture(scope="module")
def arch(canonical):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return paper_case_study(min_pes + 4)


def small_spec(canonical):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return BenchmarkSpec(
        "tiny_sequential",
        canonical.shape_of(canonical.input_names()[0]).hwc,
        base_layers=len(canonical.base_layers()),
        min_pes=min_pes,
    )


class TestExecutorRegistry:
    def test_builtins_registered(self):
        names = executor_names()
        for name in ("inline", "thread", "process"):
            assert name in names

    def test_unknown_name_rejected(self):
        with pytest.raises(KeyError, match="unknown executor"):
            make_executor("warp-drive")

    def test_remote_registered(self):
        assert "remote" in executor_names()

    def test_unknown_name_lists_registered_backends(self):
        with pytest.raises(KeyError, match="unknown executor") as excinfo:
            make_executor("warp-drive")
        message = str(excinfo.value)
        for name in ("inline", "thread", "process", "remote"):
            assert name in message
        assert "register_executor" in message

    def test_instances_pass_through(self):
        backend = InlineExecutor()
        assert make_executor(backend) is backend

    def test_none_resolves_from_jobs(self):
        assert make_executor(None, jobs=1).name == "inline"
        assert make_executor(None, jobs=4).name == "process"
        assert make_executor(None, jobs=None).name == "process"

    def test_plugin_backend_usable_by_name(self, canonical, arch):
        register_executor("test-plugin", lambda jobs: InlineExecutor())
        try:
            session = Session(arch, executor="test-plugin")
            result = session.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)
            ).result()
            assert result.ok and result.value.metrics.latency_cycles > 0
        finally:
            unregister_executor("test-plugin")

    def test_builtin_names_protected(self):
        with pytest.raises(ValueError, match="builtin"):
            unregister_executor("process")

    def test_thread_executor_reset_drops_pool(self):
        backend = ThreadExecutor(2)
        backend.submit(lambda: 1).result()
        assert backend._pool is not None
        backend.reset()
        assert backend._pool is None
        # lazily rebuilt on the next submission
        assert backend.submit(lambda: 2).raw.result() == 2
        backend.shutdown()

    def test_thread_executor_shutdown_is_final(self):
        backend = ThreadExecutor(1)
        assert backend.submit(lambda: 1).raw.result() == 1
        backend.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            backend.submit(lambda: 2)
        assert backend._pool is None


class TestSubmit:
    def test_compile_job_matches_session_compile(self, canonical, arch):
        session = Session(arch)
        future = session.submit(
            CompileJob(canonical, COARSE_OPTIONS, assume_canonical=True)
        )
        assert isinstance(future, JobFuture)
        assert future.done()  # inline backend resolves eagerly
        result = future.result()
        assert result.ok
        hits_before = session.cache.hits
        reference = session.compile(canonical, COARSE_OPTIONS, assume_canonical=True)
        assert result.value.schedule.tasks == reference.schedule.tasks
        assert result.timings  # pass timings travel on the envelope
        assert session.cache.hits > hits_before  # second compile hit the session cache

    def test_evaluate_job_scores_metrics_and_energy(self, canonical, arch):
        session = Session(arch)
        result = session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)
        ).result()
        assert isinstance(result.value, Evaluation)
        assert result.value.metrics.latency_cycles > 0
        assert result.value.energy_uj > 0

    def test_want_energy_false_skips_estimate(self, canonical, arch):
        session = Session(arch)
        result = session.submit(
            EvaluateJob(
                canonical, COARSE_OPTIONS, assume_canonical=True, want_energy=False
            )
        ).result()
        assert result.value.energy is None
        assert result.value.energy_uj is None

    def test_zoo_names_resolve(self, arch):
        session = Session(arch)
        result = session.submit(CompileJob("tiny_sequential", COARSE_OPTIONS)).result()
        assert result.ok
        assert result.value.schedule.makespan > 0

    def test_errors_are_captured_on_the_envelope(self, canonical, arch):
        session = Session(arch)
        result = session.submit(CompileJob("no-such-model", COARSE_OPTIONS)).result()
        assert not result.ok
        assert result.error is not None
        assert result.value is None
        with pytest.raises(JobFailedError, match="no-such-model"):
            result.unwrap()

    def test_composite_job_failure_captured_on_envelope(self):
        session = Session(paper_case_study(1))
        result = session.submit(SweepJob(("no-such-benchmark",))).result()
        assert not result.ok
        assert result.error is not None and result.error.kind == "KeyError"
        with pytest.raises(JobFailedError):
            result.unwrap()

    def test_composite_failure_in_map_ends_stream_with_error(self):
        session = Session(paper_case_study(1))
        results = list(session.map(SweepJob(("no-such-benchmark",))))
        assert results and not results[-1].ok

    def test_sweep_job_resolves_to_assembled_results(self, canonical):
        spec = small_spec(canonical)
        session = Session(paper_case_study(1))
        future = session.submit(
            SweepJob(
                (spec,), xs=(2,), options_overrides=COARSE,
                graphs={spec.name: canonical},
            )
        )
        (swept,) = future.result().unwrap()
        assert swept.benchmark == spec.name
        assert [p.config for p in swept.points] == ["xinf", "wdup", "wdup+xinf"]


class TestMap:
    def jobs(self, canonical, n=4):
        min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        return [
            EvaluateJob(
                canonical,
                ScheduleOptions(
                    mapping="wdup" if i % 2 else "none",
                    scheduling="clsa-cim",
                    granularity=SetGranularity(rows_per_set=4),
                ),
                arch=paper_case_study(min_pes + 2 * (i + 1)),
                assume_canonical=True,
                key=f"t{i}",
            )
            for i in range(n)
        ]

    def test_ordered_stream_preserves_submission_order(self, canonical, arch):
        session = Session(arch)
        results = list(session.map(self.jobs(canonical), ordered=True))
        assert [r.key for r in results] == ["t0", "t1", "t2", "t3"]
        assert all(r.ok for r in results)

    def test_thread_backend_matches_inline(self, canonical, arch):
        jobs = self.jobs(canonical)
        inline = {r.key: r for r in Session(arch).map(jobs)}
        with Session(arch, executor=ThreadExecutor(2)) as threaded_session:
            threaded = {r.key: r for r in threaded_session.map(jobs, ordered=False)}
        assert set(threaded) == set(inline)
        for key in inline:
            assert threaded[key].value.metrics == inline[key].value.metrics
            assert threaded[key].value.energy_uj == inline[key].value.energy_uj

    def test_embedded_graphs_ship_once_to_process_workers(self, canonical):
        """Distinct in-memory graphs are named by identity and travel
        through the pool-initializer payload, not per-job pickles."""
        from repro.exec.runtime import JobRuntime

        runtime = JobRuntime("process", jobs=2)
        try:
            prepared = runtime._prepare(self.jobs(canonical), None)
            shipped, graphs = runtime._ship_embedded(prepared, None)
            assert {name for _key, name, _job in shipped} == {"__graph0__"}
            assert graphs["__graph0__"] is canonical
            assert all(job.graph == "__graph0__" for _k, _n, job in shipped)
            # repeated batches reproduce the payload → the pool is reused
            again, graphs_again = runtime._ship_embedded(prepared, None)
            assert graphs_again == graphs
        finally:
            runtime.shutdown()

    def test_process_backend_matches_inline_on_embedded_graphs(self, canonical, arch):
        jobs = self.jobs(canonical)
        inline = {r.key: r for r in Session(arch).map(jobs)}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sandbox fallback ok
            with Session(arch, executor="process") as session:
                pooled = {r.key: r for r in session.map(jobs, ordered=False)}
        assert set(pooled) == set(inline)
        for key in inline:
            assert pooled[key].value.metrics == inline[key].value.metrics
            assert pooled[key].value.energy_uj == inline[key].value.energy_uj

    def test_duplicate_explicit_keys_rejected(self, canonical, arch):
        session = Session(arch)
        dupes = [
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key="same"),
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True, key="same"),
        ]
        with pytest.raises(ValueError, match="unique"):
            list(session.map(dupes))

    def test_submit_futures_survive_pool_repreparation(self, canonical):
        """A sweep re-preparing the process pool with new graphs must not
        cancel futures from earlier submits (the old pool retires and
        drains instead)."""
        spec = small_spec(canonical)
        min_pes = spec.min_pes
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # sandbox fallback ok
            with Session(paper_case_study(1), executor="process") as session:
                futures_out = [
                    session.submit(
                        EvaluateJob(
                            canonical, COARSE_OPTIONS,
                            arch=paper_case_study(min_pes + 2 + i),
                            assume_canonical=True, key=f"pending{i}",
                        )
                    )
                    for i in range(6)
                ]
                session.sweep(
                    [spec], xs=(2,), jobs=2, graphs={spec.name: canonical},
                    options_overrides=COARSE,
                )
                results = [future.result(timeout=120) for future in futures_out]
        assert all(r.ok for r in results)
        assert {r.key for r in results} == {f"pending{i}" for i in range(6)}

    def test_single_job_accepted(self, canonical, arch):
        session = Session(arch)
        (result,) = list(
            session.map(EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True))
        )
        assert result.ok

    def test_map_sweep_job_streams_config_points(self, canonical):
        spec = small_spec(canonical)
        session = Session(paper_case_study(1))
        results = list(
            session.map(
                SweepJob(
                    (spec,), xs=(2,), options_overrides=COARSE,
                    graphs={spec.name: canonical},
                )
            )
        )
        assert all(isinstance(r, JobResult) for r in results)
        points = [r.value for r in results]
        assert points[0].config == "layer-by-layer"  # baseline streams first
        assert {p.config for p in points[1:]} == {"xinf", "wdup", "wdup+xinf"}


class TestJobHooks:
    def test_on_job_submit_and_done_fire(self, canonical, arch):
        events = []
        hooks = SessionHooks(
            on_job_submit=lambda job: events.append(("submit", job.kind)),
            on_job_done=lambda result: events.append(("done", result.ok)),
        )
        session = Session(arch, hooks=hooks)
        session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)
        ).result()
        assert ("submit", "evaluate") in events
        assert ("done", True) in events

    def test_job_hooks_do_not_force_serial(self, canonical):
        """Job-level hooks run driver-side, so the process backend may
        still parallelize (no RuntimeWarning, identical numbers)."""
        spec = small_spec(canonical)
        hooks = SessionHooks(on_job_done=lambda result: None)
        session = Session(paper_case_study(1), hooks=hooks)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = session.sweep(
                [spec], xs=(2,), jobs=2, graphs={spec.name: canonical},
                options_overrides=COARSE,
            )
        assert not [
            w for w in caught
            if "cannot cross the process boundary" in str(w.message)
        ]
        assert len(results[0].points) == 3


class TestPointwiseIdentity:
    """Acceptance: every backend produces byte-identical sweep rows.

    Rows are canonicalized through ``dataclasses.asdict`` + JSON
    (``repr``-exact floats) rather than raw pickle: pickle output
    depends on object *identity* (string memoization), which crossing
    a process boundary legitimately changes while every value stays
    bit-identical.
    """

    @staticmethod
    def rows(points):
        ordered = sorted(points, key=lambda p: (p.benchmark, p.config, p.extra_pes))
        payload = [dataclasses.asdict(p) for p in ordered]
        for row in payload:
            # Cache and execution provenance (memory vs. store vs.
            # recompute, attempts, backend) is backend-dependent by
            # design; identity is over the values.
            for field in (
                "cache_memory_hits",
                "cache_store_hits",
                "cache_misses",
                "attempts",
                "backend",
            ):
                row.pop(field, None)
        return json.dumps(payload, sort_keys=True, default=float).encode()

    def test_all_executors_match_legacy_sweep_run(self, canonical):
        """Every backend's streamed rows equal the assembled inline sweep."""
        spec = small_spec(canonical)
        (reference,) = Session(paper_case_study(1)).sweep(
            [spec], xs=(2, 4), options_overrides=COARSE,
            graphs={spec.name: canonical},
        )
        expected = self.rows([*reference.points, self._baseline_row(reference)])
        job = SweepJob(
            (spec,), xs=(2, 4), options_overrides=COARSE,
            graphs={spec.name: canonical},
        )
        for backend in ("inline", "thread", "process"):
            with Session(paper_case_study(1), executor=backend) as session:
                with warnings.catch_warnings():
                    # restricted sandboxes: the process backend may
                    # legitimately fall back to serial — identical rows
                    warnings.simplefilter("ignore", RuntimeWarning)
                    points = [result.unwrap() for result in session.map(job)]
            assert self.rows(points) == expected, f"{backend} rows diverged"

    @staticmethod
    def _baseline_row(result):
        from repro.analysis.sweep import ConfigPoint

        return ConfigPoint(
            benchmark=result.benchmark,
            config="layer-by-layer",
            extra_pes=0,
            metrics=result.baseline,
            speedup=1.0,
            utilization=result.baseline.utilization,
            energy_uj=result.baseline_energy_uj,
        )

    def test_session_sweep_matches_legacy_numbers(self, canonical):
        """``Session.sweep`` equals a submitted ``SweepJob`` row for row."""
        spec = small_spec(canonical)
        session = Session(paper_case_study(1))
        via_session = session.sweep(
            [spec], xs=(2,), options_overrides=COARSE,
            graphs={spec.name: canonical},
        )
        (via_job,) = Session(paper_case_study(1)).submit(
            SweepJob(
                (spec,), xs=(2,), options_overrides=COARSE,
                graphs={spec.name: canonical},
            )
        ).result().unwrap()
        assert self.rows(via_session[0].points) == self.rows(via_job.points)


class TestDeprecationShims:
    """The exploration engine's entry points agree with each other."""

    def test_explorer_shim_matches_session_explore(self, canonical):
        from repro.explore.engine import Explorer

        direct = Explorer(canonical, budget=4, seed=5).run()
        via_session = Session(paper_case_study(1)).explore(
            canonical, budget=4, seed=5
        )
        assert [r.fingerprint for r in direct.results] == [
            r.fingerprint for r in via_session.results
        ]
        assert direct.frontier.summary() == via_session.frontier.summary()

    def test_session_explore_shares_session_backend(self, canonical, arch):
        """explore() reuses the session's resolved executor instance and
        leaves it running (externally owned) for later submits."""
        with Session(paper_case_study(1), executor="thread") as session:
            backend = session.executor
            explored = session.explore(canonical, budget=4, seed=1)
            assert explored.counters.processed >= 1
            assert session.executor is backend
            follow_up = session.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, arch=arch, assume_canonical=True)
            ).result()
            assert follow_up.ok

    def test_explore_job_matches_session_explore(self, canonical):
        first = Session(paper_case_study(1)).explore(canonical, budget=4, seed=7)
        result = Session(paper_case_study(1)).submit(
            ExploreJob(canonical, budget=4, seed=7)
        ).result()
        assert result.ok
        assert [r.fingerprint for r in result.value.results] == [
            r.fingerprint for r in first.results
        ]


class TestHookExceptionGuard:
    """Satellite: a raising hook is a diagnostic, never an abort."""

    def test_pass_hook_exception_recorded_not_raised(self, canonical, arch):
        def explode(name, ctx):
            raise RuntimeError("telemetry fell over")

        session = Session(arch, hooks=SessionHooks(on_pass_start=explode))
        compiled = session.compile(canonical, COARSE_OPTIONS, assume_canonical=True)
        assert compiled.schedule.makespan > 0
        assert any(
            "on_pass_start raised RuntimeError" in note
            for note in compiled.diagnostics
        )

    def test_compile_hooks_exception_recorded_not_raised(self, canonical, arch):
        hooks = SessionHooks(
            on_compile_start=lambda ctx: (_ for _ in ()).throw(ValueError("start")),
            on_compile_end=lambda compiled: (_ for _ in ()).throw(ValueError("end")),
        )
        session = Session(arch, hooks=hooks)
        compiled = session.compile(canonical, COARSE_OPTIONS, assume_canonical=True)
        assert compiled.schedule.makespan > 0
        notes = "\n".join(compiled.diagnostics)
        assert "on_compile_start raised ValueError" in notes
        assert "on_compile_end raised ValueError" in notes

    def test_healthy_hooks_unaffected_by_guard(self, canonical, arch):
        events = []
        hooks = SessionHooks(
            on_pass_end=lambda name, ctx, seconds: events.append(name)
        )
        Session(arch, hooks=hooks).compile(
            canonical, COARSE_OPTIONS, assume_canonical=True
        )
        assert "schedule" in events

    def test_job_hook_exception_swallowed(self, canonical, arch):
        def explode(job):
            raise RuntimeError("boom")

        session = Session(arch, hooks=SessionHooks(on_job_submit=explode))
        with pytest.warns(RuntimeWarning, match="on_job_submit"):
            result = session.submit(
                EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)
            ).result()
        assert result.ok

    def test_job_done_hook_exception_warns(self, canonical, arch):
        def explode(result):
            raise RuntimeError("boom")

        session = Session(arch, hooks=SessionHooks(on_job_done=explode))
        with pytest.warns(RuntimeWarning, match="on_job_done raised RuntimeError"):
            results = list(
                session.map([EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)])
            )
        assert [result.ok for result in results] == [True]


class TestSessionExecutorKnob:
    def test_default_executor_is_inline(self, arch):
        assert Session(arch).executor.name == "inline"

    def test_named_backend_resolves(self, arch):
        with Session(arch, executor="thread") as session:
            assert session.executor.name == "thread"

    def test_repr_names_executor(self, arch):
        assert "executor=inline" in repr(Session(arch))

    def test_close_is_idempotent(self, arch):
        session = Session(arch, executor="thread")
        session.submit(CompileJob("tiny_sequential", COARSE_OPTIONS)).result()
        session.close()
        session.close()

    def test_build_raises_on_missing_arch(self, canonical):
        from repro.exec import execute_job

        with pytest.raises(ValueError, match="architecture"):
            execute_job(
                EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True),
                capture=False,
            )


class TestDoneCallbacks:
    """JobFuture.add_done_callback fires exactly once on every outcome."""

    def test_fires_once_on_completion(self):
        calls = []
        future = JobFuture.completed(JobResult(key="k"))
        future.add_done_callback(calls.append)
        assert calls == [future]

    def test_fires_once_on_failure(self):
        calls = []
        future = JobFuture.failed(RuntimeError("boom"))
        future.add_done_callback(calls.append)
        assert calls == [future]

    def test_fires_once_on_cancellation(self):
        from concurrent import futures as cf

        calls = []
        raw: "cf.Future" = cf.Future()
        future = JobFuture(raw)
        future.add_done_callback(calls.append)
        assert future.cancel()
        assert calls == [future]

    def test_late_added_callback_fires_immediately(self):
        future = JobFuture.completed(JobResult(key="k"))
        future.result()  # settled long before registration
        calls = []
        future.add_done_callback(calls.append)
        future.add_done_callback(calls.append)
        assert calls == [future, future]

    def test_pending_future_defers_callback_until_result(self):
        from concurrent import futures as cf

        calls = []
        raw: "cf.Future" = cf.Future()
        future = JobFuture(raw)
        future.add_done_callback(calls.append)
        assert calls == []
        raw.set_result(JobResult(key="k"))
        assert calls == [future]

    def test_raising_callback_warns_instead_of_propagating(self):
        def explode(fut):
            raise ValueError("callback boom")

        future = JobFuture.completed(JobResult(key="k"))
        with pytest.warns(RuntimeWarning, match="callback boom"):
            future.add_done_callback(explode)

    def test_raising_callback_does_not_block_others(self):
        from concurrent import futures as cf

        calls = []
        raw: "cf.Future" = cf.Future()
        future = JobFuture(raw)
        future.add_done_callback(
            lambda fut: (_ for _ in ()).throw(ValueError("boom"))
        )
        future.add_done_callback(calls.append)
        with pytest.warns(RuntimeWarning, match="boom"):
            raw.set_result(JobResult(key="k"))
        assert calls == [future]


class TestSessionCloseDrain:
    """Session.close drains in-flight submissions before releasing pools."""

    def test_close_waits_for_inflight_jobs(self, canonical, arch):
        session = Session(arch, executor=ThreadExecutor(2))
        futures = [
            session.submit(
                EvaluateJob(
                    canonical, COARSE_OPTIONS, assume_canonical=True, key=f"d{i}"
                )
            )
            for i in range(3)
        ]
        session.close()
        assert all(f.done() for f in futures)
        assert all(f.result(timeout=0).ok for f in futures)

    def test_close_with_zero_grace_cancels_pending(self, arch):
        class Blocker:
            name = "blocker"
            crosses_process = False
            parallel = True

            def submit(self, fn, /, *args):
                from concurrent import futures as cf

                raw: "cf.Future" = cf.Future()
                return JobFuture(raw)  # never resolves until cancelled

            def map(self, fn, argslist, *, ordered=True):
                raise NotImplementedError

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        session = Session(arch, executor=Blocker())
        future = session.submit(CompileJob("tiny_sequential", COARSE_OPTIONS))
        session.close(grace=0)
        assert future.cancelled()

    def test_submit_after_close_raises_and_starts_no_pool(self, arch):
        session = Session(arch, executor="thread")
        session.submit(CompileJob("tiny_sequential", COARSE_OPTIONS)).result()
        session.close()
        with pytest.raises(RuntimeError, match="shut down"):
            session.submit(CompileJob("tiny_sequential", COARSE_OPTIONS))
        assert session.executor._pool is None
        # A batch degrades to inline execution, as on any failed pool.
        jobs = [CompileJob("tiny_sequential", COARSE_OPTIONS, key=k) for k in "ab"]
        with pytest.warns(RuntimeWarning, match="shut down"):
            results = list(session.map(jobs))
        assert [r.backend for r in results] == ["inline", "inline"]
        assert session.executor._pool is None
        session.close()

    def test_close_twice_after_drain_is_noop(self, canonical, arch):
        session = Session(arch, executor="thread")
        session.submit(
            EvaluateJob(canonical, COARSE_OPTIONS, assume_canonical=True)
        ).result()
        session.close()
        session.close()
        assert session._runtime is None
