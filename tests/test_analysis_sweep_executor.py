"""Tests for the staged/cached/parallel sweep engine behind Session."""

import contextlib
import warnings

import pytest

from repro import Session
from repro.analysis.sweep import SweepTask, grid_job, grid_tasks
from repro.arch import CrossbarSpec, paper_case_study
from repro.core import SetGranularity
from repro.exec import ProcessExecutor, SweepJob, execute_job
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import BenchmarkSpec, tiny_dual_head, tiny_sequential

#: Coarse granularity keeps these sweeps fast.
COARSE = {"granularity": SetGranularity(rows_per_set=4)}


def small_spec(name="tiny_sequential", build=tiny_sequential):
    canonical = preprocess(build(), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    graph = canonical
    spec = BenchmarkSpec(
        name, canonical.shape_of(canonical.input_names()[0]).hwc,
        base_layers=len(canonical.base_layers()), min_pes=min_pes,
    )
    return spec, graph


def sweep_one(spec, graph, xs, cache=True, **kwargs):
    """One benchmark's grid through ``Session.sweep``."""
    session = Session(paper_case_study(1), cache=cache)
    (result,) = session.sweep(
        [spec], xs=xs, graphs={spec.name: graph}, options_overrides=COARSE, **kwargs
    )
    return result


@contextlib.contextmanager
def process_session(workers=2):
    """A session over a two-worker process pool, reaped on exit."""
    backend = ProcessExecutor(workers)
    session = Session(paper_case_study(1), executor=backend)
    try:
        yield session, backend
    finally:
        session.close()
        backend.kill_workers()


def numbers(result):
    return [
        (p.config, p.extra_pes, p.speedup, p.utilization) for p in result.points
    ]


class TestGrid:
    def test_grid_tasks_order_and_shape(self):
        spec, _ = small_spec()
        tasks = grid_tasks(spec, xs=(4, 8))
        assert [t.config for t in tasks] == [
            "layer-by-layer", "xinf", "wdup", "wdup+xinf", "wdup", "wdup+xinf",
        ]
        assert tasks[0].is_baseline
        assert [t.extra_pes for t in tasks] == [0, 0, 4, 4, 8, 8]

    def test_evaluate_task_matches_direct_compile(self):
        spec, _ = small_spec()
        task = SweepTask(spec.name, "xinf", "none", "clsa-cim", 0, spec.min_pes)
        metrics = execute_job(grid_job(task, COARSE)).unwrap().metrics
        assert metrics.config_name == "xinf"
        assert metrics.latency_cycles > 0


class TestExecutor:
    def test_serial_cached_equals_uncached(self):
        spec, graph = small_spec()
        cached = sweep_one(spec, graph, (2, 4), cache=True)
        uncached = sweep_one(spec, graph, (2, 4), cache=False)
        assert numbers(cached) == numbers(uncached)
        assert cached.baseline.latency_cycles == uncached.baseline.latency_cycles

    def test_parallel_equals_serial(self):
        """Process-pool execution is deterministic and order-stable."""
        spec, graph = small_spec()
        serial = sweep_one(spec, graph, (2, 4), jobs=1)
        parallel = sweep_one(spec, graph, (2, 4), jobs=2)
        assert numbers(serial) == numbers(parallel)

    def test_streaming_yields_baseline_first(self):
        spec, graph = small_spec()
        job = SweepJob(
            (spec,), xs=(2,), graphs={spec.name: graph}, options_overrides=COARSE
        )
        labels = [
            result.unwrap().config
            for result in Session(paper_case_study(1)).map(job, ordered=False)
        ]
        assert labels[0] == "layer-by-layer"
        assert set(labels[1:]) == {"xinf", "wdup", "wdup+xinf"}

    def test_run_many_multi_benchmark(self):
        spec_a, graph_a = small_spec()
        spec_b, graph_b = small_spec("tiny_dual_head", tiny_dual_head)
        results = Session(paper_case_study(1)).sweep(
            [spec_a, spec_b], xs=(2,), options_overrides=COARSE,
            graphs={spec_a.name: graph_a, spec_b.name: graph_b},
        )
        assert [r.benchmark for r in results] == [spec_a.name, spec_b.name]
        for result in results:
            assert [p.config for p in result.points] == ["xinf", "wdup", "wdup+xinf"]

    def test_executor_cache_persists_across_runs(self):
        spec, graph = small_spec()
        session = Session(paper_case_study(1))
        kwargs = dict(xs=(2,), graphs={spec.name: graph}, options_overrides=COARSE)
        session.sweep([spec], **kwargs)
        misses_after_first = session.cache.misses
        session.sweep([spec], **kwargs)
        assert session.cache.misses == misses_after_first  # second run: all hits

    def test_duplicate_specs_evaluated_once(self):
        spec, graph = small_spec()
        session = Session(paper_case_study(1))
        kwargs = dict(xs=(2,), graphs={spec.name: graph}, options_overrides=COARSE)
        single = session.sweep([spec], **kwargs)
        doubled = session.sweep([spec, spec], **kwargs)
        assert len(doubled) == 2
        for result in doubled:
            assert numbers(result) == numbers(single[0])  # no doubled points

    def test_pool_failure_at_submit_falls_back_to_serial(self, monkeypatch):
        """Workers spawn lazily; submit-time failures must also fall back."""
        spec, graph = small_spec()

        class SubmitBrokenPool:
            def __init__(self, *args, **kwargs):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                raise OSError("clone blocked by sandbox")

            def shutdown(self, wait=True, cancel_futures=False):
                pass

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", SubmitBrokenPool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sweep_one(spec, graph, (2,), jobs=4)
        assert any("degrading to thread workers" in str(w.message) for w in caught)
        serial = sweep_one(spec, graph, (2,), jobs=1)
        assert numbers(result) == numbers(serial)

    def test_pool_failure_falls_back_to_serial(self, monkeypatch):
        spec, graph = small_spec()

        def broken_pool(*args, **kwargs):
            raise OSError("no process pool in this sandbox")

        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", broken_pool)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = sweep_one(spec, graph, (2,), jobs=4)
        assert any("degrading to thread workers" in str(w.message) for w in caught)
        serial = sweep_one(spec, graph, (2,), jobs=1)
        assert numbers(result) == numbers(serial)

    def test_invalid_jobs_rejected(self):
        spec, graph = small_spec()
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            sweep_one(spec, graph, (2,), jobs=0)

    def test_wrong_min_pes_detected(self):
        spec, graph = small_spec()
        bad = BenchmarkSpec(spec.name, spec.input_shape,
                            base_layers=spec.base_layers, min_pes=spec.min_pes + 1)
        with pytest.raises(AssertionError, match="differs from"):
            sweep_one(bad, graph, (2,))


class TestStreamingEarlyExit:
    def test_abandoning_parallel_stream_returns_promptly(self):
        """Closing the generator mid-stream must not block on the grid."""
        spec, graph = small_spec()
        job = SweepJob(
            (spec,), xs=(2, 4), graphs={spec.name: graph}, options_overrides=COARSE
        )
        with process_session() as (session, _):
            stream = session.map(job, ordered=False)
            first = next(stream)
            assert first.unwrap().config == "layer-by-layer"
            stream.close()  # would hang without cancel_futures on shutdown


class TestEnergyInSweepResults:
    """Sweep and explore paths score the same objectives (energy)."""

    def test_every_point_carries_energy(self):
        spec, graph = small_spec()
        result = sweep_one(spec, graph, (2, 4))
        assert result.baseline_energy_uj is not None
        assert result.baseline_energy_uj > 0
        for point in result.points:
            assert point.energy_uj is not None and point.energy_uj > 0

    def test_best_energy_accessor(self):
        spec, graph = small_spec()
        result = sweep_one(spec, graph, (2, 4))
        best = result.best_energy()
        assert best.energy_uj == min(p.energy_uj for p in result.points)

    def test_best_energy_without_estimates_raises(self):
        spec, graph = small_spec()
        result = sweep_one(spec, graph, (2,))
        from dataclasses import replace as dc_replace

        result.points = [dc_replace(p, energy_uj=None) for p in result.points]
        with pytest.raises(ValueError, match="no energy"):
            result.best_energy()

    def test_parallel_energy_matches_serial(self):
        spec, graph = small_spec()
        serial = sweep_one(spec, graph, (2, 4), jobs=1)
        parallel = sweep_one(spec, graph, (2, 4), jobs=2)
        assert [p.energy_uj for p in serial.points] == [
            p.energy_uj for p in parallel.points
        ]


class TestTaskStreams:
    """EvalTask streams through Session.map: the job layer beyond the grid."""

    def tasks(self, graph, n=4):
        from repro.analysis.sweep import EvalTask
        from repro.core import ScheduleOptions

        min_pes = minimum_pe_requirement(graph, CrossbarSpec())
        tasks = []
        for i in range(n):
            tasks.append(EvalTask(
                key=f"t{i}",
                arch=paper_case_study(min_pes + 2 * (i + 1)),
                options=ScheduleOptions(
                    mapping="wdup" if i % 2 else "none",
                    scheduling="clsa-cim",
                    granularity=SetGranularity(rows_per_set=4),
                ),
            ))
        return tasks

    @staticmethod
    def run_tasks(session, graph, tasks):
        """Evaluations keyed by task key (completion order ignored)."""
        return {
            result.key: result.unwrap()
            for result in session.map(
                [task.to_job(graph) for task in tasks], ordered=False
            )
        }

    def test_serial_stream(self):
        spec, graph = small_spec()
        results = self.run_tasks(Session(paper_case_study(1)), graph, self.tasks(graph))
        assert set(results) == {"t0", "t1", "t2", "t3"}
        for evaluation in results.values():
            assert evaluation.metrics.latency_cycles > 0
            assert evaluation.energy_uj > 0

    def test_parallel_stream_matches_serial(self):
        spec, graph = small_spec()
        tasks = self.tasks(graph)
        serial = self.run_tasks(Session(paper_case_study(1)), graph, tasks)
        with process_session() as (session, _):
            parallel = self.run_tasks(session, graph, tasks)
        for key in serial:
            assert serial[key].metrics.latency_cycles == \
                parallel[key].metrics.latency_cycles
            assert serial[key].energy_uj == parallel[key].energy_uj

    def test_stream_pool_persists_across_batches(self):
        """Batch N+1 reuses batch N's worker pool (and with it the
        per-process compilation caches)."""
        spec, graph = small_spec()
        tasks = self.tasks(graph)
        with process_session() as (session, backend):
            self.run_tasks(session, graph, tasks[:2])
            first_pool = backend.pool
            self.run_tasks(session, graph, tasks[2:])
            assert backend.pool is first_pool
            if first_pool is not None:  # pools may be unavailable in CI
                backend.reset()
                assert backend.pool is None

    def test_duplicate_keys_rejected(self):
        spec, graph = small_spec()
        tasks = self.tasks(graph)
        dupes = tasks + [tasks[0]]
        with pytest.raises(ValueError, match="unique"):
            self.run_tasks(Session(paper_case_study(1)), graph, dupes)

    def test_want_energy_false_skips_estimate(self):
        from dataclasses import replace as dc_replace

        spec, graph = small_spec()
        task = dc_replace(self.tasks(graph, n=1)[0], want_energy=False)
        (result,) = self.run_tasks(Session(paper_case_study(1)), graph, [task]).values()
        assert result.energy is None
        assert result.energy_uj is None
        assert result.metrics.latency_cycles > 0

    def test_stream_shares_executor_cache(self):
        spec, graph = small_spec()
        from repro.core.cache import CompilationCache

        cache = CompilationCache()
        self.run_tasks(Session(paper_case_study(1), cache=cache), graph, self.tasks(graph))
        # tiling runs once; later tasks hit the shared cache
        assert cache.stats["tile"].hits >= 2
