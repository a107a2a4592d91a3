"""Tests for the public Session API (repro.session)."""

import pytest

from repro import (
    CompilationCache,
    ScheduleOptions,
    Session,
    SessionHooks,
    compile_model,
    paper_case_study,
)
from repro.core.passes import register_scheduler, unregister_scheduler
from repro.core.schedule import Schedule, SetTask
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import build

MODELS = ("tiny_sequential", "tiny_csp")
CONFIGS = (
    ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
    ScheduleOptions(mapping="none", scheduling="layer-by-layer"),
)


@pytest.fixture(scope="module")
def canonicals():
    return {
        name: preprocess(build(name), quantization=None).graph for name in MODELS
    }


def _arch_for(canonical, extra=4):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return paper_case_study(min_pes + extra)


class TestSessionCompile:
    def test_compile_defaults_to_paper_best(self, canonicals):
        canonical = canonicals["tiny_sequential"]
        session = Session(_arch_for(canonical))
        compiled = session.compile(canonical, assume_canonical=True)
        assert compiled.options.paper_name == "wdup+xinf"
        assert compiled.schedule.makespan > 0
        assert compiled.timings  # pass timings recorded

    def test_compile_accepts_raw_graphs(self):
        raw = build("tiny_sequential")
        canonical = preprocess(raw, quantization=None).graph
        session = Session(_arch_for(canonical))
        compiled = session.compile(raw)  # preprocesses internally
        reference = session.compile(canonical, assume_canonical=True)
        assert compiled.schedule.makespan == reference.schedule.makespan

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("config_index", range(len(CONFIGS)))
    def test_shim_is_pointwise_identical_to_session(
        self, canonicals, model, config_index
    ):
        """Acceptance: compile_model output == Session output, task by task."""
        canonical = canonicals[model]
        options = CONFIGS[config_index]
        arch = _arch_for(canonical)
        via_session = Session(arch, cache=False).compile(
            canonical, options, assume_canonical=True
        )
        via_shim = compile_model(canonical, arch, options, assume_canonical=True)
        assert via_shim.schedule.policy == via_session.schedule.policy
        assert via_shim.schedule.tasks == via_session.schedule.tasks
        assert via_shim.placement.pe_ranges == via_session.placement.pe_ranges
        assert via_shim.sets == via_session.sets
        metrics_session = via_session.evaluate()
        metrics_shim = via_shim.evaluate()
        assert metrics_shim == metrics_session

    def test_session_cache_reused_across_compiles(self, canonicals):
        canonical = canonicals["tiny_sequential"]
        session = Session(_arch_for(canonical))
        assert isinstance(session.cache, CompilationCache)
        first = session.compile(canonical, assume_canonical=True)
        hits_after_first = session.cache.hits
        second = session.compile(canonical, assume_canonical=True)
        assert second.schedule.tasks == first.schedule.tasks
        assert session.cache.hits > hits_after_first

    def test_cache_false_disables_caching(self, canonicals):
        session = Session(_arch_for(canonicals["tiny_sequential"]), cache=False)
        assert session.cache is None
        assert "uncached" in repr(session)

    def test_shared_cache_between_sessions(self, canonicals):
        canonical = canonicals["tiny_sequential"]
        arch = _arch_for(canonical)
        first = Session(arch)
        first.compile(canonical, assume_canonical=True)
        second = Session(arch, cache=first.cache)
        assert second.cache is first.cache
        misses_before = first.cache.misses
        second.compile(canonical, assume_canonical=True)
        assert first.cache.misses == misses_before  # fully served from cache


class TestSessionEvaluate:
    def test_evaluate_graph_and_compiled_agree(self, canonicals):
        canonical = canonicals["tiny_csp"]
        session = Session(_arch_for(canonical))
        compiled = session.compile(canonical, assume_canonical=True)
        from_graph = session.evaluate(canonical, assume_canonical=True)
        from_compiled = session.evaluate(compiled)
        assert from_graph == from_compiled
        assert from_compiled == compiled.evaluate()


class TestSessionHooks:
    def test_pass_hooks_fire_in_order(self, canonicals):
        canonical = canonicals["tiny_sequential"]
        events = []
        hooks = SessionHooks(
            on_pass_start=lambda name, ctx: events.append(("start", name)),
            on_pass_end=lambda name, ctx, seconds: events.append(("end", name)),
            on_compile_start=lambda ctx: events.append(("compile-start", None)),
            on_compile_end=lambda compiled: events.append(("compile-end", None)),
        )
        session = Session(_arch_for(canonical), hooks=hooks)
        session.compile(canonical, assume_canonical=True)
        assert events[0] == ("compile-start", None)
        assert events[-1] == ("compile-end", None)
        started = [name for kind, name in events if kind == "start"]
        ended = [name for kind, name in events if kind == "end"]
        assert started == ended
        assert started[0] == "preprocess" and started[-1] == "schedule"

    def test_multiple_hooks_supported(self, canonicals):
        canonical = canonicals["tiny_sequential"]
        counts = [0, 0]
        hooks = [
            SessionHooks(on_pass_end=lambda n, c, s: counts.__setitem__(0, counts[0] + 1)),
            SessionHooks(on_pass_end=lambda n, c, s: counts.__setitem__(1, counts[1] + 1)),
        ]
        Session(_arch_for(canonical), hooks=hooks).compile(
            canonical, assume_canonical=True
        )
        assert counts[0] == counts[1] > 0


class TestSessionSweep:
    def test_sweep_matches_executor_numbers(self, canonicals):
        from repro.exec import SweepJob
        from repro.models import benchmark_by_name

        spec = benchmark_by_name("tinyyolov3")
        graph = preprocess(spec.build(), quantization=None).graph
        session = Session(paper_case_study(1))
        via_session = session.sweep(
            ["tinyyolov3"], xs=(4,), graphs={"tinyyolov3": graph}
        )
        # A SweepJob through a fresh session's executor stream.
        via_executor = Session(paper_case_study(1)).submit(
            SweepJob((spec,), xs=(4,), graphs={"tinyyolov3": graph})
        ).result().unwrap()

        def numbers(results):
            return [
                (p.benchmark, p.config, p.extra_pes, p.speedup, p.utilization)
                for result in results
                for p in result.points
            ]

        assert numbers(via_session) == numbers(via_executor)
        # The sweep populated the session's own cache.
        assert session.cache.hits > 0

    def test_sweep_accepts_spec_objects(self, canonicals):
        from repro.models import benchmark_by_name

        spec = benchmark_by_name("tinyyolov3")
        graph = preprocess(spec.build(), quantization=None).graph
        session = Session(paper_case_study(1), cache=False)
        results = session.sweep([spec], xs=(4,), graphs={spec.name: graph})
        assert results[0].benchmark == "tinyyolov3"
        assert len(results[0].points) == 3  # xinf + wdup+4 + wdup+xinf+4


class TestSweepHonoursSessionCustomization:
    def test_hooks_observe_sweep_points(self, canonicals):
        from repro.models import benchmark_by_name

        spec = benchmark_by_name("tinyyolov3")
        graph = preprocess(spec.build(), quantization=None).graph
        scheduled = []
        hooks = SessionHooks(
            on_pass_end=lambda name, ctx, s: (
                scheduled.append(name) if name == "schedule" else None
            )
        )
        session = Session(paper_case_study(1), hooks=hooks)
        results = session.sweep(["tinyyolov3"], xs=(4,), graphs={spec.name: graph})
        # baseline + xinf + wdup+4 + wdup+xinf+4 = 4 compiled points
        assert len(scheduled) == 4
        assert len(results[0].points) == 3

    def test_custom_pass_manager_degrades_to_threads_with_warning(self, canonicals):
        from repro.core.passes import default_pass_manager
        from repro.models import benchmark_by_name

        spec = benchmark_by_name("tinyyolov3")
        graph = preprocess(spec.build(), quantization=None).graph

        seen = []

        class Probe:
            name = "probe"

            def run(self, ctx):
                seen.append(ctx.arch.num_pes)

        manager = default_pass_manager()
        manager.insert_after("schedule", Probe())
        session = Session(paper_case_study(1), pass_manager=manager)
        with pytest.warns(RuntimeWarning, match="degrading to thread workers"):
            results = session.sweep(
                ["tinyyolov3"], xs=(4,), jobs=4, graphs={spec.name: graph}
            )
        # The inserted pass ran on every point, parallel or not.
        assert len(seen) == 4
        reference = Session(paper_case_study(1)).sweep(
            ["tinyyolov3"], xs=(4,), graphs={spec.name: graph}
        )
        assert [
            (p.config, p.speedup) for p in results[0].points
        ] == [(p.config, p.speedup) for p in reference[0].points]


class TestCustomSchedulerThroughSession:
    def test_registered_scheduler_compiles_end_to_end(self, canonicals):
        """Acceptance: a custom scheduler plugs in via register_scheduler
        and compiles through the Session without touching core."""
        canonical = canonicals["tiny_sequential"]

        def alphabetical(ctx):
            cursor = 0
            tasks = []
            for layer in sorted(ctx.sets):
                for index, rect in enumerate(ctx.sets[layer]):
                    tasks.append(
                        SetTask(
                            layer=layer,
                            set_index=index,
                            rect=rect,
                            start=cursor,
                            end=cursor + rect.area,
                        )
                    )
                    cursor += rect.area
            return Schedule(policy="alphabetical", tasks=tasks)

        register_scheduler("alphabetical", alphabetical, needs_dependencies=False)
        try:
            session = Session(_arch_for(canonical))
            compiled = session.compile(
                canonical,
                ScheduleOptions(mapping="wdup", scheduling="alphabetical"),
                assume_canonical=True,
            )
        finally:
            unregister_scheduler("alphabetical")
        assert compiled.schedule.policy == "alphabetical"
        assert compiled.schedule.makespan > 0
        assert compiled.evaluate().utilization > 0
