"""Tests for the pass pipeline (repro.core.passes)."""

import pytest

from repro.arch import paper_case_study
from repro.core import FINEST, ScheduleOptions, compile_model
from repro.core import cache as cache_mod
from repro.core import passes as passes_mod
from repro.core.cache import CompilationCache, graph_fingerprint
from repro.core.passes import (
    CompilationContext,
    PassError,
    PassManager,
    default_pass_manager,
    default_passes,
    mapping_names,
    register_mapping,
    register_scheduler,
    resolve_mapping,
    resolve_scheduler,
    scheduler_names,
    unregister_mapping,
    unregister_scheduler,
)
from repro.core.schedule import Schedule, SetTask
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import build


@pytest.fixture(scope="module")
def canonical():
    return preprocess(build("tiny_sequential"), quantization=None).graph


def _arch_with_extra(canonical, extra):
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return paper_case_study(min_pes + extra)


@pytest.fixture(scope="module")
def arch(canonical):
    return _arch_with_extra(canonical, 4)


class TestDefaultPasses:
    def test_standard_order(self):
        names = [p.name for p in default_passes()]
        assert names == [
            "preprocess", "tile", "mapping", "place", "sets", "deps", "schedule",
        ]

    def test_compile_records_timings(self, canonical, arch):
        compiled = default_pass_manager().compile(
            canonical, arch, ScheduleOptions(), assume_canonical=True
        )
        # No cache: the tile pass is skipped (later stages recompute),
        # everything else executed and was timed.
        assert set(compiled.timings) == {
            "preprocess", "mapping", "place", "sets", "deps", "schedule",
        }
        assert all(seconds >= 0.0 for seconds in compiled.timings.values())
        assert "skipped pass 'tile'" in compiled.diagnostics

    def test_deps_skipped_for_layer_by_layer(self, canonical, arch):
        compiled = default_pass_manager().compile(
            canonical,
            arch,
            ScheduleOptions(mapping="none", scheduling="layer-by-layer"),
            assume_canonical=True,
        )
        assert compiled.dependencies is None
        assert "deps" not in compiled.timings
        assert "skipped pass 'deps'" in compiled.diagnostics

    def test_cached_run_executes_tile_pass(self, canonical, arch, monkeypatch):
        calls = []
        real = passes_mod.tile_graph
        monkeypatch.setattr(
            passes_mod, "tile_graph", lambda *args: calls.append(1) or real(*args)
        )
        cache = CompilationCache()
        compiled = default_pass_manager().compile(
            canonical, arch, ScheduleOptions(), assume_canonical=True, cache=cache
        )
        assert "tile" in compiled.timings
        # The wdup rule reads the tile pass's tilings from the context:
        # one lookup, one tiling.
        assert cache.stats["tile"].lookups == 1
        assert calls == [1]

    def test_missing_schedule_is_an_error(self, canonical, arch):
        manager = PassManager(default_passes()[:-1])  # drop the schedule pass
        with pytest.raises(PassError):
            manager.compile(canonical, arch, assume_canonical=True)


class TestPassManagerSurgery:
    def test_insert_before_and_after(self, canonical, arch):
        seen = []

        class Probe:
            def __init__(self, name):
                self.name = name

            def run(self, ctx):
                seen.append((self.name, ctx.schedule is not None))

        manager = default_pass_manager()
        manager.insert_before("schedule", Probe("pre-schedule"))
        manager.insert_after("schedule", Probe("post-schedule"))
        manager.compile(canonical, arch, assume_canonical=True)
        assert seen == [("pre-schedule", False), ("post-schedule", True)]

    def test_insert_unknown_name_raises(self):
        with pytest.raises(KeyError):
            default_pass_manager().insert_before("nope", object())


class TestRegistries:
    def test_builtins_registered(self):
        assert set(mapping_names()) >= {"none", "wdup"}
        assert set(scheduler_names()) >= {"layer-by-layer", "clsa-cim"}
        assert resolve_scheduler("layer-by-layer").needs_dependencies is False
        assert resolve_scheduler("clsa-cim").needs_dependencies is True

    def test_unknown_names_error_helpfully(self):
        with pytest.raises(KeyError, match="registered"):
            resolve_mapping("does-not-exist")
        with pytest.raises(KeyError, match="registered"):
            resolve_scheduler("does-not-exist")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_mapping("none", lambda ctx: None)
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler("clsa-cim", lambda ctx: None)

    def test_builtin_unregistration_rejected(self):
        with pytest.raises(ValueError, match="builtin"):
            unregister_mapping("wdup")
        with pytest.raises(ValueError, match="builtin"):
            unregister_scheduler("layer-by-layer")

    def test_replace_flag_allows_override(self):
        original = resolve_mapping("none")
        register_mapping("none", original, replace=True)
        assert resolve_mapping("none") is original

    def test_options_validate_against_registry(self):
        with pytest.raises(ValueError, match="mapping"):
            ScheduleOptions(mapping="bogus")
        with pytest.raises(ValueError, match="scheduling"):
            ScheduleOptions(scheduling="bogus")

        def sched(ctx):  # pragma: no cover - never built
            raise AssertionError

        register_scheduler("registry-validated", sched, needs_dependencies=False)
        try:
            options = ScheduleOptions(scheduling="registry-validated")
            assert options.paper_name == "wdup+registry-validated"
        finally:
            unregister_scheduler("registry-validated")
        with pytest.raises(ValueError):
            ScheduleOptions(scheduling="registry-validated")


class TestCustomScheduler:
    """A third-party scheduler plugs in without touching core/pipeline.py."""

    @pytest.fixture()
    def reverse_scheduler(self):
        def build_reverse(ctx):
            # Schedule every set sequentially, layers in reverse
            # topological order — a deliberately naive policy that only
            # uses the public context artifacts.
            cursor = 0
            tasks = []
            for layer in reversed(list(ctx.sets)):
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
            return Schedule(policy="reverse-sequential", tasks=tasks)

        register_scheduler("reverse-sequential", build_reverse, needs_dependencies=False)
        yield "reverse-sequential"
        unregister_scheduler("reverse-sequential")

    def test_compiles_end_to_end(self, canonical, arch, reverse_scheduler):
        options = ScheduleOptions(mapping="none", scheduling=reverse_scheduler)
        compiled = default_pass_manager().compile(
            canonical, arch, options, assume_canonical=True
        )
        assert compiled.schedule.policy == "reverse-sequential"
        # Purely sequential: the makespan is the total set area, which
        # equals the layer-by-layer baseline's makespan.
        baseline = compile_model(
            canonical,
            arch,
            ScheduleOptions(mapping="none", scheduling="layer-by-layer"),
            assume_canonical=True,
        )
        assert compiled.schedule.makespan == baseline.schedule.makespan
        # The dependencies pass was skipped for this scheduler.
        assert compiled.dependencies is None
        assert compiled.options.paper_name == "reverse-sequential"
        compiled.schedule.validate_intra_layer_order()

    def test_shim_accepts_registered_scheduler(self, canonical, arch, reverse_scheduler):
        compiled = compile_model(
            canonical,
            arch,
            ScheduleOptions(mapping="none", scheduling=reverse_scheduler),
            assume_canonical=True,
        )
        assert compiled.schedule.policy == "reverse-sequential"


class TestCustomMapping:
    def test_custom_mapping_rule(self, canonical, arch):
        calls = []

        def identity_mapping(ctx):
            calls.append(ctx.options.mapping)
            ctx.mapped = ctx.canonical

        register_mapping("identity-test", identity_mapping)
        try:
            compiled = default_pass_manager().compile(
                canonical,
                arch,
                ScheduleOptions(mapping="identity-test", scheduling="layer-by-layer"),
                assume_canonical=True,
            )
        finally:
            unregister_mapping("identity-test")
        assert calls == ["identity-test"]
        assert compiled.mapped is compiled.canonical
        assert compiled.options.paper_name == "identity-test+layer-by-layer"

    def test_arch_dependent_mapping_safe_with_shared_cache(self, canonical):
        """The fallback mapped key includes the architecture: a cache
        shared across PE budgets must never serve a stale mapped graph."""
        from repro.core.cache import CompilationCache
        from repro.mapping.duplication import problem_from_tilings, solve
        from repro.mapping.rewrite import apply_duplication
        from repro.mapping.tiling import tile_graph

        def budget_mapping(ctx):
            # Reads ctx.arch (like wdup) but sets no mapped_key.
            tilings = tile_graph(ctx.canonical, ctx.arch.crossbar)
            problem = problem_from_tilings(tilings, budget=ctx.arch.num_pes)
            solution = solve(problem, "dp")
            ctx.mapped = apply_duplication(ctx.canonical, solution).graph

        register_mapping("budget-test", budget_mapping)
        try:
            options = ScheduleOptions(mapping="budget-test", scheduling="clsa-cim")
            min_arch = _arch_with_extra(canonical, 1)
            big_arch = _arch_with_extra(canonical, 16)
            shared = CompilationCache()
            cached_small = default_pass_manager().compile(
                canonical, min_arch, options, assume_canonical=True, cache=shared
            )
            cached_big = default_pass_manager().compile(
                canonical, big_arch, options, assume_canonical=True, cache=shared
            )
            fresh_big = default_pass_manager().compile(
                canonical, big_arch, options, assume_canonical=True
            )
        finally:
            unregister_mapping("budget-test")
        assert cached_big.schedule.makespan == fresh_big.schedule.makespan
        assert cached_big.schedule.tasks == fresh_big.schedule.tasks
        assert cached_small.schedule.makespan >= cached_big.schedule.makespan

    def test_mapping_rule_must_set_mapped(self, canonical, arch):
        register_mapping("broken-test", lambda ctx: None)
        try:
            with pytest.raises(PassError, match="ctx.mapped"):
                default_pass_manager().compile(
                    canonical,
                    arch,
                    ScheduleOptions(mapping="broken-test", scheduling="layer-by-layer"),
                    assume_canonical=True,
                )
        finally:
            unregister_mapping("broken-test")


class TestLazyCacheKeys:
    """Without a cache no graph fingerprint is ever computed."""

    def test_uncached_compile_never_fingerprints(self, canonical, arch, monkeypatch):
        def boom(graph):
            raise AssertionError("graph_fingerprint called without a cache")

        monkeypatch.setattr(cache_mod, "graph_fingerprint", boom)
        monkeypatch.setattr(CompilationCache, "fingerprint", lambda self, graph: boom(graph))
        for mapping in ("none", "wdup"):
            for scheduling in ("layer-by-layer", "clsa-cim"):
                compiled = compile_model(
                    canonical,
                    arch,
                    ScheduleOptions(mapping=mapping, scheduling=scheduling),
                    assume_canonical=True,
                )
                assert compiled.schedule.makespan > 0

    def test_cached_and_uncached_results_identical(self, canonical, arch):
        cache = CompilationCache()
        uncached = compile_model(canonical, arch, assume_canonical=True)
        cached = compile_model(canonical, arch, assume_canonical=True, cache=cache)
        assert uncached.schedule.tasks == cached.schedule.tasks
        assert uncached.placement.pe_ranges == cached.placement.pe_ranges


class TestStageKeys:
    """The exact cache key of every stage.

    Persistent store entries are addressed by these tuples, so a
    refactor that changes one orphans every stored entry of that stage.
    """

    def compile_keys(self, options):
        raw = build("tiny_sequential")
        canonical = preprocess(build("tiny_sequential"), quantization=None).graph
        arch = _arch_with_extra(canonical, 4)
        cache = CompilationCache()
        compile_model(raw, arch, options, cache=cache)
        graph_key = ("graph", graph_fingerprint(canonical))
        return cache, raw, arch, graph_key

    def test_wdup_clsa_cim_keys(self):
        options = ScheduleOptions(mapping="wdup", scheduling="clsa-cim")
        cache, raw, arch, graph_key = self.compile_keys(options)
        wdup_key = ("wdup", graph_key, arch.crossbar, arch.num_pes, "dp", "width", None)
        expected = [
            ("preprocess", graph_fingerprint(raw)),
            ("tile", graph_key, arch.crossbar),
            wdup_key,
            ("place", wdup_key, arch),
            ("sets", wdup_key, FINEST),
            ("deps", wdup_key, FINEST),
            ("schedule", wdup_key, FINEST, "clsa-cim", "dynamic", "row_major"),
        ]
        assert [key in cache for key in expected] == [True] * len(expected)
        assert len(cache) == len(expected)

    def test_none_layer_by_layer_keys(self):
        options = ScheduleOptions(mapping="none", scheduling="layer-by-layer")
        cache, raw, arch, graph_key = self.compile_keys(options)
        expected = [
            ("preprocess", graph_fingerprint(raw)),
            ("tile", graph_key, arch.crossbar),
            ("place", graph_key, arch),
            ("sets", graph_key, FINEST),
            ("schedule", graph_key, FINEST, "layer-by-layer"),
        ]
        assert [key in cache for key in expected] == [True] * len(expected)
        assert len(cache) == len(expected)


class TestContext:
    def test_context_cached_helper(self):
        cache = CompilationCache()
        ctx = CompilationContext(
            graph=build("tiny_sequential"),
            arch=paper_case_study(8),
            cache=cache,
        )
        calls = []

        def compute():
            calls.append(1)
            return 42

        assert ctx.cached(("custom", "key"), compute) == 42
        assert ctx.cached(("custom", "key"), compute) == 42
        assert calls == [1]

        ctx_uncached = CompilationContext(
            graph=build("tiny_sequential"), arch=paper_case_study(8)
        )
        assert ctx_uncached.cached(("custom", "key"), compute) == 42
        assert calls == [1, 1]

    def test_note_collects_diagnostics(self):
        ctx = CompilationContext(graph=build("tiny_sequential"), arch=paper_case_study(8))
        ctx.note("hello")
        assert ctx.diagnostics == ["hello"]
