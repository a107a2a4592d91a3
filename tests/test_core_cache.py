"""Tests for the staged pipeline and its CompilationCache."""

import pytest

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import (
    CompilationCache,
    ScheduleOptions,
    compile_model,
    graph_fingerprint,
)
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import tiny_dual_head, tiny_residual, tiny_sequential


def arch_for(canonical, extra=8):
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    return paper_case_study(min_pes + extra)


ALL_CONFIGS = [
    ("none", "layer-by-layer"),
    ("none", "clsa-cim"),
    ("wdup", "layer-by-layer"),
    ("wdup", "clsa-cim"),
]


class TestGraphFingerprint:
    def test_structurally_identical_graphs_agree(self):
        assert graph_fingerprint(tiny_sequential()) == graph_fingerprint(
            tiny_sequential()
        )

    def test_different_structures_differ(self):
        assert graph_fingerprint(tiny_sequential()) != graph_fingerprint(
            tiny_residual()
        )

    def test_different_weights_differ(self):
        """Same structure, different parameters: distinct fingerprints,
        so a shared cache never serves the wrong model's weights."""
        import numpy as np

        def with_weights(seed):
            g = tiny_sequential()
            conv = g[g.base_layers()[0]]
            rng = np.random.default_rng(seed)
            conv.weights = rng.normal(size=(*conv.kernel, 3, conv.out_channels))
            return g

        assert graph_fingerprint(with_weights(0)) != graph_fingerprint(with_weights(1))
        assert graph_fingerprint(with_weights(0)) == graph_fingerprint(with_weights(0))


class TestCompilationCache:
    def test_miss_then_hit(self):
        cache = CompilationCache()
        calls = []
        key = ("stage", "a")
        assert cache.get_or_compute(key, lambda: calls.append(1) or 42) == 42
        assert cache.get_or_compute(key, lambda: calls.append(1) or 42) == 42
        assert len(calls) == 1
        assert cache.stats["stage"].misses == 1
        assert cache.stats["stage"].hits == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self):
        cache = CompilationCache(max_entries=2)
        cache.get_or_compute(("s", 1), lambda: 1)
        cache.get_or_compute(("s", 2), lambda: 2)
        cache.get_or_compute(("s", 1), lambda: 1)  # refresh 1
        cache.get_or_compute(("s", 3), lambda: 3)  # evicts 2
        assert ("s", 1) in cache and ("s", 3) in cache
        assert ("s", 2) not in cache
        assert len(cache) == 2

    def test_clear_keeps_stats(self):
        cache = CompilationCache()
        cache.get_or_compute(("s", 1), lambda: 1)
        cache.clear()
        assert len(cache) == 0
        assert cache.stats["s"].misses == 1

    def test_invalid_max_entries(self):
        with pytest.raises(ValueError):
            CompilationCache(max_entries=0)

    def test_summary_lists_stages(self):
        cache = CompilationCache()
        cache.get_or_compute(("tile", "x"), lambda: 1)
        assert "tile: 0/1 hits" in cache.summary()


class TestStagedEquivalence:
    """Cached/staged compilation must be bit-identical to monolithic."""

    @pytest.mark.parametrize("mapping,scheduling", ALL_CONFIGS)
    def test_same_makespan_per_config(self, mapping, scheduling):
        g = preprocess(tiny_dual_head(), quantization=None).graph
        arch = arch_for(g)
        options = ScheduleOptions(mapping=mapping, scheduling=scheduling)
        plain = compile_model(g, arch, options, assume_canonical=True)
        cache = CompilationCache()
        cold = compile_model(g, arch, options, assume_canonical=True, cache=cache)
        warm = compile_model(g, arch, options, assume_canonical=True, cache=cache)
        assert plain.latency_cycles == cold.latency_cycles == warm.latency_cycles
        assert plain.schedule.makespan == warm.schedule.makespan

    def test_sweep_grid_reuses_stages(self):
        """One cached grid: tile once, share wdup rewrites and sets."""
        g = preprocess(tiny_sequential(), quantization=None).graph
        min_pes = minimum_pe_requirement(g, CrossbarSpec())
        cache = CompilationCache()
        for extra in (4, 8):
            arch = paper_case_study(min_pes + extra)
            for mapping, scheduling in ALL_CONFIGS:
                compile_model(
                    g,
                    arch,
                    ScheduleOptions(mapping=mapping, scheduling=scheduling),
                    assume_canonical=True,
                    cache=cache,
                )
        # tiling depends only on the crossbar: 1 miss, the rest hits
        assert cache.stats["tile"].misses == 1
        # one wdup rewrite per budget (2 budgets), shared by lbl/clsa
        assert cache.stats["wdup"].misses == 2
        assert cache.stats["wdup"].hits == 2
        # sets: canonical graph + one per wdup budget = 3 unique
        assert cache.stats["sets"].misses == 3
        # deps likewise (clsa-cim configs only)
        assert cache.stats["deps"].misses == 3

    def test_cached_intermediates_shared_not_recomputed(self):
        g = preprocess(tiny_sequential(), quantization=None).graph
        arch = arch_for(g)
        options = ScheduleOptions(mapping="wdup", scheduling="clsa-cim")
        cache = CompilationCache()
        first = compile_model(g, arch, options, assume_canonical=True, cache=cache)
        second = compile_model(g, arch, options, assume_canonical=True, cache=cache)
        assert second.sets is first.sets
        assert second.dependencies is first.dependencies
        assert second.schedule is first.schedule

    def test_uncached_compile_unaffected(self):
        g = preprocess(tiny_sequential(), quantization=None).graph
        arch = arch_for(g)
        options = ScheduleOptions()
        a = compile_model(g, arch, options, assume_canonical=True)
        b = compile_model(g, arch, options, assume_canonical=True)
        assert a.latency_cycles == b.latency_cycles
        assert a.sets is not b.sets  # no hidden global state

    def test_preprocess_stage_cached_for_raw_graphs(self):
        cache = CompilationCache()
        raw = tiny_sequential()
        arch = arch_for(preprocess(raw, quantization=None).graph)
        compile_model(raw, arch, ScheduleOptions(), cache=cache)
        compile_model(tiny_sequential(), arch, ScheduleOptions(), cache=cache)
        assert cache.stats["preprocess"].misses == 1
        assert cache.stats["preprocess"].hits == 1


class TestFingerprintMemo:
    def test_fingerprint_memoized_per_object(self, monkeypatch):
        from repro.core import cache as cache_module

        calls = []
        real = cache_module._graph_fingerprint_uncached
        monkeypatch.setattr(
            cache_module, "_graph_fingerprint_uncached",
            lambda g: calls.append(1) or real(g),
        )
        cache = CompilationCache()
        g = tiny_sequential()
        first = cache.fingerprint(g)
        second = cache.fingerprint(g)
        assert first == second == real(g)
        assert len(calls) == 1  # second lookup served from the memo

    def test_distinct_objects_fingerprint_independently(self):
        cache = CompilationCache()
        a, b = tiny_sequential(), tiny_sequential()
        assert cache.fingerprint(a) == cache.fingerprint(b)

    def test_invalidate_reaches_a_live_session_cache(self):
        """``invalidate_fingerprint`` before a mutation, as its docstring
        asks, makes the next compile in the same session see the new
        weights instead of a stale ``preprocess`` hit."""
        import numpy as np

        from repro import Session
        from repro.core.cache import invalidate_fingerprint

        raw = tiny_sequential()
        conv = raw[raw.base_layers()[0]]
        rng = np.random.default_rng(0)
        conv.weights = rng.normal(size=(*conv.kernel, 3, conv.out_channels))
        arch = arch_for(preprocess(tiny_sequential(), quantization=None).graph)
        session = Session(arch)
        first = session.compile(raw)

        invalidate_fingerprint(raw)
        conv.weights = conv.weights * 2
        second = session.compile(raw)
        fresh = Session(arch).compile(raw)

        assert session.cache.stats["preprocess"].misses == 2
        assert graph_fingerprint(second.canonical) == graph_fingerprint(fresh.canonical)
        assert graph_fingerprint(second.canonical) != graph_fingerprint(first.canonical)
