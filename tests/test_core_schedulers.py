"""Tests for the layer-by-layer baseline and CLSA-CIM schedulers.

Stage IV runs on the columnar kernels (``csr_static_schedule`` for a
fixed Stage III order, ``csr_dynamic_schedule`` for ready order).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    Schedule,
    SetGranularity,
    SetTask,
    csr_dynamic_schedule,
    csr_static_schedule,
    determine_dependencies,
    determine_sets,
    intra_layer_order,
    layer_by_layer_schedule,
)
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect
from repro.verify import assert_schedule


def chain_model(num_layers=3, size=8):
    """Sequential 1x1-conv chain: every layer same OFM size."""
    b = GraphBuilder("chain")
    x = b.input((size, size, 3), name="in")
    for i in range(num_layers):
        x = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name=f"c{i}")
    return b.graph


def branch_model(size=8):
    """Input feeds two independent convs (no inter-dependency)."""
    b = GraphBuilder("branch")
    x = b.input((size, size, 3), name="in")
    b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="left")
    b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="right")
    return b.graph


class TestSetTask:
    def test_duration(self):
        task = SetTask("c", 0, Rect(0, 0, 1, 8), start=0, end=8)
        assert task.duration == 8

    def test_rejects_negative_interval(self):
        with pytest.raises(ValueError):
            SetTask("c", 0, Rect(0, 0, 1, 8), start=-1, end=7)
        with pytest.raises(ValueError):
            SetTask("c", 0, Rect(0, 0, 1, 8), start=10, end=2)

    def test_rejects_duration_mismatch(self):
        with pytest.raises(ValueError, match="does not match"):
            SetTask("c", 0, Rect(0, 0, 1, 8), start=0, end=9)


class TestScheduleContainer:
    def rows(self):
        return [
            SetTask("a", 0, Rect(0, 0, 1, 4), 0, 4),
            SetTask("a", 1, Rect(1, 0, 2, 4), 4, 8),
            SetTask("b", 0, Rect(0, 0, 1, 2), 6, 8),
        ]

    def make(self):
        return Schedule(policy="test", tasks=self.rows())

    def test_makespan(self):
        assert self.make().makespan == 8
        assert Schedule(policy="empty").makespan == 0

    def test_busy_cycles(self):
        assert self.make().busy_cycles() == {"a": 8, "b": 2}

    def test_layer_span(self):
        s = self.make()
        assert s.layer_span("a") == (0, 8)
        with pytest.raises(KeyError):
            s.layer_span("ghost")

    def test_layers_order(self):
        assert self.make().layers() == ["a", "b"]

    def test_overlap_detection(self):
        rows = self.rows() + [SetTask("b", 1, Rect(1, 0, 2, 2), 7, 9)]
        s = Schedule(policy="test", tasks=rows)
        with pytest.raises(AssertionError, match="resource violation"):
            s.validate_intra_layer_order()


class TestLayerByLayer:
    def test_chain_is_sequential(self):
        g = chain_model(3)
        schedule = layer_by_layer_schedule(g)
        assert schedule.makespan == 3 * 64
        spans = [schedule.layer_span(f"c{i}") for i in range(3)]
        assert spans == [(0, 64), (64, 128), (128, 192)]

    def test_independent_branches_overlap(self):
        g = branch_model()
        schedule = layer_by_layer_schedule(g)
        # both convs depend only on the input: they run on their own
        # PEs in parallel even under layer-by-layer semantics
        assert schedule.makespan == 64

    def test_with_sets_same_makespan(self):
        g = chain_model(2)
        sets = determine_sets(g)
        coarse = layer_by_layer_schedule(g)
        fine = layer_by_layer_schedule(g, sets)
        assert coarse.makespan == fine.makespan
        assert len(fine.tasks) == 16  # 8 rows x 2 layers

    def test_sets_run_back_to_back(self):
        g = chain_model(1)
        schedule = layer_by_layer_schedule(g, determine_sets(g))
        tasks = schedule.tasks_of("c0")
        for earlier, later in zip(tasks, tasks[1:]):
            assert later.start == earlier.end

    @staticmethod
    def reference_tasks(graph, sets):
        """The baseline as a per-set loop: each layer starts when its
        producers have finished, then runs its sets back to back."""
        from oracles import layer_level_dependencies

        preds = layer_level_dependencies(graph)
        shapes = graph.infer_shapes()
        layer_end, tasks = {}, []
        for layer in graph.base_layers():
            cursor = max((layer_end[p] for p in preds[layer]), default=0)
            rects = sets[layer] if sets is not None else [shapes[layer].full_rect()]
            for index, rect in enumerate(rects):
                tasks.append(SetTask(layer, index, rect, cursor, cursor + rect.area))
                cursor += rect.area
            layer_end[layer] = cursor
        return tasks

    @pytest.mark.parametrize(
        "granularity", [None, SetGranularity(), SetGranularity(rows_per_set=None, target_sets=5)]
    )
    def test_columnar_schedule_matches_per_set_loop(self, granularity):
        from repro.models import tiny_dual_head

        g = preprocess(tiny_dual_head(), quantization=None).graph
        sets = None if granularity is None else determine_sets(g, granularity)
        schedule = layer_by_layer_schedule(g, sets)
        assert list(schedule.tasks) == self.reference_tasks(g, sets)


class TestCrossLayerStatic:
    def schedule_for(self, graph, granularity=None):
        sets = determine_sets(graph, granularity or SetGranularity(rows_per_set=1))
        deps = determine_dependencies(graph, sets)
        order = intra_layer_order(sets)
        schedule = csr_static_schedule(deps.arrays, order)
        assert_schedule(schedule, deps)
        return schedule

    def test_chain_pipelines(self):
        g = chain_model(3)
        schedule = self.schedule_for(g)
        lbl = layer_by_layer_schedule(g)
        # 1x1 convs forward row by row: each extra layer adds one row (8
        # cycles) instead of a full layer (64 cycles)
        assert schedule.makespan == 64 + 8 + 8
        assert schedule.makespan < lbl.makespan

    def test_never_slower_than_layer_by_layer(self):
        from repro.models import tiny_csp, tiny_dual_head, tiny_residual

        for factory in (tiny_residual, tiny_csp, tiny_dual_head):
            canonical = preprocess(factory(), quantization=None).graph
            xinf = self.schedule_for(canonical)
            lbl = layer_by_layer_schedule(canonical)
            assert xinf.makespan <= lbl.makespan

    def test_busy_cycles_conserved(self):
        g = chain_model(3)
        assert self.schedule_for(g).busy_cycles() == layer_by_layer_schedule(g).busy_cycles()


class TestCrossLayerDynamic:
    def schedule_for(self, graph):
        sets = determine_sets(graph)
        deps = determine_dependencies(graph, sets)
        schedule = csr_dynamic_schedule(deps.arrays)
        assert_schedule(schedule, deps)
        return schedule

    def test_matches_static_on_chain(self):
        g = chain_model(3)
        sets = determine_sets(g)
        deps = determine_dependencies(g, sets)
        static = csr_static_schedule(deps.arrays, intra_layer_order(sets))
        dynamic = csr_dynamic_schedule(deps.arrays)
        assert dynamic.makespan == static.makespan

    def test_competitive_with_static(self):
        from repro.models import tiny_csp, tiny_dual_head, tiny_residual

        for factory in (tiny_residual, tiny_csp, tiny_dual_head):
            canonical = preprocess(factory(), quantization=None).graph
            sets = determine_sets(canonical)
            deps = determine_dependencies(canonical, sets)
            static = csr_static_schedule(deps.arrays, intra_layer_order(sets))
            dynamic = csr_dynamic_schedule(deps.arrays)
            # greedy list scheduling is not provably optimal; require
            # at-least-competitive behaviour
            assert dynamic.makespan <= 1.05 * static.makespan

    def test_all_sets_scheduled(self):
        from repro.models import tiny_dual_head

        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        sets = determine_sets(canonical)
        deps = determine_dependencies(canonical, sets)
        schedule = csr_dynamic_schedule(deps.arrays)
        assert len(schedule.tasks) == deps.num_sets()


class TestIntraLayerPolicies:
    def test_policies_are_permutations(self):
        rects = [Rect(r, 0, r + 1, 4) for r in range(5)]
        for policy in ("row_major", "column_major", "reverse_row_major", "even_odd"):
            order = intra_layer_order({"layer": rects}, policy)["layer"]
            assert sorted(order) == list(range(5))

    def test_even_odd_interleaves(self):
        rects = [Rect(r, 0, r + 1, 4) for r in range(5)]
        order = intra_layer_order({"l": rects}, "even_odd")["l"]
        assert order == [0, 2, 4, 1, 3]

    def test_reverse_row_major_reverses(self):
        rects = [Rect(r, 0, r + 1, 4) for r in range(3)]
        order = intra_layer_order({"l": rects}, "reverse_row_major")["l"]
        assert order == [2, 1, 0]

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown intra-layer policy"):
            intra_layer_order({"l": []}, "zigzag")


class TestScheduleProperties:
    @settings(max_examples=30)
    @given(
        num_layers=st.integers(1, 4),
        size=st.sampled_from([4, 6, 8]),
        kernel=st.sampled_from([1, 3]),
        rows=st.integers(1, 4),
    )
    def test_property_valid_schedules(self, num_layers, size, kernel, rows):
        """Random chains: both schedulers produce dependency-valid
        schedules, and cross-layer never loses to the baseline."""
        b = GraphBuilder("prop")
        x = b.input((size, size, 2), name="in")
        for i in range(num_layers):
            x = b.conv2d(x, 3, kernel=kernel, padding="same", use_bias=False,
                         name=f"c{i}")
        g = preprocess(b.graph, quantization=None).graph
        sets = determine_sets(g, SetGranularity(rows_per_set=rows))
        deps = determine_dependencies(g, sets)
        dynamic = csr_dynamic_schedule(deps.arrays)
        assert_schedule(dynamic, deps)
        lbl = layer_by_layer_schedule(g, sets)
        assert dynamic.makespan <= lbl.makespan
        assert dynamic.busy_cycles() == lbl.busy_cycles()
