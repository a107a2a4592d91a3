"""Tests for the columnar scheduling kernels (CSR set graphs).

The CSR kernel engines must be *indistinguishable* from the
pure-Python reference schedulers: identical schedules point-wise for
the static, dynamic and batch policies, identical simulator replays,
and a faithful columnar round trip through the Schedule API and the
artifact serializer.
"""

import numpy as np
import pytest

from repro.arch import paper_case_study
from repro.core import (
    FINEST,
    Schedule,
    ScheduleColumns,
    ScheduleOptions,
    SetGranularity,
    SetTask,
    compile_model,
    cross_layer_schedule,
    cross_layer_schedule_batch,
    csr_batch_schedule,
    csr_dynamic_schedule,
    csr_static_schedule,
    determine_dependencies,
    determine_sets,
    intra_layer_order,
    validate_arrays_schedule,
    validate_batch_arrays_schedule,
    validate_batch_schedule,
    validate_schedule,
)
from repro.core.dependencies import DependencyGraph
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect
from repro.mapping import minimum_pe_requirement
from repro.sim import simulate


def chain_model(num_layers=3, size=8):
    b = GraphBuilder("chain")
    x = b.input((size, size, 3), name="in")
    for i in range(num_layers):
        x = b.conv2d(x, 4, kernel=3, padding="same", use_bias=False, name=f"c{i}")
    return b.graph


def branchy_model(size=12):
    """Pool / upsample / concat / residual variety in one graph."""
    b = GraphBuilder("branchy")
    x = b.input((size, size, 3), name="in")
    x = b.conv2d(x, 4, kernel=3, padding="same", use_bias=True, name="stem")
    left = b.conv2d(x, 4, kernel=3, padding="same", use_bias=True, name="left")
    left = b.maxpool(left, 2)
    left = b.upsample(left, 2)
    right = b.conv2d(x, 4, kernel=1, padding="same", use_bias=True, name="right")
    merged = b.concat([left, right])
    out = b.conv2d(merged, 4, kernel=3, padding="same", use_bias=True, name="head")
    skip = b.conv2d(merged, 4, kernel=1, padding="same", use_bias=True, name="skip")
    b.add([out, skip])
    return b.graph


def compiled_pair(graph, granularity=FINEST, order_mode="dynamic"):
    """(csr compiled, python compiled) of the same model/config."""
    canonical = preprocess(graph, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    arch = paper_case_study(min_pes + 8)
    results = []
    for engine in ("csr", "python"):
        options = ScheduleOptions(
            granularity=granularity, order_mode=order_mode, engine=engine
        )
        results.append(
            compile_model(canonical, arch, options, assume_canonical=True)
        )
    return results


def task_keys(schedule):
    return sorted(
        (t.layer, t.set_index, t.image, t.start, t.end, t.rect) for t in schedule.tasks
    )


class TestSetGraphArrays:
    def test_csr_matches_deps_dict(self):
        g = preprocess(branchy_model(), quantization=None).graph
        sets = determine_sets(g)
        dep = determine_dependencies(g, sets)
        arrays = dep.arrays

        assert arrays.layers == tuple(sets)
        assert arrays.num_sets == dep.num_sets()
        assert arrays.num_edges == dep.edge_count()
        for (layer, si), refs in dep.deps.items():
            gid = arrays.gid(layer, si)
            assert arrays.layers[arrays.layer_of[gid]] == layer
            assert int(arrays.set_index[gid]) == si
            rect = sets[layer][si]
            assert int(arrays.area[gid]) == rect.area
            assert (
                int(arrays.r0[gid]),
                int(arrays.c0[gid]),
                int(arrays.r1[gid]),
                int(arrays.c1[gid]),
            ) == (rect.r0, rect.c0, rect.r1, rect.c1)
            lo, hi = int(arrays.indptr[gid]), int(arrays.indptr[gid + 1])
            encoded = {int(p) for p in arrays.indices[lo:hi]}
            expected = {arrays.gid(rl, rsi) for rl, rsi in refs}
            assert encoded == expected

    def test_reverse_csr_is_transpose(self):
        g = preprocess(branchy_model(), quantization=None).graph
        dep = determine_dependencies(g, determine_sets(g))
        arrays = dep.arrays
        forward = set()
        for gid in range(arrays.num_sets):
            for pred in arrays.indices[arrays.indptr[gid] : arrays.indptr[gid + 1]]:
                forward.add((int(pred), gid))
        reverse = set()
        for gid in range(arrays.num_sets):
            for cons in arrays.rindices[arrays.rindptr[gid] : arrays.rindptr[gid + 1]]:
                reverse.add((gid, int(cons)))
        assert forward == reverse

    def test_memoized_on_dependency_graph(self):
        g = preprocess(chain_model(), quantization=None).graph
        dep = determine_dependencies(g, determine_sets(g))
        assert dep.arrays is dep.arrays

    def test_missing_deps_entry_raises(self):
        g = preprocess(chain_model(1), quantization=None).graph
        sets = determine_sets(g)
        broken = DependencyGraph(sets=sets, deps={})
        with pytest.raises(KeyError, match="no entry"):
            broken.arrays

    def test_lex_rank_orders_layer_names(self):
        g = preprocess(branchy_model(), quantization=None).graph
        dep = determine_dependencies(g, determine_sets(g))
        arrays = dep.arrays
        by_rank = sorted(range(len(arrays.layers)), key=lambda i: arrays.lex_rank[i])
        assert [arrays.layers[i] for i in by_rank] == sorted(arrays.layers)


class TestEngineIdentity:
    @pytest.mark.parametrize("order_mode", ["dynamic", "static"])
    def test_single_image_identity(self, order_mode):
        csr, ref = compiled_pair(branchy_model(), order_mode=order_mode)
        assert csr.schedule.makespan == ref.schedule.makespan
        assert task_keys(csr.schedule) == task_keys(ref.schedule)

    @pytest.mark.parametrize(
        "granularity",
        [FINEST, SetGranularity(rows_per_set=3),
         SetGranularity(rows_per_set=None, target_sets=4)],
    )
    def test_identity_across_granularities(self, granularity):
        csr, ref = compiled_pair(branchy_model(), granularity=granularity)
        assert task_keys(csr.schedule) == task_keys(ref.schedule)

    @pytest.mark.parametrize("policy", ["row_major", "column_major", "even_odd"])
    def test_static_identity_all_order_policies(self, policy):
        g = preprocess(branchy_model(), quantization=None).graph
        sets = determine_sets(g)
        dep = determine_dependencies(g, sets)
        order = intra_layer_order(sets, policy)
        fast = csr_static_schedule(dep.arrays, order)
        slow = cross_layer_schedule(g, dep, order)
        validate_schedule(slow, dep)
        assert task_keys(fast) == task_keys(slow)

    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    def test_batch_identity(self, batch_size):
        csr, ref = compiled_pair(branchy_model())
        fast = cross_layer_schedule_batch(
            csr.mapped, csr.dependencies, batch_size, engine="csr"
        )
        slow = cross_layer_schedule_batch(
            ref.mapped, ref.dependencies, batch_size, engine="python"
        )
        assert fast.makespan == slow.makespan
        assert fast.image_spans == slow.image_spans
        assert task_keys(fast.schedule) == task_keys(slow.schedule)
        validate_batch_schedule(fast, csr.dependencies)

    def test_batch_csr_validates(self):
        csr, _ = compiled_pair(chain_model())
        arrays = csr.dependencies.arrays
        schedule, _ = csr_batch_schedule(arrays, 3)
        n = arrays.num_sets
        start = np.zeros(3 * n, dtype=np.int64)
        end = np.zeros(3 * n, dtype=np.int64)
        for task in schedule.tasks:
            slot = task.image * n + arrays.gid(task.layer, task.set_index)
            start[slot] = task.start
            end[slot] = task.end
        validate_batch_arrays_schedule(arrays, 3, start, end)

    def test_invalid_engine_rejected(self):
        with pytest.raises(ValueError, match="engine"):
            ScheduleOptions(engine="fortran")
        csr, _ = compiled_pair(chain_model())
        with pytest.raises(ValueError, match="engine"):
            cross_layer_schedule_batch(csr.mapped, csr.dependencies, 2, engine="x")

    def test_sim_replay_identity(self):
        csr, ref = compiled_pair(branchy_model())
        fast = simulate(csr)
        slow = simulate(ref)
        assert fast.finish_cycles == csr.schedule.makespan
        assert slow.finish_cycles == ref.schedule.makespan
        assert fast.finish_cycles == slow.finish_cycles
        assert fast.per_layer_stall == slow.per_layer_stall
        assert fast.events_processed == fast.num_tasks
        assert task_keys(fast.schedule) == task_keys(slow.schedule)


class TestVectorizedValidation:
    def make_arrays(self):
        g = preprocess(chain_model(2), quantization=None).graph
        dep = determine_dependencies(g, determine_sets(g))
        return dep.arrays

    def test_accepts_valid_schedule(self):
        arrays = self.make_arrays()
        schedule = csr_dynamic_schedule(arrays)  # validates internally
        assert schedule.makespan > 0

    def test_rejects_dependency_violation(self):
        arrays = self.make_arrays()
        start = np.zeros(arrays.num_sets, dtype=np.int64)
        end = start + arrays.area  # every set starts at 0: deps violated
        with pytest.raises(AssertionError, match="data dependency violated"):
            validate_arrays_schedule(arrays, start, end)

    def test_rejects_resource_overlap(self):
        arrays = self.make_arrays()
        schedule = csr_dynamic_schedule(arrays)
        cols = schedule.columns()
        start = np.zeros(arrays.num_sets, dtype=np.int64)
        end = np.zeros(arrays.num_sets, dtype=np.int64)
        for row in range(len(cols)):
            gid = int(arrays.offsets[cols.layer_id[row]]) + int(cols.set_index[row])
            start[gid] = int(cols.start[row])
            end[gid] = int(cols.end[row])
        # Pull one set of the last layer onto its predecessor's slot.
        lid = arrays.num_layers - 1
        lo = int(arrays.offsets[lid])
        hi = int(arrays.offsets[lid + 1])
        assert hi - lo >= 2
        start[hi - 1] = start[hi - 2]
        end[hi - 1] = start[hi - 1] + int(arrays.area[hi - 1])
        with pytest.raises(AssertionError):
            validate_arrays_schedule(arrays, start, end)


class TestColumnarSchedule:
    def reference(self):
        return [
            SetTask("a", 0, Rect(0, 0, 1, 4), 0, 4),
            SetTask("a", 1, Rect(1, 0, 2, 4), 4, 8),
            SetTask("b", 0, Rect(0, 0, 1, 2), 6, 8),
        ]

    def both_forms(self):
        tasks = self.reference()
        row = Schedule(policy="p", tasks=list(tasks))
        col = Schedule(policy="p", columns=ScheduleColumns.from_tasks(tasks))
        return row, col

    def test_lazy_materialization_round_trips(self):
        row, col = self.both_forms()
        assert col.has_columns and not row.has_columns
        assert col.num_tasks == 3
        assert col.tasks == row.tasks  # materializes SetTask objects

    def test_queries_agree(self):
        row, col = self.both_forms()
        assert col.makespan == row.makespan == 8
        assert col.busy_cycles() == row.busy_cycles() == {"a": 8, "b": 2}
        assert col.layers() == row.layers() == ["a", "b"]
        assert col.layer_span("a") == row.layer_span("a") == (0, 8)
        assert col.per_layer_stats() == row.per_layer_stats()
        assert col.tasks_of("a") == row.tasks_of("a")
        col.validate_intra_layer_order()
        with pytest.raises(KeyError):
            col.layer_span("ghost")

    def test_columnar_overlap_detected(self):
        tasks = self.reference() + [SetTask("b", 1, Rect(1, 0, 2, 2), 7, 9)]
        col = Schedule(policy="p", columns=ScheduleColumns.from_tasks(tasks))
        with pytest.raises(AssertionError, match="resource violation"):
            col.validate_intra_layer_order()

    def test_mutation_invalidates_columns_and_caches(self):
        _, col = self.both_forms()
        assert col.makespan == 8
        col.tasks.append(SetTask("b", 1, Rect(1, 0, 2, 2), 8, 10))
        assert not col.has_columns  # stale columns dropped
        assert col.makespan == 10
        assert col.busy_cycles() == {"a": 8, "b": 4}
        # rebuilt columns reflect the mutation
        assert len(col.columns()) == 4

    def test_tasks_assignment_resets(self):
        row, _ = self.both_forms()
        row.tasks = self.reference()[:1]
        assert row.makespan == 4
        assert row.layers() == ["a"]

    def test_append_invalidates_cached_index(self):
        row, _ = self.both_forms()
        assert row.layers() == ["a", "b"]
        row.tasks.append(SetTask("c", 0, Rect(0, 0, 1, 1), 0, 1))
        assert row.layers() == ["a", "b", "c"]
        assert row.tasks_of("c")[0].set_index == 0

    def test_empty_schedule(self):
        empty = Schedule(policy="empty")
        assert empty.makespan == 0
        assert empty.layers() == []
        assert empty.busy_cycles() == {}
        empty_cols = Schedule(
            policy="empty", columns=ScheduleColumns.from_tasks([])
        )
        assert empty_cols.makespan == 0
        assert empty_cols.layers() == []
        assert empty_cols.busy_cycles() == {}
        empty_cols.validate_intra_layer_order()

    def test_schedule_equality(self):
        row, col = self.both_forms()
        assert row == col
        col2 = Schedule(policy="other", columns=col.columns())
        assert row != col2

    def test_pickle_round_trip_keeps_mutation_tracking(self):
        import pickle

        row, col = self.both_forms()
        for schedule in (row, col):
            clone = pickle.loads(pickle.dumps(schedule))
            assert clone == schedule
            assert clone.makespan == 8
            clone.tasks.append(SetTask("c", 0, Rect(0, 0, 1, 1), 100, 101))
            assert clone.makespan == 101  # caches invalidate after unpickle


class TestColumnarSerialization:
    def test_columnar_artifact_round_trip(self, tmp_path):
        from repro.core import CompiledModel

        csr, _ = compiled_pair(branchy_model())
        assert csr.schedule.has_columns
        path = tmp_path / "columnar.json"
        csr.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.schedule.has_columns  # stays lazy after loading
        assert loaded.schedule.policy == csr.schedule.policy
        assert task_keys(loaded.schedule) == task_keys(csr.schedule)

    def test_row_form_schedule_dict_still_loads(self):
        from repro.ir.serialize import schedule_from_dict, schedule_to_dict

        tasks = [SetTask("a", 0, Rect(0, 0, 1, 4), 0, 4)]
        row = Schedule(policy="p", tasks=tasks)
        record = schedule_to_dict(row)
        assert "tasks" in record and "columns" not in record
        assert schedule_from_dict(record) == row

    def test_columnar_schedule_dict_shape(self):
        from repro.ir.serialize import schedule_from_dict, schedule_to_dict

        tasks = [SetTask("a", 0, Rect(0, 0, 1, 4), 0, 4, image=2)]
        col = Schedule(policy="p", columns=ScheduleColumns.from_tasks(tasks))
        record = schedule_to_dict(col)
        assert "columns" in record and "tasks" not in record
        assert record["columns"]["layers"] == ["a"]
        assert record["columns"]["image"] == [2]
        back = schedule_from_dict(record)
        assert back.has_columns
        assert back == col
