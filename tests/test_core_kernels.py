"""Tests for the columnar scheduling kernels (CSR set graphs).

The CSR kernels must be *indistinguishable* from the pure-Python
reference schedulers in ``tests/oracles``: identical schedules row for
row, in emission order, for the static, dynamic and batch policies,
identical simulator replays, and a faithful columnar round trip
through the Schedule API and the artifact serializer.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    ColumnCostModel,
    cross_layer_schedule,
    cross_layer_schedule_dynamic,
    deps_dict,
    graph_from_deps,
    reference_batch_schedule,
    reference_simulate,
)

from repro.arch import paper_case_study
from repro.core import (
    FINEST,
    Schedule,
    ScheduleColumns,
    ScheduleOptions,
    SetGranularity,
    SetPartition,
    SetTask,
    compile_model,
    cross_layer_schedule_batch,
    csr_batch_schedule,
    csr_dynamic_schedule,
    csr_replay,
    csr_static_schedule,
    determine_dependencies,
    determine_sets,
    intra_layer_order,
)
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect
from repro.ir.ops import rect_columns
from repro.mapping import minimum_pe_requirement
from repro.sim import simulate
from repro.verify import (
    VerifyContext,
    assert_arrays_schedule,
    assert_batch_arrays_schedule,
    assert_batch_schedule,
    assert_schedule,
    verify_context,
)


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


def oracle_schedule(compiled):
    """The oracle's schedule of a compilation's set graph."""
    options, deps = compiled.options, compiled.dependencies
    if options.order_mode == "dynamic":
        reference = cross_layer_schedule_dynamic(compiled.mapped, deps)
    else:
        order = intra_layer_order(compiled.sets, options.intra_layer_policy)
        reference = cross_layer_schedule(compiled.mapped, deps, order)
    assert_schedule(reference, deps)
    return reference


def compiled_pair(graph, granularity=FINEST, order_mode="dynamic"):
    """(compiled model, the oracle's schedule of its set graph)."""
    canonical = preprocess(graph, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    arch = paper_case_study(min_pes + 8)
    options = ScheduleOptions(granularity=granularity, order_mode=order_mode)
    compiled = compile_model(canonical, arch, options, assume_canonical=True)
    return compiled, oracle_schedule(compiled)


def task_keys(schedule):
    """Schedule rows in emission order (row order is part of the contract)."""
    return [
        (t.layer, t.set_index, t.image, t.start, t.end, t.rect) for t in schedule.tasks
    ]


class TestSetGraphArrays:
    def test_csr_matches_deps_dict(self):
        g = preprocess(branchy_model(), quantization=None).graph
        sets = determine_sets(g)
        dep = determine_dependencies(g, sets)
        arrays = dep.arrays

        assert arrays.layers == tuple(sets)
        assert arrays.num_sets == dep.num_sets()
        assert arrays.num_edges == dep.edge_count()
        for (layer, si), refs in deps_dict(dep).items():
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

    def test_memoized_on_dependency_graph(self):
        g = preprocess(chain_model(), quantization=None).graph
        dep = determine_dependencies(g, determine_sets(g))
        assert dep.arrays is dep.arrays

    def test_missing_deps_entry_raises(self):
        g = preprocess(chain_model(1), quantization=None).graph
        sets = determine_sets(g)
        with pytest.raises(KeyError, match="no entry"):
            graph_from_deps(sets, {})

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
        assert csr.schedule.makespan == ref.makespan
        assert task_keys(csr.schedule) == task_keys(ref)

    @pytest.mark.parametrize(
        "granularity",
        [FINEST, SetGranularity(rows_per_set=3),
         SetGranularity(rows_per_set=None, target_sets=4)],
    )
    def test_identity_across_granularities(self, granularity):
        csr, ref = compiled_pair(branchy_model(), granularity=granularity)
        assert task_keys(csr.schedule) == task_keys(ref)

    @pytest.mark.parametrize("policy", ["row_major", "column_major", "even_odd"])
    def test_static_identity_all_order_policies(self, policy):
        g = preprocess(branchy_model(), quantization=None).graph
        sets = determine_sets(g)
        dep = determine_dependencies(g, sets)
        order = intra_layer_order(sets, policy)
        fast = csr_static_schedule(dep.arrays, order)
        slow = cross_layer_schedule(g, dep, order)
        assert_schedule(slow, dep)
        assert task_keys(fast) == task_keys(slow)

    @pytest.mark.parametrize("batch_size", [1, 2, 7])
    def test_batch_identity(self, batch_size):
        csr, _ = compiled_pair(branchy_model())
        fast = cross_layer_schedule_batch(csr.mapped, csr.dependencies, batch_size)
        slow = reference_batch_schedule(csr.mapped, csr.dependencies, batch_size)
        assert fast.makespan == slow.makespan
        assert fast.image_spans == slow.image_spans
        assert task_keys(fast.schedule) == task_keys(slow.schedule)
        assert_batch_schedule(fast, csr.dependencies)

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
        assert_batch_arrays_schedule(arrays, 3, start, end)

    def test_invalid_engine_rejected(self):
        """Stage IV has one implementation: no ``engine`` knob is accepted."""
        with pytest.raises(TypeError, match="engine"):
            ScheduleOptions(engine="python")
        csr, _ = compiled_pair(chain_model())
        with pytest.raises(TypeError, match="engine"):
            cross_layer_schedule_batch(csr.mapped, csr.dependencies, 2, engine="python")

    def test_sim_replay_identity(self):
        """The zero-cost replay is the oracle's dynamic schedule, with
        each layer's idle cycles inside its busy span as the stall."""
        csr, ref = compiled_pair(branchy_model())
        replay = simulate(csr)
        assert replay.finish_cycles == csr.schedule.makespan == ref.makespan
        assert task_keys(replay.schedule) == task_keys(ref)
        assert replay.per_layer_stall == {
            layer: (end - start) - busy
            for layer, (start, end, busy) in ref.per_layer_stats().items()
        }
        assert replay.events_processed == replay.num_tasks


class TestZooRowOrder:
    """Row for row against the oracle on the zoo: every Stage IV kernel."""

    @pytest.mark.parametrize(
        "model",
        ["tinyyolov3", "tinyyolov4", "tiny_csp", "tiny_dual_head", "tiny_sequential"],
    )
    def test_kernels_match_oracle_row_for_row(self, model):
        from repro.models import build

        canonical = preprocess(build(model), quantization=None).graph
        min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        for extra, mapping in ((0, "none"), (16, "none"), (16, "wdup")):
            arch = paper_case_study(min_pes + extra)
            for granularity in (FINEST, SetGranularity(rows_per_set=3)):
                for order_mode in ("dynamic", "static"):
                    options = ScheduleOptions(
                        mapping=mapping, granularity=granularity, order_mode=order_mode
                    )
                    compiled = compile_model(
                        canonical, arch, options, assume_canonical=True
                    )
                    reference = oracle_schedule(compiled)
                    assert task_keys(compiled.schedule) == task_keys(reference)
                deps = compiled.dependencies
                assert task_keys(simulate(compiled).schedule) == task_keys(
                    cross_layer_schedule_dynamic(compiled.mapped, deps)
                )
                fast = cross_layer_schedule_batch(compiled.mapped, deps, 3)
                slow = reference_batch_schedule(compiled.mapped, deps, 3)
                assert task_keys(fast.schedule) == task_keys(slow.schedule)
                assert fast.image_spans == slow.image_spans


@st.composite
def layered_dags(draw):
    """A hand-built positive-area set graph: 2-6 layers in topological
    order, with names shuffled against it (so the layer-name tie-break
    differs from layer order), 1-8 sets each of area 1-4, and random
    edges to sets of earlier layers."""
    num_layers = draw(st.integers(2, 6))
    names = draw(st.permutations([f"l{i}" for i in range(num_layers)]))
    sets: dict = {}
    deps: dict = {}
    for lid, name in enumerate(names):
        heights = draw(st.lists(st.integers(1, 4), min_size=1, max_size=8))
        sets[name] = [Rect(si, 0, si + h, 1) for si, h in enumerate(heights)]
        earlier = [(pred, pi) for pred in names[:lid] for pi in range(len(sets[pred]))]
        for si in range(len(heights)):
            deps[(name, si)] = (
                draw(st.lists(st.sampled_from(earlier), unique=True, max_size=4))
                if earlier
                else []
            )
    return graph_from_deps(sets, deps)


def assert_ready_order_matches_oracle(dependencies):
    """The dynamic kernel and the replay equal the oracle row for row,
    and the replay's stalls are the oracle's idle cycles per layer;
    returns the rows."""
    arrays = dependencies.arrays
    # The oracle's event loop reads only the set graph.
    reference = cross_layer_schedule_dynamic(None, dependencies)
    replay, stalls, _ = csr_replay(arrays, "clsa-cim")
    rows = task_keys(reference)
    assert task_keys(csr_dynamic_schedule(arrays)) == rows
    assert task_keys(replay) == rows
    assert stalls == {
        layer: (end - start) - busy
        for layer, (start, end, busy) in reference.per_layer_stats().items()
    }
    return rows


def assert_priced_replay_matches_oracle(dependencies, delays):
    """The replay priced by the edge ``delays`` equals the oracle's
    cost-model event loop row for row, stalls included; returns the rows."""
    reference = reference_simulate(dependencies, ColumnCostModel(dependencies, delays))
    replay, stalls, events = csr_replay(dependencies.arrays, "clsa-cim", delays)
    rows = task_keys(reference.schedule)
    assert task_keys(replay) == rows
    assert stalls == reference.per_layer_stall
    assert events == reference.events_processed
    return rows


def assert_batch_matches_oracle(dependencies, batch_size):
    """The batch kernel equals the oracle's batch event loop row for row,
    image spans included."""
    reference = reference_batch_schedule(None, dependencies, batch_size)
    schedule, spans = csr_batch_schedule(dependencies.arrays, batch_size)
    assert task_keys(schedule) == task_keys(reference.schedule)
    assert spans == reference.image_spans


class TestReadyOrderPerLayer:
    """The per-layer dynamic and batch kernels against the global
    event-loop oracles, including layers whose ready order is not
    row-major (the heap fallback) and empty sets."""

    def test_fallback_layer_pinned(self):
        """Height-axis duplication splits c1 into two row stripes that
        finish rows in parallel, so c2 runs its sets out of row-major
        order: no row-major recurrence produces this order."""
        b = GraphBuilder("stripes")
        x = b.input((16, 16, 2), name="in")
        x = b.conv2d(x, 2, kernel=3, padding="same", use_bias=False, name="c1")
        b.conv2d(x, 2, kernel=1, strides=2, padding="valid", use_bias=False, name="c2")
        canonical = preprocess(b.graph, quantization=None).graph
        min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        assert min_pes + 1 == 3
        options = ScheduleOptions(mapping="wdup", duplication_axis="height")
        compiled = compile_model(
            canonical, paper_case_study(min_pes + 1), options, assume_canonical=True
        )
        assert compiled.mapped.base_layers() == ["c1/dup0", "c1/dup1", "c2"]
        c2 = [t.set_index for t in compiled.schedule.tasks if t.layer == "c2"]
        assert c2 == [0, 4, 1, 5, 2, 6, 3, 7]
        reference = cross_layer_schedule_dynamic(compiled.mapped, compiled.dependencies)
        assert task_keys(compiled.schedule) == task_keys(reference)
        assert task_keys(simulate(compiled).schedule) == task_keys(reference)
        # At batch 2 each image keeps that order, image 0 first.
        batch = cross_layer_schedule_batch(compiled.mapped, compiled.dependencies, 2)
        c2 = [(t.image, t.set_index) for t in batch.schedule.tasks if t.layer == "c2"]
        assert c2 == [(image, si) for image in (0, 1) for si in (0, 4, 1, 5, 2, 6, 3, 7)]
        assert_batch_matches_oracle(compiled.dependencies, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        dependencies=layered_dags(),
        batch_size=st.integers(1, 8),
        largest_delay=st.sampled_from([0, 1, 3, 50]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_random_dags_match_oracle(self, dependencies, batch_size, largest_delay, seed):
        assert_ready_order_matches_oracle(dependencies)
        assert_batch_matches_oracle(dependencies, batch_size)
        delays = np.random.default_rng(seed).integers(
            0, largest_delay + 1, dependencies.arrays.num_edges
        )
        assert_priced_replay_matches_oracle(dependencies, delays)

    def test_delayed_heap_layer_pinned(self):
        """b0 (no predecessors) holds b while b1 and b2 become visible;
        b1's data is delayed past b2's, so b serves b2 first: an order
        no row-major recurrence produces, and not the free replay's."""
        unit = Rect(0, 0, 1, 1)
        sets = {"a": [unit, Rect(1, 0, 2, 1)], "b": [Rect(0, 0, 5, 1), unit, unit]}
        deps = {
            ("a", 0): [], ("a", 1): [],
            ("b", 0): [], ("b", 1): [("a", 0)], ("b", 2): [("a", 1)],
        }
        dependencies = graph_from_deps(sets, deps)
        rows = assert_priced_replay_matches_oracle(dependencies, np.array([3, 0]))
        b = [(index, start, end) for layer, index, _, start, end, _ in rows if layer == "b"]
        assert b == [(0, 0, 5), (2, 5, 6), (1, 6, 7)]
        free = [row[1] for row in assert_ready_order_matches_oracle(dependencies)]
        assert free == [0, 0, 1, 1, 2]

    def test_isolated_empty_set_matches_oracle(self):
        sets = {
            "b": [Rect(0, 0, 2, 2), Rect(2, 0, 2, 2), Rect(2, 0, 4, 2)],
            "a": [Rect(0, 0, 0, 3), Rect(0, 0, 1, 3), Rect(1, 0, 2, 3)],
        }
        deps = {
            ("b", 0): [], ("b", 1): [], ("b", 2): [],
            ("a", 0): [], ("a", 1): [("b", 2)], ("a", 2): [("b", 0)],
        }
        late = graph_from_deps(sets, deps)
        rows = assert_ready_order_matches_oracle(late)
        assert ("b", 1, 0, 4, 4, Rect(2, 0, 2, 2)) in rows
        # An empty set that starts with a longer, lower-indexed set of its
        # layer: exclusivity sorted by start alone read that as an overlap.
        sets = {
            "p": [Rect(0, 0, 1, 2)],
            "c": [Rect(0, 0, 1, 2), Rect(1, 0, 2, 2), Rect(2, 0, 2, 2)],
        }
        deps = {("p", 0): [], ("c", 0): [("p", 0)], ("c", 1): [], ("c", 2): []}
        shared = graph_from_deps(sets, deps)
        rows = assert_ready_order_matches_oracle(shared)
        assert [row[1:5] for row in rows if row[0] == "c"] == [
            (1, 0, 0, 2), (2, 0, 2, 2), (0, 0, 2, 4)
        ]
        sets = {
            "l0": [Rect(0, 0, 2, 1)],
            "l1": [Rect(0, 0, 2, 1), Rect(1, 0, 2, 1), Rect(2, 0, 2, 1)],
        }
        deps = {("l0", 0): [], ("l1", 0): [("l0", 0)], ("l1", 1): [], ("l1", 2): []}
        batched = graph_from_deps(sets, deps)
        assert_ready_order_matches_oracle(batched)
        for dependencies in (late, shared, batched):
            assert_batch_matches_oracle(dependencies, 2)
            for delay in (0, 3):
                delays = np.full(dependencies.arrays.num_edges, delay)
                assert_priced_replay_matches_oracle(dependencies, delays)

    def test_empty_set_with_edge_rejected(self):
        sets = {"a": [Rect(0, 0, 1, 2)], "b": [Rect(0, 0, 0, 2), Rect(0, 0, 1, 2)]}
        deps = {("a", 0): [], ("b", 0): [("a", 0)], ("b", 1): [("a", 0)]}
        arrays = graph_from_deps(sets, deps).arrays
        with pytest.raises(ValueError, match=r"\('b', 0\) is empty"):
            csr_dynamic_schedule(arrays)
        with pytest.raises(ValueError, match=r"\('b', 0\) is empty"):
            csr_replay(arrays, "clsa-cim")
        with pytest.raises(ValueError, match=r"\('b', 0\) is empty"):
            csr_batch_schedule(arrays, 2)
        # The static order needs no release keys.
        csr_static_schedule(arrays, {"a": [0], "b": [0, 1]})

    @pytest.mark.parametrize("num_layers, batch_size", [(2, 1500), (1, 2500)])
    def test_completion_keys_overflow_rejected(self, num_layers, batch_size):
        """Completion keys reach about ``work * batch * layers``; past the
        int64 headroom the kernel raises instead of wrapping.  At one
        layer and batch 2500 the keys still fit but twice a key (the
        emission rank) does not."""
        big = Rect(0, 0, 1 << 20, 1 << 20)
        names = [f"l{i}" for i in range(num_layers)]
        deps = {(name, 0): [(prev, 0)] for prev, name in zip(names, names[1:])}
        deps[(names[0], 0)] = []
        arrays = graph_from_deps({name: [big] for name in names}, deps).arrays
        with pytest.raises(ValueError, match="overflow int64"):
            csr_batch_schedule(arrays, batch_size)

    def test_work_past_int64_rejected_by_every_entry_point(self):
        """Three sets of just under ``2**62`` cycles each: their int64 sum
        wraps negative, and every Stage IV entry point still raises."""
        side = 2**31 - 1
        sets = {"l0": [Rect(0, 0, side, side)] * 3}
        arrays = graph_from_deps(sets, {("l0", i): [] for i in range(3)}).arrays
        for schedule in (
            lambda: csr_static_schedule(arrays, {"l0": [0, 1, 2]}),
            lambda: csr_dynamic_schedule(arrays),
            lambda: csr_replay(arrays, "clsa-cim"),
            lambda: csr_batch_schedule(arrays, 1),
        ):
            with pytest.raises(ValueError, match="overflow int64"):
                schedule()

    def test_largest_batch_within_key_headroom_matches_oracle(self):
        """One layer at batch 2047: twice its last completion key is just
        under 2**63, and the rows are still the oracle's."""
        big = graph_from_deps({"l0": [Rect(0, 0, 1 << 20, 1 << 20)]}, {("l0", 0): []})
        assert_batch_matches_oracle(big, 2047)

    def test_edge_to_later_layer_rejected(self):
        sets = {"a": [Rect(0, 0, 1, 2)], "b": [Rect(0, 0, 1, 2)]}
        deps = {("a", 0): [("b", 0)], ("b", 0): []}
        arrays = graph_from_deps(sets, deps).arrays
        with pytest.raises(AssertionError, match="topological layer order"):
            csr_dynamic_schedule(arrays)
        with pytest.raises(AssertionError, match="topological layer order"):
            csr_static_schedule(arrays, {"a": [0], "b": [0]})

    def test_partition_of_rect_lists(self):
        shared = [Rect(0, 0, 1, 4), Rect(1, 0, 2, 4)]
        twin = [Rect(0, 0, 1, 4), Rect(1, 0, 2, 4)]  # equal values, own objects
        other = [Rect(0, 0, 3, 3)]
        per_layer = [shared, list(shared), twin, other, [], list(other)]
        flat = [rect for rects in per_layer for rect in rects]
        partition = SetPartition.of(dict(zip("abcdef", per_layer)))
        assert partition.coords.dtype == np.int64
        assert np.array_equal(partition.coords, rect_columns(flat))
        blocks = partition.blocks
        assert blocks[0] is blocks[1] is blocks[2] and blocks[3] is blocks[5]
        assert SetPartition.of({}).coords.shape == (4, 0)


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
            assert_arrays_schedule(arrays, start, end)

    def test_zero_length_row_is_no_overlap(self):
        """An empty set at t beside a longer set of its layer starting at t
        is no overlap, whatever the row order: the oracle's rows sorted by
        (layer, set) pass the schedule check and the verifier rule."""
        sets = {
            "p": [Rect(0, 0, 1, 2)],
            "c": [Rect(0, 0, 1, 2), Rect(1, 0, 2, 2), Rect(2, 0, 2, 2)],
        }
        deps = {("p", 0): [], ("c", 0): [("p", 0)], ("c", 1): [], ("c", 2): []}
        dependencies = graph_from_deps(sets, deps)
        rows = cross_layer_schedule_dynamic(None, dependencies).tasks
        by_set = Schedule("clsa-cim", tasks=sorted(rows, key=lambda t: (t.layer, t.set_index)))
        by_set.validate_intra_layer_order()
        context = VerifyContext(dependencies=dependencies, schedule=by_set)
        report = verify_context(context, rules=("schedule.exclusivity",))
        assert report.by_rule("schedule.exclusivity") == []

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
            assert_arrays_schedule(arrays, start, end)


class TestColumnarSchedule:
    def reference(self):
        return [
            SetTask("a", 0, Rect(0, 0, 1, 4), 0, 4),
            SetTask("a", 1, Rect(1, 0, 2, 4), 4, 8),
            SetTask("b", 0, Rect(0, 0, 1, 2), 6, 8),
        ]

    def both_forms(self):
        tasks = self.reference()
        row = Schedule(policy="p", tasks=tasks)
        col = Schedule(policy="p", columns=ScheduleColumns.from_tasks(tasks))
        return row, col

    def test_lazy_materialization_round_trips(self):
        row, col = self.both_forms()
        assert col.num_tasks == row.num_tasks == 3
        assert col.tasks == row.tasks == tuple(self.reference())
        assert col.tasks is col.tasks  # materialized once

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

    def test_tasks_read_only(self):
        rows = self.reference()
        row = Schedule(policy="p", tasks=rows)
        rows.append(SetTask("c", 0, Rect(0, 0, 1, 1), 8, 9))
        assert row.num_tasks == len(row.tasks) == 3  # built once, not aliased
        for schedule in self.both_forms():
            with pytest.raises(AttributeError):
                schedule.tasks.append(SetTask("c", 0, Rect(0, 0, 1, 1), 8, 9))
            with pytest.raises(AttributeError):
                schedule.tasks = []
        with pytest.raises(ValueError, match="not both"):
            Schedule(policy="p", tasks=rows, columns=ScheduleColumns.from_tasks(rows))

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

    def test_pickle_round_trip(self):
        import pickle

        for schedule in self.both_forms():
            clone = pickle.loads(pickle.dumps(schedule))
            assert clone == schedule
            assert clone.makespan == 8
            assert clone.busy_cycles() == {"a": 8, "b": 2}


class TestColumnarSerialization:
    def test_columnar_artifact_round_trip(self, tmp_path):
        from repro.core import CompiledModel

        csr, _ = compiled_pair(branchy_model())
        path = tmp_path / "columnar.json"
        csr.save(str(path))
        loaded = CompiledModel.load(str(path))
        assert loaded.schedule.policy == csr.schedule.policy
        assert task_keys(loaded.schedule) == task_keys(csr.schedule)

    def test_row_form_schedule_dict_still_loads(self):
        from repro.ir.serialize import schedule_from_dict, schedule_to_dict

        record = {"policy": "p", "tasks": [["a", 0, [0, 0, 1, 4], 0, 4, 0]]}
        loaded = schedule_from_dict(record)
        row = Schedule(policy="p", tasks=[SetTask("a", 0, Rect(0, 0, 1, 4), 0, 4)])
        assert loaded == row
        resaved = schedule_to_dict(loaded)  # the writer is columnar-only
        assert "columns" in resaved and "tasks" not in resaved
        assert schedule_from_dict(resaved) == row

    def test_columnar_schedule_dict_shape(self):
        from repro.ir.serialize import schedule_from_dict, schedule_to_dict

        tasks = [SetTask("a", 0, Rect(0, 0, 1, 4), 0, 4, image=2)]
        col = Schedule(policy="p", columns=ScheduleColumns.from_tasks(tasks))
        record = schedule_to_dict(col)
        assert "columns" in record and "tasks" not in record
        assert record["columns"]["layers"] == ["a"]
        assert record["columns"]["image"] == [2]
        back = schedule_from_dict(record)
        assert back == col
