"""Columnar Stage I: the set partition and the readers of its columns.

``determine_sets`` returns a :class:`SetPartition` of coordinate
columns; Stage II, the baseline, the store, the verifier and the
artifact codec read them, and ``Rect`` lists are only a lazy view.
"""

import dataclasses
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import deps_dict, graph_from_deps, rect_grid, reference_partition

from repro.arch import paper_case_study
from repro.core import (
    CompilationCache,
    PartitionMismatchError,
    PassManager,
    ScheduleOptions,
    SetGranularity,
    SetPartition,
    compile_model,
    determine_dependencies,
    determine_sets,
    layer_by_layer_schedule,
    partition_ofm,
)
from repro.core.cache import graph_fingerprint
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect, Shape
from repro.ir import rect_grid as view_grid
from repro.ir.ops import Conv2D, rect_columns
from repro.ir.serialize import compiled_from_dict, compiled_to_dict
from repro.mapping import minimum_pe_requirement
from repro.models.zoo import build
from repro.session import Session
from repro.sim import estimate_energy
from repro.store import ArtifactStore, codec_for
from repro.store.disk import _pack_entry, _unpack_entry
from repro.verify import verify_compiled

GRANULARITIES = st.one_of(
    st.builds(
        SetGranularity,
        rows_per_set=st.integers(1, 16),
        min_rows=st.integers(1, 8),
        min_cols=st.integers(1, 8),
    ),
    st.builds(
        SetGranularity,
        rows_per_set=st.none(),
        target_sets=st.integers(1, 64),
        min_rows=st.integers(1, 8),
        min_cols=st.integers(1, 8),
    ),
)


def one_layer(height, width):
    b = GraphBuilder("one")
    x = b.input((height, width, 2), name="in")
    b.conv2d(x, 3, kernel=1, padding="valid", use_bias=False, name="c")
    return b.graph


def shared_shapes():
    """c1 and c2 share a 9x7 OFM; c3 reads a pooled 4x3 one."""
    b = GraphBuilder("net")
    x = b.input((9, 7, 3), name="in")
    c1 = b.conv2d(x, 4, kernel=3, padding="same", use_bias=False, name="c1")
    c2 = b.conv2d(c1, 5, kernel=1, padding="valid", use_bias=False, name="c2")
    b.conv2d(b.maxpool(c2, 2), 2, kernel=1, padding="valid", use_bias=False, name="c3")
    return b.graph


def _round_trip(stage, value):
    codec = codec_for(stage)
    return _unpack_entry(_pack_entry(stage, codec, value), stage, codec)


@pytest.fixture(scope="module")
def tiny_compiled():
    canonical = preprocess(build("tinyyolov4"), quantization=None).graph
    pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar) + 8
    return compile_model(
        canonical, paper_case_study(pes), ScheduleOptions(), assume_canonical=True
    )


class TestOracleIdentity:
    @settings(max_examples=200, deadline=None)
    @given(height=st.integers(1, 64), width=st.integers(1, 64), granularity=GRANULARITIES)
    def test_columns_and_view_equal_loop_built_lists(self, height, width, granularity):
        expected = reference_partition(Shape(height, width, 3), granularity)
        sets = determine_sets(one_layer(height, width), granularity)
        np.testing.assert_array_equal(sets.block("c"), rect_columns(expected))
        np.testing.assert_array_equal(sets.coords, rect_columns(expected))
        assert sets.offsets.tolist() == [0, len(expected)]
        assert sets["c"] == expected
        assert partition_ofm(Shape(height, width, 3), granularity) == expected

    @given(
        height=st.integers(1, 40),
        width=st.integers(1, 40),
        tile_rows=st.integers(1, 45),
        tile_cols=st.integers(1, 45),
    )
    def test_rect_grid_view_equals_loop(self, height, width, tile_rows, tile_cols):
        assert view_grid(height, width, tile_rows, tile_cols) == rect_grid(
            height, width, tile_rows, tile_cols
        )

    @pytest.mark.parametrize("dims", [(0, 4, 1, 1), (4, 0, 1, 1), (4, 4, 0, 1), (4, 4, 1, 0)])
    def test_rect_grid_errors_unchanged(self, dims):
        with pytest.raises(ValueError) as expected:
            rect_grid(*dims)
        with pytest.raises(ValueError, match=str(expected.value)):
            view_grid(*dims)


class TestSharedReadOnlyBlocks:
    def test_same_shaped_layers_share_one_block(self):
        sets = determine_sets(shared_shapes())
        assert sets.block("c1") is sets.block("c2")
        assert sets.block("c3") is not sets.block("c1")
        decoded = _round_trip("sets", sets)
        assert decoded == sets and decoded.layers == sets.layers
        assert decoded.block("c1") is decoded.block("c2")
        assert decoded.block("c3") is not decoded.block("c1")

    def test_blocks_are_read_only(self, monkeypatch):
        graph = shared_shapes()
        sets = determine_sets(graph)
        for array in (*sets.blocks, sets.coords, sets.offsets):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            sets.blocks[0][0, 0] = 5
        rule = Conv2D.input_region_columns

        def scribbling(self, rects, *args):
            rects[2] += 0  # a rule writing into the block it reads
            return rule(self, rects, *args)

        monkeypatch.setattr(Conv2D, "input_region_columns", scribbling)
        with pytest.raises(ValueError, match="read-only"):
            determine_dependencies(graph, sets)

    def test_read_only_mapping(self):
        sets = determine_sets(shared_shapes())
        with pytest.raises(TypeError):
            sets["c1"] = []  # type: ignore[index]
        assert list(sets) == ["c1", "c2", "c3"] and len(sets) == 3
        assert "c1" in sets and "in" not in sets
        with pytest.raises(KeyError):
            _ = sets["in"]
        assert sets.rect("c3", 1) == sets["c3"][1]

    def test_pickles_as_blocks(self):
        sets = determine_sets(shared_shapes())
        assert sets["c1"]  # a built view is not pickled
        data = pickle.dumps(sets)
        assert b"repro.ir.tensor" not in data
        back = pickle.loads(data)
        assert back == sets and back.layers == sets.layers
        assert back.block("c1") is back.block("c2")
        assert not back.block("c1").flags.writeable


def test_store_served_recompile_builds_no_rect(tmp_path, monkeypatch):
    """A recompile served from a warm store, then evaluate and energy,
    decode and read the sets as columns: no ``Rect`` is built."""
    graph = build("tinyyolov4")
    canonical = preprocess(graph, quantization=None).graph
    arch = paper_case_study(minimum_pe_requirement(canonical, paper_case_study(1).crossbar) + 16)
    store = ArtifactStore(str(tmp_path / "store"))
    configs = [
        ScheduleOptions(mapping=mapping, scheduling=scheduling)
        for mapping in ("none", "wdup")
        for scheduling in ("clsa-cim", "layer-by-layer")
    ]
    warm = Session(arch, store=store)
    for options in configs:
        warm.compile(graph, options)
    warm.close()
    built = []
    init = Rect.__init__

    def counting(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Rect, "__init__", counting)
    for options in configs:
        cache = CompilationCache(store=store)
        session = Session(arch, cache=cache)
        compiled = session.compile(graph, options)
        compiled.evaluate()
        estimate_energy(compiled)
        session.close()
        assert cache.misses == 0 and cache.store_hits > 0
    assert len(built) == 0


class TestPlainDictInputs:
    """A plain mapping of ``Rect`` lists reads exactly as its partition."""

    def test_stage_two_and_dependency_graph(self, tiny_compiled):
        graph, sets = tiny_compiled.mapped, tiny_compiled.sets
        plain = dict(sets)
        want = determine_dependencies(graph, sets)
        got = determine_dependencies(graph, plain)
        from_deps = graph_from_deps(plain, deps_dict(want))
        for arrays in (got.arrays, from_deps.arrays):
            for name in ("offsets", "indptr", "indices", "area", "r0", "c0", "r1", "c1"):
                np.testing.assert_array_equal(getattr(arrays, name), getattr(want.arrays, name))
        assert got == want and from_deps == want
        assert isinstance(got.sets, SetPartition) and got.sets == plain

    def test_baseline_rows(self, tiny_compiled):
        graph, sets = tiny_compiled.mapped, tiny_compiled.sets
        want = layer_by_layer_schedule(graph, sets).columns()
        # The rows follow the graph's layer order whatever the dict's order.
        for plain in (dict(sets), dict(reversed(list(sets.items())))):
            got = layer_by_layer_schedule(graph, plain).columns()
            assert got.layers == want.layers
            for name in ("layer_id", "set_index", "start", "end", "r0", "c0", "r1", "c1"):
                np.testing.assert_array_equal(getattr(got, name), getattr(want, name))

    def test_verifier_diagnostics(self, tiny_compiled):
        sets = tiny_compiled.sets
        layer = next(name for name in sets if len(sets[name]) > 2)
        broken = {
            **sets,
            layer: sets[layer][1:] + [sets[layer][1], Rect(-1, 0, 1, 3)],
        }
        for plain in (dict(sets), broken):
            reports = [
                verify_compiled(dataclasses.replace(tiny_compiled, sets=value))
                for value in (plain, SetPartition.of(plain))
            ]
            assert [d.format() for d in reports[0].diagnostics] == [
                d.format() for d in reports[1].diagnostics
            ]
        shape = tiny_compiled.mapped.shape_of(layer)
        assert [d.message for d in reports[0].by_rule("sets.partition")] == [
            f"set [-1:1, 0:3] of '{layer}' exceeds the {shape.height}x{shape.width} OFM"
        ]


class TestPartitionCheck:
    def test_first_overlap_and_gap_named_row_major(self, tiny_compiled):
        sets = tiny_compiled.sets
        layer = next(name for name in sets if len(sets[name]) > 2)
        rects = sets[layer]
        shape = tiny_compiled.mapped.shape_of(layer)
        moved = Rect(rects[2].r0 - 1, rects[2].c0, rects[2].r1 - 1, rects[2].c1)
        broken = {**sets, layer: rects[:2] + [moved] + rects[3:]}
        report = verify_compiled(
            dataclasses.replace(tiny_compiled, sets=broken), rules=("sets.partition",)
        )
        assert sorted(d.message for d in report.diagnostics) == [
            f"Stage I sets of '{layer}' leave OFM cell ({moved.r1}, 0) uncovered",
            f"Stage I sets of '{layer}' overlap at OFM cell ({moved.r0}, 0)",
        ]
        assert moved.r1 < shape.height

    def test_each_distinct_block_checked_once(self, tiny_compiled, monkeypatch):
        from repro.core import sets as stage_one

        calls = []
        check = stage_one.partition_problems

        def counted(block, height, width):
            calls.append((id(block), height, width))
            return check(block, height, width)

        monkeypatch.setattr(stage_one, "partition_problems", counted)
        report = verify_compiled(tiny_compiled, rules=("sets.partition",))
        assert report.ok
        distinct = {(id(block), *tiny_compiled.mapped.shape_of(layer).hwc[:2])
                    for layer, block in zip(tiny_compiled.sets.layers, tiny_compiled.sets.blocks)}
        assert len(calls) == len(distinct) < len(tiny_compiled.sets)


def test_artifact_codec_reads_columns_back(tiny_compiled):
    record = compiled_to_dict(tiny_compiled)
    assert record["sets"] == {
        layer: [[r.r0, r.c0, r.r1, r.c1] for r in rects]
        for layer, rects in tiny_compiled.sets.items()
    }
    back = compiled_from_dict(record)
    assert isinstance(back.sets, SetPartition)
    assert back.sets == tiny_compiled.sets and back.sets.layers == tiny_compiled.sets.layers
    np.testing.assert_array_equal(back.sets.coords, tiny_compiled.sets.coords)
    with pytest.raises(ValueError):
        compiled_from_dict({**record, "sets": {"c": [[0, 0, 1]]}})


def test_mismatched_deps_entry_never_schedules(tmp_path):
    """A ``deps`` entry over other sets than the ones held raises a typed
    error before the schedule pass runs."""
    canonical = preprocess(build("tiny_sequential"), quantization=None).graph
    store = ArtifactStore(str(tmp_path / "store"))
    coarse = determine_dependencies(canonical, determine_sets(canonical, SetGranularity(2)))
    options = ScheduleOptions(mapping="none")
    key = ("deps", ("graph", graph_fingerprint(canonical)), options.granularity)
    assert store.put("deps", key, coarse)
    started = []

    class Record:
        def on_pass_start(self, name, ctx):
            started.append(name)

    with pytest.raises(PartitionMismatchError):
        PassManager().compile(
            canonical, paper_case_study(40), options,
            cache=CompilationCache(store=store), assume_canonical=True, hooks=[Record()],
        )
    assert started[-1] == "deps" and "schedule" not in started
