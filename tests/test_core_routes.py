"""Stage II and the layer-by-layer baseline over the graph's route table.

``Graph.routes`` folds the ops that hand a region on unchanged out of
the backward walk; ``determine_dependencies`` walks it with one rule run
per distinct (op class, rule params, shapes, input block) key, and
``layer_by_layer_schedule`` takes each layer's start from it.  Both must
match the scalar oracles of ``tests/oracles`` exactly.
"""

import gc
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import layer_level_dependencies, reference_dependencies
from test_property_random_models import random_models

from repro.arch import paper_case_study
from repro.core import (
    ScheduleOptions,
    compile_model,
    determine_dependencies,
    determine_sets,
    layer_by_layer_schedule,
)
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect
from repro.ir.ops import Activation, Conv2D, Op, Slice
from repro.mapping import minimum_pe_requirement
from repro.models.zoo import MODELS, build


def assert_matches_reference(graph, sets=None):
    sets = determine_sets(graph) if sets is None else sets
    got = determine_dependencies(graph, sets).arrays
    expected = reference_dependencies(graph, sets).arrays
    for name in ("offsets", "indptr", "indices"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


def assert_starts_match_oracle(graph, sets):
    """Each layer starts at the latest end among the oracle's producers."""
    columns = layer_by_layer_schedule(graph, sets).columns()
    layer_id = columns.layer_id.tolist()
    start, end = {}, {}
    for lid, first, last in zip(layer_id, columns.start.tolist(), columns.end.tolist()):
        layer = columns.layers[lid]
        start[layer] = min(start.get(layer, first), first)
        end[layer] = max(end.get(layer, last), last)
    preds = layer_level_dependencies(graph)
    for layer in graph.base_layers():
        assert start[layer] == max((end[p] for p in preds[layer]), default=0), layer


@dataclass
class ShiftRows(Op):
    """A custom op with a parameter its rule reads but does not declare."""

    rows: int = 0

    def infer_shape(self, input_shapes):
        return input_shapes[0]

    def input_regions(self, out_rect, input_shapes, output_shape):
        shape = input_shapes[0]
        return [out_rect.shift(self.rows, 0).clip(shape.height, shape.width)]


class Grow(Activation):
    """An activation whose overridden rule reads one row more."""

    def input_regions(self, out_rect, input_shapes, output_shape):
        shape = input_shapes[0]
        grown = Rect(out_rect.r0, out_rect.c0, out_rect.r1 + 1, out_rect.c1)
        return [grown.clip(shape.height, shape.width)]

    def input_region_columns(self, rects, input_shapes, output_shape):
        return Op.input_region_columns(self, rects, input_shapes, output_shape)


class TestRouteTable:
    def test_pass_through_ops_folded_in_input_order(self):
        b = GraphBuilder("net")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, name="c1")
        c2 = b.conv2d(x, 2, kernel=1, name="c2")
        s = b.add([b.relu(b.bias_add(c2)), c1], name="sum")
        p = b.maxpool(s, 2, name="pool")
        k = b.concat([b.identity(p), x], name="cat")
        b.conv2d(k, 2, kernel=1, name="c3")
        routes = b.graph.routes()
        assert routes["sum"] == ("c2", "c1")
        assert routes["pool"] == ("pool",)
        assert routes["cat"] == ("pool",)  # the graph input ends its walk
        assert routes["in"] == ()
        assert routes["c3"] == ("c3",)

    def test_mutation_clears_the_table(self):
        b = GraphBuilder("net")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, name="c1")
        r = b.relu(c1, name="r")
        b.conv2d(r, 2, kernel=1, name="c2")
        graph = b.graph
        assert graph.routes()["r"] == ("c1",)
        graph.replace_input("r", "c1", "in")
        assert graph.routes()["r"] == ()

    def test_rule_overriding_subclass_walked_as_before(self):
        b = GraphBuilder("net")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, name="c1")
        b.graph.add(Grow("grow", [c1]))
        b.conv2d("grow", 2, kernel=1, name="c2")
        graph = b.graph
        assert graph.routes()["grow"] == ("grow",)
        assert_matches_reference(graph)
        deps = determine_dependencies(graph, determine_sets(graph))
        assert deps.predecessors("c2", 0) == [("c1", 0), ("c1", 1)]


class TestRuleMemo:
    """Same-shaped layers share a root block; rules that differ must not
    share a result even when they read that one block."""

    def test_concat_spatial_with_different_splits(self):
        b = GraphBuilder("net")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, name="c1")
        for name, cut in (("a", 2), ("b", 4)):
            top = b.slice(c1, offsets=(0, 0, 0), sizes=(cut, -1, -1))
            bottom = b.slice(c1, offsets=(cut, 0, 0), sizes=(8 - cut, -1, -1))
            joined = b.concat_spatial([top, bottom], axis="height", name=f"cs_{name}")
            b.conv2d(joined, 2, kernel=3, name=f"d_{name}")
        graph = b.graph
        shapes = graph.infer_shapes()
        assert shapes["cs_a"] == shapes["cs_b"]
        sets = determine_sets(graph)
        assert all(map(lambda p, q: p is q, sets["d_a"], sets["d_b"]))
        assert_matches_reference(graph, sets)

    def test_slices_with_different_offsets_on_one_block(self):
        b = GraphBuilder("net")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, name="c1")
        for name, row in (("a", 0), ("b", 4)):
            part = b.slice(c1, offsets=(row, 0, 0), sizes=(4, -1, -1))
            b.conv2d(part, 2, kernel=1, name=f"d_{name}")
        assert_matches_reference(b.graph)
        deps = determine_dependencies(b.graph, determine_sets(b.graph))
        assert deps.predecessors("d_b", 0) == [("c1", 4)]

    def test_custom_op_instances_keyed_by_identity(self):
        b = GraphBuilder("net")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, name="c1")
        for name, rows in (("a", 1), ("b", 3)):
            b.graph.add(ShiftRows(f"shift_{name}", [c1], rows=rows))
            b.conv2d(f"shift_{name}", 2, kernel=1, name=f"d_{name}")
        graph = b.graph
        assert ShiftRows("s").rule_params() is None
        assert_matches_reference(graph)
        deps = determine_dependencies(graph, determine_sets(graph))
        assert deps.predecessors("d_a", 0) == [("c1", 1)]
        assert deps.predecessors("d_b", 0) == [("c1", 3)]

    def test_equal_rules_run_once(self, monkeypatch):
        """Two same-shaped convs share their root rule's run; the two
        slices under them run their own rules."""
        b = GraphBuilder("net")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, name="c1")
        for name, row in (("a", 0), ("b", 4)):
            part = b.slice(c1, offsets=(row, 0, 0), sizes=(4, -1, -1))
            b.conv2d(part, 2, kernel=3, padding="same", name=f"d_{name}")
        runs = []
        for cls in (Conv2D, Slice):
            rule = cls.input_region_columns

            def counted(self, *args, rule=rule):
                runs.append(type(self).__name__)
                return rule(self, *args)

            monkeypatch.setattr(cls, "input_region_columns", counted)
        determine_dependencies(b.graph, determine_sets(b.graph))
        assert sorted(runs) == ["Conv2D", "Conv2D", "Slice", "Slice"]  # c1, one d_*, two slices


def zoo_mapped(name, mapping, axis):
    canonical = preprocess(build(name), quantization=None).graph
    pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar) + 32
    options = ScheduleOptions(
        mapping=mapping, duplication_axis=axis, scheduling="layer-by-layer"
    )
    compiled = compile_model(canonical, paper_case_study(pes), options, assume_canonical=True)
    return compiled.mapped, compiled.sets


class TestLayerByLayerStarts:
    @pytest.mark.parametrize("name", sorted(MODELS))
    @pytest.mark.parametrize(
        "mapping, axis", [("none", "width"), ("wdup", "height"), ("wdup", "width")]
    )
    def test_zoo_starts_equal_oracle(self, name, mapping, axis):
        graph, sets = zoo_mapped(name, mapping, axis)
        assert_starts_match_oracle(graph, sets)
        assert_starts_match_oracle(graph, None)

    @settings(max_examples=25, deadline=None)
    @given(model=random_models())
    def test_random_models_start_equal_oracle(self, model):
        graph = preprocess(model, quantization=None).graph
        assert_starts_match_oracle(graph, determine_sets(graph))


def test_no_reference_cycles_left_behind():
    """One compile through each scheduler leaves the cyclic collector
    nothing to free: the walks' memos are plain dicts, without closures."""
    canonical = preprocess(build("tinyyolov3"), quantization=None).graph
    pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar) + 16
    arch = paper_case_study(pes)
    gc.collect()
    gc.disable()
    try:
        for scheduling in ("clsa-cim", "layer-by-layer"):
            graph = canonical.copy()  # no route table yet
            compiled = compile_model(
                graph, arch, ScheduleOptions(scheduling=scheduling), assume_canonical=True
            )
            assert compiled.schedule.makespan > 0
            del compiled, graph
        assert gc.collect() == 0
    finally:
        gc.enable()
