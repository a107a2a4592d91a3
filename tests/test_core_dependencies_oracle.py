"""Columnar Stage II against the set-by-set reference, gid for gid.

``determine_dependencies`` moves every set of a layer through the
column rules at once and emits the CSR set graph;
``reference_dependencies`` calls ``set_dependencies`` set by set,
with the scalar rules.  The CSR must equal
the reference graph lowered to CSR: the same predecessors in the same
order (path order, then set index, first occurrence kept).  The
reference queries a ``RectIndex`` on zoo graphs and scans all pairs
(``indexes=None``) on small ones.
"""

import pickle
import random
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_property_random_models import random_models

from repro import Session
from repro.analysis.sweep import PAPER_XS
from repro.arch import CrossbarSpec, paper_case_study
from repro.core import (
    ScheduleOptions,
    SetGranularity,
    build_set_indexes,
    determine_dependencies,
    determine_sets,
    partition_ofm,
    reference_dependencies,
)
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect
from repro.ir.ops import Conv2D, Op
from repro.ir.tensor import rect_grid
from repro.mapping import minimum_pe_requirement
from repro.models import tiny_dual_head
from repro.models.zoo import benchmark_by_name, build


def assert_matches_reference(graph, sets, dependencies=None, all_pairs=False):
    if dependencies is None:
        dependencies = determine_dependencies(graph, sets)
    indexes = None if all_pairs else build_set_indexes(sets)
    expected = reference_dependencies(graph, sets, indexes).arrays
    arrays = dependencies.arrays
    assert arrays.layers == expected.layers
    for name in ("offsets", "indptr", "indices", "r0", "c0", "r1", "c1"):
        np.testing.assert_array_equal(getattr(arrays, name), getattr(expected, name))


def shuffled(sets, seed):
    rng = random.Random(seed)
    out = {}
    for layer, rects in sets.items():
        rects = list(rects)
        rng.shuffle(rects)
        out[layer] = rects
    return out


@pytest.fixture(scope="module")
def zoo_canonicals():
    return {
        name: preprocess(build(name), quantization=None).graph
        for name in ("tinyyolov3", "tinyyolov4", "resnet50")
    }


@pytest.fixture(scope="module")
def deep_canonicals():
    return {
        name: preprocess(build(name), quantization=None).graph
        for name in ("resnet101", "resnet152")
    }


class TestZooGridGraphs:
    """The clsa-cim cells of the Fig. 7 grid, through the compiler."""

    @pytest.mark.parametrize("name", ["tinyyolov3", "tinyyolov4", "resnet50"])
    def test_every_grid_graph_matches(self, name, zoo_canonicals):
        canonical = zoo_canonicals[name]
        min_pes = benchmark_by_name(name).min_pes
        cells = [("none", 0)] + [("wdup", x) for x in PAPER_XS]
        for mapping, x in cells:
            compiled = Session(paper_case_study(min_pes + x), cache=False).compile(
                canonical,
                ScheduleOptions(mapping=mapping, scheduling="clsa-cim"),
                assume_canonical=True,
            )
            assert_matches_reference(compiled.mapped, compiled.sets, compiled.dependencies)

    def test_coarse_granularity(self, zoo_canonicals):
        canonical = zoo_canonicals["tinyyolov4"]
        sets = determine_sets(canonical, SetGranularity(rows_per_set=None, target_sets=6))
        assert_matches_reference(canonical, sets)

    def test_shuffled_set_lists(self, zoo_canonicals):
        canonical = zoo_canonicals["tinyyolov3"]
        sets = shuffled(determine_sets(canonical), seed=3)
        assert_matches_reference(canonical, sets)

    @pytest.mark.parametrize("name", ["resnet101", "resnet152"])
    @pytest.mark.parametrize("mapping, x", [("none", 0), ("wdup", 32)])
    def test_deep_resnet_grid_graphs(self, name, mapping, x, deep_canonicals):
        """Hundreds of producer paths per graph, mostly down the
        identity-shortcut Add/Activation chains."""
        compiled = Session(
            paper_case_study(benchmark_by_name(name).min_pes + x), cache=False
        ).compile(
            deep_canonicals[name],
            ScheduleOptions(mapping=mapping, scheduling="clsa-cim"),
            assume_canonical=True,
        )
        assert_matches_reference(compiled.mapped, compiled.sets, compiled.dependencies)


class TestSmallGraphsAllPairs:
    def test_dual_head(self):
        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        assert_matches_reference(canonical, determine_sets(canonical), all_pairs=True)

    @pytest.mark.parametrize("target", [1, 3, 7])
    def test_coarse_and_shuffled(self, target):
        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        sets = determine_sets(canonical, SetGranularity(rows_per_set=None, target_sets=target))
        assert_matches_reference(canonical, sets, all_pairs=True)
        assert_matches_reference(canonical, shuffled(sets, seed=target), all_pairs=True)

    def test_empty_sets_intersect_nothing(self):
        b = GraphBuilder("empties")
        x = b.input((6, 6, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=1, padding="valid", use_bias=False, name="c1")
        b.conv2d(c1, 2, kernel=3, padding="valid", use_bias=False, name="c2")
        g = b.graph
        sets = {
            "c1": [Rect(0, 0, 3, 6), Rect(3, 0, 3, 6), Rect(3, 0, 6, 6)],
            "c2": [Rect(0, 0, 2, 4), Rect(2, 0, 2, 4), Rect(2, 0, 4, 4)],
        }
        assert_matches_reference(g, sets, all_pairs=True)

    def test_bounds_stay_in_the_producer_band(self):
        """X -> A -> B with A one 16-row set: a region of B near row 0
        starts its candidate range 15 rows above A's first set, which
        without a clamp to A's band reaches X's last sets."""
        b = GraphBuilder("band")
        x = b.input((16, 4, 2), name="in")
        cx = b.conv2d(x, 2, kernel=1, padding="valid", use_bias=False, name="X")
        ca = b.conv2d(cx, 2, kernel=1, padding="valid", use_bias=False, name="A")
        b.conv2d(ca, 2, kernel=3, padding="valid", use_bias=False, name="B")
        sets = {
            "X": rect_grid(16, 4, 1, 4),
            "A": [Rect(0, 0, 16, 4)],
            "B": rect_grid(14, 2, 1, 2),
        }
        dependencies = determine_dependencies(b.graph, sets)
        assert dependencies.predecessors("B", 0) == [("A", 0)]
        assert_matches_reference(b.graph, sets, dependencies, all_pairs=True)

    @pytest.mark.parametrize(
        "granularity", [SetGranularity(), SetGranularity(rows_per_set=None, target_sets=4)]
    )
    def test_two_paths_to_one_producer(self, granularity):
        """Q reads P directly and through a 3x3 max pool: two paths of
        different geometry to one producer, so a set of P is reached
        twice and only its first occurrence is kept."""
        b = GraphBuilder("two_paths")
        x = b.input((9, 8, 2), name="in")
        p = b.conv2d(x, 3, kernel=3, padding="same", use_bias=False, name="P")
        pooled = b.maxpool(b.relu(p), 3, strides=1, padding="same")
        b.conv2d(b.add([pooled, p]), 3, kernel=3, padding="same", use_bias=False, name="Q")
        canonical = preprocess(b.graph, quantization=None).graph
        sets = determine_sets(canonical, granularity)
        dependencies = determine_dependencies(canonical, sets)
        assert all(
            len(set(preds)) == len(preds) for preds in dependencies.deps.values()
        )
        assert_matches_reference(canonical, sets, dependencies, all_pairs=True)
        assert_matches_reference(canonical, shuffled(sets, seed=5), all_pairs=True)


def mixed_height_sets(graph, seed):
    """Stage I sets with each layer's stripe height drawn at random."""
    rng = random.Random(seed)
    shapes = graph.infer_shapes()
    return {
        layer: partition_ofm(shapes[layer], SetGranularity(rows_per_set=rng.choice([1, 3, 16])))
        for layer in graph.base_layers()
    }


@settings(max_examples=25, deadline=None)
@given(
    model=random_models(),
    rows=st.sampled_from([1, 2, 5, None, "mixed"]),
    seed=st.integers(0, 99),
)
def test_property_random_graphs_match_all_pairs(model, rows, seed):
    canonical = preprocess(model, quantization=None).graph
    if rows == "mixed":
        sets = mixed_height_sets(canonical, seed)
    elif rows is None:
        sets = determine_sets(canonical, SetGranularity(rows_per_set=None, target_sets=4))
    else:
        sets = determine_sets(canonical, SetGranularity(rows_per_set=rows))
    assert_matches_reference(canonical, sets, all_pairs=True)
    assert_matches_reference(canonical, shuffled(sets, seed), all_pairs=True)
    # ... and through the wdup rewrite (Slice / ConcatSpatial paths).
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    compiled = Session(paper_case_study(min_pes + 3), cache=False).compile(
        canonical, ScheduleOptions(mapping="wdup"), assume_canonical=True
    )
    assert_matches_reference(
        compiled.mapped, compiled.sets, compiled.dependencies, all_pairs=True
    )


@dataclass
class RowShift(Op):
    """A third-party op that defines only the scalar rules."""

    rows: int = 1

    def infer_shape(self, input_shapes):
        return input_shapes[0]

    def input_regions(self, out_rect, input_shapes, output_shape):
        in_shape = input_shapes[0]
        return [out_rect.shift(-self.rows, 0).clip(in_shape.height, in_shape.width)]


@dataclass
class Passthrough(Op):
    """A third-party op whose column rule hands its block back."""

    def infer_shape(self, input_shapes):
        return input_shapes[0]

    def input_regions(self, out_rect, input_shapes, output_shape):
        return [out_rect]

    def input_region_columns(self, rects, input_shapes, output_shape):
        return [rects]


@dataclass
class PointwiseConv(Conv2D):
    """A 1x1 conv whose column rule hands its block back."""

    def input_region_columns(self, rects, input_shapes, output_shape):
        return [rects]


class TestCustomOp:
    def graph(self):
        b = GraphBuilder("custom")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        b.graph.add(RowShift(name="shift", inputs=[c1], rows=2))
        b.conv2d("shift", 4, kernel=3, padding="same", use_bias=False, name="c2")
        return b.graph

    def test_default_column_rule_compiles(self):
        g = self.graph()
        compiled = Session(paper_case_study(8), cache=False).compile(
            g, ScheduleOptions(mapping="none")
        )
        assert compiled.dependencies.edge_count() > 0
        assert_matches_reference(
            compiled.mapped, compiled.sets, compiled.dependencies, all_pairs=True
        )

    def test_default_column_rule_loops_scalar_rule(self):
        op = RowShift(name="s", inputs=["x"], rows=3)
        shape = self.graph().infer_shapes()["c1"]
        rects = [Rect(0, 0, 2, 8), Rect(5, 1, 8, 3), Rect(4, 4, 4, 4), Rect(-2, 0, 9, 9)]
        coords = np.array([[r.r0, r.c0, r.r1, r.c1] for r in rects]).T
        (block,) = op.input_region_columns(coords, [shape], shape)
        assert [Rect(*column) for column in block.T.tolist()] == [
            op.input_regions(rect, [shape], shape)[0] for rect in rects
        ]


class TestCsrBackedGraph:
    def test_counts_read_the_arrays(self):
        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        dependencies = determine_dependencies(canonical, determine_sets(canonical))
        reference = reference_dependencies(canonical, dependencies.sets).deps
        assert dependencies.num_sets() == len(reference)
        assert dependencies.edge_count() == sum(len(p) for p in reference.values())
        fan_in = [len(p) for p in reference.values()]
        assert dependencies.fan_in_stats() == (sum(fan_in) / len(fan_in), max(fan_in))
        assert dependencies._deps is None  # no dict view was built
        assert list(dependencies.deps.items()) == list(reference.items())

    def test_pickles_without_building_the_dict(self):
        """Process-executor envelopes ship the CSR arrays, not the view."""
        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        compiled = Session(paper_case_study(8), cache=False).compile(
            canonical, ScheduleOptions(mapping="none"), assume_canonical=True
        )
        dependencies = compiled.dependencies
        back = pickle.loads(pickle.dumps(compiled)).dependencies
        assert dependencies._deps is None
        assert back._deps is None
        for name in ("offsets", "indptr", "indices", "area"):
            np.testing.assert_array_equal(
                getattr(back.arrays, name), getattr(dependencies.arrays, name)
            )
        assert back.sets == dependencies.sets
        assert back == dependencies


class TestBlocksHandedBack:
    def test_passthrough_op_compiles_to_the_reference(self):
        b = GraphBuilder("passthrough")
        x = b.input((8, 8, 2), name="in")
        c1 = b.conv2d(x, 4, kernel=3, padding="same", use_bias=False, name="c1")
        b.graph.add(Passthrough(name="through", inputs=[c1]))
        c2 = b.conv2d(b.relu("through"), 4, kernel=3, padding="same", use_bias=False)
        b.conv2d(b.add([c2, "through"]), 4, kernel=1, padding="same", use_bias=False)
        for mapping in ("none", "wdup"):
            compiled = Session(paper_case_study(12), cache=False).compile(
                b.graph, ScheduleOptions(mapping=mapping)
            )
            assert_matches_reference(
                compiled.mapped, compiled.sets, compiled.dependencies, all_pairs=True
            )

    def test_a_layers_own_empty_sets_are_filtered(self):
        """The root block is the layer's own sets, which may hold empty
        rectangles even when its column rule hands the block back."""
        b = GraphBuilder("pointwise")
        x = b.input((8, 6, 2), name="in")
        c1 = b.conv2d(x, 2, kernel=3, padding="valid", use_bias=False, name="c1")
        b.graph.add(
            PointwiseConv(name="pw", inputs=[c1], out_channels=2, kernel=(1, 1), use_bias=False)
        )
        sets = {
            "c1": [Rect(0, 0, 6, 4)],
            "pw": [Rect(0, 0, 3, 4), Rect(3, 0, 3, 4), Rect(3, 0, 6, 4)],
        }
        dependencies = determine_dependencies(b.graph, sets)
        assert dependencies.predecessors("pw", 1) == []
        assert_matches_reference(b.graph, sets, dependencies, all_pairs=True)
