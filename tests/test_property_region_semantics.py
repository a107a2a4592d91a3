"""Semantic soundness of Stage II region propagation.

The strongest possible check of ``trace_to_base``: if Stage II claims a
consumer set only needs region R of a producer's OFM, then *corrupting
every producer value outside R* must leave the consumer set's numeric
values unchanged.  Hypothesis sweeps kernel/stride/pooling geometry.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import trace_to_base

from repro.core import determine_dependencies, determine_sets
from repro.ir import Executor, GraphBuilder, Rect


@st.composite
def geometries(draw):
    kernel = draw(st.sampled_from([1, 3, 5]))
    stride = draw(st.sampled_from([1, 2]))
    pool = draw(st.booleans())
    size = draw(st.sampled_from([10, 13, 16]))
    return kernel, stride, pool, size


def build_two_layer(kernel, stride, pool, size, seed):
    b = GraphBuilder("regions")
    x = b.input((size, size, 2), name="in")
    c1 = b.conv2d(x, 3, kernel=1, padding="valid", use_bias=False, name="c1")
    path = c1
    if pool:
        path = b.maxpool(path, 2, padding="same")
    b.conv2d(path, 4, kernel=kernel, strides=stride, padding="same",
             use_bias=False, name="c2")
    g = b.graph
    g.initialize_weights(seed=seed)
    return g


@settings(max_examples=30, deadline=None)
@given(geometry=geometries(), seed=st.integers(0, 100), set_pick=st.integers(0, 10_000))
def test_property_traced_region_is_sufficient(geometry, seed, set_pick):
    """Values outside the traced producer region cannot affect the set."""
    kernel, stride, pool, size = geometry
    g = build_two_layer(kernel, stride, pool, size, seed)
    sets = determine_sets(g)
    determine_dependencies(g, sets)  # Stage II must accept the geometry

    consumer_sets = sets["c2"]
    set_index = set_pick % len(consumer_sets)
    rect = consumer_sets[set_index]

    # region of c1's OFM that Stage II says this set needs
    op = g["c2"]
    shapes = g.infer_shapes()
    input_shapes = [shapes[p] for p in op.inputs]
    needed = op.input_regions(rect, input_shapes, shapes["c2"])
    traced = trace_to_base(g, op.inputs[0], needed[0])
    region = Rect.empty()
    for base_layer, base_rect in traced:
        assert base_layer == "c1"
        region = region.union_bbox(base_rect)

    rng = np.random.default_rng(seed)
    image = rng.normal(size=(size, size, 2))
    executor = Executor(g)
    clean = executor.run(image, node_names=["c1", "c2"])
    reference = clean["c2"][rect.r0 : rect.r1, rect.c0 : rect.c1, :]

    # corrupt c1's output outside the traced region and re-run the tail
    corrupted = clean["c1"].copy()
    mask = np.ones(corrupted.shape[:2], dtype=bool)
    if not region.is_empty():
        mask[region.r0 : region.r1, region.c0 : region.c1] = False
    corrupted[mask] = rng.normal(size=corrupted.shape)[mask] * 1e3

    # rebuild a graph that starts at c1's output
    b2 = GraphBuilder("tail")
    x = b2.input((corrupted.shape[0], corrupted.shape[1], 3), name="c1_out")
    path = x
    if pool:
        path = b2.maxpool(path, 2, padding="same")
    b2.conv2d(path, 4, kernel=kernel, strides=stride, padding="same",
              use_bias=False, name="c2")
    tail = b2.graph
    tail["c2"].weights = g["c2"].weights
    dirty = Executor(tail).run(corrupted, node_names=["c2"])["c2"]
    actual = dirty[rect.r0 : rect.r1, rect.c0 : rect.c1, :]

    np.testing.assert_allclose(actual, reference, atol=1e-9)


@settings(max_examples=20, deadline=None)
@given(geometry=geometries(), seed=st.integers(0, 100))
def test_property_dependencies_cover_all_producers(geometry, seed):
    """Every consumer set's deps cover the full traced region — no
    producer set intersecting the region is missing."""
    kernel, stride, pool, size = geometry
    g = build_two_layer(kernel, stride, pool, size, seed)
    sets = determine_sets(g)
    deps = determine_dependencies(g, sets)
    shapes = g.infer_shapes()
    op = g["c2"]
    input_shapes = [shapes[p] for p in op.inputs]
    for set_index, rect in enumerate(sets["c2"]):
        needed = op.input_regions(rect, input_shapes, shapes["c2"])
        traced = trace_to_base(g, op.inputs[0], needed[0])
        listed = set(deps.predecessors("c2", set_index))
        for base_layer, base_rect in traced:
            for pred_index, pred_rect in enumerate(sets[base_layer]):
                if pred_rect.intersects(base_rect):
                    assert (base_layer, pred_index) in listed
