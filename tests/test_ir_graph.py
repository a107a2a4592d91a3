"""Unit tests for repro.ir.graph and repro.ir.builder."""

import pytest

from repro.ir import (
    Conv2D,
    Graph,
    GraphBuilder,
    GraphError,
    Identity,
    Input,
    MaxPool,
    Shape,
    sequential,
)
from repro.verify import assert_graph, graph_issues


def tiny_graph() -> Graph:
    """input -> conv -> relu -> pool, plus a second conv branch + concat."""
    b = GraphBuilder("tiny")
    x = b.input((16, 16, 3), name="in")
    c1 = b.conv2d(x, 8, kernel=3, padding="same", name="c1")
    r1 = b.relu(c1, name="r1")
    p1 = b.maxpool(r1, 2, name="p1")
    c2 = b.conv2d(p1, 16, kernel=3, padding="same", name="c2")
    c3 = b.conv2d(p1, 16, kernel=1, padding="valid", name="c3")
    b.concat([c2, c3], name="cat")
    return b.graph


class TestGraphBasics:
    def test_lookup(self):
        g = tiny_graph()
        assert "c1" in g
        assert g["c1"].op_type == "Conv2D"
        assert len(g) == 7

    def test_missing_node_raises(self):
        g = tiny_graph()
        with pytest.raises(GraphError):
            g["nope"]

    def test_duplicate_name_rejected(self):
        g = tiny_graph()
        with pytest.raises(GraphError):
            g.add(Identity("c1", ["in"]))

    def test_inputs_outputs(self):
        g = tiny_graph()
        assert g.input_names() == ["in"]
        assert g.output_names() == ["cat"]

    def test_consumers(self):
        g = tiny_graph()
        assert sorted(g.consumers("p1")) == ["c2", "c3"]
        assert g.consumers("cat") == []

    def test_base_layers_in_topo_order(self):
        g = tiny_graph()
        assert g.base_layers() == ["c1", "c2", "c3"]

    def test_base_layers_follow_mutation(self):
        g = tiny_graph()
        layers = g.base_layers()
        layers.append("mine")  # a copy: the cached answer is unchanged
        assert g.base_layers() == ["c1", "c2", "c3"]
        g.add(Conv2D("c4", ["cat"], out_channels=4))
        assert g.base_layers() == ["c1", "c2", "c3", "c4"]
        g.remove("c4")
        g.remove("cat")
        g.remove("c3")
        assert g.base_layers() == ["c1", "c2"]
        g.insert_after("c1", Conv2D("c0", out_channels=8))
        g.bypass("c1")
        assert g.base_layers() == ["c0", "c2"]

    def test_non_base_layers(self):
        g = tiny_graph()
        assert set(g.non_base_layers()) == {"r1", "p1", "cat"}


class TestTopologicalOrder:
    def test_respects_dependencies(self):
        g = tiny_graph()
        order = g.topological_order()
        for name in g.node_names():
            for producer in g[name].inputs:
                assert order.index(producer) < order.index(name)

    def test_cycle_detection(self):
        g = Graph("cyclic")
        g.add(Input("in", [], shape=Shape(4, 4, 1)))
        g.add(Identity("a", ["b"]))
        g.add(Identity("b", ["a"]))
        with pytest.raises(GraphError, match="cycle"):
            g.topological_order()

    def test_dangling_edge_detection(self):
        g = Graph("dangling")
        g.add(Identity("a", ["ghost"]))
        with pytest.raises(GraphError, match="missing producer"):
            g.topological_order()


class TestShapeInference:
    def test_shapes(self):
        g = tiny_graph()
        shapes = g.infer_shapes()
        assert shapes["in"] == Shape(16, 16, 3)
        assert shapes["c1"] == Shape(16, 16, 8)
        assert shapes["p1"] == Shape(8, 8, 8)
        assert shapes["cat"] == Shape(8, 8, 32)

    def test_shape_of_single_node(self):
        g = tiny_graph()
        assert g.shape_of("c2") == Shape(8, 8, 16)

    def test_in_channels_of(self):
        g = tiny_graph()
        assert g.in_channels_of("c2") == 8

    def test_cache_invalidation_on_mutation(self):
        g = tiny_graph()
        assert g.shape_of("cat") == Shape(8, 8, 32)
        g.insert_after("p1", Identity("alias"))
        assert g.shape_of("alias") == Shape(8, 8, 8)
        assert g.shape_of("cat") == Shape(8, 8, 32)


class TestMutation:
    def test_replace_input(self):
        g = tiny_graph()
        g.add(Identity("alias", ["p1"]))
        g.replace_input("c2", "p1", "alias")
        assert g["c2"].inputs == ["alias"]

    def test_replace_input_rejects_non_consumer(self):
        g = tiny_graph()
        with pytest.raises(GraphError):
            g.replace_input("c2", "c3", "in")

    def test_replace_input_rejects_unknown_producer(self):
        g = tiny_graph()
        with pytest.raises(GraphError):
            g.replace_input("c2", "p1", "ghost")

    def test_remove_leaf(self):
        g = tiny_graph()
        g.remove("cat")
        assert "cat" not in g
        assert sorted(g.output_names()) == ["c2", "c3"]

    def test_remove_consumed_node_rejected(self):
        g = tiny_graph()
        with pytest.raises(GraphError, match="still consumed"):
            g.remove("p1")

    def test_bypass(self):
        g = tiny_graph()
        g.bypass("r1")
        assert "r1" not in g
        assert g["p1"].inputs == ["c1"]
        assert g.shape_of("cat") == Shape(8, 8, 32)

    def test_bypass_rejects_multi_input(self):
        g = tiny_graph()
        with pytest.raises(GraphError):
            g.bypass("cat")

    def test_insert_after(self):
        g = tiny_graph()
        g.insert_after("p1", Identity("mid"))
        assert g["mid"].inputs == ["p1"]
        assert g["c2"].inputs == ["mid"]
        assert g["c3"].inputs == ["mid"]

    def test_unique_name(self):
        g = tiny_graph()
        assert g.unique_name("c1") == "c1_1"
        assert g.unique_name("fresh") == "fresh"

    def test_copy_is_independent(self):
        g = tiny_graph()
        clone = g.copy("clone")
        clone.remove("cat")
        assert "cat" in g
        assert "cat" not in clone
        # op objects are distinct
        assert g["c1"] is not clone["c1"]


class TestSequential:
    def test_chain(self):
        g = sequential(
            "chain",
            [
                Input("in", [], shape=Shape(8, 8, 1)),
                Conv2D("conv", [], out_channels=4, kernel=(3, 3), padding="same"),
                MaxPool("pool", [], pool=(2, 2)),
            ],
        )
        assert g["conv"].inputs == ["in"]
        assert g["pool"].inputs == ["conv"]
        assert g.shape_of("pool") == Shape(4, 4, 4)

    def test_requires_input_first(self):
        with pytest.raises(GraphError):
            sequential("bad", [Conv2D("conv", [], out_channels=4)])


class TestValidation:
    def test_valid_graph_passes(self):
        g = tiny_graph()
        assert graph_issues(g) == []
        assert_graph(g)  # does not raise

    def test_no_inputs_flagged(self):
        g = Graph("empty")
        g.add(Identity("a", []))
        issues = graph_issues(g)
        assert any("no Input nodes" in issue for issue in issues)
        assert any("no producers" in issue for issue in issues)

    def test_check_graph_raises(self):
        g = Graph("empty")
        with pytest.raises(GraphError):
            assert_graph(g)

    def test_builder_auto_naming_matches_tf_convention(self):
        b = GraphBuilder("naming")
        x = b.input((8, 8, 3))
        first = b.conv2d(x, 4)
        second = b.conv2d(first, 4)
        third = b.conv2d(second, 4)
        assert [first, second, third] == ["conv2d", "conv2d_1", "conv2d_2"]

    def test_summary_mentions_base_layers(self):
        text = tiny_graph().summary()
        assert "Graph 'tiny'" in text
        assert "Conv2D" in text
        assert "* = base layer" in text
