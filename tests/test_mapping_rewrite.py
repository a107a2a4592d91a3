"""Tests for the weight-duplication graph rewrite (Fig. 4)."""

import numpy as np
import pytest

from repro.arch import CrossbarSpec
from repro.frontend import preprocess
from repro.ir import Executor, GraphBuilder
from repro.mapping import (
    DuplicationSolution,
    RewriteError,
    apply_duplication,
    problem_from_tilings,
    tile_graph,
)


def canonical_net(height=12, width=12):
    """Canonical two-conv net with a pooling path between them."""
    b = GraphBuilder("net")
    x = b.input((height, width, 3), name="in")
    c1 = b.conv2d(x, 8, kernel=3, padding="same", use_bias=True, name="c1")
    r = b.relu(c1)
    p = b.maxpool(r, 2)
    b.conv2d(p, 16, kernel=3, padding="same", use_bias=True, name="c2")
    g = b.graph
    g.initialize_weights(seed=77)
    return preprocess(g, quantization=None).graph


def manual_solution(graph, d):
    tilings = tile_graph(graph, CrossbarSpec())
    budget = sum(t.num_pes * d.get(name, 1) for name, t in tilings.items())
    problem = problem_from_tilings(tilings, budget=budget)
    full = {name: d.get(name, 1) for name in problem.layers}
    return DuplicationSolution(problem=problem, d=full, method="manual")


class TestRewriteStructure:
    def test_duplicates_created(self):
        g = canonical_net()
        report = apply_duplication(g, manual_solution(g, {"c1": 3}))
        entry = report.duplicated["c1"]
        assert len(entry.duplicates) == 3
        assert len(entry.slices) == 3
        assert entry.concat
        assert "c1" not in report.graph
        assert entry.axis == "width"
        # 12 output columns split 4/4/4
        assert entry.ranges == [(0, 4), (4, 8), (8, 12)]

    def test_original_graph_untouched(self):
        g = canonical_net()
        node_count = len(g)
        apply_duplication(g, manual_solution(g, {"c1": 2}))
        assert len(g) == node_count
        assert "c1" in g

    def test_consumers_rewired_to_concat(self):
        g = canonical_net()
        report = apply_duplication(g, manual_solution(g, {"c1": 2}))
        concat = report.duplicated["c1"].concat
        rewritten = report.graph
        # the canonical form has a BiasAdd as the conv's direct consumer
        assert rewritten["c1_bias"].inputs == [concat]

    def test_origin_map(self):
        g = canonical_net()
        report = apply_duplication(g, manual_solution(g, {"c1": 2}))
        assert report.origin_of["c1/dup0"] == "c1"
        assert report.origin_of["c1/dup1"] == "c1"
        assert report.origin_of["c2"] == "c2"
        assert report.duplicates_of("c1") == ["c1/dup0", "c1/dup1"]
        assert report.duplicates_of("c2") == ["c2"]

    def test_factor_one_is_noop(self):
        g = canonical_net()
        report = apply_duplication(g, manual_solution(g, {"c1": 1}))
        assert report.duplicated == {}
        assert "c1" in report.graph

    def test_shapes_preserved(self):
        g = canonical_net()
        report = apply_duplication(g, manual_solution(g, {"c1": 3, "c2": 2}))
        old_out = g.infer_shapes()[g.output_names()[0]]
        new_out = report.graph.infer_shapes()[report.graph.output_names()[0]]
        assert old_out == new_out

    def test_duplicates_share_weight_tensor(self):
        g = canonical_net()
        report = apply_duplication(g, manual_solution(g, {"c1": 2}))
        rewritten = report.graph
        assert rewritten["c1/dup0"].weights is rewritten["c1/dup1"].weights


class TestRewriteSemantics:
    @pytest.mark.parametrize("factor", [2, 3, 4, 5])
    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_numeric_equivalence(self, factor, axis):
        g = canonical_net()
        report = apply_duplication(g, manual_solution(g, {"c1": factor}), axis=axis)
        image = np.random.default_rng(0).normal(size=(12, 12, 3))
        expected = Executor(g).run_single(image)
        actual = Executor(report.graph).run_single(image)
        np.testing.assert_allclose(actual, expected, atol=1e-12)

    def test_numeric_equivalence_multiple_layers(self):
        g = canonical_net(height=16, width=16)
        report = apply_duplication(g, manual_solution(g, {"c1": 4, "c2": 3}))
        image = np.random.default_rng(1).normal(size=(16, 16, 3))
        np.testing.assert_allclose(
            Executor(report.graph).run_single(image),
            Executor(g).run_single(image),
            atol=1e-12,
        )

    def test_strided_conv_equivalence(self):
        b = GraphBuilder("strided")
        x = b.input((17, 17, 2), name="in")
        b.conv2d(x, 4, kernel=3, strides=2, padding="same", use_bias=False, name="c1")
        g = b.graph
        g.initialize_weights(seed=5)
        canonical = preprocess(g, quantization=None).graph
        report = apply_duplication(canonical, manual_solution(canonical, {"c1": 3}))
        image = np.random.default_rng(2).normal(size=(17, 17, 2))
        np.testing.assert_allclose(
            Executor(report.graph).run_single(image),
            Executor(canonical).run_single(image),
            atol=1e-12,
        )

    @pytest.mark.parametrize("axis", ["width", "height"])
    def test_duplicate_reading_a_concat_directly(self, axis):
        """The second conv's slices read the first conv's concat, with no
        bias or activation between: its geometry comes from the concat's
        recorded shape."""
        b = GraphBuilder("chain")
        x = b.input((14, 13, 2), name="in")
        c1 = b.conv2d(x, 4, kernel=3, padding="valid", use_bias=False, name="c1")
        b.conv2d(c1, 3, kernel=3, strides=2, padding="valid", use_bias=False, name="c2")
        g = b.graph
        g.initialize_weights(seed=9)
        report = apply_duplication(g, manual_solution(g, {"c1": 3, "c2": 2}), axis=axis)
        rewritten = report.graph
        concat = report.duplicated["c1"].concat
        assert rewritten["c2/dup0/slice"].inputs == [concat]
        before, after = g.infer_shapes(), rewritten.infer_shapes()
        assert after[concat] == before["c1"]
        assert after[report.duplicated["c2"].concat] == before["c2"]
        image = np.random.default_rng(3).normal(size=(14, 13, 2))
        np.testing.assert_allclose(
            Executor(rewritten).run_single(image),
            Executor(g).run_single(image),
            atol=1e-12,
        )


class TestRewriteErrors:
    def test_non_canonical_conv_rejected(self):
        b = GraphBuilder("raw")
        x = b.input((12, 12, 3), name="in")
        b.conv2d(x, 8, kernel=3, padding="same", name="c1")
        g = b.graph
        with pytest.raises(RewriteError, match="canonical"):
            apply_duplication(g, manual_solution(g, {"c1": 2}))

    def test_factor_exceeding_extent_rejected(self):
        g = canonical_net()
        with pytest.raises(RewriteError, match="slabs"):
            apply_duplication(g, manual_solution(g, {"c1": 13}))

    def test_bad_axis_rejected(self):
        g = canonical_net()
        with pytest.raises(RewriteError, match="axis"):
            apply_duplication(g, manual_solution(g, {"c1": 2}), axis="depth")

    def test_unknown_layer_rejected(self):
        g = canonical_net()
        solution = manual_solution(g, {"c1": 2})
        solution.d["ghost"] = 2
        with pytest.raises(RewriteError, match="unknown layer"):
            apply_duplication(g, solution)
