"""Tests for Stage II dependency determination."""

from repro.core import (
    SetGranularity,
    build_set_indexes,
    determine_dependencies,
    determine_sets,
    layer_level_dependencies,
    reference_dependencies,
    trace_to_base,
)
from repro.frontend import preprocess
from repro.ir import GraphBuilder, Rect


def two_conv_with_pool():
    """Conv -> relu -> pool -> conv: the Fig. 5 shape of non-base path."""
    b = GraphBuilder("net")
    x = b.input((8, 8, 3), name="in")
    c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
    r = b.relu(c1)
    p = b.maxpool(r, 2)
    b.conv2d(p, 8, kernel=1, padding="valid", use_bias=False, name="c2")
    return b.graph


class TestTraceToBase:
    def test_through_elementwise_and_pool(self):
        g = two_conv_with_pool()
        # c2's input region [0,1) x [0,4) of the pooled map -> c1 rows 0-1
        results = trace_to_base(g, g["c2"].inputs[0], Rect(0, 0, 1, 4))
        assert results == [("c1", Rect(0, 0, 2, 8))]

    def test_stops_at_input(self):
        g = two_conv_with_pool()
        results = trace_to_base(g, "in", Rect(0, 0, 4, 4))
        assert results == []  # graph inputs impose no dependencies

    def test_empty_region_short_circuits(self):
        g = two_conv_with_pool()
        assert trace_to_base(g, g["c2"].inputs[0], Rect.empty()) == []

    def test_branches_traced_through_add(self):
        b = GraphBuilder("net")
        x = b.input((4, 4, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        c2 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c2")
        s = b.add([c1, c2])
        b.conv2d(s, 8, kernel=1, padding="valid", use_bias=False, name="c3")
        g = b.graph
        results = trace_to_base(g, g["c3"].inputs[0], Rect(0, 0, 2, 2))
        assert ("c1", Rect(0, 0, 2, 2)) in results
        assert ("c2", Rect(0, 0, 2, 2)) in results

    def test_padding_region_dropped(self):
        """Regions that land entirely in explicit padding have no deps."""
        b = GraphBuilder("net")
        x = b.input((4, 4, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        p = b.pad(c1, (2, 0, 0, 0))
        b.conv2d(p, 8, kernel=1, padding="valid", use_bias=False, name="c2")
        g = b.graph
        # c2 rows [0, 2) read only the zero padding
        results = trace_to_base(g, g["c2"].inputs[0], Rect(0, 0, 2, 4))
        assert results == []


class TestDetermineDependencies:
    def test_pooling_dependency_pattern(self):
        g = two_conv_with_pool()
        sets = determine_sets(g)  # c1: 8 row sets; c2: 4 row sets
        deps = determine_dependencies(g, sets)
        # c2 row r needs c1 rows 2r and 2r+1 (2x2/2 pooling)
        for r in range(4):
            assert deps.predecessors("c2", r) == [("c1", 2 * r), ("c1", 2 * r + 1)]
        # c1 reads only the graph input
        for r in range(8):
            assert deps.predecessors("c1", r) == []

    def test_conv3x3_overlapping_dependencies(self):
        b = GraphBuilder("net")
        x = b.input((6, 6, 3), name="in")
        c1 = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False, name="c1")
        b.conv2d(c1, 8, kernel=3, padding="valid", use_bias=False, name="c2")
        g = b.graph
        sets = determine_sets(g)
        deps = determine_dependencies(g, sets)
        # c2 row r (4 rows) needs c1 rows r..r+2: the paper's P relation
        for r in range(4):
            assert deps.predecessors("c2", r) == [("c1", r), ("c1", r + 1), ("c1", r + 2)]

    def test_coarse_sets_fig5_style(self):
        g = two_conv_with_pool()
        granularity = SetGranularity(rows_per_set=None, target_sets=4)
        sets = determine_sets(g, granularity)
        deps = determine_dependencies(g, sets)
        assert deps.num_sets() == len(sets["c1"]) + len(sets["c2"])
        mean_fan_in, max_fan_in = deps.fan_in_stats()
        assert max_fan_in >= 1
        assert mean_fan_in > 0

    def test_edge_count(self):
        g = two_conv_with_pool()
        sets = determine_sets(g)
        deps = determine_dependencies(g, sets)
        assert deps.edge_count() == 8  # 4 c2-rows x 2 producer rows

    def test_dual_head_model(self):
        from repro.models import tiny_dual_head

        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        sets = determine_sets(canonical)
        deps = determine_dependencies(canonical, sets)
        # every set of every base layer has an entry
        assert deps.num_sets() == sum(len(v) for v in sets.values())
        assert set(deps.deps) == {
            (layer, i) for layer, rects in sets.items() for i in range(len(rects))
        }


class TestLayerLevelDependencies:
    def test_chain(self):
        g = two_conv_with_pool()
        preds = layer_level_dependencies(g)
        assert preds == {"c1": [], "c2": ["c1"]}

    def test_residual_branches(self):
        from repro.models import tiny_residual

        canonical = preprocess(tiny_residual(), quantization=None).graph
        preds = layer_level_dependencies(canonical)
        base = canonical.base_layers()
        # the last conv feeds the Add; the Add output is consumed by relu
        # only, so the final conv's preds include the first conv via Add
        last = base[-1]
        assert len(preds[last]) >= 1

    def test_upsample_concat_path(self):
        from repro.models import tiny_dual_head

        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        preds = layer_level_dependencies(canonical)
        # the fine head's conv depends on two base layers via the concat
        multi = [layer for layer, p in preds.items() if len(p) >= 2]
        assert multi


class TestRectIndex:
    """The interval index must agree exactly with the all-pairs scan."""

    def brute_force(self, rects, region):
        return [(i, r) for i, r in enumerate(rects) if r.intersects(region)]

    def test_stripe_sets(self):
        from repro.core import RectIndex

        rects = [Rect(r, 0, r + 1, 16) for r in range(32)]
        index = RectIndex(rects)
        for region in (Rect(0, 0, 1, 16), Rect(5, 3, 9, 12),
                       Rect(31, 0, 32, 16), Rect(0, 0, 32, 16)):
            assert index.query(region) == self.brute_force(rects, region)

    def test_empty_region(self):
        from repro.core import RectIndex

        index = RectIndex([Rect(0, 0, 4, 4)])
        assert index.query(Rect(2, 2, 2, 2)) == []

    def test_random_rect_soup(self):
        """Correct for arbitrary (even overlapping, ragged) rect lists."""
        import random

        from repro.core import RectIndex

        rng = random.Random(1234)
        for _ in range(20):
            rects = [
                Rect(r0, c0, r0 + rng.randint(1, 7), c0 + rng.randint(1, 7))
                for r0, c0 in (
                    (rng.randint(0, 40), rng.randint(0, 40)) for _ in range(60)
                )
            ]
            index = RectIndex(rects)
            for _ in range(50):
                r0, c0 = rng.randint(0, 45), rng.randint(0, 45)
                region = Rect(r0, c0, r0 + rng.randint(1, 10), c0 + rng.randint(1, 10))
                assert index.query(region) == self.brute_force(rects, region)

    def test_indexed_and_naive_stage2_agree(self):
        from repro.models import tiny_dual_head

        canonical = preprocess(tiny_dual_head(), quantization=None).graph
        sets = determine_sets(canonical)
        fast = reference_dependencies(canonical, sets, build_set_indexes(sets)).deps
        slow = reference_dependencies(canonical, sets).deps
        assert fast == slow
        assert list(determine_dependencies(canonical, sets).deps.items()) == list(slow.items())

    def test_indexed_and_naive_agree_at_coarse_granularity(self):
        g = two_conv_with_pool()
        sets = determine_sets(g, SetGranularity(rows_per_set=None, target_sets=4))
        fast = reference_dependencies(g, sets, build_set_indexes(sets)).deps
        slow = reference_dependencies(g, sets).deps
        assert fast == slow
        assert list(determine_dependencies(g, sets).deps.items()) == list(slow.items())

    def test_empty_rects_excluded_like_naive_scan(self):
        from repro.core import RectIndex

        rects = [Rect(0, 0, 2, 4), Rect(2, 0, 2, 5), Rect(2, 0, 4, 4)]
        index = RectIndex(rects)
        region = Rect(0, 0, 10, 10)
        assert index.query(region) == self.brute_force(rects, region)
        assert all(not r.is_empty() for _, r in index.query(region))

    def test_row_major_entry_order_skips_query_sort(self):
        """Stage I emits row-major sets: (r0, c0) order *is* index order,
        so the fast path (no per-query sort) must still return hits
        sorted by set index, pinned against the naive scan."""
        from repro.core import RectIndex
        from repro.core.sets import partition_ofm
        from repro.ir import Shape

        rects = partition_ofm(Shape(16, 8, 3))  # row-major stripes
        index = RectIndex(rects)
        assert index._presorted
        for region in (Rect(0, 0, 3, 8), Rect(5, 2, 11, 7), Rect(0, 0, 16, 8)):
            hits = index.query(region)
            assert hits == self.brute_force(rects, region)
            assert [i for i, _ in hits] == sorted(i for i, _ in hits)

    def test_shuffled_entry_order_still_sorts_by_index(self):
        """When (r0, c0) order disagrees with set order the final sort
        is kept, so query order matches the naive scan exactly."""
        import random

        from repro.core import RectIndex

        rects = [Rect(r, 0, r + 1, 8) for r in range(12)]
        random.Random(7).shuffle(rects)
        index = RectIndex(rects)
        assert not index._presorted
        region = Rect(2, 0, 9, 8)
        assert index.query(region) == self.brute_force(rects, region)
