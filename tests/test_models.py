"""Model zoo tests: exact reproduction of Table I and Table II."""

import numpy as np
import pytest

from repro.arch import CrossbarSpec
from repro.frontend import preprocess
from repro.ir import Executor, Shape
from repro.verify import graph_issues
from repro.mapping import layer_table, minimum_pe_requirement
from repro.models import (
    CASE_STUDY,
    MODELS,
    PAPER_BENCHMARKS,
    benchmark_by_name,
    build,
    tiny_csp,
    tiny_dual_head,
    tiny_residual,
    tiny_sequential,
    tiny_yolo_v3,
    tiny_yolo_v4,
    vgg16,
)

XBAR = CrossbarSpec(rows=256, cols=256)


def canonical(graph):
    return preprocess(graph, quantization=None).graph


class TestTable2:
    """Table II: input shape, #base layers, min required 256x256 PEs."""

    @pytest.mark.parametrize("spec", PAPER_BENCHMARKS, ids=lambda s: s.name)
    def test_base_layer_count(self, spec):
        graph = canonical(spec.build())
        assert len(graph.base_layers()) == spec.base_layers

    @pytest.mark.parametrize("spec", PAPER_BENCHMARKS, ids=lambda s: s.name)
    def test_min_pe_requirement(self, spec):
        graph = canonical(spec.build())
        assert minimum_pe_requirement(graph, XBAR) == spec.min_pes

    @pytest.mark.parametrize("spec", PAPER_BENCHMARKS, ids=lambda s: s.name)
    def test_input_shape(self, spec):
        graph = spec.build()
        assert graph.shape_of(graph.input_names()[0]).hwc == spec.input_shape

    @pytest.mark.parametrize("spec", PAPER_BENCHMARKS, ids=lambda s: s.name)
    def test_structurally_valid(self, spec):
        assert graph_issues(spec.build()) == []


class TestTable1:
    """Table I: the TinyYOLOv4 per-layer structure."""

    @pytest.fixture(scope="class")
    def rows(self):
        graph = canonical(CASE_STUDY.build())
        return {row["layer"]: row for row in layer_table(graph, XBAR)}

    def test_min_pes_117(self):
        graph = canonical(CASE_STUDY.build())
        assert minimum_pe_requirement(graph, XBAR) == 117

    def test_conv_count_21(self):
        """Table I names layers up to conv2d_20 => 21 convolutions."""
        graph = canonical(CASE_STUDY.build())
        assert len(graph.base_layers()) == 21

    @pytest.mark.parametrize(
        "layer, ifm, ofm, pes, cycles",
        [
            ("conv2d", (417, 417, 3), (208, 208, 32), 1, 43264),
            ("conv2d_1", (209, 209, 32), (104, 104, 64), 2, 10816),
            ("conv2d_2", (106, 106, 64), (104, 104, 64), 3, 10816),
            ("conv2d_16", (15, 15, 256), (13, 13, 512), 18, 169),
            ("conv2d_20", (26, 26, 256), (26, 26, 255), 1, 676),
            ("conv2d_17", (13, 13, 512), (13, 13, 255), 2, 169),
        ],
    )
    def test_published_rows(self, rows, layer, ifm, ofm, pes, cycles):
        row = rows[layer]
        assert row["ifm"] == ifm
        assert row["ofm"] == ofm
        assert row["num_pes"] == pes
        assert row["cycles"] == cycles

    def test_first_layers_are_compute_heavy(self, rows):
        """Sec. V-A: early layers have large OH*OW and few PEs."""
        assert rows["conv2d"]["cycles"] > rows["conv2d_16"]["cycles"] * 100
        assert rows["conv2d"]["num_pes"] < rows["conv2d_16"]["num_pes"]


class TestTinyYolo:
    def test_v3_dual_heads(self):
        graph = tiny_yolo_v3()
        outputs = graph.output_names()
        assert len(outputs) == 2
        shapes = sorted(graph.shape_of(o).hwc for o in outputs)
        assert shapes == [(13, 13, 255), (26, 26, 255)]

    def test_v4_dual_heads(self):
        graph = tiny_yolo_v4()
        outputs = graph.output_names()
        assert len(outputs) == 2
        shapes = sorted(graph.shape_of(o).hwc for o in outputs)
        assert shapes == [(13, 13, 255), (26, 26, 255)]

    def test_v4_table1_names(self):
        graph = canonical(tiny_yolo_v4())
        base = graph.base_layers()
        assert base[0] == "conv2d"
        assert "conv2d_16" in base
        assert "conv2d_20" in base

    def test_custom_class_count(self):
        graph = tiny_yolo_v3(num_classes=20)  # VOC: 3*(20+5) = 75
        shapes = sorted(graph.shape_of(o).hwc for o in graph.output_names())
        assert shapes == [(13, 13, 75), (26, 26, 75)]

    def test_v3_is_non_sequential(self):
        graph = tiny_yolo_v3()
        fan_out = [len(graph.consumers(name)) for name in graph.node_names()]
        assert max(fan_out) >= 2  # route points feed two consumers


class TestVggResnet:
    def test_vgg16_include_top(self):
        graph = vgg16(include_top=True)
        out = graph.output_names()
        assert len(out) == 1
        assert graph.shape_of(out[0]) == Shape(1, 1, 1000)
        # 13 convs + 3 dense
        assert len(canonical(graph).base_layers()) == 16

    def test_vgg16_final_feature_map(self):
        graph = vgg16()
        out = graph.output_names()[0]
        assert graph.shape_of(out) == Shape(7, 7, 512)

    def test_resnet50_include_top(self):
        graph = build("resnet50")
        out = graph.output_names()[0]
        assert graph.shape_of(out) == Shape(7, 7, 2048)

    def test_resnet_stage_downsampling(self):
        graph = build("resnet50")
        shapes = graph.infer_shapes()
        spatial = {shape.height for shape in shapes.values()}
        # 224 -> 112 (stem) -> 56 -> 28 -> 14 -> 7
        assert {112, 56, 28, 14, 7} <= spatial

    def test_resnet_has_residual_adds(self):
        graph = build("resnet50")
        adds = [op for op in graph if op.op_type == "Add"]
        assert len(adds) == 16  # one per bottleneck block

    def test_bad_input_shape_rejected(self):
        with pytest.raises(ValueError):
            vgg16(input_shape=(224, 224))
        with pytest.raises(ValueError):
            vgg16(input_shape=(0, 224, 3))


class TestSynthetic:
    @pytest.mark.parametrize(
        "factory", [tiny_sequential, tiny_residual, tiny_csp, tiny_dual_head]
    )
    def test_valid_and_executable(self, factory):
        graph = factory()
        assert graph_issues(graph) == []
        graph.initialize_weights(seed=1)
        in_shape = graph.shape_of(graph.input_names()[0]).hwc
        image = np.random.default_rng(0).normal(size=in_shape)
        outputs = Executor(graph).run(image)
        assert outputs

    def test_preprocess_roundtrip(self):
        for factory in (tiny_sequential, tiny_residual, tiny_csp, tiny_dual_head):
            graph = factory()
            graph.initialize_weights(seed=2)
            image = np.random.default_rng(1).normal(
                size=graph.shape_of(graph.input_names()[0]).hwc
            )
            expected = Executor(graph).run(image)
            report = preprocess(graph, quantization=None)
            actual = Executor(report.graph).run(image)
            # canonicalization renames outputs (e.g. decoupled BiasAdd
            # nodes); match original and canonical outputs by shape
            expected_list = sorted(expected.values(), key=lambda a: a.shape)
            actual_list = sorted(actual.values(), key=lambda a: a.shape)
            assert len(expected_list) == len(actual_list)
            for exp, act in zip(expected_list, actual_list):
                np.testing.assert_allclose(act, exp, atol=1e-9)


class TestZoo:
    def test_build_by_name(self):
        graph = build("tinyyolov4")
        assert graph.name == "tinyyolov4"

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            build("alexnet")

    def test_benchmark_lookup(self):
        assert benchmark_by_name("vgg16").min_pes == 233
        assert benchmark_by_name("tinyyolov4").min_pes == 117
        with pytest.raises(KeyError):
            benchmark_by_name("vgg11")

    def test_registry_complete(self):
        for spec in PAPER_BENCHMARKS:
            assert spec.name in MODELS
