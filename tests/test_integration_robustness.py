"""Robustness integration tests: unusual geometries through the stack.

Non-square inputs, non-square kernels, asymmetric strides and extreme
aspect ratios exercise the H/W symmetry of the region propagation,
duplication and scheduling math.
"""

import numpy as np
import pytest

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import ScheduleOptions, compile_model
from repro.frontend import preprocess
from repro.ir import Executor, GraphBuilder
from repro.mapping import minimum_pe_requirement
from repro.sim import evaluate, simulate
from repro.verify import assert_schedule


def compile_all(graph, extra=4):
    canonical = preprocess(graph, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    arch = paper_case_study(min_pes + extra)
    out = {}
    for mapping in ("none", "wdup"):
        for scheduling in ("layer-by-layer", "clsa-cim"):
            options = ScheduleOptions(mapping=mapping, scheduling=scheduling)
            out[options.paper_name] = compile_model(
                canonical, arch, options, assume_canonical=True
            )
    return out


class TestNonSquareGeometries:
    def make_wide_model(self):
        """A 24x64 input with rectangular kernels and mixed strides."""
        b = GraphBuilder("wide")
        x = b.input((24, 64, 3), name="in")
        x = b.conv2d(x, 8, kernel=(3, 5), strides=(1, 2), padding="same",
                     use_bias=True)
        x = b.relu(x)
        x = b.maxpool(x, (2, 2), padding="same")
        x = b.conv2d(x, 16, kernel=(5, 3), strides=(2, 1), padding="same",
                     use_bias=True)
        return b.graph

    def test_compiles_and_orders_hold(self):
        results = compile_all(self.make_wide_model())
        assert results["xinf"].latency_cycles <= results["layer-by-layer"].latency_cycles
        assert results["wdup+xinf"].latency_cycles <= results["wdup"].latency_cycles

    def test_schedules_valid(self):
        results = compile_all(self.make_wide_model())
        for compiled in results.values():
            compiled.schedule.validate_intra_layer_order()
            if compiled.dependencies is not None:
                assert_schedule(compiled.schedule, compiled.dependencies)

    def test_simulation_agrees(self):
        results = compile_all(self.make_wide_model())
        combo = results["wdup+xinf"]
        assert simulate(combo).finish_cycles == combo.latency_cycles

    def test_duplication_numerics_on_rectangles(self):
        g = self.make_wide_model()
        g.initialize_weights(seed=3)
        canonical = preprocess(g, quantization=None).graph
        results = compile_all(canonical)
        image = np.random.default_rng(1).normal(size=(24, 64, 3))
        expected = Executor(canonical).run_single(image)
        actual = Executor(results["wdup+xinf"].mapped).run_single(image)
        np.testing.assert_allclose(actual, expected, atol=1e-10)


class TestExtremeAspectRatios:
    @pytest.mark.parametrize("shape", [(4, 64, 2), (64, 4, 2), (1, 32, 2)])
    def test_thin_feature_maps(self, shape):
        b = GraphBuilder("thin")
        x = b.input(shape, name="in")
        x = b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False)
        b.conv2d(x, 8, kernel=1, padding="valid", use_bias=False)
        results = compile_all(b.graph, extra=2)
        for compiled in results.values():
            assert compiled.latency_cycles > 0
            metrics = evaluate(compiled)
            assert 0 < metrics.utilization <= 1

    def test_single_row_map_duplication(self):
        """A 1-row OFM can still duplicate along the width."""
        b = GraphBuilder("row")
        x = b.input((1, 64, 2), name="in")
        b.conv2d(x, 4, kernel=1, padding="valid", use_bias=False)
        results = compile_all(b.graph, extra=3)
        combo = results["wdup+xinf"]
        assert combo.duplication.duplicated_layers  # width cut succeeded


class TestStrideKernelCombos:
    @pytest.mark.parametrize("kernel,stride", [(1, 1), (3, 1), (3, 2), (5, 2), (7, 4)])
    def test_region_math_consistency(self, kernel, stride):
        """Cross-layer schedules remain valid across window geometries."""
        size = 33  # odd size stresses SAME padding asymmetry
        b = GraphBuilder("windows")
        x = b.input((size, size, 2), name="in")
        x = b.conv2d(x, 4, kernel=kernel, strides=stride, padding="same",
                     use_bias=False)
        b.conv2d(x, 4, kernel=3, padding="same", use_bias=False)
        results = compile_all(b.graph, extra=2)
        combo = results["wdup+xinf"]
        assert_schedule(combo.schedule, combo.dependencies)
        assert simulate(combo).finish_cycles == combo.latency_cycles
