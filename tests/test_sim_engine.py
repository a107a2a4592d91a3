"""Tests for the simulator's replay and cost models."""

import dataclasses

import numpy as np
import pytest
from oracles import (
    ColumnCostModel,
    ScalarNocCostModel,
    deps_dict,
    reference_simulate,
    scalar_edge_delays,
)

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import ScheduleOptions, compile_model
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.mapping.placement import edge_transfers
from repro.models import build, tiny_csp, tiny_dual_head, tiny_sequential
from repro.sim import CostModelConfig, NocCostModel, ZeroCostModel, simulate
from repro.verify import assert_schedule

#: The cost model configurations compared with the scalar reference.
CONFIGS = [
    CostModelConfig(),
    CostModelConfig(bytes_per_element=4),
    CostModelConfig(bytes_per_element=4, model_gpeu=True),
]


def compile_xinf(graph, extra=8, mapping="none"):
    canonical = preprocess(graph, quantization=None).graph
    arch = paper_case_study(minimum_pe_requirement(canonical, CrossbarSpec()) + extra)
    return compile_model(
        graph, arch, ScheduleOptions(mapping=mapping, scheduling="clsa-cim")
    )


class TestZeroCostReplay:
    @pytest.mark.parametrize(
        "factory", [tiny_sequential, tiny_csp, tiny_dual_head]
    )
    def test_replay_matches_analytical_makespan(self, factory):
        """Replaying a schedule with free forwarding reproduces the
        analytical scheduler's makespan exactly."""
        compiled = compile_xinf(factory())
        result = simulate(compiled)
        assert result.finish_cycles == compiled.latency_cycles

    def test_replay_with_duplication(self):
        compiled = compile_xinf(tiny_sequential(), mapping="wdup")
        result = simulate(compiled)
        assert result.finish_cycles == compiled.latency_cycles

    def test_all_sets_executed(self):
        compiled = compile_xinf(tiny_dual_head())
        result = simulate(compiled)
        assert result.num_tasks == compiled.dependencies.num_sets()
        assert result.events_processed == result.num_tasks

    def test_schedule_is_valid(self):
        compiled = compile_xinf(tiny_csp())
        result = simulate(compiled)
        assert_schedule(result.schedule, compiled.dependencies)

    def test_zero_edge_delay(self):
        compiled = compile_xinf(tiny_sequential())
        result = simulate(compiled)
        assert result.total_edge_delay_cycles == 0

    def test_explicit_zero_cost_model(self):
        """ZeroCostModel takes the priced replay (ready sets served by
        data arrival, then set index) but charges nothing."""
        compiled = compile_xinf(tiny_sequential())
        explicit = simulate(compiled, ZeroCostModel())
        deps = compiled.dependencies
        assert_schedule(explicit.schedule, deps)
        ran = [(t.layer, t.set_index) for t in explicit.schedule.tasks]
        assert len(ran) == len(set(ran)) == deps.num_sets()  # each set once
        assert set(ran) == set(deps_dict(deps))
        assert explicit.total_edge_delay_cycles == 0
        assert explicit.events_processed == deps.num_sets()
        assert explicit.finish_cycles == explicit.schedule.makespan

    def test_layer_by_layer_rejected(self):
        g = tiny_sequential()
        canonical = preprocess(g, quantization=None).graph
        arch = paper_case_study(minimum_pe_requirement(canonical, CrossbarSpec()) + 4)
        compiled = compile_model(
            g, arch, ScheduleOptions(mapping="none", scheduling="layer-by-layer")
        )
        with pytest.raises(ValueError, match="set-level dependencies"):
            simulate(compiled)


class TestNocCostModel:
    def test_transfers_slow_down_inference(self):
        compiled = compile_xinf(tiny_sequential())
        cost_model = NocCostModel(compiled.mapped, compiled.placement)
        free = simulate(compiled)
        priced = simulate(compiled, cost_model)
        assert priced.total_edge_delay_cycles > 0
        assert priced.finish_cycles >= free.finish_cycles

    def test_priced_schedule_still_valid(self):
        compiled = compile_xinf(tiny_csp())
        cost_model = NocCostModel(compiled.mapped, compiled.placement)
        result = simulate(compiled, cost_model)
        # resource exclusivity still holds under delays
        result.schedule.validate_intra_layer_order()
        assert result.num_tasks == compiled.dependencies.num_sets()

    def test_edge_delay_positive_between_tiles(self):
        compiled = compile_xinf(tiny_sequential())
        arrays = compiled.dependencies.arrays
        delays = NocCostModel(compiled.mapped, compiled.placement).edge_delays(arrays)
        assert delays.dtype == np.int64 and delays.shape == (arrays.num_edges,)
        src, dst, _ = edge_transfers(arrays, compiled.mapped.infer_shapes(), compiled.placement)
        between_tiles = src != dst
        assert between_tiles.any()
        assert (delays[between_tiles] > 0).all()
        assert (delays >= 0).all()

    def test_gpeu_cost_increases_delay(self):
        compiled = compile_xinf(tiny_sequential())
        plain = NocCostModel(compiled.mapped, compiled.placement)
        with_gpeu = NocCostModel(
            compiled.mapped,
            compiled.placement,
            CostModelConfig(model_gpeu=True),
        )
        r_plain = simulate(compiled, plain)
        r_gpeu = simulate(compiled, with_gpeu)
        assert r_gpeu.total_edge_delay_cycles >= r_plain.total_edge_delay_cycles

    def test_bigger_elements_cost_more(self):
        compiled = compile_xinf(tiny_sequential())
        one_byte = NocCostModel(
            compiled.mapped, compiled.placement, CostModelConfig(bytes_per_element=1)
        )
        four_bytes = NocCostModel(
            compiled.mapped, compiled.placement, CostModelConfig(bytes_per_element=4)
        )
        assert (
            simulate(compiled, four_bytes).total_edge_delay_cycles
            >= simulate(compiled, one_byte).total_edge_delay_cycles
        )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CostModelConfig(bytes_per_element=0)

    def test_stall_accounting(self):
        compiled = compile_xinf(tiny_sequential())
        result = simulate(compiled)
        for layer, stall in result.per_layer_stall.items():
            assert stall >= 0


@pytest.fixture(scope="module", params=["tinyyolov3", "tinyyolov4", "resnet50", "vgg16"])
def zoo_compiled(request):
    """A zoo model at 16 extra PEs, wdup+xinf."""
    canonical = preprocess(build(request.param), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    return compile_model(
        canonical, paper_case_study(min_pes + 16), ScheduleOptions(), assume_canonical=True
    )


class TestAgainstReference:
    """The delay column and the replay against the scalar formula and
    the event loop of ``tests/oracles``, the implementation they replaced."""

    @pytest.mark.parametrize("config", CONFIGS, ids=["1B", "4B", "4B-gpeu"])
    def test_edge_delays_match_scalar_formula(self, zoo_compiled, config):
        deps = zoo_compiled.dependencies
        args = (zoo_compiled.mapped, zoo_compiled.placement, config)
        np.testing.assert_array_equal(
            NocCostModel(*args).edge_delays(deps.arrays),
            scalar_edge_delays(ScalarNocCostModel(*args), deps),
        )

    @pytest.mark.parametrize("config", CONFIGS, ids=["1B", "4B", "4B-gpeu"])
    def test_edge_delays_match_scalar_formula_with_spills(self, config):
        """A 5 KiB input buffer on four-PE tiles: some payloads spill
        through DRAM, and some edges stay on one tile."""
        canonical = preprocess(build("tinyyolov4"), quantization=None).graph
        min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
        arch = paper_case_study(min_pes + 16, pes_per_tile=4)
        arch = dataclasses.replace(
            arch, tile=dataclasses.replace(arch.tile, input_buffer_bytes=5120)
        )
        compiled = compile_model(canonical, arch, ScheduleOptions(), assume_canonical=True)
        deps = compiled.dependencies
        src, dst, payload = edge_transfers(
            deps.arrays, compiled.mapped.infer_shapes(), compiled.placement,
            config.bytes_per_element,
        )
        assert (payload > 5120).any() and (payload <= 5120).any()
        assert (src == dst).any() and (src != dst).any()
        args = (compiled.mapped, compiled.placement, config)
        np.testing.assert_array_equal(
            NocCostModel(*args).edge_delays(deps.arrays),
            scalar_edge_delays(ScalarNocCostModel(*args), deps),
        )

    @pytest.mark.parametrize("factory", [tiny_sequential, tiny_csp, tiny_dual_head])
    @pytest.mark.parametrize("mapping", ["none", "wdup"])
    def test_priced_replay_matches_event_loop(self, factory, mapping):
        compiled = compile_xinf(factory(), mapping=mapping)
        deps = compiled.dependencies
        policy = compiled.schedule.policy
        for config in CONFIGS:
            args = (compiled.mapped, compiled.placement, config)
            assert simulate(compiled, NocCostModel(*args)) == reference_simulate(
                deps, ScalarNocCostModel(*args), policy
            )
        zeros = ColumnCostModel(deps, np.zeros(deps.arrays.num_edges, dtype=np.int64))
        assert simulate(compiled, ZeroCostModel()) == reference_simulate(deps, zeros, policy)


class FixedDelays:
    """A cost model whose column is ``column(arrays)``."""

    def __init__(self, column):
        self.column = column

    def edge_delays(self, arrays):
        return self.column(arrays)


class TestDelayColumnChecks:
    """``simulate`` rejects a bad delay column, naming the cost model's
    class, before it schedules anything."""

    @pytest.fixture
    def compiled(self, monkeypatch):
        from repro.sim import engine

        def replay(*args):
            raise AssertionError("scheduled a bad delay column")

        compiled = compile_xinf(tiny_sequential())
        monkeypatch.setattr(engine, "csr_replay", replay)
        return compiled

    def test_non_integer_column_rejected(self, compiled):
        float_delays = FixedDelays(lambda arrays: np.zeros(arrays.num_edges))
        with pytest.raises(ValueError, match="FixedDelays.edge_delays must return an integer"):
            simulate(compiled, float_delays)
        listed = FixedDelays(lambda arrays: [0] * arrays.num_edges)
        with pytest.raises(ValueError, match="integer array, not list"):
            simulate(compiled, listed)

    def test_wrong_length_rejected(self, compiled):
        short = FixedDelays(lambda arrays: np.zeros(arrays.num_edges - 1, dtype=np.int64))
        edges = compiled.dependencies.arrays.num_edges
        with pytest.raises(ValueError, match=f"FixedDelays.edge_delays .* for {edges} edges"):
            simulate(compiled, short)

    def test_negative_delay_rejected(self, compiled):
        """The replay relies on data arriving no earlier than its
        producer ends (the event loop clamped a negative delay)."""

        def one_negative(arrays):
            delays = np.ones(arrays.num_edges, dtype=np.int32)
            delays[-1] = -1
            return delays

        with pytest.raises(ValueError, match="FixedDelays.edge_delays returned 1 negative"):
            simulate(compiled, FixedDelays(one_negative))
