"""Tests for the event-driven simulation engine and cost models."""

import pytest
from oracles import deps_dict

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import ScheduleOptions, compile_model
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import tiny_csp, tiny_dual_head, tiny_sequential
from repro.sim import CostModelConfig, NocCostModel, ZeroCostModel, simulate
from repro.verify import assert_schedule


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
        """ZeroCostModel goes through the cost-model event loop
        (arrival-ordered ready queues) but charges nothing."""
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
        cost_model = NocCostModel(compiled.mapped, compiled.placement)
        deps = compiled.dependencies
        # find an edge between two different layers
        for (layer, index), preds in deps_dict(deps).items():
            for pred in preds:
                if pred[0] != layer:
                    delay = cost_model.edge_delay_cycles(pred, (layer, index), deps)
                    assert delay >= 0
                    return
        pytest.fail("no cross-layer edge found")

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
