"""Coverage of smaller API surfaces not exercised elsewhere."""

import pytest

from repro import Session
from repro.arch import PRESETS, CrossbarSpec, isaac_like, paper_case_study
from repro.core import ScheduleOptions, SetGranularity, compile_model
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import BenchmarkSpec, tiny_sequential
from repro.sim import Metrics


class TestPresetsRegistry:
    def test_all_presets_construct(self):
        for name, factory in PRESETS.items():
            arch = factory(64)
            assert arch.num_pes == 64, name

    def test_isaac_like_properties(self):
        arch = isaac_like(64)
        assert arch.tile.pes_per_tile == 8
        assert arch.num_tiles == 8
        assert arch.crossbar.rows == 128
        assert arch.t_mvm_ns == 100.0

    def test_presets_schedule_end_to_end(self):
        g = preprocess(tiny_sequential(), quantization=None).graph
        for name, factory in PRESETS.items():
            min_pes = minimum_pe_requirement(g, factory(1).crossbar)
            arch = factory(min_pes + 2)
            compiled = compile_model(
                g, arch, ScheduleOptions(mapping="none", scheduling="clsa-cim"),
                assume_canonical=True,
            )
            assert compiled.latency_cycles > 0, name


class TestPipelineOptionPaths:
    def make(self, **kwargs):
        g = preprocess(tiny_sequential(), quantization=None).graph
        min_pes = minimum_pe_requirement(g, CrossbarSpec())
        return compile_model(
            g, paper_case_study(min_pes + 6), ScheduleOptions(**kwargs),
            assume_canonical=True,
        )

    def test_d_max_cap_respected(self):
        compiled = self.make(mapping="wdup", d_max_cap=2)
        assert all(factor <= 2 for factor in compiled.duplication.d.values())

    def test_greedy_solver_option(self):
        compiled = self.make(mapping="wdup", duplication_solver="greedy")
        assert compiled.duplication.method == "greedy"

    def test_height_axis_option(self):
        compiled = self.make(mapping="wdup", duplication_axis="height")
        if compiled.rewrite.duplicated:
            entry = next(iter(compiled.rewrite.duplicated.values()))
            assert entry.axis == "height"

    def test_coarse_granularity_option(self):
        coarse = self.make(granularity=SetGranularity(rows_per_set=None,
                                                      target_sets=4))
        fine = self.make()
        assert coarse.latency_cycles >= fine.latency_cycles

    def test_static_policy_option(self):
        compiled = self.make(order_mode="static", intra_layer_policy="column_major")
        assert compiled.latency_cycles > 0


class TestSweepOverrides:
    def test_options_overrides_applied(self):
        graph = tiny_sequential()
        canonical = preprocess(graph, quantization=None).graph
        min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
        spec = BenchmarkSpec(
            "tiny_sequential",
            graph.shape_of(graph.input_names()[0]).hwc,
            base_layers=len(canonical.base_layers()),
            min_pes=min_pes,
        )
        session = Session(paper_case_study(1))
        graphs = {spec.name: canonical}
        (coarse,) = session.sweep(
            [spec],
            xs=(2,),
            graphs=graphs,
            options_overrides={
                "granularity": SetGranularity(rows_per_set=8),
            },
        )
        (fine,) = session.sweep([spec], xs=(2,), graphs=graphs)
        coarse_xinf = coarse.series("xinf")[0]
        fine_xinf = fine.series("xinf")[0]
        assert coarse_xinf.metrics.latency_cycles >= fine_xinf.metrics.latency_cycles


class TestMetricsErrors:
    def make_metrics(self, latency=10, utilization=0.5, num_pes=4):
        return Metrics(
            config_name="x",
            latency_cycles=latency,
            latency_ns=latency * 1400.0,
            num_pes=num_pes,
            total_active_pe_cycles=latency * num_pes,
            utilization=utilization,
        )

    def test_zero_latency_speedup(self):
        zero = self.make_metrics(latency=0)
        with pytest.raises(ZeroDivisionError):
            zero.speedup_over(self.make_metrics())

    def test_zero_utilization_gain(self):
        flat = self.make_metrics(utilization=0.0)
        with pytest.raises(ZeroDivisionError):
            self.make_metrics().utilization_gain_over(flat)

    def test_zero_baseline_eq3(self):
        from repro.sim import speedup_eq3

        flat = self.make_metrics(utilization=0.0)
        with pytest.raises(ZeroDivisionError):
            speedup_eq3(self.make_metrics(), flat)
