"""Tests for the inference energy model."""

import pytest

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import ScheduleOptions, compile_model
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import tiny_sequential
from repro.models.zoo import build
from repro.sim import EnergyModelConfig, estimate_energy


@pytest.fixture(scope="module")
def setup():
    g = preprocess(tiny_sequential(), quantization=None).graph
    min_pes = minimum_pe_requirement(g, CrossbarSpec())
    arch = paper_case_study(min_pes + 8)
    return g, arch


def compile_config(setup, mapping, scheduling):
    g, arch = setup
    return compile_model(
        g, arch, ScheduleOptions(mapping=mapping, scheduling=scheduling),
        assume_canonical=True,
    )


class TestEnergyModel:
    def test_breakdown_positive(self, setup):
        compiled = compile_config(setup, "wdup", "clsa-cim")
        report = estimate_energy(compiled)
        assert report.mvm_uj > 0
        assert report.noc_uj > 0
        assert report.static_uj > 0
        assert report.total_uj == pytest.approx(
            report.mvm_uj + report.noc_uj + report.static_uj
        )

    def test_mvm_energy_schedule_invariant(self, setup):
        """Total active PE-cycles are conserved, so MVM energy is too."""
        a = estimate_energy(compile_config(setup, "none", "clsa-cim"))
        b = estimate_energy(compile_config(setup, "wdup", "clsa-cim"))
        assert a.mvm_uj == pytest.approx(b.mvm_uj)

    def test_faster_schedule_saves_static_energy(self, setup):
        slow = compile_config(setup, "none", "clsa-cim")
        fast = compile_config(setup, "wdup", "clsa-cim")
        assert fast.latency_cycles < slow.latency_cycles
        e_slow = estimate_energy(slow)
        e_fast = estimate_energy(fast)
        assert e_fast.static_uj < e_slow.static_uj

    def test_layer_by_layer_has_no_noc_term(self, setup):
        """Without a set graph, NoC energy cannot be attributed."""
        compiled = compile_config(setup, "none", "layer-by-layer")
        report = estimate_energy(compiled)
        assert report.noc_uj == 0.0
        assert report.mvm_uj > 0

    def test_coefficients_scale_linearly(self, setup):
        compiled = compile_config(setup, "none", "clsa-cim")
        base = estimate_energy(compiled, EnergyModelConfig(mvm_energy_nj=40.0))
        double = estimate_energy(compiled, EnergyModelConfig(mvm_energy_nj=80.0))
        assert double.mvm_uj == pytest.approx(2 * base.mvm_uj)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            EnergyModelConfig(mvm_energy_nj=-1)
        with pytest.raises(ValueError):
            EnergyModelConfig(static_power_mw_per_pe=-0.1)
        with pytest.raises(ValueError):
            EnergyModelConfig(bytes_per_element=0)

    def test_summary(self, setup):
        compiled = compile_config(setup, "wdup", "clsa-cim")
        text = estimate_energy(compiled).summary()
        assert "uJ" in text
        assert "wdup+xinf" in text

    def test_derived_quantities(self, setup):
        compiled = compile_config(setup, "wdup", "clsa-cim")
        report = estimate_energy(compiled)
        assert not report.is_degenerate
        assert report.makespan_ns == pytest.approx(compiled.latency_ns)
        assert report.average_power_mw > 0
        assert report.energy_per_active_cycle_nj > 0


class TestDegenerateSchedules:
    """Zero-cycle schedules (empty models) must not divide by zero."""

    def empty_compiled(self, scheduling):
        from repro.ir.graph import Graph
        from repro.session import Session

        session = Session(paper_case_study(4))
        return session.compile(
            Graph("empty"),
            ScheduleOptions(mapping="none", scheduling=scheduling),
        )

    @pytest.mark.parametrize("scheduling", ["layer-by-layer", "clsa-cim"])
    def test_zero_cycle_schedule_reports_all_zero(self, scheduling):
        compiled = self.empty_compiled(scheduling)
        assert compiled.schedule.makespan == 0
        report = estimate_energy(compiled)
        assert report.is_degenerate
        assert report.total_uj == 0.0
        assert report.mvm_uj == report.noc_uj == report.static_uj == 0.0
        assert report.details["active_pe_cycles"] == 0.0

    def test_degenerate_derived_quantities_guarded(self):
        report = estimate_energy(self.empty_compiled("clsa-cim"))
        # the guarded ratios return 0.0 instead of raising
        assert report.average_power_mw == 0.0
        assert report.energy_per_active_cycle_nj == 0.0

    def test_degenerate_summary_renders(self):
        text = estimate_energy(self.empty_compiled("clsa-cim")).summary()
        assert "0.0 uJ" in text

    def test_handbuilt_report_defaults_degenerate(self):
        from repro.sim import EnergyReport

        report = EnergyReport("x", mvm_uj=1.0, noc_uj=0.0, static_uj=0.0)
        assert report.is_degenerate  # no makespan recorded
        assert report.average_power_mw == 0.0
        assert report.energy_per_active_cycle_nj == 0.0  # no active cycles

    def test_average_power_consistent_units(self, setup):
        """1 uJ over 1 ms is 1 mW."""
        from repro.sim import EnergyReport

        report = EnergyReport(
            "x", mvm_uj=1.0, noc_uj=0.0, static_uj=0.0, makespan_ns=1e6,
            details={"active_pe_cycles": 500.0},
        )
        assert report.average_power_mw == pytest.approx(1.0)
        assert report.energy_per_active_cycle_nj == pytest.approx(2.0)


def edge_loop_noc_uj(compiled, config):
    """The NoC term as a per-edge loop over the ``deps`` view."""
    noc = compiled.arch.build_noc()
    sets = compiled.dependencies.sets
    shapes = compiled.mapped.infer_shapes()
    home = {layer: compiled.placement.tiles_of(layer)[0] for layer in compiled.placement.pe_ranges}
    total = 0.0
    for (layer, _index), preds in compiled.dependencies.deps.items():
        for pred_layer, pred_index in preds:
            payload = (
                sets[pred_layer][pred_index].area
                * shapes[pred_layer].channels
                * config.bytes_per_element
            )
            hops = noc.hops(home[pred_layer], home[layer])
            total += config.noc_energy_nj_per_byte_hop * payload * hops
    return total / 1e3


class TestNocTermOnCsrEdges:
    """The array NoC term equals the per-edge loop bit for bit."""

    @pytest.mark.parametrize("name", ["tinyyolov3", "tiny_csp"])
    @pytest.mark.parametrize("mapping", ["none", "wdup"])
    @pytest.mark.parametrize(
        "config",
        [
            EnergyModelConfig(),
            EnergyModelConfig(noc_energy_nj_per_byte_hop=0.0013, bytes_per_element=2),
        ],
    )
    def test_bit_identical_to_edge_loop(self, name, mapping, config):
        g = preprocess(build(name), quantization=None).graph
        arch = paper_case_study(minimum_pe_requirement(g, CrossbarSpec()) + 16)
        compiled = compile_model(g, arch, ScheduleOptions(mapping=mapping), assume_canonical=True)
        noc_uj = estimate_energy(compiled, config).noc_uj
        assert noc_uj > 0
        assert noc_uj.hex() == edge_loop_noc_uj(compiled, config).hex()
