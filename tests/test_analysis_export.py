"""Tests for CSV/JSON sweep exports and bit-slicing PE accounting."""

import json

import pytest

from repro import Session
from repro.analysis import CSV_HEADER, sweep_to_csv, sweep_to_json
from repro.arch import CrossbarSpec, paper_case_study
from repro.frontend import preprocess
from repro.mapping import minimum_pe_requirement
from repro.models import BenchmarkSpec, tiny_sequential


@pytest.fixture(scope="module")
def sweep_results():
    graph = tiny_sequential()
    canonical = preprocess(graph, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    spec = BenchmarkSpec(
        "tiny_sequential",
        graph.shape_of(graph.input_names()[0]).hwc,
        base_layers=len(canonical.base_layers()),
        min_pes=min_pes,
    )
    return Session(paper_case_study(1)).sweep(
        [spec], xs=(2,), graphs={spec.name: canonical}
    )


class TestCsvExport:
    def test_header(self, sweep_results):
        lines = sweep_to_csv(sweep_results).splitlines()
        assert lines[0] == CSV_HEADER

    def test_row_count(self, sweep_results):
        lines = sweep_to_csv(sweep_results).splitlines()
        # header + baseline + xinf + wdup + wdup+xinf
        assert len(lines) == 5

    def test_baseline_row(self, sweep_results):
        lines = sweep_to_csv(sweep_results).splitlines()
        baseline = lines[1].split(",")
        assert baseline[1] == "layer-by-layer"
        assert float(baseline[6]) == 1.0

    def test_values_parse(self, sweep_results):
        for line in sweep_to_csv(sweep_results).splitlines()[1:]:
            parts = line.split(",")
            assert len(parts) == 17
            int(parts[4])       # latency cycles
            float(parts[6])     # speedup
            float(parts[7])     # utilization
            assert float(parts[9]) > 0  # energy (uJ)
            assert int(parts[13]) >= 1  # attempts
            assert parts[15] == "ok"    # status
            assert parts[16] == ""      # error (clean run)

    def test_energy_in_json(self, sweep_results):
        payload = json.loads(sweep_to_json(sweep_results))
        assert payload[0]["baseline"]["energy_uj"] > 0
        for point in payload[0]["points"]:
            assert point["energy_uj"] > 0


class TestJsonExport:
    def test_round_trip(self, sweep_results):
        payload = json.loads(sweep_to_json(sweep_results))
        assert len(payload) == 1
        entry = payload[0]
        assert entry["benchmark"] == "tiny_sequential"
        assert {p["config"] for p in entry["points"]} == {"xinf", "wdup", "wdup+xinf"}

    def test_speedups_consistent_with_points(self, sweep_results):
        payload = json.loads(sweep_to_json(sweep_results))
        for point, obj in zip(sweep_results[0].points, payload[0]["points"]):
            assert obj["speedup"] == pytest.approx(point.speedup)


class TestBitSlicing:
    def test_effective_cols(self):
        xbar = CrossbarSpec(rows=256, cols=256, cells_per_weight=2)
        assert xbar.effective_cols == 128
        assert xbar.weight_bits == 8  # 2 cells x 4 bits

    def test_pe_count_grows_with_slicing(self):
        single = CrossbarSpec(cells_per_weight=1)
        sliced = CrossbarSpec(cells_per_weight=2)
        assert sliced.pes_for_kernel_matrix(512, 255) >= single.pes_for_kernel_matrix(
            512, 255
        )
        # 255 outputs fit one 256-col PE unsliced but need 2 at 128
        assert single.pes_for_kernel_matrix(256, 255) == 1
        assert sliced.pes_for_kernel_matrix(256, 255) == 2

    def test_model_pe_minimum_with_slicing(self):
        graph = preprocess(tiny_sequential(), quantization=None).graph
        base = minimum_pe_requirement(graph, CrossbarSpec(cells_per_weight=1))
        sliced = minimum_pe_requirement(graph, CrossbarSpec(cells_per_weight=4))
        assert sliced >= base

    def test_validation(self):
        with pytest.raises(ValueError):
            CrossbarSpec(cells_per_weight=0)
        with pytest.raises(ValueError):
            CrossbarSpec(cols=8, cells_per_weight=9)

    def test_paper_configuration_unchanged(self):
        """Default slicing of 1 keeps every Table I/II number intact."""
        xbar = CrossbarSpec()
        assert xbar.cells_per_weight == 1
        assert xbar.effective_cols == 256
        assert xbar.pes_for_kernel_matrix(2304, 512) == 18  # conv2d_16
