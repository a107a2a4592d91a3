"""Tests for the analysis package (tables, sweeps, reports)."""

from pathlib import Path

import pytest

from repro import Session
from repro.analysis import (
    duplication_table,
    fig6c_report,
    fig7a_report,
    fig7b_report,
    format_table,
    headline_summary,
    table1,
    table2,
)
from repro.arch import paper_case_study
from repro.models import BenchmarkSpec, tiny_dual_head, tiny_sequential


def sweep(specs, xs):
    """The paper grid of each spec through ``Session.sweep``."""
    return Session(paper_case_study(1)).sweep(specs, xs)


def synthetic_spec(name="tiny_dual_head", factory=tiny_dual_head):
    """A BenchmarkSpec over a small model with measured numbers."""
    from repro.arch import CrossbarSpec
    from repro.frontend import preprocess
    from repro.mapping import minimum_pe_requirement
    from repro.models import zoo

    graph = factory()
    canonical = preprocess(graph, quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, CrossbarSpec())
    spec = BenchmarkSpec(
        name=name,
        input_shape=graph.shape_of(graph.input_names()[0]).hwc,
        base_layers=len(canonical.base_layers()),
        min_pes=min_pes,
    )
    # patch the zoo lookup so spec.build() works for synthetic names
    assert name in zoo.MODELS
    return spec


class TestFormatTable:
    def test_alignment(self):
        text = format_table(["a", "bbb"], [["x", 1], ["yy", 22]])
        lines = text.splitlines()
        assert lines[0].startswith("a")
        assert len(lines) == 4

    def test_empty_rows(self):
        text = format_table(["col1", "col2"], [])
        assert "col1" in text


class TestPaperTables:
    def test_table1_contains_published_rows(self):
        text = table1()
        assert "conv2d" in text
        assert "(417, 417, 3)" in text
        assert "43264" in text
        assert "PE_min = 117" in text

    def test_table2_all_match(self):
        text = table2()
        assert "NO" not in text
        for name in ("tinyyolov3", "vgg16", "vgg19", "resnet50", "resnet101",
                     "resnet152"):
            assert name in text
        for value in ("142", "233", "314", "390", "679", "936"):
            assert value in text

    @pytest.mark.parametrize("name, render", [("table1", table1), ("table2", table2)])
    def test_matches_golden_text(self, name, render):
        """``repro table1``/``table2`` output, pinned byte for byte: the
        layer table, tiling, GEMM lowering and PE minima behind them."""
        golden = Path(__file__).parent / "golden" / f"{name}.txt"
        assert (render() + "\n").encode() == golden.read_bytes()

    def test_duplication_table(self):
        from repro.arch import CrossbarSpec, paper_case_study
        from repro.core import ScheduleOptions, compile_model
        from repro.frontend import preprocess
        from repro.mapping import minimum_pe_requirement

        g = preprocess(tiny_sequential(), quantization=None).graph
        min_pes = minimum_pe_requirement(g, CrossbarSpec())
        compiled = compile_model(
            g, paper_case_study(min_pes + 4), ScheduleOptions(mapping="wdup")
        )
        text = duplication_table(compiled.duplication, g.base_layers())
        assert "Duplicates" in text


class TestBenchmarkSweep:
    @pytest.fixture(scope="class")
    def sweep(self):
        return sweep([synthetic_spec()], xs=(2, 4))[0]

    def test_point_inventory(self, sweep):
        configs = sorted({p.config for p in sweep.points})
        assert configs == ["wdup", "wdup+xinf", "xinf"]
        assert len(sweep.series("wdup")) == 2
        assert len(sweep.series("wdup+xinf")) == 2
        assert len(sweep.series("xinf")) == 1

    def test_speedups_at_least_one(self, sweep):
        for point in sweep.points:
            assert point.speedup >= 1.0 - 1e-9

    def test_combo_dominates(self, sweep):
        """wdup+xinf >= max(wdup, xinf) at equal x (paper's ordering)."""
        xinf = sweep.series("xinf")[0]
        for combo in sweep.series("wdup+xinf"):
            wdup = next(
                p for p in sweep.series("wdup") if p.extra_pes == combo.extra_pes
            )
            assert combo.speedup >= wdup.speedup - 1e-9
            assert combo.speedup >= xinf.speedup - 1e-9

    def test_labels(self, sweep):
        labels = {p.label for p in sweep.points}
        assert "xinf" in labels
        assert "wdup+2" in labels
        assert "wdup+2+xinf" in labels

    def test_best_points(self, sweep):
        assert sweep.best_speedup().speedup == max(p.speedup for p in sweep.points)
        assert sweep.best_utilization().utilization == max(
            p.utilization for p in sweep.points
        )

    def test_mismatched_published_numbers_rejected(self):
        bad = BenchmarkSpec("tiny_dual_head", (64, 64, 3), base_layers=5, min_pes=999)
        with pytest.raises(AssertionError, match="PE minimum"):
            sweep([bad], xs=(2,))


class TestReports:
    @pytest.fixture(scope="class")
    def results(self):
        return sweep([synthetic_spec()], xs=(2, 4))

    def test_fig7a(self, results):
        text = fig7a_report(results)
        assert "speedup" in text
        assert "tiny_dual_head" in text
        assert "wdup+xinf+4" in text

    def test_fig7b(self, results):
        text = fig7b_report(results)
        assert "utilization" in text
        assert "%" in text

    def test_fig6c(self, results):
        text = fig6c_report(results[0])
        assert "case study" in text
        assert "layer-by-layer" in text

    def test_headline(self, results):
        text = headline_summary(results)
        assert "Best speedup" in text
        assert "Best utilization gain" in text
