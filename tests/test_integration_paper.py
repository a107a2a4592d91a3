"""End-to-end integration tests against the paper's published numbers.

These run the real TinyYOLOv4 case study (Sec. V-A) through the full
stack — zoo model, preprocessing, Optimization Problem 1, the Fig. 4
rewrite, Stages I-IV, metrics — and assert the paper's reference points
at test-suite granularity (the benchmark harness covers the full grid).
"""

import pytest

from repro.arch import paper_case_study
from repro.core import ScheduleOptions, compile_model
from repro.frontend import preprocess
from repro.models import CASE_STUDY
from repro.sim import evaluate, simulate


@pytest.fixture(scope="module")
def canonical():
    return preprocess(CASE_STUDY.build(), quantization=None).graph


@pytest.fixture(scope="module")
def baseline(canonical):
    return compile_model(
        canonical,
        paper_case_study(CASE_STUDY.min_pes),
        ScheduleOptions(mapping="none", scheduling="layer-by-layer"),
        assume_canonical=True,
    )


class TestCaseStudyIntegration:
    def test_baseline_utilization_matches_eq3_implication(self, baseline):
        """Paper's Fig. 6c numbers imply Ut_lbl ~1.65 % via Eq. 3."""
        metrics = evaluate(baseline)
        assert metrics.utilization == pytest.approx(0.0165, abs=0.002)

    def test_xinf_utilization_41_percent(self, canonical, baseline):
        """Paper: 'CLSA-CIM (xinf) increases the utilization ... to 4.1 %'."""
        xinf = compile_model(
            canonical,
            paper_case_study(CASE_STUDY.min_pes),
            ScheduleOptions(mapping="none", scheduling="clsa-cim"),
            assume_canonical=True,
        )
        metrics = evaluate(xinf)
        assert metrics.utilization == pytest.approx(0.041, abs=0.005)

    def test_wdup16_duplicates_first_six_convs(self, canonical):
        """Paper: at x=16 'the first 6 Conv2D layers need to be duplicated'."""
        combo = compile_model(
            canonical,
            paper_case_study(CASE_STUDY.min_pes + 16),
            ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
            assume_canonical=True,
        )
        assert combo.duplication.duplicated_layers == canonical.base_layers()[:6]

    def test_wdup32_headline(self, canonical, baseline):
        """Paper: wdup+32 reaches up to 28.4 % utilization / 21.9x speedup."""
        combo = compile_model(
            canonical,
            paper_case_study(CASE_STUDY.min_pes + 32),
            ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
            assume_canonical=True,
        )
        metrics = evaluate(combo)
        speedup = metrics.speedup_over(evaluate(baseline))
        assert speedup > 15.0, f"speedup {speedup:.1f}x too far from paper's 21.9x"
        assert metrics.utilization > 0.20, (
            f"utilization {metrics.utilization:.1%} too far from paper's 28.4%"
        )

    def test_simulation_replays_schedule(self, canonical):
        """The event engine agrees with the analytical scheduler on the
        real case study, not just toy graphs."""
        combo = compile_model(
            canonical,
            paper_case_study(CASE_STUDY.min_pes + 16),
            ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
            assume_canonical=True,
        )
        assert simulate(combo).finish_cycles == combo.latency_cycles

    def test_requirements_check_passes(self, canonical):
        from repro.verify import verify_graph

        arch = paper_case_study(CASE_STUDY.min_pes)
        report = verify_graph(canonical, arch)
        assert report.ok, report.format()
