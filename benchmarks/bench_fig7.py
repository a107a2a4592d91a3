"""Experiments E6-E7 — Figure 7: speedup and utilization, all benchmarks.

Runs the full evaluation grid of Section V-B: six benchmarks
(TinyYOLOv3, VGG16/19, ResNet50/101/152) x {wdup, xinf, wdup+xinf}
x extra PEs in {4, 8, 16, 32}, all relative to layer-by-layer
inference without duplication.

Paper reference points (shape, not exact):
* best speedup 29.2x (TinyYOLOv3, wdup+xinf);
* xinf alone up to ~4.4x for large models;
* pure wdup modest for large models (1.1-1.9x);
* best utilization 20.1 % (TinyYOLOv3), a 17.9x gain over baseline;
* utilization decreases with ResNet depth.
"""

import pytest
from conftest import write_artifact

from repro import Session
from repro.analysis import fig7a_report, fig7b_report, headline_summary
from repro.arch import paper_case_study
from repro.models import PAPER_BENCHMARKS, benchmark_by_name


@pytest.fixture(scope="module")
def all_sweeps(canonical_benchmarks):
    # One sweep for the whole Fig. 7 grid: stages shared between
    # config points are compiled once per benchmark.
    results = Session(paper_case_study(1)).sweep(
        PAPER_BENCHMARKS, graphs=canonical_benchmarks
    )
    return {result.benchmark: result for result in results}


def test_fig7_full_grid(benchmark, results_dir, all_sweeps, canonical_benchmarks):
    """E6+E7: regenerate both panels; benchmark one mid-size sweep."""
    results = [all_sweeps[spec.name] for spec in PAPER_BENCHMARKS]

    benchmark.pedantic(
        lambda: Session(paper_case_study(1)).sweep(
            [benchmark_by_name("vgg16")],
            xs=(4,),
            graphs={"vgg16": canonical_benchmarks["vgg16"]},
        ),
        rounds=1,
        iterations=1,
    )

    write_artifact(results_dir, "fig7a_speedup.txt", fig7a_report(results))
    write_artifact(results_dir, "fig7b_utilization.txt", fig7b_report(results))
    write_artifact(results_dir, "headline.txt", headline_summary(results))


def test_fig7_shape_best_model_is_tinyyolov3(benchmark, all_sweeps):
    """TinyYOLOv3 achieves both the best speedup and best utilization."""

    def best_by_speedup():
        return max(all_sweeps.values(), key=lambda s: s.best_speedup().speedup)

    best = benchmark.pedantic(best_by_speedup, rounds=1, iterations=1)
    assert best.benchmark == "tinyyolov3"
    # paper: 29.2x; accept the same order of magnitude (> 14x)
    assert best.best_speedup().speedup > 14.0
    # paper: 20.1 % utilization; require > 10 %
    assert best.best_utilization().utilization > 0.10


def test_fig7_shape_combination_wins(benchmark, all_sweeps):
    """wdup+xinf dominates both individual techniques everywhere."""

    def check():
        for sweep in all_sweeps.values():
            xinf = sweep.series("xinf")[0]
            for combo in sweep.series("wdup+xinf"):
                wdup = next(
                    p for p in sweep.series("wdup") if p.extra_pes == combo.extra_pes
                )
                assert combo.speedup >= wdup.speedup - 1e-9
                assert combo.speedup >= xinf.speedup - 1e-9
        return True

    assert benchmark.pedantic(check, rounds=1, iterations=1)


def test_fig7_shape_xinf_grows_with_depth(benchmark, all_sweeps):
    """xinf speedup increases with ResNet depth (paper: up to ~4.4x)."""

    def xinf_speedups():
        return [
            all_sweeps[name].series("xinf")[0].speedup
            for name in ("resnet50", "resnet101", "resnet152")
        ]

    r50, r101, r152 = benchmark.pedantic(xinf_speedups, rounds=1, iterations=1)
    assert r50 <= r101 <= r152
    assert 2.0 < r152 < 10.0  # paper's ~4.4x neighbourhood


def test_fig7_shape_utilization_decreases_with_depth(benchmark, all_sweeps):
    """Deeper ResNets utilize the array less (limited cross-layer reach)."""

    def best_utils():
        return [
            all_sweeps[name].best_utilization().utilization
            for name in ("resnet50", "resnet101", "resnet152")
        ]

    u50, u101, u152 = benchmark.pedantic(best_utils, rounds=1, iterations=1)
    assert u50 > u101 > u152


def test_fig7_shape_small_x_beats_pure_xinf(benchmark, all_sweeps):
    """Paper: x=4 extra PEs with wdup+xinf outperforms pure xinf by
    almost 2x, even for ResNet152 (936 minimum PEs)."""

    def ratios():
        out = {}
        for name, sweep in all_sweeps.items():
            xinf = sweep.series("xinf")[0].speedup
            combo4 = next(
                p for p in sweep.series("wdup+xinf") if p.extra_pes == 4
            ).speedup
            out[name] = combo4 / xinf
        return out

    values = benchmark.pedantic(ratios, rounds=1, iterations=1)
    assert values["resnet152"] > 1.3  # "almost 2x" in the paper
    assert all(v >= 1.0 - 1e-9 for v in values.values())
