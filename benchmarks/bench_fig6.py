"""Experiments E3-E5 — Figure 6: the TinyYOLOv4 case study.

* E3 (Fig. 6a inset): which layers Optimization Problem 1 duplicates at
  ``x = 16`` — the paper says the first six Conv2D layers.
* E4 (Fig. 6a/6b): PE-activity Gantt charts for wdup+16 under
  layer-by-layer and CLSA-CIM scheduling.
* E5 (Fig. 6c): speedup and utilization across x in {0, 4, 8, 16, 32}.
  Paper reference points: xinf utilization ~4.1 %; wdup+32+xinf
  utilization up to 28.4 % and speedup up to 21.9x.

The benchmark measures one wdup+xinf compilation (mapping optimization,
rewrite, Stages I-IV).
"""

from conftest import session_compile, write_artifact

from repro import Session
from repro.analysis import duplication_table, fig6c_report
from repro.arch import paper_case_study
from repro.core import ScheduleOptions
from repro.mapping import problem_from_tilings, solve, tile_graph
from repro.models import CASE_STUDY
from repro.sim import ascii_gantt, evaluate

#: Paper reference values for shape checks (not exact-match targets).
PAPER_XINF_UTILIZATION = 0.041
PAPER_COMBO32_UTILIZATION = 0.284
PAPER_COMBO32_SPEEDUP = 21.9


def compile_combo(canonical, extra):
    arch = paper_case_study(CASE_STUDY.min_pes + extra)
    return session_compile(
        canonical, arch, ScheduleOptions(mapping="wdup", scheduling="clsa-cim")
    )


def test_fig6a_duplication_choice(benchmark, results_dir, tinyyolov4_canonical):
    """E3: at x=16 the optimizer duplicates the first six conv layers."""
    canonical = tinyyolov4_canonical
    tilings = tile_graph(canonical, paper_case_study(1).crossbar)

    def solve_wdup16():
        problem = problem_from_tilings(tilings, budget=CASE_STUDY.min_pes + 16)
        return solve(problem, "dp")

    solution = benchmark(solve_wdup16)
    first_six = canonical.base_layers()[:6]
    assert solution.duplicated_layers == first_six, (
        f"expected the first six convs duplicated, got {solution.duplicated_layers}"
    )
    assert solution.pes_used <= CASE_STUDY.min_pes + 16
    write_artifact(
        results_dir,
        "fig6a_duplication.txt",
        duplication_table(solution, canonical.base_layers()),
    )


def test_fig6ab_gantt_charts(benchmark, results_dir, tinyyolov4_canonical):
    """E4: activity visualizations for wdup+16, both schedulers."""
    canonical = tinyyolov4_canonical
    arch = paper_case_study(CASE_STUDY.min_pes + 16)

    def compile_both():
        lbl = session_compile(
            canonical,
            arch,
            ScheduleOptions(mapping="wdup", scheduling="layer-by-layer"),
        )
        combo = compile_combo(canonical, 16)
        return lbl, combo

    lbl, combo = benchmark.pedantic(compile_both, rounds=1, iterations=1)
    assert combo.latency_cycles < lbl.latency_cycles
    write_artifact(results_dir, "fig6a_gantt_wdup16_lbl.txt", ascii_gantt(lbl))
    write_artifact(results_dir, "fig6b_gantt_wdup16_clsa.txt", ascii_gantt(combo))


def test_fig6c_speedup_utilization(benchmark, results_dir, tinyyolov4_canonical):
    """E5: the Fig. 6(c) panel across x values (staged+cached engine)."""
    session = Session(paper_case_study(1))
    (sweep,) = benchmark.pedantic(
        lambda: session.sweep(
            [CASE_STUDY],
            xs=(4, 8, 16, 32),
            graphs={CASE_STUDY.name: tinyyolov4_canonical},
        ),
        rounds=1,
        iterations=1,
    )

    xinf = sweep.series("xinf")[0]
    # paper: xinf alone reaches ~4.1 % utilization
    assert abs(xinf.utilization - PAPER_XINF_UTILIZATION) < 0.01, (
        f"xinf utilization {xinf.utilization:.3f} far from paper's 0.041"
    )

    combo32 = [p for p in sweep.series("wdup+xinf") if p.extra_pes == 32][0]
    # paper: up to 28.4 % utilization / 21.9x speedup; shape check at
    # half the published magnitude
    assert combo32.utilization > PAPER_COMBO32_UTILIZATION / 2
    assert combo32.speedup > PAPER_COMBO32_SPEEDUP / 2

    # monotone orderings visible in Fig. 6(c)
    for combo in sweep.series("wdup+xinf"):
        wdup = next(p for p in sweep.series("wdup") if p.extra_pes == combo.extra_pes)
        assert combo.speedup >= wdup.speedup
        assert combo.speedup >= xinf.speedup

    write_artifact(results_dir, "fig6c_case_study.txt", fig6c_report(sweep))
    write_artifact(results_dir, "fig6c_cache_stats.txt", session.cache.summary())


def test_fig6_compile_performance(benchmark, tinyyolov4_canonical):
    """Throughput benchmark: one full wdup+xinf compilation at x=16."""
    result = benchmark(compile_combo, tinyyolov4_canonical, 16)
    assert evaluate(result).utilization > 0
