"""Microbenchmarks of the compiler stages (throughput regression guard).

Measures each CLSA-CIM stage on the TinyYOLOv4 case study in isolation:
preprocessing, Eq. 1 tiling, Optimization Problem 1 (exact DP), the
Fig. 4 rewrite, Stage I set partitioning, Stage II dependency
derivation, and the Stage IV dynamic scheduler.  These are the numbers
to watch when modifying the algorithms — the end-to-end benches would
hide a 10x regression in a single stage.
"""

from conftest import all_pairs_dependencies

from repro.arch import CrossbarSpec, paper_case_study
from repro.core import (
    cross_layer_schedule_dynamic,
    determine_dependencies,
    determine_sets,
)
from repro.frontend import preprocess
from repro.mapping import (
    apply_duplication,
    problem_from_tilings,
    solve,
    tile_graph,
)
from repro.models import CASE_STUDY, tiny_yolo_v4

XBAR = CrossbarSpec()


def test_micro_preprocess(benchmark):
    graph = tiny_yolo_v4()
    report = benchmark(preprocess, graph, None)
    assert len(report.base_layers) == CASE_STUDY.base_layers


def test_micro_tiling(benchmark, tinyyolov4_canonical):
    tilings = benchmark(tile_graph, tinyyolov4_canonical, XBAR)
    assert sum(t.num_pes for t in tilings.values()) == CASE_STUDY.min_pes


def test_micro_duplication_dp(benchmark, tinyyolov4_canonical):
    tilings = tile_graph(tinyyolov4_canonical, XBAR)

    def run():
        problem = problem_from_tilings(tilings, budget=CASE_STUDY.min_pes + 32)
        return solve(problem, "dp")

    solution = benchmark(run)
    assert solution.pes_used <= CASE_STUDY.min_pes + 32


def test_micro_rewrite(benchmark, tinyyolov4_canonical):
    tilings = tile_graph(tinyyolov4_canonical, XBAR)
    problem = problem_from_tilings(tilings, budget=CASE_STUDY.min_pes + 32)
    solution = solve(problem, "dp")
    report = benchmark(apply_duplication, tinyyolov4_canonical, solution)
    assert report.duplicated


def test_micro_stage1_sets(benchmark, tinyyolov4_canonical):
    sets = benchmark(determine_sets, tinyyolov4_canonical)
    assert len(sets) == CASE_STUDY.base_layers


def test_micro_stage2_dependencies(benchmark, tinyyolov4_canonical):
    sets = determine_sets(tinyyolov4_canonical)
    deps = benchmark(determine_dependencies, tinyyolov4_canonical, sets)
    assert deps.edge_count() > 0


def test_micro_stage2_dependencies_naive(benchmark, tinyyolov4_canonical):
    """Reference all-pairs Stage II, set by set — what the columnar path replaces."""
    sets = determine_sets(tinyyolov4_canonical)
    deps = benchmark.pedantic(
        all_pairs_dependencies,
        args=(tinyyolov4_canonical, sets),
        rounds=1,
        iterations=1,
    )
    columnar = determine_dependencies(tinyyolov4_canonical, sets)
    assert list(deps.deps.items()) == list(columnar.deps.items())


def test_micro_stage4_dynamic(benchmark, tinyyolov4_canonical):
    sets = determine_sets(tinyyolov4_canonical)
    deps = determine_dependencies(tinyyolov4_canonical, sets)
    schedule = benchmark(cross_layer_schedule_dynamic, tinyyolov4_canonical, deps)
    assert schedule.makespan > 0


def test_micro_full_resnet152_compile(benchmark, canonical_benchmarks):
    """The heaviest single compilation in the evaluation grid (Session path)."""
    from repro import ScheduleOptions, Session

    canonical = canonical_benchmarks["resnet152"]
    session = Session(paper_case_study(936 + 32), cache=False)

    def run():
        return session.compile(
            canonical,
            ScheduleOptions(mapping="wdup", scheduling="clsa-cim"),
            assume_canonical=True,
        )

    compiled = benchmark.pedantic(run, rounds=1, iterations=1)
    assert compiled.latency_cycles > 0
    assert set(compiled.timings) >= {"mapping", "place", "sets", "deps", "schedule"}
