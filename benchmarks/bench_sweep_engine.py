"""Sweep-engine wall-clock comparison: staged+cached vs the seed path.

The seed evaluated the paper grid by recompiling every config point
from scratch, serially, with Stage II's all-pairs Rect-intersection
scan, set by set.  The engine (a) runs the columnar Stage II, (b)
shares pipeline stages between config points through a
``CompilationCache``, and (c) optionally fans points out over worker
processes.  This bench runs a multi-benchmark sweep both ways, asserts
the speedup/utilization numbers are identical point-wise, and records
the wall-clock ratio in ``results/sweep_engine_timing.txt``.

Measured ratios are ~7x on an unloaded machine (the acceptance bar was
>= 2x).  The timing is recorded, not asserted: wall-clock on loaded
shared CI runners is too noisy to gate a build on — the point-wise
equality assert is the regression guard.
"""

import os
import time

from conftest import all_pairs_dependencies, write_artifact

from repro.analysis import sweep_all
from repro.core import pipeline
from repro.models import benchmark_by_name

#: Multi-benchmark grid kept small enough for a CI smoke yet large
#: enough that stage reuse matters (2 models x 6 points each).
SWEEP_MODELS = ("tinyyolov3", "tinyyolov4")
SWEEP_XS = (8, 16)


def _grid_numbers(results):
    return [
        (p.benchmark, p.config, p.extra_pes, p.speedup, p.utilization)
        for result in results
        for p in result.points
    ]


def test_sweep_engine_vs_seed_path(results_dir, monkeypatch, canonical_benchmarks,
                                   tinyyolov4_canonical):
    specs = [benchmark_by_name(name) for name in SWEEP_MODELS]
    graphs = dict(canonical_benchmarks)
    graphs["tinyyolov4"] = tinyyolov4_canonical

    # Seed-equivalent path: serial, uncached, naive all-pairs Stage II.
    with monkeypatch.context() as m:
        m.setattr(pipeline, "determine_dependencies", all_pairs_dependencies)
        t0 = time.perf_counter()
        seed_results = sweep_all(specs, xs=SWEEP_XS, use_cache=False, graphs=graphs)
        seed_wall = time.perf_counter() - t0

    # New engine: staged + cached (+ parallel when CPUs allow).  Every
    # config point compiles through the Session/PassManager API.
    jobs = None if (os.cpu_count() or 1) > 1 else 1
    t0 = time.perf_counter()
    engine_results = sweep_all(specs, xs=SWEEP_XS, jobs=jobs, graphs=graphs)
    engine_wall = time.perf_counter() - t0

    assert _grid_numbers(seed_results) == _grid_numbers(engine_results), (
        "staged+cached+parallel sweep must reproduce the seed numbers exactly"
    )

    ratio = seed_wall / engine_wall
    report = (
        f"multi-benchmark sweep ({', '.join(SWEEP_MODELS)}; xs={SWEEP_XS})\n"
        f"seed path (serial, uncached, all-pairs Stage II): {seed_wall:8.2f} s\n"
        f"sweep engine (staged, cached, jobs={jobs or 1}):          {engine_wall:8.2f} s\n"
        f"wall-clock improvement:                           {ratio:8.1f} x\n"
    )
    print(f"\nSWEEP-ENGINE TIMING: {ratio:.1f}x wall-clock improvement")
    write_artifact(results_dir, "sweep_engine_timing.txt", report)


def test_sweep_engine_parallel_determinism(canonical_benchmarks):
    """jobs>1 streams points out of order but assembles identical results."""
    spec = benchmark_by_name("tinyyolov3")
    graphs = {spec.name: canonical_benchmarks[spec.name]}
    serial = sweep_all([spec], xs=(4,), jobs=1, graphs=graphs)
    parallel = sweep_all([spec], xs=(4,), jobs=2, graphs=graphs)
    assert _grid_numbers(serial) == _grid_numbers(parallel)
