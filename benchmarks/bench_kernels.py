#!/usr/bin/env python
"""Columnar scheduling kernels vs the pure-Python reference schedulers.

Measures the Stage IV hot loops of :mod:`repro.core.kernels` (the CSR
set graph) against the reference schedulers in ``tests/oracles``, and
times Stage II:

* **single-image** — FINEST-granularity dynamic cross-layer scheduling
  (what the ``clsa-cim`` schedule pass runs per config point: the scheduler plus
  its validation pass, for each implementation);
* **batch** — the pipelined batch scheduler at ``--batch`` inferences,
  measured symmetrically to the single-image workload: each
  implementation's scheduler plus its validator (``assert_batch_schedule``
  for the reference, the vectorized array checks for the kernels);
* **stage1** — ``determine_sets`` and the assembly of its columns into
  the CSR set graph (``SetGraphArrays.from_csr``, over each graph's
  Stage II CSR computed before the clock starts) on the paper grid's
  cross-layer mapped graphs (35 graphs of 7 models, or tinyyolov4's 5
  with ``--quick``).  The record counts the sets.  With ``--quick``
  every layer's ``Rect`` view is also compared with the loop-built
  ``oracles.reference_partition``;
* **simulate** — the priced :func:`repro.sim.simulate` (a
  ``NocCostModel`` at 1 B/element, at 4 B, and at 4 B with the GPEU
  term) against the reference cost-model event loop of
  ``tests/oracles``, which prices one edge per call with the scalar
  delay formula; each cost model is built before the clock starts.
  Both report their rows, total edge delay and stalls, which must
  agree;
* **stage2** — ``determine_dependencies`` and the layer-by-layer
  baseline (``layer_by_layer_schedule``) over the mapped graphs of the
  paper grid's cross-layer cells (``none`` and ``wdup`` at every ``x``:
  35 graphs of 7 models, or tinyyolov4's 5 with ``--quick``).  Each
  timed run gets fresh graph copies, so it builds their route tables.
  The record counts the sets, edges and layers, and the rule
  applications Stage II requested against those it ran.  With
  ``--quick`` the CSR is also compared with the scalar
  ``oracles.reference_dependencies``, graph by graph.

Methodology: every (workload, implementation) measurement runs in a
**fresh subprocess** with the collector in its default state, so one
implementation's heap (the reference allocates one ``SetTask`` plus dict entries per
scheduled set; at batch 32 that is hundreds of thousands of objects)
never inflates the other's collection pauses.  Within a process the
timing is best-of-``--repeats`` with a collection before each run.

Stage II emits the CSR set graph, the kernels' only input, so the
kernels run on the compiled model's arrays.  The reference schedulers
walk the dict view of the same graph (``oracles.deps_dict``), built
before the clock starts.  The headline ``speedup`` compares scheduling
plus validation (reference / kernel).

Writes ``BENCH_kernels.json`` (repo root by default) — the first entry
of the repo's recorded perf trajectory — and exits non-zero when the
kernels miss their bar: faster-than-reference in ``--quick`` mode
(the CI smoke gate), the acceptance thresholds (>= 5x single-image,
>= 10x batch, >= 10x for the priced simulation at 1 B/element) in full
mode; when the priced simulation differs from the event loop in rows,
total edge delay or stalls; and, with ``--quick``, when Stage I's sets
or Stage II's CSR differ from the loop-built or scalar reference on any
graph.

Usage::

    python benchmarks/bench_kernels.py            # full: tinyyolov3, batch 32
    python benchmarks/bench_kernels.py --quick    # CI smoke: tinyyolov4, batch 8
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
for _path in (str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")):
    if _path not in sys.path:
        sys.path.insert(0, _path)


def best_of(fn, repeats: int) -> float:
    """Minimum wall-clock seconds of ``repeats`` runs of ``fn``.

    The collector stays *enabled* — collection pressure from per-set
    object churn is part of what the columnar kernels eliminate — but
    each run starts from a collected heap.
    """
    best = float("inf")
    for _ in range(repeats):
        gc.collect()
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _compile(model: str):
    from repro.arch import paper_case_study
    from repro.core import ScheduleOptions, compile_model
    from repro.frontend import preprocess
    from repro.mapping import minimum_pe_requirement
    from repro.models import build

    canonical = preprocess(build(model), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    arch = paper_case_study(min_pes + 16)
    return compile_model(canonical, arch, ScheduleOptions(), assume_canonical=True)


def grid_mapped_graphs(models: list[str]) -> list[tuple]:
    """``(mapped graph, sets)`` of every cross-layer cell of the paper grid."""
    from repro.analysis.sweep import PAPER_XS
    from repro.arch import paper_case_study
    from repro.core import CompilationCache, ScheduleOptions, compile_model
    from repro.frontend import preprocess
    from repro.models import build
    from repro.models.zoo import benchmark_by_name

    cache = CompilationCache()
    pairs = []
    for model in models:
        canonical = preprocess(build(model), quantization=None).graph
        min_pes = benchmark_by_name(model).min_pes
        for mapping, extra in [("none", 0)] + [("wdup", x) for x in PAPER_XS]:
            compiled = compile_model(
                canonical, paper_case_study(min_pes + extra),
                ScheduleOptions(mapping=mapping, scheduling="clsa-cim"),
                assume_canonical=True, cache=cache,
            )
            pairs.append((compiled.mapped, compiled.sets))
    return pairs


def run_stage2_worker(spec: dict) -> None:
    """Time Stage II and the layer-by-layer baseline; print a JSON line."""
    import numpy as np
    from oracles import build_set_indexes, reference_dependencies

    from repro.core import dependencies, determine_dependencies, layer_by_layer_schedule

    pairs = grid_mapped_graphs(spec["models"])

    def fresh() -> list[tuple]:
        """Copies without route tables (their shapes inferred, as after Stage I)."""
        copies = [(graph.copy(), sets) for graph, sets in pairs]
        for graph, _ in copies:
            graph.infer_shapes()
        return copies

    def timed(stage) -> float:
        best = float("inf")
        for _ in range(spec["repeats"]):
            copies = fresh()
            gc.collect()
            started = time.perf_counter()
            for graph, sets in copies:
                stage(graph, sets)
            best = min(best, time.perf_counter() - started)
        return best

    # One untimed pass counts the rule applications requested and run.
    walk, counts = dependencies._RouteWalk, {"requested": 0, "run": 0}

    class CountingWalk(walk):
        __slots__ = ()

        def _apply(self, name, block):
            counts["requested"] += 1
            return walk._apply(self, name, block)

        def _run(self, name, block):
            counts["run"] += 1
            return walk._run(self, name, block)

    dependencies._RouteWalk = CountingWalk
    try:
        graphs = [determine_dependencies(graph, sets) for graph, sets in fresh()]
    finally:
        dependencies._RouteWalk = walk
    result = {
        "graphs": len(pairs),
        "num_sets": sum(deps.num_sets() for deps in graphs),
        "num_edges": sum(deps.edge_count() for deps in graphs),
        "num_layers": sum(len(deps.sets) for deps in graphs),
        "rules_requested": counts["requested"],
        "rules_run": counts["run"],
        "deps_s": timed(determine_dependencies),
        "baseline_s": timed(layer_by_layer_schedule),
    }
    if spec["check"]:
        mismatched = []
        for index, ((graph, sets), deps) in enumerate(zip(pairs, graphs)):
            expected = reference_dependencies(graph, sets, build_set_indexes(sets)).arrays
            if not all(
                np.array_equal(getattr(deps.arrays, name), getattr(expected, name))
                for name in ("offsets", "indptr", "indices")
            ):
                mismatched.append(f"{graph.name} (graph {index})")
        result["identical_to_reference"] = not mismatched
        result["mismatched"] = mismatched
    print(json.dumps(result))


def run_stage1_worker(spec: dict) -> None:
    """Time Stage I and the CSR assembly of its columns; print a JSON line."""
    from oracles import reference_partition

    from repro.core import FINEST, SetGraphArrays, determine_dependencies, determine_sets

    graphs = [graph for graph, _ in grid_mapped_graphs(spec["models"])]
    csr = [determine_dependencies(graph, determine_sets(graph)).arrays for graph in graphs]
    partitions = [determine_sets(graph) for graph in graphs]

    def stage_one() -> None:
        for graph in graphs:
            determine_sets(graph)

    def assembly() -> None:
        for sets, arrays in zip(partitions, csr):
            SetGraphArrays.from_csr(
                sets.layers, sets.offsets, sets.coords, arrays.indptr, arrays.indices
            )

    result = {
        "graphs": len(graphs),
        "num_sets": sum(sets.num_sets for sets in partitions),
        "num_layers": sum(len(sets) for sets in partitions),
        "sets_s": best_of(stage_one, spec["repeats"]),
        "assembly_s": best_of(assembly, spec["repeats"]),
    }
    if spec["check"]:
        mismatched = []
        for index, (graph, sets) in enumerate(zip(graphs, partitions)):
            shapes = graph.infer_shapes()
            if any(sets[layer] != reference_partition(shapes[layer], FINEST) for layer in sets):
                mismatched.append(f"{graph.name} (graph {index})")
        result["identical_to_reference"] = not mismatched
        result["mismatched"] = mismatched
    print(json.dumps(result))


#: The priced simulations: name -> ``CostModelConfig`` fields.
COST_MODELS = {
    "1B": {"bytes_per_element": 1},
    "4B": {"bytes_per_element": 4},
    "4B+gpeu": {"bytes_per_element": 4, "model_gpeu": True},
}


def run_simulate_worker(spec: dict) -> None:
    """Time one priced simulation; print a JSON line with its outcome."""
    import hashlib

    import numpy as np
    from oracles import ScalarNocCostModel, reference_simulate

    from repro.sim import CostModelConfig, NocCostModel, simulate

    compiled = _compile(spec["model"])
    config = CostModelConfig(**COST_MODELS[spec["config"]])
    args = (compiled.mapped, compiled.placement, config)
    if spec["engine"] == "csr":
        cost_model = NocCostModel(*args)
        fn = lambda: simulate(compiled, cost_model)  # noqa: E731
    else:
        scalar = ScalarNocCostModel(*args)
        fn = lambda: reference_simulate(  # noqa: E731
            compiled.dependencies, scalar, compiled.schedule.policy
        )
    seconds = best_of(fn, spec["repeats"])
    result = fn()
    cols = result.schedule.columns()
    rows = np.stack(
        [cols.layer_id, cols.set_index, cols.start, cols.end, cols.image]
    ).astype(np.int64)
    print(json.dumps({
        "num_edges": compiled.dependencies.edge_count(),
        "seconds": seconds,
        "finish_cycles": result.finish_cycles,
        "total_edge_delay_cycles": result.total_edge_delay_cycles,
        "per_layer_stall": result.per_layer_stall,
        "rows_sha256": hashlib.sha256(rows.tobytes()).hexdigest(),
    }))


def run_worker(spec: dict) -> None:
    """Measure one (workload, engine) pair; print a JSON result line.

    ``engine`` is ``csr`` (the kernels) or ``python`` (the oracles).
    """
    if spec["workload"] == "stage1":
        run_stage1_worker(spec)
        return
    if spec["workload"] == "stage2":
        run_stage2_worker(spec)
        return
    if spec["workload"] == "simulate":
        run_simulate_worker(spec)
        return
    from oracles import cross_layer_schedule_dynamic, reference_batch_schedule

    from oracles import deps_dict

    from repro.core import csr_batch_schedule, csr_dynamic_schedule
    from repro.verify import assert_schedule

    compiled = _compile(spec["model"])
    dependencies = compiled.dependencies
    mapped = compiled.mapped
    repeats = spec["repeats"]
    batch_size = spec["batch"]
    result = {
        "num_sets": dependencies.num_sets(),
        "num_edges": dependencies.edge_count(),
        "num_layers": len(dependencies.sets),
    }

    if spec["engine"] == "csr":
        arrays = dependencies.arrays
        if spec["workload"] == "single":
            fn = lambda: csr_dynamic_schedule(arrays)  # noqa: E731
        else:
            fn = lambda: csr_batch_schedule(  # noqa: E731
                arrays, batch_size, validate=True
            )
    else:
        deps = deps_dict(dependencies)  # the dict view is built outside the clock
        if spec["workload"] == "single":
            fn = lambda: assert_schedule(  # noqa: E731
                cross_layer_schedule_dynamic(mapped, dependencies, deps), dependencies
            )
        else:
            # validate=True: the reference runs assert_batch_schedule.
            fn = lambda: reference_batch_schedule(  # noqa: E731
                mapped, dependencies, batch_size, validate=True, deps=deps
            )

    result["seconds"] = best_of(fn, repeats)
    print(json.dumps(result))


def measure(model: str, workload: str, engine: str, batch: int, repeats: int) -> dict:
    """Run one measurement in a fresh subprocess and parse its result."""
    return run_in_subprocess({
        "model": model,
        "workload": workload,
        "engine": engine,
        "batch": batch,
        "repeats": repeats,
    })


def run_in_subprocess(spec: dict) -> dict:
    """Run ``spec`` in a fresh worker process and parse its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(spec)],
        capture_output=True,
        text=True,
        check=True,
        cwd=str(REPO_ROOT),
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def bench_stage(workload: str, models: list[str], repeats: int, check: bool) -> dict:
    """Stage I or II over the grid's mapped graphs (one subprocess)."""
    result = run_in_subprocess(
        {"workload": workload, "models": models, "repeats": repeats, "check": check}
    )
    for name in ("sets_s", "assembly_s", "deps_s", "baseline_s"):
        if name in result:
            result[name] = round(result[name], 6)
    return {"models": models, **result}


def bench_simulate(model: str, repeats: int) -> dict:
    """The priced simulation and its event-loop reference, per cost model."""
    sections = []
    for name in COST_MODELS:
        python, csr = (
            run_in_subprocess({
                "workload": "simulate",
                "model": model,
                "config": name,
                "engine": engine,
                "repeats": repeats,
            })
            for engine in ("python", "csr")
        )
        outcome = ("rows_sha256", "total_edge_delay_cycles", "per_layer_stall")
        sections.append({
            "cost_model": name,
            "finish_cycles": csr["finish_cycles"],
            "total_edge_delay_cycles": csr["total_edge_delay_cycles"],
            "python_s": round(python["seconds"], 6),
            "csr_s": round(csr["seconds"], 6),
            "speedup": round(python["seconds"] / csr["seconds"], 2),
            "identical_to_reference": all(python[key] == csr[key] for key in outcome),
        })
    return {"model": model, "extra_pes": 16, "num_edges": csr["num_edges"], "runs": sections}


def bench_model(model: str, batch_size: int, repeats: int) -> dict:
    """Benchmark kernels and reference on one model; returns the JSON record."""
    results = {
        # The single-image measurement is milliseconds long: give it
        # more repeats so best-of is robust to scheduler jitter.
        (workload, engine): measure(
            model,
            workload,
            engine,
            batch_size,
            repeats * 4 if workload == "single" else repeats,
        )
        for workload in ("single", "batch")
        for engine in ("python", "csr")
    }
    sample = results[("single", "csr")]

    def section(workload: str) -> dict:
        python_s = results[(workload, "python")]["seconds"]
        csr_s = results[(workload, "csr")]["seconds"]
        return {
            "python_s": round(python_s, 6),
            "csr_s": round(csr_s, 6),
            "speedup": round(python_s / csr_s, 2),
        }

    record = {
        "model": model,
        "num_sets": sample["num_sets"],
        "num_edges": sample["num_edges"],
        "num_layers": sample["num_layers"],
        "single_image": section("single"),
        "batch": {"batch_size": batch_size, **section("batch")},
    }
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="CI smoke: tinyyolov4 at batch 8, fewer repeats, gate on "
             "csr-not-slower-than-python and on identity with the references",
    )
    parser.add_argument(
        "--model", default=None,
        help="override the benchmark model (default: tinyyolov3, "
             "or tinyyolov4 with --quick)",
    )
    parser.add_argument("--batch", type=int, default=None, metavar="N",
                        help="batch size (default: 32, or 8 with --quick)")
    parser.add_argument("--repeats", type=int, default=None, metavar="N",
                        help="timing repeats, best-of (default: 5, 2 quick)")
    parser.add_argument(
        "--out", default=str(REPO_ROOT / "BENCH_kernels.json"),
        help="output JSON path (default: repo-root BENCH_kernels.json)",
    )
    parser.add_argument("--no-check", action="store_true",
                        help="record timings without gating on thresholds")
    parser.add_argument("--worker", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.worker is not None:
        run_worker(json.loads(args.worker))
        return 0

    model = args.model or ("tinyyolov4" if args.quick else "tinyyolov3")
    batch_size = args.batch or (8 if args.quick else 32)
    repeats = args.repeats or (2 if args.quick else 5)

    from repro.models.zoo import CASE_STUDY, PAPER_BENCHMARKS

    grid = ["tinyyolov4"] if args.quick else [
        spec.name for spec in PAPER_BENCHMARKS + (CASE_STUDY,)
    ]
    record = {
        "benchmark": "scheduling-kernels",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "numpy": __import__("numpy").__version__,
        "workloads": [bench_model(model, batch_size, repeats)],
        "simulate": bench_simulate(model, repeats * 2),
        "stage1": bench_stage("stage1", grid, repeats * 2, check=args.quick),
        "stage2": bench_stage("stage2", grid, repeats * 2, check=args.quick),
    }

    out_path = Path(args.out)
    out_path.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    workload = record["workloads"][0]
    single = workload["single_image"]
    batch = workload["batch"]
    print(f"{model}: {workload['num_sets']} sets, {workload['num_edges']} edges")
    print(
        f"  single-image dynamic: python {single['python_s'] * 1e3:8.1f} ms | "
        f"csr {single['csr_s'] * 1e3:7.1f} ms | {single['speedup']:.1f}x"
    )
    print(
        f"  batch-{batch['batch_size']:<2} pipeline:    "
        f"python {batch['python_s'] * 1e3:8.1f} ms | "
        f"csr {batch['csr_s'] * 1e3:7.1f} ms | {batch['speedup']:.1f}x"
    )
    priced = record["simulate"]
    print(f"priced simulate, {model} +16: {priced['num_edges']} edges")
    for run in priced["runs"]:
        print(
            f"  {run['cost_model']:<8} event loop {run['python_s'] * 1e3:7.1f} ms | "
            f"csr {run['csr_s'] * 1e3:7.1f} ms | {run['speedup']:.1f}x"
        )
    stage1 = record["stage1"]
    print(
        f"stage I over {stage1['graphs']} grid graphs: {stage1['num_sets']} sets, "
        f"{stage1['num_layers']} layers"
    )
    print(
        f"  determine_sets {stage1['sets_s'] * 1e3:7.1f} ms | "
        f"CSR assembly {stage1['assembly_s'] * 1e3:7.1f} ms"
    )
    stage2 = record["stage2"]
    print(
        f"stage II over {stage2['graphs']} grid graphs: {stage2['num_sets']} sets, "
        f"{stage2['num_edges']} edges, {stage2['num_layers']} layers; rules "
        f"{stage2['rules_run']} run of {stage2['rules_requested']} requested"
    )
    print(
        f"  determine_dependencies {stage2['deps_s'] * 1e3:7.1f} ms | "
        f"layer-by-layer baseline {stage2['baseline_s'] * 1e3:7.1f} ms"
    )
    print(f"wrote {out_path}")

    if stage1.get("identical_to_reference") is False:
        print(
            "FAIL: Stage I differs from the loop-built reference on "
            f"{', '.join(stage1['mismatched'])}",
            file=sys.stderr,
        )
        return 1
    if stage2.get("identical_to_reference") is False:
        print(
            "FAIL: Stage II differs from the scalar reference on "
            f"{', '.join(stage2['mismatched'])}",
            file=sys.stderr,
        )
        return 1
    differing = [run["cost_model"] for run in priced["runs"] if not run["identical_to_reference"]]
    if differing:
        print(
            "FAIL: the priced simulation differs from the event loop at "
            f"{', '.join(differing)}",
            file=sys.stderr,
        )
        return 1
    if args.no_check:
        return 0
    priced_1b = priced["runs"][0]["speedup"]
    if args.quick:
        ok = single["speedup"] >= 1.0 and batch["speedup"] >= 1.0 and priced_1b >= 1.0
        if not ok:
            print("FAIL: csr kernels slower than the python reference", file=sys.stderr)
        return 0 if ok else 1
    ok = single["speedup"] >= 5.0 and batch["speedup"] >= 10.0 and priced_1b >= 10.0
    if not ok:
        print(
            "FAIL: below acceptance thresholds (>= 5x single-image, >= 10x batch, "
            ">= 10x priced simulation at 1 B)",
            file=sys.stderr,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
