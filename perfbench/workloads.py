"""The four workloads, each run by ``child.py`` in a fresh interpreter.

Every workload does its set-up, calls ``ctx.ready()`` right before its
first timed op, and then runs its ops in whole repeats for about the
window ``run.py`` gave this child (see :func:`timed_phase`).
Every output, the ones produced during set-up included, goes through
:class:`checks.Checker`; a wrong one is a failed op.  With
``--trace 1`` a workload instead runs its ops once untraced and once
more with spans, and reports the per-layer metrics that
``BENCHMARK.json`` lists.

Why these four:

* ``paper-grid`` -- the Fig. 7 grid, the paper's own evaluation; Stage II
  does most of the work.
* ``warm-store`` -- recompiles served from a warm artifact store: store
  reads and decoding, no Stage II.
* ``service-mix`` -- HTTP compile service under a closed loop of two
  clients: frontend, job manager, async executor and wire codecs.
* ``verified-pool`` -- verified sweeps, each on a fresh process pool:
  pool start, graph shipping, envelope pickling and the static verifier.

The seed orders the cells of warm-store and draws the service-mix job
sequence; the grid workloads run the paper's grid in the paper's order.
"""

from __future__ import annotations

import gc
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from statistics import median
from typing import Any, Callable, Optional

from checks import PAPER, Checker, CheckError, check_published_minima
from spans import OP, Tracer
from stats import metric_table

from repro import Session
from repro.analysis.sweep import grid_tasks
from repro.arch.presets import paper_case_study
from repro.core.cache import CompilationCache
from repro.core.pipeline import ScheduleOptions, preprocess_stage
from repro.exec import EvaluateJob, SweepJob
from repro.mapping.tiling import minimum_pe_requirement
from repro.models.zoo import CASE_STUDY, PAPER_BENCHMARKS, benchmark_by_name, build
from repro.sim.energy import estimate_energy

GRID_MODELS = tuple(spec.name for spec in PAPER_BENCHMARKS) + (CASE_STUDY.name,)
WARM_STORE_MODELS = ("tinyyolov3", "tinyyolov4", "resnet152")
POOL_MODELS = ("tinyyolov4", "resnet50", "vgg16")
SERVICE_MODELS = ("tinyyolov4", "tiny_sequential", "tiny_residual", "tiny_csp", "tiny_dual_head")
#: The seven passes of the default pass manager, in order.
PASSES = ("preprocess", "tile", "mapping", "place", "sets", "deps", "schedule")
PER_LAYER = metric_table("per_layer")
#: The sweep's config names as (mapping, scheduling).
CONFIGS = {
    "layer-by-layer": ("none", "layer-by-layer"),
    "xinf": ("none", "clsa-cim"),
    "wdup": ("wdup", "layer-by-layer"),
    "wdup+xinf": ("wdup", "clsa-cim"),
}
#: Client-side status poll interval on service-mix: the sleep adds about
#: 1 ms, under a tenth of the 25-35 ms median round trip.
POLL_S = 0.002
#: Closed-loop clients on service-mix, each waiting for its last reply.
CLIENTS = 2
#: Copies of each distinct job in the service-mix sequence.
SERVICE_COPIES = 2
#: A service job not finished after this long counts as failed.
JOB_DEADLINE_S = 60.0
#: Worker processes of each verified-pool pass.
POOL_WORKERS = 2
MAX_ERRORS_KEPT = 5


@dataclass
class Context:
    """What one child run knows: arguments, clocks and scratch space.

    ``seconds`` is this child's timed window; zero means set-up only.
    ``part`` is the child's place among the run's children.
    """

    workload: str
    seed: int
    seconds: float
    trace: bool
    quick: bool
    spawn: float
    import_s: float
    scratch: str
    out_dir: str
    part: int = 0
    setup_s: Optional[float] = None
    #: Outputs checked during set-up (they count as attempted ops).
    setup_ops: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def rng(self) -> random.Random:
        """The seeded draws of this child: the same seed gives the same
        inputs, and the run's children draw different orders."""
        return random.Random(f"{self.seed}:{self.part}")

    def ready(self) -> None:
        """Mark the end of set-up: the next op is the first timed one."""
        self.setup_s = time.monotonic() - self.spawn

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < MAX_ERRORS_KEPT:
            self.errors.append(message)

    def check(self, check: Callable[..., None], *args: Any) -> None:
        """Run one output check; a wrong output is a failed op, not a crash."""
        try:
            check(*args)
        except CheckError as exc:
            self.fail(str(exc))
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            self.fail(repr(exc))


def calibrate() -> float:
    """Milliseconds of a fixed pure-Python loop (median of three).

    A diagnostic of host speed around the timed phase; never a metric
    and never used to normalize one.
    """
    samples = []
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        samples.append((time.perf_counter() - start) * 1e3)
    return median(samples)


def peak_rss_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def use_one_cpu() -> None:
    """Keep this process, and every process it starts, on one CPU.

    On a shared 2-vCPU VM the second vCPU comes and goes with the
    neighbours' load: work that needs both swung by 1.4x (service round
    trips waiting on it to wake) to 1.5x (two pool workers) from one set
    of runs to the next, against about 1.1x for work on one CPU.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def timed_phase(ctx: Context, one_repeat: Callable[[list[float]], int]) -> dict[str, Any]:
    """Run the workload's ops in whole repeats for about ``ctx.seconds``.

    ``one_repeat(latencies)`` runs every op once, appends each op's
    latency in seconds, and returns how many ops it attempted.  Whole
    repeats keep the mix of cheap and costly ops the same in every
    window; the window ends at the repeat boundary nearest to
    ``ctx.seconds``, after at least one repeat (none when the window is
    zero; one in quick mode).  Returns the raw figures: ``run.py`` pools
    them over the run's children into the end-to-end metrics.
    """
    gc.collect()
    before = calibrate()
    latencies: list[float] = []
    failed_before = ctx.failed
    attempted = repeats = 0
    start = time.perf_counter()
    while ctx.quick or ctx.seconds > 0:
        began = time.perf_counter()
        attempted += one_repeat(latencies)
        repeats += 1
        now = time.perf_counter()
        if ctx.quick or now - start + (now - began) / 2 >= ctx.seconds:
            break
    elapsed = time.perf_counter() - start
    after = calibrate()
    return {
        "attempted": attempted,
        "completed": attempted - (ctx.failed - failed_before),
        "elapsed_s": elapsed,
        "latencies": latencies,
        "repeats": repeats,
        "calibration_ms": [before, after],
    }


def per_layer(values: dict[str, float]) -> dict[str, float]:
    """Every per-layer metric, zero where the layer does not run."""
    unknown = set(values) - set(PER_LAYER)
    if unknown:
        raise KeyError(f"undeclared per-layer metrics: {sorted(unknown)}")
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}


def span_means(tracer: Tracer, ops: int, names: Any) -> dict[str, float]:
    """Mean self seconds per op of the named spans."""
    totals = tracer.self_seconds()
    return {f"{name}_s": totals.get(name, 0.0) / ops for name in names}


def write_trace(ctx: Context, tracer: Tracer) -> str:
    path = os.path.join(ctx.out_dir, f"trace-{ctx.workload}-seed{ctx.seed}.json")
    tracer.write_chrome(path)
    return path


class PassSpans:
    """Session hooks opening one span per pass and counting Stage II work."""

    def __init__(self, tracer: Tracer, counts: dict[str, float]) -> None:
        self.tracer = tracer
        self.counts = counts
        self._deps_misses = 0

    @staticmethod
    def _misses(ctx: Any) -> int:
        return ctx.cache.stats_snapshot().get("deps", (0, 0, 0))[2]

    def on_pass_start(self, name: str, ctx: Any) -> None:
        self.tracer.open(f"pass.{name}")
        if name == "deps" and ctx.cache is not None:
            self._deps_misses = self._misses(ctx)

    def on_pass_end(self, name: str, ctx: Any, seconds: float) -> None:
        self.tracer.close()
        if name == "deps" and ctx.cache is not None and self._misses(ctx) > self._deps_misses:
            self.counts["deps.sets"] += ctx.dependencies.num_sets()
            self.counts["deps.edges"] += ctx.dependencies.edge_count()


def add_cache_counts(counts: dict[str, float], memory: int, store: int, misses: int) -> None:
    counts["cache.memory_hits"] += memory
    counts["cache.store_hits"] += store
    counts["cache.misses"] += misses


def new_counts() -> dict[str, float]:
    return {name: 0.0 for name in PER_LAYER}


def grid_shape(min_pes: int) -> list[tuple[int, str, str]]:
    """``(pes, mapping, scheduling)`` of every Fig. 7 grid cell of a
    model whose minimum is ``min_pes``, in the sweep's order."""
    return [(min_pes + task.extra_pes, task.mapping, task.scheduling)
            for task in grid_tasks(CASE_STUDY)]


def check_point(checker: Checker, result: Any) -> None:
    """Check one streamed sweep cell (a ``ConfigPoint`` envelope)."""
    if not result.ok:
        raise CheckError(f"{result.key}: {result.error}")
    point = result.value
    mapping, scheduling = CONFIGS[point.config]
    pes = checker.min_pes[point.benchmark] + point.extra_pes
    errors = None
    if point.verify_report is not None:
        errors = len(point.verify_report.errors)
    checker.check_metrics(point.benchmark, pes, mapping, scheduling, point.metrics,
                          point.energy_uj, errors, point.speedup)


# ---------------------------------------------------------------------------
# paper-grid


def grid_cells(names: Any) -> list[tuple[str, Any]]:
    """Cells in the order ``stream_grid`` runs them inline: every
    model's baseline first, then the remaining cells model by model."""
    tasks = {name: grid_tasks(benchmark_by_name(name)) for name in names}
    cells = [(name, tasks[name][0]) for name in names]
    cells += [(name, task) for name in names for task in tasks[name][1:]]
    return cells


def grid_pass(ctx: Context, checker: Checker, names: tuple, latencies: list[float]) -> int:
    """One pass of the grid through ``Session.map(SweepJob(...))``.

    An op's latency is how long its cell took to stream in after the
    pass began: what a user watching the sweep waits.  (A cell's own
    compute time is bimodal, cache hit or not, so its percentiles jump.)
    """
    session = Session(paper_case_study(1))
    expected = 10 * len(names)
    seen = 0
    start = time.perf_counter()
    try:
        for result in session.map(SweepJob(benchmarks=names)):
            latencies.append(time.perf_counter() - start)
            seen += 1
            ctx.check(check_point, checker, result)
    finally:
        session.close()
    for _ in range(expected - seen):
        ctx.fail("grid pass ended early")
    return expected


def traced_grid_pass(ctx: Context, checker: Checker, names: tuple, tracer: Tracer,
                     counts: dict[str, float]) -> int:
    """The same pass through finer public calls, with spans.

    Mirrors ``stream_grid`` on the inline executor: one cache for the
    pass, every model canonicalized first, then baselines, then the
    remaining cells, each compiled, energy-estimated and evaluated.
    """
    cache = CompilationCache()
    hooks = PassSpans(tracer, counts)
    crossbar = paper_case_study(1).crossbar
    canonicals = {}
    for name in names:
        with tracer.span(OP, op=f"canonicalize/{name}"):
            with tracer.span("models.build"):
                raw = build(name)
            with tracer.span("frontend.preprocess"):
                canonicals[name] = preprocess_stage(raw, cache)
            with tracer.span("mapping.min_pes"):
                measured = minimum_pe_requirement(canonicals[name], crossbar)
        if measured != PAPER[name]["min_pes"]:
            ctx.fail(f"{name}: measured PE minimum {measured}")
    cells = grid_cells(names)
    for name, task in cells:
        mapping, scheduling = task.mapping, task.scheduling
        pes = task.min_pes + task.extra_pes
        try:
            with tracer.span(OP, op=f"{name}/{task.config}+{task.extra_pes}"):
                session = Session(paper_case_study(pes), cache=cache, hooks=hooks)
                compiled = session.compile(
                    canonicals[name], ScheduleOptions(mapping=mapping, scheduling=scheduling),
                    assume_canonical=True,
                )
                with tracer.span("sim.energy"):
                    energy = estimate_energy(compiled)
                with tracer.span("sim.evaluate"):
                    metrics = compiled.evaluate()
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            ctx.fail(f"{name} {task.config}+{task.extra_pes}: {exc!r}")
            continue
        ctx.check(checker.check_metrics, name, pes, mapping, scheduling, metrics,
                  energy.total_uj)
    add_cache_counts(counts, cache.memory_hits, cache.store_hits, cache.misses)
    return len(cells)


def paper_grid(ctx: Context) -> dict[str, Any]:
    check_published_minima(list(PAPER_BENCHMARKS) + [CASE_STUDY])
    # The paper's grid in the paper's order; the seed changes nothing
    # here, since a different model order would move every latency.
    names = ("tinyyolov4",) if ctx.quick else GRID_MODELS
    checker = Checker()
    # Warm-up: one small job through the same path, in its own session,
    # so lazy imports and first calls stay out of the timed passes.
    warm = Session(paper_case_study(8))
    list(warm.map([EvaluateJob("tiny_csp", ScheduleOptions())]))
    warm.close()
    ctx.ready()
    if ctx.trace:
        return trace_grid(ctx, checker, names)
    # The first cell of every pass also carries the canonicalization of
    # every model, as in each ``repro sweep``.
    result = timed_phase(ctx, lambda latencies: grid_pass(ctx, checker, names, latencies))
    result["peak_rss_mb"] = peak_rss_mib()
    return result


def trace_grid(ctx: Context, checker: Checker, names: tuple) -> dict[str, Any]:
    tracer = Tracer()
    counts = new_counts()
    ops, overhead = untraced_then_traced(
        ctx,
        lambda: grid_pass(ctx, checker, names, []),
        lambda: traced_grid_pass(ctx, checker, names, tracer, counts),
    )
    values = dict(counts)
    values.update(span_means(tracer, ops, ["frontend.preprocess", "sim.evaluate", "sim.energy"]))
    values.update(span_means(tracer, ops, [f"pass.{name}" for name in PASSES]))
    return traced_result(ctx, tracer, values, ops, overhead)


def untraced_then_traced(ctx: Context, untraced: Callable[[], int],
                         traced: Callable[[], int]) -> tuple[int, float]:
    """Alternate runs of the ops without spans and with them, twice
    (once in quick mode).

    Each callable runs every op once and returns how many it ran.
    Returns the traced op count over all repeats and the tracing
    overhead: the median traced seconds per op over the median untraced
    seconds per op, minus one.
    """
    per_op: dict[Callable[[], int], list[float]] = {untraced: [], traced: []}
    ops = 0
    for _ in range(1 if ctx.quick else 2):
        for run in (untraced, traced):
            start = time.perf_counter()
            count = run()
            per_op[run].append((time.perf_counter() - start) / count)
            ops += count if run is traced else 0
    return ops, median(per_op[traced]) / median(per_op[untraced]) - 1


def traced_result(ctx: Context, tracer: Tracer, values: dict[str, float], ops: int,
                  overhead: float) -> dict[str, Any]:
    values["import.repro_s"] = ctx.import_s
    values["trace.coverage"] = tracer.coverage()
    values["trace.overhead"] = overhead
    return {
        "attempted": ops,
        "per_layer": per_layer(values),
        "trace_file": write_trace(ctx, tracer),
        "spans": len(tracer.spans),
    }


# ---------------------------------------------------------------------------
# warm-store


def populate_store(ctx: Context, checker: Checker, models: tuple, publish: list[float]) -> Any:
    """Fill a fresh artifact store with every grid cell of ``models``."""
    from repro.store.disk import ArtifactStore

    store = ArtifactStore(os.path.join(ctx.scratch, "store"))
    put = store.put

    def timed_put(*args: Any) -> Any:
        start = time.perf_counter()
        try:
            return put(*args)
        finally:
            publish.append(time.perf_counter() - start)

    store.put = timed_put  # type: ignore[method-assign]
    session = Session(paper_case_study(1), store=store)
    try:
        for result in session.map(SweepJob(benchmarks=models)):
            ctx.setup_ops += 1
            ctx.check(check_point, checker, result)
    finally:
        session.close()
    store.put = put  # type: ignore[method-assign]
    return store


def store_op(checker: Checker, store: Any, graph: Any, name: str, task: Any,
             hooks: Any = (), tracer: Optional[Tracer] = None,
             counts: Optional[dict[str, float]] = None) -> Callable[[], None]:
    """One fresh-session recompile from the store, then scoring; returns
    the check of its output."""
    pes = task.min_pes + task.extra_pes
    options = ScheduleOptions(mapping=task.mapping, scheduling=task.scheduling)
    cache = CompilationCache(store=store)
    session = Session(paper_case_study(pes), cache=cache, hooks=hooks)
    compiled = session.compile(graph, options)
    if tracer is None:
        metrics = compiled.evaluate()
        energy = estimate_energy(compiled)
    else:
        with tracer.span("sim.evaluate"):
            metrics = compiled.evaluate()
        with tracer.span("sim.energy"):
            energy = estimate_energy(compiled)
    if counts is not None:
        add_cache_counts(counts, cache.memory_hits, cache.store_hits, cache.misses)

    def check() -> None:
        if cache.misses:
            raise CheckError(f"{name} {task.config}+{task.extra_pes}: {cache.misses} "
                             "store misses on a warm store")
        checker.check_metrics(name, pes, task.mapping, task.scheduling, metrics,
                              energy.total_uj)
        checker.check_duplication(name, pes, task.mapping, compiled)

    return check


def warm_store(ctx: Context) -> dict[str, Any]:
    models = ("tinyyolov4",) if ctx.quick else WARM_STORE_MODELS
    checker = Checker()
    publish: list[float] = []
    store = populate_store(ctx, checker, models, publish)
    graphs = {name: build(name) for name in models}
    cells = [(name, task) for name in models for task in grid_tasks(benchmark_by_name(name))]
    rng = ctx.rng()
    # Warm-up: one op per model fingerprints the graphs once.
    for name in models:
        ctx.setup_ops += 1
        ctx.check(lambda name=name: store_op(checker, store, graphs[name], name,
                                             grid_tasks(benchmark_by_name(name))[1])())
    ctx.ready()

    def one_pass(latencies: list[float], **trace: Any) -> int:
        order = list(cells)
        rng.shuffle(order)
        for name, task in order:
            op = f"{name}/{task.config}+{task.extra_pes}"
            try:
                start = time.perf_counter()
                if trace:
                    with trace["tracer"].span(OP, op=op):
                        check = store_op(checker, store, graphs[name], name, task, **trace)
                else:
                    check = store_op(checker, store, graphs[name], name, task)
                latencies.append(time.perf_counter() - start)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                ctx.fail(f"{name} {task.config}+{task.extra_pes}: {exc!r}")
                continue
            ctx.check(check)
        return len(order)

    if ctx.trace:
        tracer = Tracer()
        counts = new_counts()
        ops, overhead = untraced_then_traced(
            ctx,
            lambda: one_pass([]),
            lambda: one_pass([], tracer=tracer, counts=counts, hooks=PassSpans(tracer, counts)),
        )
        stats = store.stats()
        values = dict(counts)
        values.update(span_means(tracer, ops, ["sim.evaluate", "sim.energy"]))
        values.update(span_means(tracer, ops, [f"pass.{name}" for name in PASSES]))
        values["store.publish_s"] = sum(publish)
        values["store.bytes"] = stats.total_bytes
        values["store.deps_bytes"] = stats.per_stage.get("deps", (0, 0))[1]
        return traced_result(ctx, tracer, values, ops, overhead)

    result = timed_phase(ctx, one_pass)
    result["peak_rss_mb"] = peak_rss_mib()
    return result


# ---------------------------------------------------------------------------
# verified-pool


def pooled_pass(ctx: Context, checker: Checker, job: SweepJob, latencies: list[float],
                results: Optional[list] = None) -> int:
    """One verified sweep on a fresh pool of :data:`POOL_WORKERS`, as one
    ``repro sweep --verify --jobs 2`` runs it: the pool starts, the
    graphs are shipped and every worker cache starts cold.  An op's
    latency is how long its cell took to arrive after the pass began:
    what a user streaming the sweep waits."""
    from repro.exec.executors import ProcessExecutor

    cells = 10 * len(job.benchmarks)
    seen = 0
    start = time.perf_counter()
    executor = ProcessExecutor(POOL_WORKERS)
    session = Session(paper_case_study(1), executor=executor)
    try:
        for result in session.map(job, ordered=False):
            latencies.append(time.perf_counter() - start)
            seen += 1
            if results is not None:
                results.append(result)
            ctx.check(check_point, checker, result)
    finally:
        session.close()
        executor.shutdown(wait=True)
        executor.kill_workers()
    for _ in range(cells - seen):
        ctx.fail("verified pass ended early")
    return cells


def verified_pool(ctx: Context) -> dict[str, Any]:
    # The driver and both workers share one CPU: the pool's process path
    # is measured, not how much of a second CPU the host lends.
    use_one_cpu()
    # As on paper-grid, the seed changes nothing: the models are fixed.
    job = SweepJob(benchmarks=("tinyyolov4",) if ctx.quick else POOL_MODELS, verify=True)
    checker = Checker()
    # Warm-up: one small verified pass, so the driver's lazy imports and
    # first calls stay out of the timed passes.
    ctx.setup_ops += pooled_pass(ctx, checker, SweepJob(benchmarks=("tinyyolov4",), verify=True),
                                 [])
    ctx.ready()
    if ctx.trace:
        return trace_pool(ctx, checker, job)
    result = timed_phase(ctx, lambda latencies: pooled_pass(ctx, checker, job, latencies))
    # Every pool is reaped by now, so RUSAGE_CHILDREN holds the largest worker.
    result["peak_rss_mb"] = peak_rss_mib() + peak_rss_mib(resource.RUSAGE_CHILDREN)
    return result


def trace_pool(ctx: Context, checker: Checker, job: SweepJob) -> dict[str, Any]:
    """Exec's share from driver-side spans and ``JobResult.timings``;
    verify's share from an inline replay of the same cells."""
    from repro.verify.engine import verify_compiled

    tracer = Tracer()
    counts = new_counts()
    results: list[Any] = []

    def traced() -> int:
        with tracer.span("exec.sweep", op="pooled-pass"):
            return pooled_pass(ctx, checker, job, [], results)

    ops, overhead = untraced_then_traced(ctx, lambda: pooled_pass(ctx, checker, job, []), traced)
    worker_pass_s = 0.0
    for result in results:
        counts["exec.retries"] += result.attempts - 1
        add_cache_counts(counts, result.cache_memory_hits, result.cache_store_hits,
                         result.cache_misses)
        if result.value is not None and result.value.config != "layer-by-layer":
            worker_pass_s += sum(result.timings.values())
            counts["exec.degraded"] += result.backend != "process"
    cache = CompilationCache()
    replayed = grid_cells(job.benchmarks)
    for name, task in replayed:
        pes = task.min_pes + task.extra_pes
        with tracer.span(OP, op=f"{name}/{task.config}+{task.extra_pes}"):
            with tracer.span("replay.compile"):
                compiled = Session(paper_case_study(pes), cache=cache).compile(
                    build(name), ScheduleOptions(mapping=task.mapping, scheduling=task.scheduling))
            with tracer.span("verify.check"):
                report = verify_compiled(compiled)
        counts["verify.warnings"] += len(report.warnings)
        if report.errors:
            ctx.fail(f"{name} {task.config}+{task.extra_pes}: {len(report.errors)} verify errors")
    values = dict(counts)
    values["exec.worker_pass_s"] = worker_pass_s / ops
    values["verify.check_s"] = tracer.self_seconds().get("verify.check", 0.0) / len(replayed)
    return traced_result(ctx, tracer, values, ops, overhead)


# ---------------------------------------------------------------------------
# service-mix


@dataclass(frozen=True)
class ServiceJob:
    """One generated job of the service mix."""

    kind: str  # "evaluate" | "compile"
    model: str
    pes: int
    mapping: str
    scheduling: str

    def to_job(self) -> Any:
        from repro.exec import CompileJob

        cls = EvaluateJob if self.kind == "evaluate" else CompileJob
        return cls(self.model, ScheduleOptions(mapping=self.mapping, scheduling=self.scheduling),
                   paper_case_study(self.pes))


def service_configs(checker: Checker) -> list[tuple[str, int, str, str]]:
    """Every (model, pes, mapping, scheduling) the mix may draw."""
    return [(model, *cell) for model in SERVICE_MODELS
            for cell in grid_shape(checker.min_pes[model])]


def draw_jobs(rng: random.Random, configs: list, copies: int) -> list[ServiceJob]:
    """One seeded job sequence: every (kind, configuration) ``copies``
    times, in an order drawn from ``rng``.  A balanced mix keeps the
    share of heavy jobs (TinyYOLOv4 compiles) the same in every draw."""
    jobs = [ServiceJob(kind, *config) for config in configs
            for kind in ("evaluate", "compile")] * copies
    rng.shuffle(jobs)
    return jobs


class Server:
    """The compile service in its own child process."""

    def __init__(self) -> None:
        self.process = subprocess.Popen(
            [sys.executable, os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py"),
             "serve"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        line = self.process.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError("compile server failed to start")
        self.url = json.loads(line)["url"]

    def stop(self) -> float:
        """Drain and stop the server; returns its peak RSS in MiB."""
        try:
            out, _ = self.process.communicate(input="stop\n", timeout=30)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
            raise
        lines = [line for line in out.splitlines() if line.strip()]
        return float(json.loads(lines[-1])["peak_rss_mb"]) if lines else 0.0


def serve_forever() -> int:
    """Entry of the server child: serve until told to stop on stdin."""
    from repro.service.server import CompileServer

    # A short result TTL keeps finished jobs from piling up, so peak RSS
    # does not grow with the number of jobs a run gets through.
    server = CompileServer(port=0, jobs=2, result_ttl=10.0)
    server.start()
    print(json.dumps({"url": server.url}), flush=True)
    sys.stdin.readline()
    server.shutdown_service(grace=10.0)
    print(json.dumps({"peak_rss_mb": peak_rss_mib()}), flush=True)
    return 0


@dataclass
class RoundTrip:
    """What the client saw of one job."""

    latency: float
    polls: int
    queue_wait_s: float
    run_s: float
    poll_wait_s: float


def round_trip(client: Any, job: ServiceJob,
               tracer: Optional[Tracer] = None) -> tuple[RoundTrip, Any]:
    """Submit, poll the status every :data:`POLL_S`, fetch the result."""
    from repro.service.manager import TERMINAL_STATES

    def span(name: str) -> Any:
        return tracer.span(name) if tracer is not None else nullcontext()

    start = time.perf_counter()
    with span("service.submit"):
        handle = client.submit_job(job.to_job())
    polls = 0
    deadline = time.perf_counter() + JOB_DEADLINE_S
    with span("service.poll"):
        while True:
            time.sleep(POLL_S)
            status = client.status(handle.id)
            polls += 1
            if status["state"] in TERMINAL_STATES:
                seen_wall = time.time()
                break
            if time.perf_counter() > deadline:
                raise TimeoutError(f"job {handle.id} not done after {JOB_DEADLINE_S}s")
    with span("service.result"):
        result = client.result(handle.id)
    trip = RoundTrip(
        latency=time.perf_counter() - start,
        polls=polls,
        queue_wait_s=status["started_at"] - status["submitted_at"]
        if status["started_at"] is not None else 0.0,
        run_s=status["finished_at"] - (status["started_at"] or status["submitted_at"]),
        poll_wait_s=max(0.0, seen_wall - status["finished_at"]),
    )
    return trip, result


def check_service_result(checker: Checker, job: ServiceJob, result: Any) -> None:
    if result is None or not result.ok:
        raise CheckError(f"{job}: {None if result is None else result.error}")
    value = result.value
    if job.kind == "evaluate":
        checker.check_metrics(job.model, job.pes, job.mapping, job.scheduling, value.metrics,
                              value.energy_uj)
    else:
        checker.check_latency(job.model, job.pes, job.mapping, job.scheduling,
                              value.latency_cycles)
        checker.check_duplication(job.model, job.pes, job.mapping, value)


def closed_loop(ctx: Context, client: Any, checker: Checker, jobs: list[ServiceJob],
                tracer: Optional[Tracer] = None) -> list[RoundTrip]:
    """:data:`CLIENTS` threads, each sending the next job of the shared
    sequence when its last one returns, so both stay busy to the end.
    Returns the round trips of the jobs that did not fail."""
    trips: list[RoundTrip] = []
    lock = threading.Lock()
    indices = iter(range(len(jobs)))

    def worker() -> None:
        while True:
            with lock:
                index = next(indices, None)
            if index is None:
                return
            job = jobs[index]
            try:
                if tracer is not None:
                    with tracer.span(OP, op=f"{index}:{job.kind}/{job.model}/{job.pes}"):
                        trip, result = round_trip(client, job, tracer)
                else:
                    trip, result = round_trip(client, job)
            except Exception as exc:  # noqa: BLE001 - HTTP errors and timeouts are failed ops
                with lock:
                    ctx.fail(f"{job}: {exc!r}")
                continue
            with lock:
                failed = ctx.failed
                ctx.check(check_service_result, checker, job, result)
                if ctx.failed == failed:
                    trips.append(trip)

    threads = [threading.Thread(target=worker) for _ in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return trips


def service_mix(ctx: Context) -> dict[str, Any]:
    from repro.service.client import Client

    checker = Checker()
    configs = service_configs(checker)
    # The load generator and the server together keep about one CPU busy.
    use_one_cpu()
    server = Server()
    try:
        client = Client(server.url)
        # Warm-up: every configuration the mix can draw, so compile
        # stages are memory hits before timing starts (both job kinds
        # share the stages).
        warm = [ServiceJob("evaluate", *config) for config in configs]
        ctx.setup_ops += len(warm)
        closed_loop(ctx, client, checker, warm)
        ctx.ready()
        rng = ctx.rng()
        if ctx.trace:
            jobs = draw_jobs(rng, configs, SERVICE_COPIES)
            return trace_service(ctx, client, checker, jobs[:20] if ctx.quick else jobs)
        polls: list[int] = []

        def replay(latencies: list[float]) -> int:
            # A new order every repeat, so which jobs happen to run side
            # by side averages out within a run instead of across seeds.
            jobs = draw_jobs(rng, configs, SERVICE_COPIES)
            if ctx.quick:
                jobs = jobs[:20]
            for trip in closed_loop(ctx, client, checker, jobs):
                latencies.append(trip.latency)
                polls.append(trip.polls)
            return len(jobs)

        result = timed_phase(ctx, replay)
        result["polls_per_job"] = sum(polls) / max(1, len(polls))
    finally:
        peak = server.stop()
    result["peak_rss_mb"] = peak
    return result


def trace_service(ctx: Context, client: Any, checker: Checker, jobs: list) -> dict:
    """Client-side spans; queue wait and run time from the status body."""
    import repro.service.client as client_module

    tracer = Tracer()
    trips: list[RoundTrip] = []
    encode, decode = client_module.encode_job, client_module.decode_result

    def spanned(name: str, fn: Callable) -> Callable:
        def call(*args: Any) -> Any:
            with tracer.span(name):
                return fn(*args)
        return call

    def traced() -> int:
        # The client calls the wire codecs through its module globals.
        client_module.encode_job = spanned("wire.encode", encode)
        client_module.decode_result = spanned("wire.decode", decode)
        try:
            trips.extend(closed_loop(ctx, client, checker, jobs, tracer))
        finally:
            client_module.encode_job, client_module.decode_result = encode, decode
        return len(jobs)

    def untraced() -> int:
        closed_loop(ctx, client, checker, jobs)
        return len(jobs)

    before = client.stats()["cache"]
    _, overhead = untraced_then_traced(ctx, untraced, traced)
    ops = max(1, len(trips))
    values = span_means(tracer, ops, ["service.submit", "service.result", "wire.encode",
                                      "wire.decode"])
    values["service.queue_wait_s"] = sum(t.queue_wait_s for t in trips) / ops
    values["service.run_s"] = sum(t.run_s for t in trips) / ops
    values["service.poll_wait_s"] = sum(t.poll_wait_s for t in trips) / ops
    values["service.polls_per_job"] = sum(t.polls for t in trips) / ops
    after = client.stats()["cache"]
    for name in ("memory_hits", "store_hits", "misses"):
        values[f"cache.{name}"] = after[name] - before[name]
    return traced_result(ctx, tracer, values, ops, overhead)


WORKLOADS: dict[str, Callable[[Context], dict[str, Any]]] = {
    "paper-grid": paper_grid,
    "warm-store": warm_store,
    "service-mix": service_mix,
    "verified-pool": verified_pool,
}
