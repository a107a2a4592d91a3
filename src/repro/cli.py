"""Command-line interface: ``clsa-cim``.

Subcommands
-----------
``table1``
    Print the paper's Table I (TinyYOLOv4 base-layer structure).
``table2``
    Print the paper's Table II (benchmark list with PE minima).
``schedule``
    Compile one model/configuration and print metrics (and optionally
    the ASCII Gantt chart).
``sweep``
    Run the paper's configuration grid for one or more models and print
    the Fig. 7 panels (or export CSV/JSON).
``explore``
    Multi-objective design-space search (``repro.explore``): pick a
    strategy and a budget, journal every evaluated point into a
    resumable run store, and print the Pareto frontier.
``verify``
    Run the unified static verifier (``repro.verify``) over a saved
    ``CompiledModel`` artifact and print the diagnostics (text or
    JSON); the exit code reflects the worst severity found.
``cache``
    Inspect and maintain the persistent artifact store: ``stats``,
    ``gc --max-bytes``, ``clear``, and ``path``.  ``schedule`` and
    ``sweep`` accept ``--store [PATH]`` to compile against a store, so
    repeated CLI invocations reuse every unchanged pipeline stage.

The CLI installs under two names — ``clsa-cim`` (historical) and
``repro`` — with identical behaviour; ``--version`` prints the
installed package version.

Examples
--------
::

    clsa-cim table2
    clsa-cim schedule --model tinyyolov4 --extra-pes 32
    clsa-cim schedule --model tinyyolov4 --mapping none --gantt
    clsa-cim schedule --model vgg16 --order-mode static --duplication-solver greedy
    clsa-cim sweep --models tinyyolov3 vgg16 --xs 4 16 --format csv
    clsa-cim sweep --models resnet50 resnet101 --jobs 4 --rows-per-set 4
    repro explore --model tinyyolov3 --strategy random --budget 40 --resume
    repro explore --model vgg16 --strategy successive-halving \
        --objectives latency utilization --out vgg16.jsonl --format json
    repro schedule --model tinyyolov4 --verify --save tyv4.json
    repro verify tyv4.json --format json
    repro verify tyv4.json --rules schedule.raw-race schedule.exclusivity

Both ``schedule`` and ``sweep`` run entirely through the public
:class:`repro.session.Session` API (pass-pipeline compilation with a
shared :class:`~repro.core.cache.CompilationCache`); ``--jobs`` fans
the sweep grid out over worker processes and ``--no-cache`` forces
every point to recompile from scratch (slower; identical numbers).
Mapping/scheduler choices include any plugins registered through
``repro.core.passes.register_mapping`` / ``register_scheduler`` before
``main`` runs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .analysis import (
    fig7a_report,
    fig7b_report,
    format_table,
    headline_summary,
    table1,
    table2,
)
from .analysis.export import sweep_to_csv, sweep_to_json
from .arch import paper_case_study
from .core import ScheduleOptions, SetGranularity
from .core.passes import mapping_names, scheduler_names
from .frontend import preprocess
from .mapping import minimum_pe_requirement
from .models import MODELS, PAPER_BENCHMARKS, build
from .session import Session


def _jobs_arg(value: str) -> int:
    jobs = int(value)
    if jobs < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {jobs}")
    return jobs


def _add_executor_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--executor`` knob of ``sweep`` and ``explore``."""
    from .exec import executor_names

    parser.add_argument(
        "--executor", default=None, choices=executor_names(), metavar="BACKEND",
        help="execution backend for the fan-out: "
             f"{', '.join(executor_names())} (plugins registered via "
             "repro.exec.register_executor before main() runs are "
             "accepted; default: process when --jobs asks for "
             "parallelism, else inline)",
    )


def _add_store_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--store`` knob of ``schedule`` and ``sweep``."""
    parser.add_argument(
        "--store", nargs="?", const="", default=None, metavar="PATH",
        help="compile against a persistent artifact store at PATH "
             "(bare --store uses $REPRO_STORE_PATH, else "
             "$XDG_CACHE_HOME/clsa-cim-repro/store); unchanged "
             "pipeline stages are served from disk across invocations",
    )


def _add_resilience_flags(parser: argparse.ArgumentParser) -> None:
    """The shared fault-tolerance knobs of ``schedule``/``sweep``/``explore``."""
    parser.add_argument(
        "--retries", type=int, default=None, metavar="N",
        help="retry transient job failures (worker crashes, timeouts, "
             "broken pools) up to N extra times with exponential "
             "backoff; deterministic compile errors never retry "
             "(default 0 = fail on the first error)",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=None, metavar="SECONDS",
        help="per-job wall-clock budget: process workers exceeding it "
             "are killed and respawned, in-process jobs stop at the "
             "next cooperative checkpoint (default: no timeout)",
    )


def _resilience_kwargs(args: argparse.Namespace) -> dict:
    """Session fault-tolerance kwargs from the parsed flags."""
    kwargs: dict = {}
    retries = getattr(args, "retries", None)
    if retries is not None:
        if retries < 0:
            raise SystemExit(f"--retries must be >= 0, got {retries}")
        kwargs["retry"] = retries + 1  # N retries = N+1 attempts
    timeout = getattr(args, "job_timeout", None)
    if timeout is not None:
        if timeout <= 0:
            raise SystemExit(f"--job-timeout must be > 0, got {timeout}")
        kwargs["job_timeout"] = timeout
    return kwargs


def _store_kwargs(args: argparse.Namespace) -> dict:
    """Session store kwargs from the parsed ``--store`` value."""
    if getattr(args, "store", None) is None:
        return {}
    if args.store == "":
        return {"store": True}
    return {"store_path": args.store}


def _add_server_flag(parser: argparse.ArgumentParser) -> None:
    """The shared ``--server`` knob of ``schedule``/``sweep``/``explore``."""
    parser.add_argument(
        "--server", default=None, metavar="URL",
        help="run the job on a compile service at URL (start one with "
             "'repro serve'); caching, retries and timeouts apply "
             "server-side",
    )


def _reject_with_server(args: argparse.Namespace, *flags: tuple) -> None:
    """Exit when a local-only flag is combined with ``--server``."""
    for name, value, default in flags:
        if value != default:
            raise SystemExit(
                f"{args.command}: {name} is handled by the server and "
                "cannot be combined with --server"
            )


def _package_version() -> str:
    """The installed distribution version (falling back to the module's).

    Source installs run off ``PYTHONPATH`` without package metadata;
    the module constant keeps ``--version`` working there.
    """
    try:
        from importlib.metadata import PackageNotFoundError, version

        return version("clsa-cim-repro")
    except PackageNotFoundError:
        from . import __version__

        return __version__


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clsa-cim",
        description="CLSA-CIM cross-layer scheduling for tiled CIM architectures",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="print the paper's Table I")
    sub.add_parser("table2", help="print the paper's Table II")

    schedule = sub.add_parser("schedule", help="compile one configuration")
    schedule.add_argument("--model", required=True, choices=sorted(MODELS))
    schedule.add_argument("--mapping", default="wdup", choices=mapping_names())
    schedule.add_argument(
        "--scheduling", default="clsa-cim", choices=scheduler_names()
    )
    schedule.add_argument(
        "--extra-pes", type=int, default=16,
        help="PEs beyond the model's minimum (default 16)",
    )
    schedule.add_argument(
        "--rows-per-set", type=int, default=1,
        help="Stage I granularity (default 1 = finest)",
    )
    schedule.add_argument(
        "--order-mode", default="dynamic", choices=("dynamic", "static"),
        help="Stage III/IV ordering: ready-order list scheduling "
             "(dynamic, default) or the fixed static order (ablation)",
    )
    schedule.add_argument(
        "--duplication-solver", default="dp", choices=("dp", "greedy"),
        help="Optimization Problem 1 solver (default dp = exact)",
    )
    schedule.add_argument(
        "--duplication-axis", default="width", choices=("width", "height"),
        help="cut direction of the Fig. 4 duplication rewrite "
             "(default width)",
    )
    schedule.add_argument(
        "--d-max-cap", type=int, default=None, metavar="D",
        help="cap per-layer duplication factors at D (default: uncapped)",
    )
    schedule.add_argument(
        "--timings", action="store_true",
        help="print the per-pass compilation timing table",
    )
    schedule.add_argument("--gantt", action="store_true", help="print a Gantt chart")
    schedule.add_argument(
        "--critical-path", action="store_true",
        help="print the schedule's critical-path breakdown",
    )
    schedule.add_argument(
        "--buffers", action="store_true",
        help="print tile buffer occupancy analysis",
    )
    schedule.add_argument(
        "--energy", action="store_true", help="print the energy estimate"
    )
    schedule.add_argument(
        "--batch", type=int, default=1,
        help="pipeline this many inferences (default 1)",
    )
    schedule.add_argument(
        "--verify", action="store_true",
        help="run the full static verifier on the compiled model and "
             "print its report (exit 1 on any error diagnostic)",
    )
    schedule.add_argument(
        "--save", default=None, metavar="PATH",
        help="write the compiled model's artifact JSON to PATH "
             "(reload with 'repro verify PATH' or ir.load_compiled)",
    )
    _add_store_flag(schedule)
    _add_resilience_flags(schedule)
    _add_server_flag(schedule)

    sweep = sub.add_parser("sweep", help="run the paper's configuration grid")
    sweep.add_argument(
        "--models", nargs="+", default=[spec.name for spec in PAPER_BENCHMARKS],
        choices=[spec.name for spec in PAPER_BENCHMARKS] + ["tinyyolov4"],
    )
    sweep.add_argument("--xs", nargs="+", type=int, default=[4, 8, 16, 32])
    sweep.add_argument(
        "--format", default="text", choices=("text", "csv", "json"),
        help="output format (default text)",
    )
    sweep.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="evaluate config points on N worker processes "
             "(thread/inline backends via --executor; 0 = one per CPU; "
             "default 1 = serial)",
    )
    _add_executor_flag(sweep)
    sweep.add_argument(
        "--no-cache", action="store_true",
        help="disable the compilation cache (recompile every stage "
             "of every config point; results are identical)",
    )
    sweep.add_argument(
        "--rows-per-set", type=int, default=1,
        help="Stage I granularity applied to every config point "
             "(default 1 = finest)",
    )
    sweep.add_argument(
        "--verify", action="store_true",
        help="run the static verifier on every grid cell and print a "
             "per-point summary after the sweep (exit 1 on any error)",
    )
    _add_store_flag(sweep)
    _add_resilience_flags(sweep)
    _add_server_flag(sweep)

    serve = sub.add_parser(
        "serve",
        help="run the compile service (HTTP job queue over a shared "
             "store and a bounded thread pool)",
    )
    serve.add_argument(
        "--host", default="127.0.0.1",
        help="interface to bind (default 127.0.0.1)",
    )
    serve.add_argument(
        "--port", type=int, default=8787,
        help="port to bind (default 8787; 0 = ephemeral, printed on start)",
    )
    serve.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="jobs executing concurrently (0 = one per CPU; default 1; "
             "any number may be queued)",
    )
    _add_store_flag(serve)
    _add_resilience_flags(serve)
    serve.add_argument(
        "--result-ttl", type=float, default=3600.0, metavar="SECONDS",
        help="seconds a finished job's result stays retrievable "
             "(default 3600)",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log every HTTP request to stderr",
    )

    cache = sub.add_parser(
        "cache", help="inspect/maintain the persistent artifact store"
    )
    cache.add_argument(
        "action", choices=("stats", "gc", "clear", "path"),
        help="stats: entry counts and bytes per stage; gc: evict "
             "least-recently-used entries down to --max-bytes; clear: "
             "drop every entry; path: print the resolved store path",
    )
    cache.add_argument(
        "--store", default=None, metavar="PATH",
        help="store location (default $REPRO_STORE_PATH, else "
             "$XDG_CACHE_HOME/clsa-cim-repro/store)",
    )
    cache.add_argument(
        "--max-bytes", type=int, default=None, metavar="N",
        help="gc: evict oldest entries until the store fits N bytes",
    )
    cache.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="output format (default text)",
    )

    verify = sub.add_parser(
        "verify",
        help="statically verify a saved CompiledModel artifact",
    )
    verify.add_argument(
        "artifact", metavar="ARTIFACT",
        help="artifact JSON written by ir.save_compiled / schedule --save",
    )
    verify.add_argument(
        "--format", default="text", choices=("text", "json"),
        help="report format (default text)",
    )
    verify.add_argument(
        "--rules", nargs="+", default=None, metavar="RULE",
        help="run only these rules (default: every applicable rule; "
             "see repro.verify.rule_names())",
    )
    verify.add_argument(
        "--strict", action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )

    from .explore import objective_names, strategy_names

    explore = sub.add_parser(
        "explore",
        help="multi-objective design-space search (Pareto frontier)",
    )
    explore.add_argument("--model", required=True, choices=sorted(MODELS))
    explore.add_argument(
        "--strategy", default="random", choices=strategy_names(),
        help="search strategy (default random; plugins registered via "
             "repro.explore.register_strategy are accepted)",
    )
    explore.add_argument(
        "--budget", type=int, default=40, metavar="N",
        help="full-fidelity points to process, reused or fresh "
             "(default 40)",
    )
    explore.add_argument(
        "--objectives", nargs="+", default=["latency", "energy"],
        choices=objective_names(), metavar="OBJ",
        help="objectives the frontier ranks on "
             "(default: latency energy; also: utilization)",
    )
    explore.add_argument(
        "--seed", type=int, default=0,
        help="strategy RNG seed (default 0; same seed + same store = "
             "pure replay)",
    )
    explore.add_argument(
        "--out", default=None, metavar="PATH",
        help="run-store JSONL path journalling every evaluated point "
             "(default explore-<model>-<strategy>.jsonl)",
    )
    explore.add_argument(
        "--resume", action="store_true",
        help="continue an existing run store: journalled points are "
             "reused without recompiling (an existing store without "
             "--resume is an error)",
    )
    explore.add_argument(
        "--jobs", type=_jobs_arg, default=1, metavar="N",
        help="evaluate points on N worker processes "
             "(thread/inline backends via --executor; 0 = one per CPU; "
             "default 1 = serial)",
    )
    _add_executor_flag(explore)
    explore.add_argument(
        "--max-total-pes", type=int, default=None, metavar="P",
        help="chip budget: points needing more than P PEs are "
             "journalled as infeasible (default: unbounded)",
    )
    explore.add_argument(
        "--max-extra-pes", type=int, default=64, metavar="X",
        help="upper end of the log-scale extra-PE dimension (default 64)",
    )
    explore.add_argument(
        "--format", default="text", choices=("text", "csv", "json"),
        help="frontier output format (default text)",
    )
    _add_resilience_flags(explore)
    _add_server_flag(explore)
    return parser


def _cmd_schedule(args: argparse.Namespace) -> int:
    canonical = preprocess(build(args.model), quantization=None).graph
    min_pes = minimum_pe_requirement(canonical, paper_case_study(1).crossbar)
    arch = paper_case_study(min_pes + args.extra_pes)
    options = ScheduleOptions(
        mapping=args.mapping,
        scheduling=args.scheduling,
        granularity=SetGranularity(rows_per_set=args.rows_per_set),
        order_mode=args.order_mode,
        duplication_solver=args.duplication_solver,
        duplication_axis=args.duplication_axis,
        d_max_cap=args.d_max_cap,
    )
    baseline_options = ScheduleOptions(mapping="none", scheduling="layer-by-layer")
    session: Optional[Session] = None
    server_cache_line: Optional[str] = None
    if args.server:
        _reject_with_server(
            args,
            ("--store", args.store, None),
            ("--retries", args.retries, None),
        )
        from .service import Client

        client = Client(args.server)
        compile_handle = client.compile(
            canonical, options, arch=arch,
            assume_canonical=True,
            key=f"schedule-{args.model}",
        )
        baseline_handle = client.evaluate(
            canonical, baseline_options, arch=paper_case_study(min_pes),
            assume_canonical=True, want_energy=False,
        )
        envelope = compile_handle.result()
        compiled = envelope.unwrap()
        metrics = compiled.evaluate()
        baseline_metrics = baseline_handle.result().unwrap().metrics
        server_cache_line = (
            f"cache (server): memory={envelope.cache_memory_hits} "
            f"store={envelope.cache_store_hits} miss={envelope.cache_misses}"
        )
    else:
        session = Session(arch, **_store_kwargs(args), **_resilience_kwargs(args))
        compiled = session.compile(canonical, options, assume_canonical=True)
        metrics = compiled.evaluate()

        # The baseline runs on the minimum-PE architecture; sharing the
        # session cache reuses the canonical graph's fingerprint/tilings.
        baseline_session = Session(paper_case_study(min_pes), cache=session.cache)
        baseline_metrics = baseline_session.evaluate(
            canonical, baseline_options, assume_canonical=True
        )

    rows = [
        ("model", args.model),
        ("configuration", options.paper_name),
        ("architecture", arch.summary()),
        ("latency", f"{metrics.latency_cycles} cycles "
                    f"({metrics.latency_ns / 1e6:.3f} ms)"),
        ("speedup vs layer-by-layer", f"{metrics.speedup_over(baseline_metrics):.2f}x"),
        ("utilization (Eq. 2)", f"{100 * metrics.utilization:.2f}%"),
    ]
    if compiled.duplication is not None:
        duplicated = {
            layer: factor
            for layer, factor in compiled.duplication.d.items()
            if factor > 1
        }
        rows.append(("duplicated layers", str(duplicated) if duplicated else "none"))
    print(format_table(["Field", "Value"], rows))
    if args.timings:
        print()
        timing_rows = [
            (name, f"{seconds * 1e3:.2f} ms")
            for name, seconds in compiled.timings.items()
        ]
        timing_rows.append(
            ("total", f"{sum(compiled.timings.values()) * 1e3:.2f} ms")
        )
        print(format_table(["Pass", "Wall clock"], timing_rows))
        if session is not None and session.cache is not None:
            cache = session.cache
            print(
                f"cache: memory={cache.memory_hits} "
                f"store={cache.store_hits} miss={cache.misses}"
            )
        elif server_cache_line is not None:
            print(server_cache_line)
    if args.gantt:
        print()
        print(compiled.gantt())
    if args.critical_path:
        from .analysis import format_critical_path

        print()
        print(format_critical_path(compiled))
    if args.buffers:
        from .sim import analyze_buffers

        print()
        print(analyze_buffers(compiled).summary())
    if args.energy:
        from .sim import estimate_energy

        print()
        print(estimate_energy(compiled).summary())
    if args.batch > 1:
        from .core import cross_layer_schedule_batch

        if compiled.dependencies is None:
            print("\nbatch pipelining requires --scheduling clsa-cim")
            return 2
        result = cross_layer_schedule_batch(
            compiled.mapped, compiled.dependencies, args.batch
        )
        print(
            f"\nbatch {args.batch}: makespan {result.makespan} cycles, "
            f"{result.steady_state_interval:.0f} cycles/image steady-state, "
            f"{result.throughput_images_per_ms(arch.t_mvm_ns):.2f} images/ms"
        )
    if args.save:
        from .ir import save_compiled

        save_compiled(compiled, args.save)
        print(f"\nartifact written to {args.save}")
    if args.verify:
        if session is not None:
            report = session.verify(compiled)
        else:
            from .verify.engine import verify_compiled

            report = verify_compiled(compiled)
        print()
        print(report.format())
        if not report.ok:
            return 1
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    graphs = {
        name: preprocess(build(name), quantization=None).graph
        for name in dict.fromkeys(args.models)
    }
    overrides = None
    if args.rows_per_set != 1:
        overrides = {"granularity": SetGranularity(rows_per_set=args.rows_per_set)}
    if args.server:
        _reject_with_server(
            args,
            ("--store", args.store, None),
            ("--no-cache", args.no_cache, False),
            ("--verify", args.verify, False),
            ("--jobs", args.jobs, 1),
            ("--executor", args.executor, None),
            ("--retries", args.retries, None),
        )
        from .service import Client

        handle = Client(args.server).sweep(
            list(args.models),
            xs=tuple(args.xs),
            options_overrides=overrides,
            graphs=graphs,
        )
        results = handle.result().unwrap()
    else:
        if args.no_cache and args.store is not None:
            print("sweep: --store requires the compilation cache "
                  "(drop --no-cache)", file=sys.stderr)
            return 2
        session = Session(
            paper_case_study(1),
            cache=not args.no_cache,
            **_store_kwargs(args),
            **_resilience_kwargs(args),
        )
        results = session.sweep(
            list(args.models),
            xs=tuple(args.xs),
            jobs=None if args.jobs == 0 else args.jobs,
            executor=args.executor,
            options_overrides=overrides,
            graphs=graphs,
            verify=args.verify,
        )
    if args.format == "csv":
        print(sweep_to_csv(results))
    elif args.format == "json":
        print(sweep_to_json(results))
    else:
        print(fig7a_report(results))
        print()
        print(fig7b_report(results))
        print()
        print(headline_summary(results))
    if args.verify:
        print()
        failed = _print_sweep_verify(results)
        if failed:
            return 1
    failures = [(r.benchmark, f) for r in results for f in r.failures]
    if failures:
        for benchmark, failure in failures:
            print(
                f"sweep: {benchmark}/{failure.label} failed after "
                f"{failure.attempts} attempt(s): {failure.error.kind}: "
                f"{failure.error.message}",
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .service import CompileServer

    resilience = _resilience_kwargs(args)
    server = CompileServer(
        args.host,
        args.port,
        jobs=None if args.jobs == 0 else args.jobs,
        retry=resilience.get("retry"),
        job_timeout=resilience.get("job_timeout"),
        result_ttl=args.result_ttl,
        verbose=args.verbose,
        **_store_kwargs(args),
    )

    def _sigterm(signum: int, frame: object) -> None:
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _sigterm)
    print(f"serving on {server.url}", flush=True)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        print("serve: draining jobs and shutting down", flush=True)
        server.shutdown_service()
    return 0


def _print_sweep_verify(results) -> bool:
    """Per-cell verifier summary of a verified sweep; True on errors."""
    failed = False
    for result in results:
        cells = [("layer-by-layer", result.baseline_verify_report)]
        cells += [(point.label, point.verify_report) for point in result.points]
        for label, report in cells:
            if report is None:  # pragma: no cover - verify=False cells
                continue
            print(f"verify {result.benchmark}/{label}: {report.summary()}")
            for diag in report.diagnostics:
                print(f"  {diag.format()}")
            failed = failed or not report.ok
    return failed


def _cmd_cache(args: argparse.Namespace) -> int:
    import json as _json

    from .store import ArtifactStore, default_store_path

    path = args.store if args.store is not None else default_store_path()
    if args.action == "path":
        print(path)
        return 0
    try:
        store = ArtifactStore(path)
    except OSError as exc:
        print(f"cache: cannot open store at {path}: {exc}", file=sys.stderr)
        return 2
    if args.action == "stats":
        stats = store.stats()
        if args.format == "json":
            print(_json.dumps(stats.to_dict(), indent=2, sort_keys=True))
        else:
            rows = [
                ("path", str(stats.root)),
                ("schema", str(stats.schema)),
                ("entries", str(stats.entries)),
                ("total bytes", str(stats.total_bytes)),
                ("quarantined", str(stats.quarantined)),
            ]
            rows += [
                (f"stage {stage}", f"{count} entries, {size} bytes")
                for stage, (count, size) in sorted(stats.per_stage.items())
            ]
            print(format_table(["Field", "Value"], rows))
        return 0
    if args.action == "gc":
        result = store.gc(max_bytes=args.max_bytes)
        if args.format == "json":
            print(
                _json.dumps(
                    {
                        "evicted_entries": result.evicted_entries,
                        "evicted_bytes": result.evicted_bytes,
                        "remaining_entries": result.remaining_entries,
                        "remaining_bytes": result.remaining_bytes,
                        "swept_tmp": result.swept_tmp,
                    },
                    indent=2,
                    sort_keys=True,
                )
            )
        else:
            print(
                f"evicted {result.evicted_entries} entries "
                f"({result.evicted_bytes} bytes); "
                f"{result.remaining_entries} entries "
                f"({result.remaining_bytes} bytes) remain"
            )
        return 0
    if args.action == "clear":
        removed = store.clear()
        if args.format == "json":
            print(_json.dumps({"removed": removed}))
        else:
            print(f"removed {removed} entries from {store.root}")
        return 0
    raise AssertionError(f"unhandled action {args.action!r}")  # pragma: no cover


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import Severity, verify_artifact

    try:
        report = verify_artifact(args.artifact, rules=args.rules)
    except FileNotFoundError:
        print(f"verify: no such artifact: {args.artifact}", file=sys.stderr)
        return 2
    except (KeyError, ValueError) as exc:
        print(f"verify: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(report.to_json(indent=2))
    else:
        print(report.format())
    threshold = Severity.WARNING if args.strict else Severity.ERROR
    return 1 if report.at_least(threshold) else 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from .analysis.frontier import frontier_report, frontier_to_csv, frontier_to_json
    from .explore import ExploreError, default_space
    from .explore.store import StoreError

    if args.server:
        _reject_with_server(
            args,
            ("--out", args.out, None),
            ("--resume", args.resume, False),
            ("--jobs", args.jobs, 1),
            ("--executor", args.executor, None),
            ("--retries", args.retries, None),
        )
        from .exec.jobs import JobFailedError
        from .service import Client

        try:
            handle = Client(args.server).explore(
                args.model,
                objectives=tuple(args.objectives),
                strategy=args.strategy,
                budget=args.budget,
                seed=args.seed,
                max_total_pes=args.max_total_pes,
                max_extra_pes=args.max_extra_pes,
            )
            result = handle.result().unwrap()
        except (JobFailedError, OSError, ValueError) as exc:
            print(f"explore: {exc}", file=sys.stderr)
            return 2
        if args.format == "csv":
            print(frontier_to_csv(result))
        elif args.format == "json":
            print(frontier_to_json(result))
        else:
            print(result.summary())
            print()
            print(frontier_report(result))
        return 0
    out = args.out
    if out is None:
        out = f"explore-{args.model}-{args.strategy}.jsonl"
    session = Session(paper_case_study(1), **_resilience_kwargs(args))
    try:
        space = default_space(max_extra_pes=args.max_extra_pes)
        result = session.explore(
            args.model,
            space=space,
            objectives=tuple(args.objectives),
            strategy=args.strategy,
            budget=args.budget,
            store=out,
            resume=args.resume,
            seed=args.seed,
            jobs=None if args.jobs == 0 else args.jobs,
            executor=args.executor,
            max_total_pes=args.max_total_pes,
        )
    except (ExploreError, StoreError, ValueError) as exc:
        print(f"explore: {exc}", file=sys.stderr)
        return 2
    if args.format == "csv":
        print(frontier_to_csv(result))
    elif args.format == "json":
        print(frontier_to_json(result))
    else:
        print(result.summary())
        print()
        print(frontier_report(result))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "table1":
        print(table1())
        return 0
    if args.command == "table2":
        print(table2())
        return 0
    if args.command == "schedule":
        return _cmd_schedule(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "verify":
        return _cmd_verify(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "explore":
        return _cmd_explore(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
