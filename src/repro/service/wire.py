"""Versioned JSON wire codecs for the compile service.

The HTTP service and its client exchange jobs and result envelopes as
JSON riding the existing :mod:`repro.ir.serialize` vocabulary: graphs
travel as serialized IR, architectures and options as their artifact
records, compiled models as full artifact JSON.  Everything here is a
pure codec — no I/O, no execution — so both ends of the wire (and the
tests) share one definition of the protocol.

Fidelity notes
--------------
Verify reports are *not* wire-encodable (they hold live rule objects);
encoding a job with ``verify=True`` or a result carrying a report
raises :class:`WireError` / silently drops the report respectively —
callers that need verification run it locally on the reconstructed
artifact.  Custom :class:`~repro.explore.space.SearchSpace` or
:class:`~repro.explore.store.RunStore` instances likewise cannot
cross the wire; :class:`~repro.exec.jobs.ExploreJob` payloads carry
the ``max_extra_pes`` bound of the default space instead.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, Mapping, Optional

from ..exec.jobs import (
    CompileJob,
    EvaluateJob,
    Evaluation,
    ExploreJob,
    Job,
    JobError,
    JobResult,
    SweepJob,
)
from ..ir import serialize
from ..ir.graph import Graph

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "decode_job",
    "decode_result",
    "encode_job",
    "encode_result",
]

#: Version of the job/result wire format.  Bump on incompatible change.
WIRE_VERSION = 1


class WireError(ValueError):
    """A payload that cannot be encoded or decoded at this version."""


# ---------------------------------------------------------------------------
# shared fragments


def _encode_graph_ref(ref: Any) -> Dict[str, Any]:
    if isinstance(ref, Graph):
        return {"graph": serialize.dumps(ref)}
    if isinstance(ref, str):
        return {"model": ref}
    raise WireError(f"graph reference must be a Graph or model name, got {type(ref)!r}")


def _decode_graph_ref(record: Mapping[str, Any]) -> Any:
    if "graph" in record and record["graph"] is not None:
        return serialize.loads(record["graph"])
    return str(record["model"])


def _encode_options(options: Any) -> Optional[Dict[str, Any]]:
    return None if options is None else serialize.options_to_dict(options)


def _decode_options(record: Optional[Mapping[str, Any]]) -> Any:
    return None if record is None else serialize.options_from_dict(dict(record))


def _encode_arch(arch: Any) -> Optional[Dict[str, Any]]:
    return None if arch is None else serialize.arch_to_dict(arch)


def _decode_arch(record: Optional[Mapping[str, Any]]) -> Any:
    return None if record is None else serialize.arch_from_dict(dict(record))


def _encode_overrides(
    overrides: Optional[Mapping[str, Any]],
) -> Optional[Dict[str, Any]]:
    """Sweep ``options_overrides``: JSON scalars plus ``granularity``."""
    if overrides is None:
        return None
    encoded: Dict[str, Any] = {}
    for key, value in overrides.items():
        if key == "granularity" and dataclasses.is_dataclass(value):
            encoded[key] = {"__granularity__": dataclasses.asdict(value)}
        elif isinstance(value, (str, int, float, bool)) or value is None:
            encoded[key] = value
        else:
            raise WireError(
                f"options override {key!r} of type {type(value).__name__} "
                "is not wire-encodable"
            )
    return encoded


def _decode_overrides(
    record: Optional[Mapping[str, Any]],
) -> Optional[Dict[str, Any]]:
    if record is None:
        return None
    from ..core.pipeline import ScheduleOptions
    from ..core.sets import SetGranularity

    fields = {field.name for field in dataclasses.fields(ScheduleOptions)}
    decoded: Dict[str, Any] = {}
    for key, value in record.items():
        if key in serialize.RETIRED_OPTION_FIELDS:
            continue
        if key not in fields:
            raise WireError(f"unknown options override {key!r}")
        if isinstance(value, Mapping) and "__granularity__" in value:
            decoded[key] = SetGranularity(**value["__granularity__"])
        else:
            decoded[key] = value
    return decoded


def _encode_benchmark(ref: Any) -> Dict[str, Any]:
    if isinstance(ref, str):
        return {"model": ref}
    if dataclasses.is_dataclass(ref) and not isinstance(ref, type):
        return {"spec": dataclasses.asdict(ref)}
    raise WireError(f"benchmark must be a name or BenchmarkSpec, got {type(ref)!r}")


def _decode_benchmark(record: Mapping[str, Any]) -> Any:
    if "spec" in record and record["spec"] is not None:
        from ..models.zoo import BenchmarkSpec

        spec = dict(record["spec"])
        spec["input_shape"] = tuple(spec["input_shape"])
        return BenchmarkSpec(**spec)
    return str(record["model"])


def _reject_verify(job: Job) -> None:
    if getattr(job, "verify", False):
        raise WireError(
            "verify=True jobs are not wire-encodable (verify reports do not "
            "serialize); run the verifier locally on the returned artifact"
        )


# ---------------------------------------------------------------------------
# jobs


def encode_job(job: Job) -> Dict[str, Any]:
    """Encode one job description as a JSON-ready dict."""
    record: Dict[str, Any] = {"version": WIRE_VERSION, "kind": job.kind}
    if isinstance(job, (CompileJob, EvaluateJob)):
        _reject_verify(job)
        record["graph"] = _encode_graph_ref(job.graph)
        record["options"] = _encode_options(job.options)
        record["arch"] = _encode_arch(job.arch)
        record["assume_canonical"] = job.assume_canonical
        record["key"] = job.key
        if isinstance(job, EvaluateJob):
            record["want_energy"] = job.want_energy
        return record
    if isinstance(job, SweepJob):
        _reject_verify(job)
        record["benchmarks"] = [_encode_benchmark(b) for b in job.benchmarks]
        record["xs"] = None if job.xs is None else list(job.xs)
        record["options_overrides"] = _encode_overrides(job.options_overrides)
        if job.graphs:
            record["graphs"] = {
                name: serialize.dumps(graph) for name, graph in job.graphs.items()
            }
        else:
            record["graphs"] = None
        record["key"] = job.key
        return record
    if isinstance(job, ExploreJob):
        if job.space is not None:
            raise WireError(
                "custom SearchSpace instances are not wire-encodable; "
                "the server explores the default space (bounded by "
                "max_total_pes)"
            )
        if job.store is not None and not isinstance(job.store, str):
            raise WireError("RunStore instances are not wire-encodable")
        record["model"] = _encode_graph_ref(job.model)
        record["objectives"] = list(job.objectives)
        record["strategy"] = job.strategy
        record["strategy_options"] = (
            None if job.strategy_options is None else dict(job.strategy_options)
        )
        record["budget"] = job.budget
        record["seed"] = job.seed
        record["max_total_pes"] = job.max_total_pes
        record["key"] = job.key
        return record
    raise WireError(f"job kind {job.kind!r} is not wire-encodable")


@serialize.required_fields("job payload", WireError)
def decode_job(record: Mapping[str, Any]) -> Job:
    """Decode one job description from its wire dict.

    A missing field raises :class:`WireError` naming it.
    """
    version = record.get("version")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r} (want {WIRE_VERSION})")
    kind = record.get("kind")
    if kind == "compile":
        return CompileJob(
            graph=_decode_graph_ref(record["graph"]),
            options=_decode_options(record.get("options")),
            arch=_decode_arch(record.get("arch")),
            assume_canonical=bool(record.get("assume_canonical", False)),
            key=record.get("key"),
        )
    if kind == "evaluate":
        return EvaluateJob(
            graph=_decode_graph_ref(record["graph"]),
            options=_decode_options(record.get("options")),
            arch=_decode_arch(record.get("arch")),
            assume_canonical=bool(record.get("assume_canonical", False)),
            want_energy=bool(record.get("want_energy", True)),
            key=record.get("key"),
        )
    if kind == "sweep":
        graphs_rec = record.get("graphs")
        graphs = (
            None
            if graphs_rec is None
            else {name: serialize.loads(text) for name, text in graphs_rec.items()}
        )
        xs = record.get("xs")
        return SweepJob(
            benchmarks=tuple(_decode_benchmark(b) for b in record["benchmarks"]),
            xs=None if xs is None else tuple(int(x) for x in xs),
            options_overrides=_decode_overrides(record.get("options_overrides")),
            graphs=graphs,
            key=record.get("key"),
        )
    if kind == "explore":
        max_extra_pes = record.get("max_extra_pes")
        if max_extra_pes is not None:
            from ..explore import default_space

            space = default_space(max_extra_pes=int(max_extra_pes))
        else:
            space = None
        return ExploreJob(
            model=_decode_graph_ref(record["model"]),
            space=space,
            objectives=tuple(record.get("objectives", ("latency", "energy"))),
            strategy=str(record.get("strategy", "random")),
            strategy_options=record.get("strategy_options"),
            budget=int(record.get("budget", 40)),
            seed=int(record.get("seed", 0)),
            max_total_pes=record.get("max_total_pes"),
            key=record.get("key"),
        )
    raise WireError(f"unknown job kind {kind!r}")


# ---------------------------------------------------------------------------
# values


def _encode_metrics(metrics: Any) -> Dict[str, Any]:
    return dataclasses.asdict(metrics)


def _decode_metrics(record: Mapping[str, Any]) -> Any:
    from ..sim.metrics import Metrics

    fields = dict(record)
    fields["per_layer_busy"] = {
        k: int(v) for k, v in (fields.get("per_layer_busy") or {}).items()
    }
    return Metrics(**fields)


def _encode_energy(energy: Any) -> Optional[Dict[str, Any]]:
    return None if energy is None else dataclasses.asdict(energy)


def _decode_energy(record: Optional[Mapping[str, Any]]) -> Any:
    if record is None:
        return None
    from ..sim.energy import EnergyReport

    return EnergyReport(**dict(record))


def _encode_evaluation(value: Evaluation) -> Dict[str, Any]:
    return {
        "metrics": _encode_metrics(value.metrics),
        "energy": _encode_energy(value.energy),
    }


def _decode_evaluation(record: Mapping[str, Any]) -> Evaluation:
    return Evaluation(
        metrics=_decode_metrics(record["metrics"]),
        energy=_decode_energy(record.get("energy")),
    )


def _encode_config_point(point: Any) -> Dict[str, Any]:
    return {
        "benchmark": point.benchmark,
        "config": point.config,
        "extra_pes": point.extra_pes,
        "metrics": _encode_metrics(point.metrics),
        "speedup": point.speedup,
        "utilization": point.utilization,
        "energy_uj": point.energy_uj,
        "cache_memory_hits": point.cache_memory_hits,
        "cache_store_hits": point.cache_store_hits,
        "cache_misses": point.cache_misses,
        "attempts": point.attempts,
        "backend": point.backend,
    }


def _decode_config_point(record: Mapping[str, Any]) -> Any:
    from ..analysis.sweep import ConfigPoint

    return ConfigPoint(
        benchmark=record["benchmark"],
        config=record["config"],
        extra_pes=int(record["extra_pes"]),
        metrics=_decode_metrics(record["metrics"]),
        speedup=float(record["speedup"]),
        utilization=float(record["utilization"]),
        energy_uj=record.get("energy_uj"),
        cache_memory_hits=int(record.get("cache_memory_hits", 0)),
        cache_store_hits=int(record.get("cache_store_hits", 0)),
        cache_misses=int(record.get("cache_misses", 0)),
        attempts=int(record.get("attempts", 1)),
        backend=str(record.get("backend", "inline")),
    )


def _encode_job_error(error: Optional[JobError]) -> Optional[Dict[str, Any]]:
    if error is None:
        return None
    return {
        "kind": error.kind,
        "message": error.message,
        "traceback": error.traceback,
    }


def _decode_job_error(record: Optional[Mapping[str, Any]]) -> Optional[JobError]:
    if record is None:
        return None
    return JobError(
        kind=str(record["kind"]),
        message=str(record["message"]),
        traceback=str(record.get("traceback", "")),
    )


def _encode_failed_point(failure: Any) -> Dict[str, Any]:
    return {
        "benchmark": failure.benchmark,
        "config": failure.config,
        "extra_pes": failure.extra_pes,
        "error": _encode_job_error(failure.error),
        "attempts": failure.attempts,
        "backend": failure.backend,
    }


def _decode_failed_point(record: Mapping[str, Any]) -> Any:
    from ..analysis.sweep import FailedPoint

    return FailedPoint(
        benchmark=record["benchmark"],
        config=record["config"],
        extra_pes=int(record["extra_pes"]),
        error=_decode_job_error(record["error"]),
        attempts=int(record.get("attempts", 1)),
        backend=str(record.get("backend", "inline")),
    )


def _encode_sweep_result(result: Any) -> Dict[str, Any]:
    return {
        "benchmark": result.benchmark,
        "min_pes": result.min_pes,
        "baseline": _encode_metrics(result.baseline),
        "points": [_encode_config_point(p) for p in result.points],
        "failures": [_encode_failed_point(f) for f in result.failures],
        "baseline_energy_uj": result.baseline_energy_uj,
        "baseline_cache": (
            None if result.baseline_cache is None else list(result.baseline_cache)
        ),
    }


def _decode_sweep_result(record: Mapping[str, Any]) -> Any:
    from ..analysis.sweep import SweepResult

    baseline_cache = record.get("baseline_cache")
    return SweepResult(
        benchmark=record["benchmark"],
        min_pes=int(record["min_pes"]),
        baseline=_decode_metrics(record["baseline"]),
        points=[_decode_config_point(p) for p in record.get("points", [])],
        failures=[_decode_failed_point(f) for f in record.get("failures", [])],
        baseline_energy_uj=record.get("baseline_energy_uj"),
        baseline_cache=(
            None if baseline_cache is None else tuple(int(n) for n in baseline_cache)
        ),
    )


def _encode_exploration(value: Any) -> Dict[str, Any]:
    return {
        "strategy": value.strategy,
        "budget": value.budget,
        "objectives": list(value.objectives),
        "frontier": [
            {"key": e.key, "values": dict(e.values), "point": dict(e.point)}
            for e in value.frontier.entries()
        ],
        "results": [dataclasses.asdict(r) for r in value.results],
        "counters": dataclasses.asdict(value.counters),
        "store_path": value.store_path,
        "store_size": value.store_size,
    }


def _decode_exploration(record: Mapping[str, Any]) -> Any:
    from ..explore.engine import ExplorationCounters, ExplorationResult
    from ..explore.evaluator import EvaluationResult
    from ..explore.pareto import ParetoFrontier, resolve_objectives

    objectives = tuple(record["objectives"])
    frontier = ParetoFrontier(resolve_objectives(objectives))
    for entry in record.get("frontier", []):
        frontier.add(entry["key"], dict(entry["values"]), dict(entry["point"]))
    return ExplorationResult(
        strategy=str(record["strategy"]),
        budget=int(record["budget"]),
        objectives=objectives,
        frontier=frontier,
        results=[EvaluationResult(**dict(r)) for r in record.get("results", [])],
        counters=ExplorationCounters(**dict(record.get("counters", {}))),
        store_path=record.get("store_path"),
        store_size=int(record.get("store_size", 0)),
    )


def _encode_value(kind: str, value: Any) -> Any:
    if value is None:
        return None
    if kind == "compile":
        return {"compiled": serialize.dumps_compiled(value)}
    if kind == "evaluate":
        return {"evaluation": _encode_evaluation(value)}
    if kind == "sweep":
        return {"sweeps": [_encode_sweep_result(r) for r in value]}
    if kind == "explore":
        return {"exploration": _encode_exploration(value)}
    raise WireError(f"result value for job kind {kind!r} is not wire-encodable")


def _decode_value(kind: str, record: Any) -> Any:
    if record is None:
        return None
    if kind == "compile":
        return serialize.loads_compiled(record["compiled"])
    if kind == "evaluate":
        return _decode_evaluation(record["evaluation"])
    if kind == "sweep":
        return [_decode_sweep_result(r) for r in record["sweeps"]]
    if kind == "explore":
        return _decode_exploration(record["exploration"])
    raise WireError(f"unknown result kind {kind!r}")


# ---------------------------------------------------------------------------
# result envelopes


def encode_result(kind: str, result: JobResult) -> Dict[str, Any]:
    """Encode one result envelope (verify reports are dropped)."""
    return {
        "version": WIRE_VERSION,
        "kind": kind,
        "key": result.key,
        "value": _encode_value(kind, result.value),
        "timings": dict(result.timings),
        "diagnostics": list(result.diagnostics),
        "cache_hits": result.cache_hits,
        "cache_misses": result.cache_misses,
        "cache_store_hits": result.cache_store_hits,
        "cache_stages": {
            stage: list(delta) for stage, delta in result.cache_stages.items()
        },
        "error": _encode_job_error(result.error),
        "attempts": result.attempts,
        "backend": result.backend,
    }


@serialize.required_fields("result envelope", WireError)
def decode_result(record: Mapping[str, Any]) -> JobResult:
    """Decode one result envelope from its wire dict.

    A missing field raises :class:`WireError` naming it.
    """
    version = record.get("version")
    if version != WIRE_VERSION:
        raise WireError(f"unsupported wire version {version!r} (want {WIRE_VERSION})")
    kind = str(record.get("kind"))
    return JobResult(
        key=str(record["key"]),
        value=_decode_value(kind, record.get("value")),
        timings=dict(record.get("timings", {})),
        diagnostics=tuple(record.get("diagnostics", ())),
        cache_hits=int(record.get("cache_hits", 0)),
        cache_misses=int(record.get("cache_misses", 0)),
        error=_decode_job_error(record.get("error")),
        cache_store_hits=int(record.get("cache_store_hits", 0)),
        cache_stages={
            stage: tuple(int(n) for n in delta)
            for stage, delta in record.get("cache_stages", {}).items()
        },
        attempts=int(record.get("attempts", 1)),
        backend=str(record.get("backend", "inline")),
    )
