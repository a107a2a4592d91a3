"""End-to-end CLSA-CIM compilation pipeline.

``compile_model`` chains every stage of the paper:

1. preprocessing into the canonical form (Sec. III-A),
2. optional weight duplication — Optimization Problem 1 + the Fig. 4
   rewrite (Sec. III-C),
3. PE placement (weight-stationary mapping),
4. Stage I–IV of CLSA-CIM, or the layer-by-layer baseline (Sec. IV).

The four evaluation configurations of Sec. V map onto options as:

=============== =========== ===================
paper name      mapping     scheduling
=============== =========== ===================
layer-by-layer  ``none``    ``layer-by-layer``
wdup            ``wdup``    ``layer-by-layer``
xinf            ``none``    ``clsa-cim``
wdup+xinf       ``wdup``    ``clsa-cim``
=============== =========== ===================

The pipeline is *staged*: each phase (``preprocess → tile →
duplicate/rewrite → place → sets → dependencies → schedule``) is an
explicit function that can run standalone, threading an optional
:class:`~repro.core.cache.CompilationCache` so a sweep over many
configurations recomputes only what actually changed (see
``repro.analysis.sweep``).

These stage functions are the *mechanism*; since the Session/PassManager
redesign the public entry points are :class:`repro.session.Session` and
:class:`repro.core.passes.PassManager`, which run each stage as a
registered pass.  :func:`compile_model` remains as a thin
backward-compatible shim over the default pass manager and produces
bit-identical results to the Session path (asserted in tests).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..arch.config import ArchitectureConfig
from ..frontend.partitioning import is_canonical
from ..frontend.pipeline import preprocess
from ..ir.graph import Graph
from ..ir.tensor import Rect
from ..mapping.duplication import DuplicationSolution, problem_from_tilings, solve
from ..mapping.placement import Placement, place_graph
from ..mapping.rewrite import RewriteReport, apply_duplication
from ..mapping.tiling import LayerTiling, tile_graph
from .cache import CacheKey, CompilationCache, graph_fingerprint
from .cross_layer import (
    cross_layer_schedule,
    cross_layer_schedule_dynamic,
)
from .dependencies import DependencyGraph, determine_dependencies
from .intra_layer import intra_layer_order
from .kernels import (
    ENGINES,
    csr_dynamic_schedule,
    csr_static_schedule,
)
from .layer_by_layer import layer_by_layer_schedule
from .schedule import Schedule
from .sets import FINEST, SetGranularity, determine_sets

#: Builtin mapping option names (extensible via
#: :func:`repro.core.passes.register_mapping`).
MAPPINGS = ("none", "wdup")
#: Builtin scheduling option names (extensible via
#: :func:`repro.core.passes.register_scheduler`).
SCHEDULERS = ("layer-by-layer", "clsa-cim")


@dataclass(frozen=True)
class ScheduleOptions:
    """Configuration of one compilation run.

    Attributes
    ----------
    mapping:
        ``'none'`` (store weights once) or ``'wdup'`` (weight
        duplication filling the PE budget).
    scheduling:
        ``'layer-by-layer'`` baseline or ``'clsa-cim'`` cross-layer.
    granularity:
        Stage I set granularity (default: one OFM row per set — the
        paper's maximum-achievable setting).
    order_mode:
        ``'dynamic'`` (ready-order list scheduling, the paper's
        maximum-achievable setting) or ``'static'`` (fixed Stage III
        order; ablation).
    engine:
        Stage IV implementation: ``'csr'`` (default; the columnar
        kernels of :mod:`repro.core.kernels`) or ``'python'`` (the
        pure-Python reference).  Both produce identical schedules
        point-wise; the option exists for cross-checking and
        regression diagnosis.
    intra_layer_policy:
        Stage III ordering policy name (used by ``'static'`` mode).
    duplication_solver:
        ``'dp'`` (exact) or ``'greedy'`` for Optimization Problem 1.
    duplication_axis:
        Cut direction of the Fig. 4 rewrite: ``'width'`` (default,
        pipelining-friendly) or ``'height'`` (ablation).
    d_max_cap:
        Optional cap on per-layer duplication factors.
    """

    mapping: str = "wdup"
    scheduling: str = "clsa-cim"
    granularity: SetGranularity = FINEST
    order_mode: str = "dynamic"
    intra_layer_policy: str = "row_major"
    duplication_solver: str = "dp"
    duplication_axis: str = "width"
    d_max_cap: Optional[int] = None
    engine: str = "csr"

    def __post_init__(self) -> None:
        # Builtin names validate without touching the registries so
        # that constructing the default options never imports passes
        # (which itself imports this module).  Unknown names are only
        # accepted when a plugin registered them.
        if self.mapping not in MAPPINGS:
            from .passes import mapping_names

            if self.mapping not in mapping_names():
                raise ValueError(
                    f"mapping must be one of {mapping_names()}, got {self.mapping!r}"
                )
        if self.scheduling not in SCHEDULERS:
            from .passes import scheduler_names

            if self.scheduling not in scheduler_names():
                raise ValueError(
                    f"scheduling must be one of {scheduler_names()}, "
                    f"got {self.scheduling!r}"
                )
        if self.order_mode not in ("dynamic", "static"):
            raise ValueError(
                f"order_mode must be 'dynamic' or 'static', got {self.order_mode!r}"
            )
        if self.engine not in ENGINES:
            raise ValueError(
                f"engine must be one of {ENGINES}, got {self.engine!r}"
            )

    @property
    def paper_name(self) -> str:
        """The paper's name for this configuration (Sec. V).

        Registered third-party mappings/schedulers fall back to a
        ``mapping+scheduling`` composite label.
        """
        if self.mapping in MAPPINGS and self.scheduling in SCHEDULERS:
            if self.mapping == "none":
                return (
                    "layer-by-layer" if self.scheduling == "layer-by-layer" else "xinf"
                )
            return "wdup" if self.scheduling == "layer-by-layer" else "wdup+xinf"
        parts = [self.mapping] if self.mapping != "none" else []
        parts.append(self.scheduling)
        return "+".join(parts)


@dataclass
class CompiledModel:
    """Everything produced by one compilation run.

    Beyond the raw artifacts, a compiled model is a persistent,
    evaluable object: :meth:`save`/:meth:`load` round-trip it through
    the versioned artifact format of :mod:`repro.ir.serialize`, and
    :meth:`evaluate`/:meth:`gantt`/:meth:`to_json` answer the common
    "what did I get" questions without reaching into subpackages.
    """

    arch: ArchitectureConfig
    options: ScheduleOptions
    canonical: Graph
    mapped: Graph
    placement: Placement
    schedule: Schedule
    duplication: Optional[DuplicationSolution] = None
    rewrite: Optional[RewriteReport] = None
    sets: dict[str, list[Rect]] = field(default_factory=dict)
    dependencies: Optional[DependencyGraph] = None
    #: Wall-clock seconds per executed pass (Session/PassManager runs).
    timings: dict[str, float] = field(default_factory=dict)
    #: Free-form compilation notes (e.g. skipped passes).
    diagnostics: list[str] = field(default_factory=list)

    @property
    def latency_cycles(self) -> int:
        """Inference latency in cycles (schedule makespan)."""
        return self.schedule.makespan

    @property
    def latency_ns(self) -> float:
        """Inference latency in nanoseconds."""
        return self.arch.cycles_to_ns(self.latency_cycles)

    def origin_of_layer(self, layer: str) -> str:
        """Original layer name of a (possibly duplicated) base node."""
        if self.rewrite is not None and layer in self.rewrite.origin_of:
            return self.rewrite.origin_of[layer]
        return layer

    # -- conveniences --------------------------------------------------

    def evaluate(self) -> "Metrics":  # noqa: F821 - forward ref to repro.sim
        """Eq. 2/3 metrics of this compilation (``repro.sim.evaluate``)."""
        from ..sim.metrics import evaluate

        return evaluate(self)

    def gantt(self, width: int = 72) -> str:
        """ASCII Gantt chart of the schedule (Fig. 6 style)."""
        from ..sim.trace import ascii_gantt

        return ascii_gantt(self, width=width)

    def to_json(
        self,
        indent: Optional[int] = None,
        include_params: bool = False,
        include_dependencies: bool = False,
    ) -> str:
        """The versioned artifact JSON (see :mod:`repro.ir.serialize`)."""
        from ..ir.serialize import dumps_compiled

        return dumps_compiled(
            self,
            indent=indent,
            include_params=include_params,
            include_dependencies=include_dependencies,
        )

    def save(
        self,
        path: str,
        include_params: bool = False,
        include_dependencies: bool = False,
    ) -> None:
        """Write the artifact JSON to ``path`` (see :meth:`load`)."""
        from ..ir.serialize import save_compiled

        save_compiled(
            self,
            path,
            include_params=include_params,
            include_dependencies=include_dependencies,
        )

    @staticmethod
    def load(path: str) -> "CompiledModel":
        """Load a :meth:`save`'d artifact; the inverse of :meth:`save`."""
        from ..ir.serialize import load_compiled

        return load_compiled(path)


def _stage_cached(cache, make_key, compute):
    """Memoize ``compute`` under ``make_key()`` when a cache is present.

    The key is built lazily — key construction may fingerprint a whole
    graph, which must never happen on uncached compiles.
    """
    if cache is None:
        return compute()
    return cache.get_or_compute(make_key(), compute)


def _key_for(graph: Graph, cache: CompilationCache, key: Optional[CacheKey]) -> CacheKey:
    """The caller-provided key, or a fresh fingerprint-based one."""
    return key if key is not None else _graph_key(graph, cache)


def preprocess_stage(
    graph: Graph,
    cache: Optional[CompilationCache] = None,
    assume_canonical: bool = False,
) -> Graph:
    """Stage 0: canonicalize the model (Sec. III-A).

    Already-canonical graphs pass through untouched (identity, not a
    copy).  With a cache, repeated preprocessing of a structurally
    identical raw graph is served from the cache.
    """
    if assume_canonical or is_canonical(graph):
        return graph
    if cache is None:
        return preprocess(graph, quantization=None).graph
    return cache.get_or_compute(
        ("preprocess", cache.fingerprint(graph)),
        lambda: preprocess(graph, quantization=None).graph,
    )


def tile_stage(
    canonical: Graph,
    arch: ArchitectureConfig,
    cache: Optional[CompilationCache] = None,
    canonical_key: Optional[CacheKey] = None,
) -> dict[str, LayerTiling]:
    """Tile every base layer onto crossbars (Eq. 1).

    Tilings depend only on the graph and the crossbar geometry — not
    the PE budget — so one cache entry serves every ``x`` of a sweep.
    """
    return _stage_cached(
        cache,
        lambda: ("tile", _key_for(canonical, cache, canonical_key), arch.crossbar),
        lambda: tile_graph(canonical, arch.crossbar),
    )


def duplication_stage(
    canonical: Graph,
    arch: ArchitectureConfig,
    options: ScheduleOptions,
    cache: Optional[CompilationCache] = None,
    canonical_key: Optional[CacheKey] = None,
) -> tuple[DuplicationSolution, RewriteReport]:
    """Optimization Problem 1 + the Fig. 4 rewrite (Sec. III-C).

    The ``wdup`` and ``wdup+xinf`` configurations at the same PE budget
    share one solution/rewrite through the cache.
    """
    key = None if cache is None else _key_for(canonical, cache, canonical_key)

    def compute() -> tuple[DuplicationSolution, RewriteReport]:
        tilings = tile_stage(canonical, arch, cache, key)
        problem = problem_from_tilings(
            tilings,
            budget=arch.num_pes,
            d_max_cap=options.d_max_cap,
            axis=options.duplication_axis,
        )
        duplication = solve(problem, options.duplication_solver)
        rewrite = apply_duplication(
            canonical, duplication, axis=options.duplication_axis
        )
        return duplication, rewrite

    return _stage_cached(cache, lambda: _mapped_key(key, arch, options), compute)


def placement_stage(
    mapped: Graph,
    arch: ArchitectureConfig,
    cache: Optional[CompilationCache] = None,
    mapped_key: Optional[CacheKey] = None,
) -> Placement:
    """Weight-stationary PE placement of the mapped graph."""
    return _stage_cached(
        cache,
        lambda: ("place", _key_for(mapped, cache, mapped_key), arch),
        lambda: place_graph(mapped, arch),
    )


def sets_stage(
    mapped: Graph,
    granularity: SetGranularity,
    cache: Optional[CompilationCache] = None,
    mapped_key: Optional[CacheKey] = None,
) -> dict[str, list[Rect]]:
    """Stage I: determine sets."""
    return _stage_cached(
        cache,
        lambda: ("sets", _key_for(mapped, cache, mapped_key), granularity),
        lambda: determine_sets(mapped, granularity),
    )


def dependencies_stage(
    mapped: Graph,
    sets: dict[str, list[Rect]],
    granularity: SetGranularity,
    cache: Optional[CompilationCache] = None,
    mapped_key: Optional[CacheKey] = None,
) -> DependencyGraph:
    """Stage II: determine dependencies (columnar, emits the CSR set graph)."""
    return _stage_cached(
        cache,
        lambda: ("deps", _key_for(mapped, cache, mapped_key), granularity),
        lambda: determine_dependencies(mapped, sets),
    )


def schedule_stage(
    mapped: Graph,
    sets: dict[str, list[Rect]],
    dependencies: Optional[DependencyGraph],
    options: ScheduleOptions,
    cache: Optional[CompilationCache] = None,
    mapped_key: Optional[CacheKey] = None,
) -> Schedule:
    """Stage III–IV (or the layer-by-layer baseline): build a schedule.

    Handles the two builtin policies only; registered third-party
    schedulers run through :class:`repro.core.passes.SchedulePass`.
    """
    if options.scheduling not in SCHEDULERS:
        raise ValueError(
            f"schedule_stage only builds builtin schedulers {SCHEDULERS}; "
            f"{options.scheduling!r} must run through the PassManager"
        )

    if options.scheduling == "layer-by-layer":
        return _stage_cached(
            cache,
            lambda: (
                "schedule",
                _key_for(mapped, cache, mapped_key),
                options.granularity,
                "layer-by-layer",
            ),
            lambda: layer_by_layer_schedule(mapped, sets),
        )

    assert dependencies is not None, "clsa-cim scheduling requires dependencies"

    def compute() -> Schedule:
        if options.engine == "csr":
            # The columnar kernels self-validate with vectorized
            # dependency/resource checks (same invariants as
            # validate_schedule, no per-set Python objects).
            arrays = dependencies.arrays
            if options.order_mode == "dynamic":
                return csr_dynamic_schedule(arrays)
            order = intra_layer_order(sets, options.intra_layer_policy)
            return csr_static_schedule(arrays, order)
        if options.order_mode == "dynamic":
            schedule = cross_layer_schedule_dynamic(mapped, dependencies)
        else:
            order = intra_layer_order(sets, options.intra_layer_policy)
            schedule = cross_layer_schedule(mapped, dependencies, order)
        from ..verify.hazards import assert_schedule

        assert_schedule(schedule, dependencies)
        return schedule

    return _stage_cached(
        cache,
        lambda: (
            "schedule",
            _key_for(mapped, cache, mapped_key),
            options.granularity,
            "clsa-cim",
            options.order_mode,
            options.intra_layer_policy,
            options.engine,
        ),
        compute,
    )


def _graph_key(graph: Graph, cache: Optional[CompilationCache] = None) -> CacheKey:
    """Cache-key prefix identifying a graph by structural content.

    Uses the cache's memoized fingerprint when one is available.
    """
    if cache is not None:
        return ("graph", cache.fingerprint(graph))
    return ("graph", graph_fingerprint(graph))


def _mapped_key(
    canonical_key: CacheKey, arch: ArchitectureConfig, options: ScheduleOptions
) -> CacheKey:
    """Cache-key prefix identifying the post-rewrite (mapped) graph.

    Derived from the canonical key plus every option the rewrite
    depends on — cheaper than fingerprinting the rewritten graph.
    """
    return (
        "wdup",
        canonical_key,
        arch.crossbar,
        arch.num_pes,
        options.duplication_solver,
        options.duplication_axis,
        options.d_max_cap,
    )


def compile_model(
    graph: Graph,
    arch: ArchitectureConfig,
    options: ScheduleOptions = ScheduleOptions(),
    assume_canonical: bool = False,
    cache: Optional[CompilationCache] = None,
) -> CompiledModel:
    """Compile and schedule a model for a tiled CIM architecture.

    Parameters
    ----------
    graph:
        The model; preprocessed automatically unless it is already
        canonical (or ``assume_canonical`` is set).
    arch:
        Target architecture; must provide at least the model's minimum
        PE requirement.
    options:
        Mapping/scheduling configuration.
    cache:
        Optional :class:`CompilationCache`; stages whose inputs were
        seen before are served from it instead of recomputed.  Results
        are bit-identical with and without a cache.

    Returns
    -------
    CompiledModel
        The compiled artifacts; ``schedule.makespan`` is the inference
        latency in cycles.

    Notes
    -----
    This is a backward-compatible shim over the default
    :class:`repro.core.passes.PassManager` — the same machinery
    :class:`repro.session.Session` runs — and produces bit-identical
    results to the Session path.
    """
    from .passes import default_pass_manager

    return default_pass_manager().compile(
        graph, arch, options, assume_canonical=assume_canonical, cache=cache
    )
