"""End-to-end CLSA-CIM compilation: options, result and entry point.

Compiling a model chains every stage of the paper:

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

Each stage (``preprocess → tile → mapping → place → sets → deps →
schedule``) is one pass of :mod:`repro.core.passes`, which memoizes it
through an optional :class:`~repro.core.cache.CompilationCache` so a
sweep over many configurations recomputes only what actually changed.
This module holds what the passes share: :class:`ScheduleOptions`, the
:class:`CompiledModel` result, :func:`preprocess_stage` (also used by
the sweep and exploration drivers to canonicalize a model once) and
:func:`compile_model`, the one-call form of
``default_pass_manager().compile``.  The public entry point is
:class:`repro.session.Session`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..arch.config import ArchitectureConfig
from ..frontend.partitioning import is_canonical
from ..frontend.pipeline import preprocess
from ..ir.graph import Graph
from ..mapping.duplication import DuplicationSolution
from ..mapping.placement import Placement
from ..mapping.rewrite import RewriteReport
from .cache import CompilationCache
from .dependencies import DependencyGraph, determine_dependencies
from .schedule import Schedule
from .sets import FINEST, SetGranularity, SetPartition

#: Builtin mapping option names, the only list of them (extensible via
#: :func:`repro.core.passes.register_mapping`; builtins cannot be
#: unregistered).
MAPPINGS = ("none", "wdup")
#: Builtin scheduling option names, the only list of them (extensible
#: via :func:`repro.core.passes.register_scheduler`).
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
    sets: SetPartition = field(default_factory=SetPartition)
    dependencies: Optional[DependencyGraph] = None
    #: Wall-clock seconds per executed pass (Session/PassManager runs).
    timings: dict[str, float] = field(default_factory=dict)
    #: Free-form compilation notes (e.g. skipped passes).
    diagnostics: list[str] = field(default_factory=list)
    #: ``(mapped, sets, set graph)`` of the Stage II run that
    #: :func:`dependencies_of` made for a model without ``dependencies``.
    _derived_dependencies: Optional[tuple[Graph, SetPartition, DependencyGraph]] = field(
        default=None, init=False, repr=False, compare=False
    )

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


def dependencies_of(compiled: CompiledModel) -> Optional[DependencyGraph]:
    """The set graph the analyses of ``compiled`` read.

    ``compiled.dependencies``; if an artifact was saved without them
    (the default), Stage II reruns over its mapped graph and sets, once
    per model: the result is kept for the next reader.  ``None`` when
    the scheduler builds no set graph (the layer-by-layer baseline, or
    a plugin this process has not registered).
    """
    if compiled.dependencies is not None:
        return compiled.dependencies
    derived = compiled._derived_dependencies
    if derived is not None and derived[0] is compiled.mapped and derived[1] is compiled.sets:
        return derived[2]
    from .passes import resolve_scheduler

    try:
        rule = resolve_scheduler(compiled.options.scheduling)
    except KeyError:
        return None
    if not rule.needs_dependencies:
        return None
    dependencies = determine_dependencies(compiled.mapped, compiled.sets)
    compiled._derived_dependencies = (compiled.mapped, compiled.sets, dependencies)
    return dependencies


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
    Runs :meth:`repro.core.passes.PassManager.compile` on the default
    pass order, the one compile path that :meth:`repro.session.Session.compile`
    and :func:`repro.exec.runtime.execute_job` take as well.
    """
    from .passes import default_pass_manager

    return default_pass_manager().compile(
        graph, arch, options, assume_canonical=assume_canonical, cache=cache
    )
