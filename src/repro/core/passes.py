"""Pass-based compilation: ``CompilationContext`` + ``PassManager``.

This module *is* the compiler.  A :class:`CompilationContext` — graph,
architecture, options, optional cache, per-pass timings, diagnostics —
flows through an ordered list of :class:`Pass` objects managed by a
:class:`PassManager`.  Each of the paper's stages (``preprocess →
tile → mapping → place → sets → deps → schedule``) is one pass that
computes its artifact directly, memoized through
:meth:`CompilationContext.cached` under a key holding exactly the
inputs the stage depends on.  The string-valued
:class:`ScheduleOptions` knobs (``mapping="wdup"``,
``scheduling="clsa-cim"``) resolve through the :func:`register_mapping`
/ :func:`register_scheduler` registries, so a third-party mapping or
scheduler plugs in without touching core code::

    from repro.core import passes

    def my_scheduler(ctx):
        ...build and return a repro.core.schedule.Schedule...

    passes.register_scheduler("mine", my_scheduler)
    Session(arch).compile(model, ScheduleOptions(scheduling="mine"))

:meth:`PassManager.compile` is the one compile path:
:meth:`repro.session.Session.compile`,
:func:`repro.core.pipeline.compile_model` and
:func:`repro.exec.runtime.execute_job` all call it.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    TypeVar,
    runtime_checkable,
)

from ..arch.config import ArchitectureConfig
from ..ir.graph import Graph
from ..mapping.duplication import DuplicationSolution, problem_from_tilings, solve
from ..mapping.placement import Placement, place_graph
from ..mapping.rewrite import RewriteReport, apply_duplication
from ..mapping.tiling import LayerTiling, tile_graph
from .cache import CacheKey, CompilationCache
from .dependencies import DependencyCSR, DependencyGraph, determine_dependencies
from .intra_layer import intra_layer_order
from .kernels import csr_dynamic_schedule, csr_static_schedule
from .layer_by_layer import layer_by_layer_schedule
from .pipeline import (
    MAPPINGS,
    SCHEDULERS,
    CompiledModel,
    ScheduleOptions,
    preprocess_stage,
)
from .schedule import Schedule
from .sets import SetPartition, determine_sets


_T = TypeVar("_T")


class PassError(RuntimeError):
    """Raised when a pass cannot run or produced no usable result."""


# ---------------------------------------------------------------------------
# context
# ---------------------------------------------------------------------------


@dataclass
class CompilationContext:
    """Mutable state flowing through the pass pipeline.

    The input fields (``graph``, ``arch``, ``options``, ``cache``,
    ``assume_canonical``) are set by the caller; every other artifact
    field is produced by a pass.  ``timings`` records wall-clock
    seconds per executed pass, ``diagnostics`` free-form notes (e.g.
    which passes were skipped and why).
    """

    graph: Graph
    arch: ArchitectureConfig
    options: ScheduleOptions = field(default_factory=ScheduleOptions)
    cache: Optional[CompilationCache] = None
    assume_canonical: bool = False

    # artifacts (filled in pass order).  ``canonical_key``/``mapped_key``
    # identify ``canonical``/``mapped`` in cache keys; the preprocess and
    # mapping passes set them whenever a cache is present.  A custom pass
    # that replaces either graph must set the matching key as well.
    canonical: Optional[Graph] = None
    canonical_key: Optional[CacheKey] = None
    tilings: Optional[dict[str, LayerTiling]] = None
    duplication: Optional[DuplicationSolution] = None
    rewrite: Optional[RewriteReport] = None
    mapped: Optional[Graph] = None
    mapped_key: Optional[CacheKey] = None
    placement: Optional[Placement] = None
    sets: Optional[SetPartition] = None
    dependencies: Optional[DependencyGraph] = None
    schedule: Optional[Schedule] = None

    # bookkeeping
    timings: dict[str, float] = field(default_factory=dict)
    diagnostics: list[str] = field(default_factory=list)
    #: Merged :class:`repro.verify.VerifyReport` when the manager runs
    #: with a verify mode other than ``"off"``.
    verify_report: Optional[Any] = None

    def note(self, message: str) -> None:
        """Append a diagnostic line."""
        self.diagnostics.append(message)

    def cached(self, key: CacheKey, compute: Callable[[], _T]) -> _T:
        """Run ``compute`` through the context cache when one is set.

        Every builtin pass and rule memoizes its stage this way; custom
        passes and rules get the same stage-level memoization.  Keys
        built from ``canonical_key``/``mapped_key`` are only meaningful
        with a cache (both stay ``None`` without one), so building them
        never fingerprints a graph on an uncached compile.
        """
        if self.cache is None:
            return compute()
        return self.cache.get_or_compute(key, compute)

    def to_compiled(self) -> CompiledModel:
        """Package the produced artifacts into a :class:`CompiledModel`."""
        if self.canonical is None or self.mapped is None:
            raise PassError("compilation did not produce a mapped graph")
        if self.placement is None or self.schedule is None:
            raise PassError("compilation did not produce a schedule")
        return CompiledModel(
            arch=self.arch,
            options=self.options,
            canonical=self.canonical,
            mapped=self.mapped,
            placement=self.placement,
            schedule=self.schedule,
            duplication=self.duplication,
            rewrite=self.rewrite,
            sets=SetPartition.of(self.sets or {}),
            dependencies=self.dependencies,
            timings=dict(self.timings),
            diagnostics=list(self.diagnostics),
        )


# ---------------------------------------------------------------------------
# pass protocol
# ---------------------------------------------------------------------------


@runtime_checkable
class Pass(Protocol):
    """One unit of compilation work.

    A pass has a ``name`` (used for timings/diagnostics) and a
    ``run(ctx)`` mutating the context.  An optional ``applies(ctx)``
    predicate lets the manager skip passes that the current options
    make irrelevant (e.g. Stage II when scheduling layer-by-layer).
    """

    name: str

    def run(self, ctx: CompilationContext) -> None: ...


def _pass_applies(p: Pass, ctx: CompilationContext) -> bool:
    applies = getattr(p, "applies", None)
    return True if applies is None else bool(applies(ctx))


def fire_hooks(
    hooks: Sequence[Any], event: str, sink: Optional[list[str]], *args: Any
) -> None:
    """Run one hook event on every hook that has it.

    A hook that raises aborts nothing — observation must never change
    outcomes.  Its failure is recorded on ``sink`` (a compile's
    diagnostics list) or, with ``sink=None`` (job-level events, which
    have no compile to record on), emitted as one ``RuntimeWarning``.
    """
    for hook in hooks:
        callback = getattr(hook, event, None)
        if callback is None:
            continue
        try:
            callback(*args)
        except Exception as exc:
            note = f"hook {event} raised {type(exc).__name__}: {exc}"
            if sink is None:
                warnings.warn(note, RuntimeWarning, stacklevel=2)
            else:
                sink.append(note)


# ---------------------------------------------------------------------------
# mapping / scheduler registries
# ---------------------------------------------------------------------------

#: A mapping rule mutates the context: it must set ``ctx.mapped`` (and
#: may set ``ctx.duplication`` / ``ctx.rewrite`` / ``ctx.mapped_key``).
MappingRule = Callable[[CompilationContext], None]


@dataclass(frozen=True)
class SchedulerRule:
    """Registry entry of one scheduling policy."""

    name: str
    build: Callable[[CompilationContext], Schedule]
    #: Whether the policy consumes Stage II set-level dependencies
    #: (controls whether the dependencies pass runs at all).
    needs_dependencies: bool = True


_MAPPINGS: dict[str, MappingRule] = {}
_SCHEDULERS: dict[str, SchedulerRule] = {}


def register_mapping(name: str, rule: MappingRule, replace: bool = False) -> None:
    """Register a mapping policy under ``name``.

    The rule is called with the :class:`CompilationContext` after
    preprocessing/tiling and must set ``ctx.mapped`` (the graph the
    placement and scheduling passes consume).  Rules that leave
    ``ctx.mapped_key`` unset get a generic cache key derived from the
    mapping name plus the full architecture and options (everything a
    rule could have read) — correct but coarse; rules that only depend
    on some of those inputs should set a tighter key themselves, as the
    builtin ``wdup`` rule does.
    """
    if not replace and name in _MAPPINGS:
        raise ValueError(f"mapping {name!r} is already registered")
    _MAPPINGS[name] = rule


def register_scheduler(
    name: str,
    build: Callable[[CompilationContext], Schedule],
    needs_dependencies: bool = True,
    replace: bool = False,
) -> None:
    """Register a scheduling policy under ``name``.

    ``build`` receives the context (mapped graph, placement, sets, and
    — when ``needs_dependencies`` — the Stage II dependency graph) and
    returns a :class:`~repro.core.schedule.Schedule`.
    """
    if not replace and name in _SCHEDULERS:
        raise ValueError(f"scheduler {name!r} is already registered")
    _SCHEDULERS[name] = SchedulerRule(name, build, needs_dependencies)


def unregister_mapping(name: str) -> None:
    """Remove a registered mapping (builtin names are protected)."""
    if name in MAPPINGS:
        raise ValueError(f"cannot unregister builtin mapping {name!r}")
    _MAPPINGS.pop(name, None)


def unregister_scheduler(name: str) -> None:
    """Remove a registered scheduler (builtin names are protected)."""
    if name in SCHEDULERS:
        raise ValueError(f"cannot unregister builtin scheduler {name!r}")
    _SCHEDULERS.pop(name, None)


def mapping_names() -> tuple[str, ...]:
    """All registered mapping names (builtins first)."""
    return tuple(_MAPPINGS)


def scheduler_names() -> tuple[str, ...]:
    """All registered scheduler names (builtins first)."""
    return tuple(_SCHEDULERS)


def resolve_mapping(name: str) -> MappingRule:
    """Look up a mapping rule, with a helpful error on unknown names."""
    try:
        return _MAPPINGS[name]
    except KeyError:
        raise KeyError(
            f"unknown mapping {name!r}; registered: {mapping_names()}"
        ) from None


def resolve_scheduler(name: str) -> SchedulerRule:
    """Look up a scheduler rule, with a helpful error on unknown names."""
    try:
        return _SCHEDULERS[name]
    except KeyError:
        raise KeyError(
            f"unknown scheduler {name!r}; registered: {scheduler_names()}"
        ) from None


# -- builtin rules ----------------------------------------------------------


def _mapping_none(ctx: CompilationContext) -> None:
    ctx.mapped = ctx.canonical
    ctx.mapped_key = ctx.canonical_key


def _mapping_wdup(ctx: CompilationContext) -> None:
    """Optimization Problem 1 + the Fig. 4 rewrite (Sec. III-C).

    The ``wdup`` and ``wdup+xinf`` configurations at the same PE budget
    share one solution/rewrite through the cache; the key also
    identifies the rewritten graph for every later stage.
    """
    canonical, arch, options = ctx.canonical, ctx.arch, ctx.options
    assert canonical is not None

    def compute() -> tuple[DuplicationSolution, RewriteReport]:
        tilings = ctx.tilings
        if tilings is None:  # uncached compiles skip the tile pass
            tilings = tile_graph(canonical, arch.crossbar)
        problem = problem_from_tilings(
            tilings,
            budget=arch.num_pes,
            d_max_cap=options.d_max_cap,
            axis=options.duplication_axis,
        )
        duplication = solve(problem, options.duplication_solver)
        return duplication, apply_duplication(
            canonical, duplication, axis=options.duplication_axis
        )

    key = (
        "wdup",
        ctx.canonical_key,
        arch.crossbar,
        arch.num_pes,
        options.duplication_solver,
        options.duplication_axis,
        options.d_max_cap,
    )
    ctx.duplication, ctx.rewrite = ctx.cached(key, compute)
    ctx.mapped = ctx.rewrite.graph
    if ctx.cache is not None:
        ctx.mapped_key = key


def _schedule_layer_by_layer(ctx: CompilationContext) -> Schedule:
    mapped, sets = ctx.mapped, ctx.sets
    assert mapped is not None and sets is not None
    return ctx.cached(
        ("schedule", ctx.mapped_key, ctx.options.granularity, "layer-by-layer"),
        lambda: layer_by_layer_schedule(mapped, sets),
    )


def _schedule_clsa_cim(ctx: CompilationContext) -> Schedule:
    """Stage III–IV on the CSR set graph of Stage II.

    The columnar kernels self-validate with vectorized dependency and
    resource checks (no per-set Python objects).
    """
    sets, dependencies, options = ctx.sets, ctx.dependencies, ctx.options
    assert sets is not None and dependencies is not None

    def compute() -> Schedule:
        if options.order_mode == "dynamic":
            return csr_dynamic_schedule(dependencies.arrays)
        order = intra_layer_order(sets, options.intra_layer_policy)
        return csr_static_schedule(dependencies.arrays, order)

    return ctx.cached(
        (
            "schedule",
            ctx.mapped_key,
            options.granularity,
            "clsa-cim",
            options.order_mode,
            options.intra_layer_policy,
        ),
        compute,
    )


register_mapping("none", _mapping_none)
register_mapping("wdup", _mapping_wdup)
register_scheduler("layer-by-layer", _schedule_layer_by_layer, needs_dependencies=False)
register_scheduler("clsa-cim", _schedule_clsa_cim, needs_dependencies=True)


# ---------------------------------------------------------------------------
# builtin passes
# ---------------------------------------------------------------------------


class PreprocessPass:
    """Stage 0: canonicalize the model (Sec. III-A)."""

    name = "preprocess"

    def run(self, ctx: CompilationContext) -> None:
        ctx.canonical = preprocess_stage(ctx.graph, ctx.cache, ctx.assume_canonical)
        if ctx.cache is not None:
            ctx.canonical_key = ("graph", ctx.cache.fingerprint(ctx.canonical))


class TilePass:
    """Tile every base layer onto crossbars (Eq. 1).

    Tilings depend only on the graph and the crossbar geometry — not
    the PE budget — so one cache entry serves every ``x`` of a sweep,
    and the ``wdup`` rule reads them from ``ctx.tilings``.
    """

    name = "tile"

    def applies(self, ctx: CompilationContext) -> bool:
        # Without a cache only a wdup miss needs the tilings, and it
        # tiles the graph itself; computing them here would be waste.
        return ctx.cache is not None

    def run(self, ctx: CompilationContext) -> None:
        canonical = ctx.canonical
        assert canonical is not None
        ctx.tilings = ctx.cached(
            ("tile", ctx.canonical_key, ctx.arch.crossbar),
            lambda: tile_graph(canonical, ctx.arch.crossbar),
        )


class MappingPass:
    """Resolve ``options.mapping`` through the registry and apply it."""

    name = "mapping"

    def run(self, ctx: CompilationContext) -> None:
        rule = resolve_mapping(ctx.options.mapping)
        rule(ctx)
        if ctx.mapped is None:
            raise PassError(
                f"mapping rule {ctx.options.mapping!r} did not set ctx.mapped"
            )
        if ctx.mapped_key is None and ctx.cache is not None:
            # Conservative fallback: key on every input the rule could
            # have read, so a cache shared across architectures or
            # option sets can never serve a stale mapped graph.
            ctx.mapped_key = (
                "mapping",
                ctx.options.mapping,
                ctx.canonical_key,
                ctx.arch,
                ctx.options,
            )


class PlacementPass:
    """Weight-stationary PE placement of the mapped graph."""

    name = "place"

    def run(self, ctx: CompilationContext) -> None:
        mapped = ctx.mapped
        assert mapped is not None
        ctx.placement = ctx.cached(
            ("place", ctx.mapped_key, ctx.arch), lambda: place_graph(mapped, ctx.arch)
        )


class SetsPass:
    """Stage I: determine sets."""

    name = "sets"

    def run(self, ctx: CompilationContext) -> None:
        mapped, granularity = ctx.mapped, ctx.options.granularity
        assert mapped is not None
        ctx.sets = ctx.cached(
            ("sets", ctx.mapped_key, granularity),
            lambda: determine_sets(mapped, granularity),
        )


class DependenciesPass:
    """Stage II: determine dependencies (only when the scheduler needs them)."""

    name = "deps"

    def applies(self, ctx: CompilationContext) -> bool:
        return resolve_scheduler(ctx.options.scheduling).needs_dependencies

    def run(self, ctx: CompilationContext) -> None:
        mapped, sets = ctx.mapped, ctx.sets
        assert mapped is not None and sets is not None
        found = ctx.cached(
            ("deps", ctx.mapped_key, ctx.options.granularity),
            lambda: determine_dependencies(mapped, sets),
        )
        # A store entry holds the CSR alone; it joins the sets held here.
        if isinstance(found, DependencyCSR):
            found = found.paired(SetPartition.of(sets))
        ctx.dependencies = found


class SchedulePass:
    """Stage III–IV: resolve ``options.scheduling`` and build the schedule."""

    name = "schedule"

    def run(self, ctx: CompilationContext) -> None:
        rule = resolve_scheduler(ctx.options.scheduling)
        if rule.needs_dependencies and ctx.dependencies is None:
            raise PassError(
                f"scheduler {rule.name!r} needs dependencies but the "
                "dependencies pass did not run"
            )
        ctx.schedule = rule.build(ctx)
        if ctx.schedule is None:
            raise PassError(f"scheduler rule {rule.name!r} returned no schedule")


def default_passes() -> list[Pass]:
    """The standard pass order of the paper's flow."""
    return [
        PreprocessPass(),
        TilePass(),
        MappingPass(),
        PlacementPass(),
        SetsPass(),
        DependenciesPass(),
        SchedulePass(),
    ]


# ---------------------------------------------------------------------------
# manager
# ---------------------------------------------------------------------------

#: Static-verification modes accepted by :class:`PassManager`.
VERIFY_MODES = ("off", "final", "each_pass")


class PassManager:
    """Runs an ordered list of passes over a :class:`CompilationContext`.

    Parameters
    ----------
    passes:
        The pass order; defaults to :func:`default_passes`.  Custom
        managers can insert analysis or transform passes anywhere.
    verify:
        Static-verification mode: ``"off"`` (default) runs no checks,
        ``"final"`` runs the full rule set once after the last pass,
        ``"each_pass"`` additionally runs the cheap rules after every
        executed pass.  Findings are appended to the context's
        ``diagnostics`` and merged into ``ctx.verify_report``;
        verification records problems, it never aborts a compilation.
    """

    def __init__(
        self,
        passes: Optional[Iterable[Pass]] = None,
        verify: str = "off",
    ) -> None:
        if verify not in VERIFY_MODES:
            raise ValueError(
                f"verify must be one of {VERIFY_MODES}, got {verify!r}"
            )
        self.passes: list[Pass] = (
            list(passes) if passes is not None else default_passes()
        )
        self.verify = verify

    def insert_before(self, name: str, new_pass: Pass) -> None:
        """Insert ``new_pass`` before the pass called ``name``."""
        self.passes.insert(self._index_of(name), new_pass)

    def insert_after(self, name: str, new_pass: Pass) -> None:
        """Insert ``new_pass`` after the pass called ``name``."""
        self.passes.insert(self._index_of(name) + 1, new_pass)

    def _index_of(self, name: str) -> int:
        for index, p in enumerate(self.passes):
            if p.name == name:
                return index
        raise KeyError(f"no pass named {name!r}")

    def run(
        self, ctx: CompilationContext, hooks: Sequence[Any] = ()
    ) -> CompilationContext:
        """Run every applicable pass in order, timing each.

        ``hooks`` may carry optional ``on_pass_start(name, ctx)`` and
        ``on_pass_end(name, ctx, seconds)`` callables (missing
        attributes are ignored), e.g. :class:`repro.session.SessionHooks`.
        A hook that raises is recorded as a context diagnostic and does
        not abort the compilation — observation must never change
        outcomes.

        Compilations running under a job deadline (see
        :func:`repro.exec.resilience.deadline_scope`) are checked
        cooperatively between passes: a blown budget raises
        :class:`~repro.exec.resilience.JobTimeoutError` at the next
        pass boundary instead of wedging the worker.
        """
        # Deferred import: repro.exec.resilience sits under the
        # repro.exec package, whose __init__ imports this module back.
        from ..exec.resilience import check_deadline

        for p in self.passes:
            check_deadline(f"before pass '{p.name}'")
            if not _pass_applies(p, ctx):
                ctx.note(f"skipped pass '{p.name}'")
                continue
            fire_hooks(hooks, "on_pass_start", ctx.diagnostics, p.name, ctx)
            started = time.perf_counter()
            p.run(ctx)
            elapsed = time.perf_counter() - started
            ctx.timings[p.name] = ctx.timings.get(p.name, 0.0) + elapsed
            fire_hooks(hooks, "on_pass_end", ctx.diagnostics, p.name, ctx, elapsed)
            if self.verify == "each_pass":
                self._run_verify(ctx, after=p.name, cost="cheap")
        if self.verify != "off":
            self._run_verify(ctx, after=None, cost=None)
        return ctx

    def _run_verify(
        self, ctx: CompilationContext, after: Optional[str], cost: Optional[str]
    ) -> None:
        """Run the static verifier over the artifacts produced so far."""
        from ..verify.engine import VerifyContext, verify_context

        vctx = VerifyContext(
            graph=ctx.canonical if ctx.canonical is not None else ctx.graph,
            arch=ctx.arch,
            mapped=ctx.mapped,
            placement=ctx.placement,
            rewrite=ctx.rewrite,
            sets=ctx.sets,
            dependencies=ctx.dependencies,
            schedule=ctx.schedule,
            target=ctx.graph.name,
        )
        report = verify_context(vctx, cost=cost)
        stage = f"after '{after}'" if after else "final"
        for diag in report.diagnostics:
            line = f"verify ({stage}): {diag.format()}"
            if line not in ctx.diagnostics:
                ctx.note(line)
        if ctx.verify_report is None:
            ctx.verify_report = report
        else:
            ctx.verify_report = ctx.verify_report.merged(report)

    def compile(
        self,
        graph: Graph,
        arch: ArchitectureConfig,
        options: Optional[ScheduleOptions] = None,
        *,
        assume_canonical: bool = False,
        cache: Optional[CompilationCache] = None,
        hooks: Sequence[Any] = (),
    ) -> CompiledModel:
        """Compile ``graph`` end-to-end and package the result.

        Besides the pass events of :meth:`run`, ``hooks`` may carry
        ``on_compile_start(ctx)`` and ``on_compile_end(compiled)``,
        fired around the whole compilation with the same never-abort
        guarantee.
        """
        ctx = CompilationContext(
            graph=graph,
            arch=arch,
            options=options if options is not None else ScheduleOptions(),
            cache=cache,
            assume_canonical=assume_canonical,
        )
        fire_hooks(hooks, "on_compile_start", ctx.diagnostics, ctx)
        compiled = self.run(ctx, hooks).to_compiled()
        fire_hooks(hooks, "on_compile_end", compiled.diagnostics, compiled)
        return compiled


def default_pass_manager(verify: str = "off") -> PassManager:
    """A fresh :class:`PassManager` with the standard pass order."""
    return PassManager(verify=verify)
