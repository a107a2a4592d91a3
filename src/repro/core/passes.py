"""Pass-based compilation: ``CompilationContext`` + ``PassManager``.

The staged functions of :mod:`repro.core.pipeline` are the *mechanism*
of compilation; this module is the *policy* layer that strings them
together.  A :class:`CompilationContext` — graph, architecture,
options, optional cache, per-pass timings, diagnostics — flows through
an ordered list of :class:`Pass` objects managed by a
:class:`PassManager`.  Each of the paper's stages (``preprocess →
tile → mapping → place → sets → dependencies → schedule``) is one
pass, and the string-valued :class:`ScheduleOptions` knobs
(``mapping="wdup"``, ``scheduling="clsa-cim"``) resolve through the
:func:`register_mapping` / :func:`register_scheduler` registries, so a
third-party mapping or scheduler plugs in without touching core code::

    from repro.core import passes

    def my_scheduler(ctx):
        ...build and return a repro.core.schedule.Schedule...

    passes.register_scheduler("mine", my_scheduler)
    Session(arch).compile(model, ScheduleOptions(scheduling="mine"))

Builtin rules delegate to the cached stage functions of
``pipeline.py``, so pass-based compilation produces bit-identical
results to the historical ``compile_model`` path (asserted in tests).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Iterable,
    Optional,
    Protocol,
    Sequence,
    runtime_checkable,
)

from ..arch.config import ArchitectureConfig
from ..ir.graph import Graph
from ..ir.tensor import Rect
from ..mapping.duplication import DuplicationSolution
from ..mapping.placement import Placement
from ..mapping.rewrite import RewriteReport
from ..mapping.tiling import LayerTiling
from .cache import CacheKey, CompilationCache
from .dependencies import DependencyGraph
from .pipeline import (
    CompiledModel,
    ScheduleOptions,
    _graph_key,
    _mapped_key,
    dependencies_stage,
    duplication_stage,
    placement_stage,
    preprocess_stage,
    schedule_stage,
    sets_stage,
    tile_stage,
)
from .schedule import Schedule


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

    # artifacts (filled in pass order)
    canonical: Optional[Graph] = None
    canonical_key: Optional[CacheKey] = None
    tilings: Optional[dict[str, LayerTiling]] = None
    duplication: Optional[DuplicationSolution] = None
    rewrite: Optional[RewriteReport] = None
    mapped: Optional[Graph] = None
    mapped_key: Optional[CacheKey] = None
    placement: Optional[Placement] = None
    sets: Optional[dict[str, list[Rect]]] = None
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

    def cached(self, key: CacheKey, compute: Callable[[], Any]) -> Any:
        """Run ``compute`` through the context cache when one is set.

        Convenience for custom mapping/scheduler rules that want the
        same stage-level memoization the builtin rules get.
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
            sets=self.sets or {},
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


def _guarded(
    ctx: CompilationContext, event: str, callback: Callable, *args: Any
) -> None:
    """Run a hook callback, recording (not raising) its failures."""
    try:
        callback(*args)
    except Exception as exc:
        ctx.note(f"hook {event} raised {type(exc).__name__}: {exc}")


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
    if name in _BUILTIN_MAPPINGS:
        raise ValueError(f"cannot unregister builtin mapping {name!r}")
    _MAPPINGS.pop(name, None)


def unregister_scheduler(name: str) -> None:
    """Remove a registered scheduler (builtin names are protected)."""
    if name in _BUILTIN_SCHEDULERS:
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
    assert ctx.canonical is not None
    ctx.duplication, ctx.rewrite = duplication_stage(
        ctx.canonical, ctx.arch, ctx.options, ctx.cache, ctx.canonical_key
    )
    ctx.mapped = ctx.rewrite.graph
    if ctx.cache is not None and ctx.canonical_key is not None:
        ctx.mapped_key = _mapped_key(ctx.canonical_key, ctx.arch, ctx.options)


def _schedule_layer_by_layer(ctx: CompilationContext) -> Schedule:
    assert ctx.mapped is not None and ctx.sets is not None
    return schedule_stage(
        ctx.mapped, ctx.sets, None, ctx.options, ctx.cache, ctx.mapped_key
    )


def _schedule_clsa_cim(ctx: CompilationContext) -> Schedule:
    assert ctx.mapped is not None and ctx.sets is not None
    return schedule_stage(
        ctx.mapped, ctx.sets, ctx.dependencies, ctx.options, ctx.cache, ctx.mapped_key
    )


_BUILTIN_MAPPINGS = ("none", "wdup")
_BUILTIN_SCHEDULERS = ("layer-by-layer", "clsa-cim")

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
            ctx.canonical_key = _graph_key(ctx.canonical, ctx.cache)


class TilePass:
    """Tile every base layer onto crossbars (Eq. 1)."""

    name = "tile"

    def applies(self, ctx: CompilationContext) -> bool:
        # Without a cache the tilings would be recomputed by the later
        # stages anyway; computing them here would be pure waste.
        return ctx.cache is not None

    def run(self, ctx: CompilationContext) -> None:
        assert ctx.canonical is not None
        ctx.tilings = tile_stage(ctx.canonical, ctx.arch, ctx.cache, ctx.canonical_key)


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
        assert ctx.mapped is not None
        ctx.placement = placement_stage(ctx.mapped, ctx.arch, ctx.cache, ctx.mapped_key)


class SetsPass:
    """Stage I: determine sets."""

    name = "sets"

    def run(self, ctx: CompilationContext) -> None:
        assert ctx.mapped is not None
        ctx.sets = sets_stage(
            ctx.mapped, ctx.options.granularity, ctx.cache, ctx.mapped_key
        )


class DependenciesPass:
    """Stage II: determine dependencies (only when the scheduler needs them)."""

    name = "deps"

    def applies(self, ctx: CompilationContext) -> bool:
        return resolve_scheduler(ctx.options.scheduling).needs_dependencies

    def run(self, ctx: CompilationContext) -> None:
        assert ctx.mapped is not None and ctx.sets is not None
        ctx.dependencies = dependencies_stage(
            ctx.mapped, ctx.sets, ctx.options.granularity, ctx.cache, ctx.mapped_key
        )


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
            for hook in hooks:
                start_cb = getattr(hook, "on_pass_start", None)
                if start_cb is not None:
                    _guarded(ctx, "on_pass_start", start_cb, p.name, ctx)
            started = time.perf_counter()
            p.run(ctx)
            elapsed = time.perf_counter() - started
            ctx.timings[p.name] = ctx.timings.get(p.name, 0.0) + elapsed
            for hook in hooks:
                end_cb = getattr(hook, "on_pass_end", None)
                if end_cb is not None:
                    _guarded(ctx, "on_pass_end", end_cb, p.name, ctx, elapsed)
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
        """Compile ``graph`` end-to-end and package the result."""
        ctx = CompilationContext(
            graph=graph,
            arch=arch,
            options=options if options is not None else ScheduleOptions(),
            cache=cache,
            assume_canonical=assume_canonical,
        )
        return self.run(ctx, hooks).to_compiled()


def default_pass_manager(verify: str = "off") -> PassManager:
    """A fresh :class:`PassManager` with the standard pass order."""
    return PassManager(verify=verify)
