"""The verification engine: contexts, rule execution, and entry points.

A :class:`VerifyContext` bundles whatever compilation artifacts a
caller has — anywhere from a bare :class:`~repro.ir.graph.Graph` to a
full :class:`~repro.core.pipeline.CompiledModel` — and memoizes the
derived structures the rules share (dependency graph, CSR lowering,
hazard table, shapes).  :func:`verify_context` runs every registered
rule whose requirements the context satisfies and returns a
:class:`VerifyReport`.

Loaded artifacts verify identically to fresh compiles: the default
artifact format omits the dependency graph, so :meth:`VerifyContext.dep_graph`
recomputes it from the mapped graph and the Stage I sets on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Optional

from .diagnostics import Diagnostic, Severity, VerifyReport
from .registry import RULE_FIELDS, resolve_rule, rule_names, rules_for

# Rule packs register their built-in rules at import time.
from . import hazards, rules_arch, rules_ir  # noqa: F401  (registration side effect)

if TYPE_CHECKING:
    from ..arch.config import ArchitectureConfig
    from ..core.dependencies import DependencyGraph
    from ..core.kernels import SetGraphArrays
    from ..core.pipeline import CompiledModel
    from ..core.schedule import Schedule, ScheduleColumns
    from ..ir.graph import Graph
    from ..ir.tensor import Rect, Shape
    from ..mapping.placement import Placement
    from ..mapping.rewrite import RewriteReport
    from .hazards import HazardTable


@dataclass
class VerifyContext:
    """Everything a verification run may look at, mostly optional."""

    graph: Optional["Graph"] = None
    arch: Optional["ArchitectureConfig"] = None
    mapped: Optional["Graph"] = None
    placement: Optional["Placement"] = None
    rewrite: Optional["RewriteReport"] = None
    sets: Optional[dict[str, list["Rect"]]] = None
    dependencies: Optional["DependencyGraph"] = None
    schedule: Optional["Schedule"] = None
    target: str = ""
    _memo: dict[str, Any] = field(default_factory=dict, repr=False)

    def available(self) -> frozenset[str]:
        """Context fields rules may require.

        ``dependencies`` counts as available when the graph is either
        present or recomputable from the mapped graph + Stage I sets
        (the save/load path drops it by default).
        """
        have = {
            name
            for name in RULE_FIELDS
            if name != "dependencies" and getattr(self, name) is not None
        }
        if self.dependencies is not None or (
            self.mapped is not None and self.sets
        ):
            have.add("dependencies")
        return frozenset(have)

    # -- memoized derived structures ----------------------------------

    def _memoized(self, key: str, compute: Any) -> Any:
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def dep_graph(self) -> "DependencyGraph":
        """The dependency graph, recomputed from mapped+sets if absent."""

        def compute() -> "DependencyGraph":
            if self.dependencies is not None:
                return self.dependencies
            from ..core.dependencies import determine_dependencies

            return determine_dependencies(self.mapped, self.sets)

        return self._memoized("dep_graph", compute)

    def arrays(self) -> "SetGraphArrays":
        """The CSR set graph of :meth:`dep_graph`."""
        return self.dep_graph().arrays

    def columns(self) -> Optional["ScheduleColumns"]:
        """The schedule in columnar form, or ``None`` without a schedule."""

        def compute() -> Optional["ScheduleColumns"]:
            if self.schedule is None:
                return None
            return self.schedule.columns()

        return self._memoized("columns", compute)

    def hazard_table(self) -> tuple[Optional["HazardTable"], list[Diagnostic]]:
        """Schedule rows scattered onto the gid space (memoized)."""

        def compute() -> tuple[Optional["HazardTable"], list[Diagnostic]]:
            from .hazards import build_table

            return build_table(self.arrays(), self.columns())

        return self._memoized("hazard_table", compute)

    def shapes(self) -> Optional[dict[str, "Shape"]]:
        """Inferred shapes of the mapped graph, or ``None`` on failure."""

        def compute() -> Optional[dict[str, "Shape"]]:
            if self.mapped is None:
                return None
            try:
                return self.mapped.infer_shapes()
            except Exception:  # noqa: BLE001 - ir.structure reports this
                return None

        return self._memoized("shapes", compute)

    def topo_order(self) -> Optional[list[str]]:
        """Topological order of ``graph``, or ``None`` when cyclic/broken."""

        def compute() -> Optional[list[str]]:
            try:
                return self.graph.topological_order()
            except Exception:  # noqa: BLE001 - ir.structure reports this
                return None

        return self._memoized("topo_order", compute)

    def graph_shapes(self) -> Optional[dict[str, "Shape"]]:
        """Inferred shapes of ``graph``, or ``None`` when inference fails."""

        def compute() -> Optional[dict[str, "Shape"]]:
            try:
                return self.graph.infer_shapes()
            except Exception:  # noqa: BLE001 - ir.structure reports this
                return None

        return self._memoized("graph_shapes", compute)


def verify_context(
    ctx: VerifyContext,
    *,
    rules: Optional[Iterable[str]] = None,
    cost: Optional[str] = None,
) -> VerifyReport:
    """Run all applicable rules over ``ctx`` and collect a report.

    ``rules`` restricts to an explicit selection; ``cost="cheap"``
    drops the expensive rules (used by the ``each_pass`` verify mode
    and the scheduler fast paths).  A rule that raises is itself
    reported as an error diagnostic instead of aborting the run.
    """
    available = ctx.available()
    selected = rules_for(available, names=rules, cost=cost)
    if rules is not None:
        requested = [resolve_rule(name).name for name in rules]
        skipped = tuple(
            name for name in requested if name not in {r.name for r in selected}
        )
    else:
        skipped = tuple(
            name
            for name in rule_names()
            if name not in {r.name for r in selected}
        )
    report = VerifyReport(
        target=ctx.target,
        rules_run=tuple(rule.name for rule in selected),
        rules_skipped=skipped,
    )
    for rule in selected:
        try:
            found = list(rule.check(ctx))
        except Exception as exc:  # noqa: BLE001 - rule crashes become findings
            found = [
                Diagnostic(
                    rule=rule.name,
                    severity=Severity.ERROR,
                    message=f"rule crashed: {exc!r}",
                    hint="fix or unregister the offending rule",
                )
            ]
        report.extend(found)
    report.diagnostics.sort(key=lambda d: (-int(d.severity), d.rule, d.message))
    return report


def verify_graph(
    graph: "Graph",
    arch: Optional["ArchitectureConfig"] = None,
    *,
    rules: Optional[Iterable[str]] = None,
) -> VerifyReport:
    """Verify a bare graph (IR rules; arch rules too when ``arch`` given)."""
    ctx = VerifyContext(graph=graph, arch=arch, target=graph.name)
    return verify_context(ctx, rules=rules)


def verify_compiled(
    compiled: "CompiledModel",
    *,
    rules: Optional[Iterable[str]] = None,
    cost: Optional[str] = None,
) -> VerifyReport:
    """Verify a compilation end to end — fresh or loaded from disk."""
    ctx = context_for(compiled)
    return verify_context(ctx, rules=rules, cost=cost)


def verify_artifact(
    path: Any,
    *,
    rules: Optional[Iterable[str]] = None,
    cost: Optional[str] = None,
) -> VerifyReport:
    """Load a saved ``CompiledModel`` artifact and verify it."""
    from ..ir.serialize import load_compiled

    return verify_compiled(load_compiled(path), rules=rules, cost=cost)


def context_for(compiled: "CompiledModel", target: str = "") -> VerifyContext:
    """Build a :class:`VerifyContext` from a ``CompiledModel``."""
    return VerifyContext(
        graph=compiled.canonical,
        arch=compiled.arch,
        mapped=compiled.mapped,
        placement=compiled.placement,
        rewrite=compiled.rewrite,
        sets=compiled.sets or None,
        dependencies=compiled.dependencies,
        schedule=compiled.schedule,
        target=target or compiled.canonical.name,
    )


# ---------------------------------------------------------------------------
# strict graph checking (the pipeline's non-deprecated fast path)
# ---------------------------------------------------------------------------


def graph_issues(graph: "Graph") -> list[str]:
    """Error-severity IR findings as plain strings.

    Drop-in replacement for the deprecated
    ``repro.ir.validate.validate_graph`` (same messages; advisory
    warnings such as unconsumed inputs are excluded to keep parity).
    """
    report = verify_graph(graph)
    ordered = sorted(
        report.errors, key=lambda d: _IR_RULE_ORDER.get(d.rule, 99)
    )
    return [diag.message for diag in ordered]


#: Historical ``validate_graph`` reporting order, kept for shim parity.
_IR_RULE_ORDER = {
    "ir.inputs": 0,
    "ir.structure": 1,
    "ir.producers": 2,
    "ir.regions": 3,
    "ir.dead-layer": 4,
}


def assert_graph(graph: "Graph") -> None:
    """Raise :class:`~repro.ir.graph.GraphError` on any structural issue.

    Drop-in replacement for the deprecated
    ``repro.ir.validate.check_graph`` with the identical error format.
    """
    issues = graph_issues(graph)
    if issues:
        from ..ir.graph import GraphError

        raise GraphError(
            f"graph '{graph.name}' failed validation:\n  - " + "\n  - ".join(issues)
        )
