"""IR rule pack: structural checks on canonical graphs.

Holds the structural graph checks, split into independently
selectable rules, plus advisory checks (unconsumed inputs).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..ir.graph import GraphError
from ..ir.ops import Conv2D, Dense, Input
from ..ir.tensor import Rect
from .diagnostics import Diagnostic, Location, Severity
from .registry import builtin

if TYPE_CHECKING:
    from .engine import VerifyContext


def _error(rule: str, message: str, layer: str | None = None) -> Diagnostic:
    return Diagnostic(
        rule=rule,
        severity=Severity.ERROR,
        message=message,
        location=Location(layer=layer),
    )


@builtin(
    "ir.inputs",
    requires=("graph",),
    description="The graph declares at least one Input node.",
)
def check_inputs(ctx: "VerifyContext") -> list[Diagnostic]:
    if not ctx.graph.input_names():
        return [_error("ir.inputs", "graph has no Input nodes")]
    return []


@builtin(
    "ir.structure",
    requires=("graph",),
    description="The graph is acyclic with resolvable edges and inferable shapes.",
)
def check_structure(ctx: "VerifyContext") -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    try:
        ctx.graph.topological_order()
    except GraphError as exc:
        return [_error("ir.structure", str(exc))]
    try:
        ctx.graph.infer_shapes()
    except Exception as exc:  # noqa: BLE001 - any inference failure is structural
        diags.append(_error("ir.structure", str(exc)))
    return diags


@builtin(
    "ir.producers",
    requires=("graph",),
    description="Every non-input node has at least one producer.",
)
def check_producers(ctx: "VerifyContext") -> list[Diagnostic]:
    order = ctx.topo_order()
    if order is None:
        return []
    diags = []
    for name in order:
        op = ctx.graph[name]
        if not isinstance(op, Input) and not op.inputs:
            diags.append(
                _error(
                    "ir.producers",
                    f"non-input node '{name}' has no producers",
                    layer=name,
                )
            )
    return diags


@builtin(
    "ir.regions",
    requires=("graph",),
    description="Backward region propagation maps every output into input bounds.",
)
def check_regions(ctx: "VerifyContext") -> list[Diagnostic]:
    order = ctx.topo_order()
    shapes = ctx.graph_shapes()
    if order is None or shapes is None:
        return []
    diags: list[Diagnostic] = []
    for name in order:
        op = ctx.graph[name]
        if isinstance(op, Input) or not op.inputs:
            continue
        input_shapes = [shapes[p] for p in op.inputs]
        out_shape = shapes[name]
        try:
            rects = op.input_regions(out_shape.full_rect(), input_shapes, out_shape)
        except Exception as exc:  # noqa: BLE001 - report as a finding
            diags.append(
                _error(
                    "ir.regions",
                    f"region propagation failed at '{name}': {exc}",
                    layer=name,
                )
            )
            continue
        if len(rects) != len(op.inputs):
            diags.append(
                _error(
                    "ir.regions",
                    f"'{name}' returned {len(rects)} input regions for "
                    f"{len(op.inputs)} inputs",
                    layer=name,
                )
            )
            continue
        for producer, rect, in_shape in zip(op.inputs, rects, input_shapes):
            bounds = Rect(0, 0, in_shape.height, in_shape.width)
            if not bounds.contains(rect):
                diags.append(
                    _error(
                        "ir.regions",
                        f"'{name}': required region {rect} of input "
                        f"'{producer}' exceeds bounds {bounds}",
                        layer=name,
                    )
                )
    return diags


@builtin(
    "ir.dead-layer",
    requires=("graph",),
    description="No base layer produces an empty output.",
)
def check_dead_layers(ctx: "VerifyContext") -> list[Diagnostic]:
    order = ctx.topo_order()
    shapes = ctx.graph_shapes()
    if order is None or shapes is None:
        return []
    return [
        _error(
            "ir.dead-layer",
            f"base layer '{name}' has an empty output",
            layer=name,
        )
        for name in order
        if isinstance(ctx.graph[name], (Conv2D, Dense))
        and shapes[name].num_elements == 0
    ]


@builtin(
    "ir.unconsumed",
    requires=("graph",),
    description="Every Input node feeds at least one consumer.",
)
def check_unconsumed(ctx: "VerifyContext") -> list[Diagnostic]:
    order = ctx.topo_order()
    if order is None:
        return []
    consumed = {
        producer for name in order for producer in ctx.graph[name].inputs
    }
    return [
        Diagnostic(
            rule="ir.unconsumed",
            severity=Severity.WARNING,
            message=f"input '{name}' is never consumed",
            location=Location(layer=name),
            hint="remove the input or wire it into the graph",
        )
        for name in ctx.graph.input_names()
        if name not in consumed
    ]
