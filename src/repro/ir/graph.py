"""Directed acyclic graph container for NN models.

A :class:`Graph` owns a set of named :class:`~repro.ir.ops.Op` nodes.
Edges are implicit: every op names its producers in ``op.inputs``.  The
graph offers topological traversal, cached shape inference and route
table, consumer lookup, and the small mutation API
(replace/insert/remove) that the frontend passes and the
weight-duplication rewrite are built on.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Iterator, Optional

import numpy as np

from .ops import BatchNorm, Conv2D, Dense, Input, Op, OpError
from .tensor import Shape


class GraphError(ValueError):
    """Raised for structural graph errors (cycles, dangling edges...)."""


class Graph:
    """A named-node DAG of IR operators.

    Nodes are added in any order; edges may reference nodes added later.
    All analyses validate lazily.  Mutation invalidates cached shapes.
    """

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self._ops: dict[str, Op] = {}
        self._shape_cache: Optional[dict[str, Shape]] = None
        self._route_cache: Optional[dict[str, tuple[str, ...]]] = None
        self._topo_cache: Optional[list[str]] = None
        self._base_cache: Optional[list[str]] = None

    # ------------------------------------------------------------------
    # Construction and lookup
    # ------------------------------------------------------------------

    def add(self, op: Op) -> Op:
        """Add an operator; its name must be unique in the graph."""
        if op.name in self._ops:
            raise GraphError(f"duplicate node name '{op.name}'")
        self._ops[op.name] = op
        self._invalidate()
        return op

    def __contains__(self, name: str) -> bool:
        return name in self._ops

    def __getitem__(self, name: str) -> Op:
        try:
            return self._ops[name]
        except KeyError:
            raise GraphError(f"no node named '{name}' in graph '{self.name}'") from None

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Op]:
        return iter(self._ops.values())

    def node_names(self) -> list[str]:
        """All node names in insertion order."""
        return list(self._ops)

    def input_names(self) -> list[str]:
        """Names of all :class:`Input` nodes."""
        return [op.name for op in self._ops.values() if isinstance(op, Input)]

    def output_names(self) -> list[str]:
        """Names of all nodes that no other node consumes."""
        consumed = {producer for op in self._ops.values() for producer in op.inputs}
        return [name for name in self._ops if name not in consumed]

    def consumers(self, name: str) -> list[str]:
        """Names of nodes that read the output of ``name``."""
        return [op.name for op in self._ops.values() if name in op.inputs]

    def base_layers(self) -> list[str]:
        """Names of base-layer nodes (Conv2D/Dense) in topological order (cached)."""
        if self._base_cache is None:
            self._base_cache = [
                name for name in self.topological_order() if self._ops[name].is_base
            ]
        return list(self._base_cache)

    def non_base_layers(self) -> list[str]:
        """Names of non-base nodes (excluding Inputs) in topological order."""
        return [
            name
            for name in self.topological_order()
            if not self._ops[name].is_base and not isinstance(self._ops[name], Input)
        ]

    # ------------------------------------------------------------------
    # Traversal and analysis
    # ------------------------------------------------------------------

    def topological_order(self) -> list[str]:
        """Node names in a producer-before-consumer order.

        Raises :class:`GraphError` on cycles or dangling edges.  The
        order is deterministic (Kahn's algorithm with FIFO tie-breaking
        on insertion order).
        """
        if self._topo_cache is not None:
            return list(self._topo_cache)
        indegree: dict[str, int] = {}
        for name, op in self._ops.items():
            for producer in op.inputs:
                if producer not in self._ops:
                    raise GraphError(
                        f"node '{name}' references missing producer '{producer}'"
                    )
            indegree[name] = len(op.inputs)
        ready = [name for name, deg in indegree.items() if deg == 0]
        order: list[str] = []
        consumers: dict[str, list[str]] = {name: [] for name in self._ops}
        for name, op in self._ops.items():
            for producer in op.inputs:
                consumers[producer].append(name)
        cursor = 0
        while cursor < len(ready):
            name = ready[cursor]
            cursor += 1
            order.append(name)
            for consumer in consumers[name]:
                indegree[consumer] -= 1
                if indegree[consumer] == 0:
                    ready.append(consumer)
        if len(order) != len(self._ops):
            unresolved = sorted(set(self._ops) - set(order))
            raise GraphError(f"graph contains a cycle involving {unresolved}")
        self._topo_cache = order
        return list(order)

    def infer_shapes(self) -> dict[str, Shape]:
        """Shapes of every node's output, keyed by node name (cached)."""
        if self._shape_cache is not None:
            return dict(self._shape_cache)
        shapes: dict[str, Shape] = {}
        for name in self.topological_order():
            op = self._ops[name]
            input_shapes = [shapes[producer] for producer in op.inputs]
            try:
                shapes[name] = op.infer_shape(input_shapes)
            except OpError as exc:
                raise GraphError(f"shape inference failed at '{name}': {exc}") from exc
        self._shape_cache = shapes
        return dict(shapes)

    def routes(self) -> dict[str, tuple[str, ...]]:
        """Per node, where a backward region walk from its output goes (cached).

        Stage II and the layer-by-layer baseline walk a region of a
        tensor back to the base layers that produce it.  The walk from
        ``name`` visits ``routes()[name]`` in order: a base layer ends
        its path; any other listed op applies its backward rule, and
        the walk goes on from each of its inputs.  Ops that hand the
        region on unchanged (:attr:`~repro.ir.ops.Op.passes_block`) are
        folded into their inputs' routes, depth first in input order,
        and graph inputs end a walk, so neither is ever listed.
        """
        if self._route_cache is None:
            routes: dict[str, tuple[str, ...]] = {}
            for name in self.topological_order():
                op = self._ops[name]
                if op.is_base:
                    routes[name] = (name,)
                elif isinstance(op, Input):
                    routes[name] = ()
                elif op.passes_block:
                    folded = [routes[p] for p in op.inputs]
                    routes[name] = (
                        folded[0] if len(folded) == 1 else tuple(chain.from_iterable(folded))
                    )
                else:
                    routes[name] = (name,)
            self._route_cache = routes
        return dict(self._route_cache)

    def shape_of(self, name: str) -> Shape:
        """Output shape of a single node."""
        return self.infer_shapes()[name]

    def in_channels_of(self, name: str) -> int:
        """Channel count of a single-input node's input tensor."""
        op = self[name]
        if len(op.inputs) != 1:
            raise GraphError(f"'{name}' does not have exactly one input")
        return self.infer_shapes()[op.inputs[0]].channels

    # ------------------------------------------------------------------
    # Mutation (used by frontend passes and rewrites)
    # ------------------------------------------------------------------

    def replace_input(self, node_name: str, old_producer: str, new_producer: str) -> None:
        """Rewire every edge ``old_producer -> node_name`` to the new producer."""
        op = self[node_name]
        if old_producer not in op.inputs:
            raise GraphError(f"'{node_name}' does not consume '{old_producer}'")
        if new_producer not in self._ops:
            raise GraphError(f"new producer '{new_producer}' is not in the graph")
        op.inputs = [new_producer if item == old_producer else item for item in op.inputs]
        self._invalidate()

    def remove(self, name: str) -> Op:
        """Remove a node; it must have no consumers."""
        remaining = self.consumers(name)
        if remaining:
            raise GraphError(f"cannot remove '{name}': still consumed by {remaining}")
        op = self._ops.pop(name)
        self._invalidate()
        return op

    def bypass(self, name: str) -> None:
        """Remove a single-input node, rewiring consumers to its producer."""
        op = self[name]
        if len(op.inputs) != 1:
            raise GraphError(f"cannot bypass '{name}': it has {len(op.inputs)} inputs")
        producer = op.inputs[0]
        for consumer in self.consumers(name):
            self.replace_input(consumer, name, producer)
        self.remove(name)

    def insert_after(self, producer_name: str, new_op: Op) -> Op:
        """Insert ``new_op`` between ``producer_name`` and all its consumers."""
        consumers = self.consumers(producer_name)
        new_op.inputs = [producer_name]
        self.add(new_op)
        for consumer in consumers:
            self.replace_input(consumer, producer_name, new_op.name)
        return new_op

    def unique_name(self, stem: str) -> str:
        """A node name derived from ``stem`` that is unused in the graph."""
        if stem not in self._ops:
            return stem
        index = 1
        while f"{stem}_{index}" in self._ops:
            index += 1
        return f"{stem}_{index}"

    def copy(self, name: Optional[str] = None) -> "Graph":
        """A structural copy; numeric parameter arrays are shared."""
        import copy as _copy

        clone = Graph(name or self.name)
        for op in self._ops.values():
            duplicate = _copy.copy(op)
            duplicate.inputs = list(op.inputs)
            clone._ops[duplicate.name] = duplicate
        return clone

    def _invalidate(self) -> None:
        self._shape_cache = None
        self._route_cache = None
        self._topo_cache = None
        self._base_cache = None

    # ------------------------------------------------------------------
    # Weight materialization
    # ------------------------------------------------------------------

    def initialize_weights(self, seed: int = 0, scale: float = 0.1) -> None:
        """Fill in missing numeric parameters with seeded random values.

        Scheduling only needs geometry, but the functional executor and
        the quantization tests need numbers; this provides reproducible
        synthetic weights (see DESIGN.md, substitutions table).
        """
        rng = np.random.default_rng(seed)
        shapes = self.infer_shapes()
        for name in self.topological_order():
            op = self._ops[name]
            if isinstance(op, Conv2D):
                in_c = shapes[op.inputs[0]].channels
                kh, kw = op.kernel
                if op.weights is None:
                    op.weights = rng.normal(0.0, scale, (kh, kw, in_c, op.out_channels))
                if op.use_bias and op.bias is None:
                    op.bias = rng.normal(0.0, scale, (op.out_channels,))
            elif isinstance(op, Dense):
                in_features = shapes[op.inputs[0]].channels
                if op.weights is None:
                    op.weights = rng.normal(0.0, scale, (in_features, op.units))
                if op.use_bias and op.bias is None:
                    op.bias = rng.normal(0.0, scale, (op.units,))
            elif isinstance(op, BatchNorm):
                channels = shapes[op.inputs[0]].channels
                if op.gamma is None:
                    op.gamma = rng.uniform(0.5, 1.5, (channels,))
                if op.beta is None:
                    op.beta = rng.normal(0.0, scale, (channels,))
                if op.mean is None:
                    op.mean = rng.normal(0.0, scale, (channels,))
                if op.variance is None:
                    op.variance = rng.uniform(0.5, 1.5, (channels,))
            else:
                bias = getattr(op, "bias", None)
                if hasattr(op, "bias") and bias is None:
                    channels = shapes[op.inputs[0]].channels
                    op.bias = rng.normal(0.0, scale, (channels,))

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def summary(self) -> str:
        """Human-readable multi-line description of the graph."""
        shapes = self.infer_shapes()
        lines = [f"Graph '{self.name}': {len(self)} nodes"]
        for name in self.topological_order():
            op = self._ops[name]
            marker = "*" if op.is_base else " "
            producers = ", ".join(op.inputs) if op.inputs else "-"
            lines.append(
                f" {marker} {name:<28} {op.op_type:<14} {str(shapes[name]):<18} <- {producers}"
            )
        lines.append(" (* = base layer)")
        return "\n".join(lines)


def sequential(name: str, ops: Iterable[Op]) -> Graph:
    """Build a graph from a linear chain of operators.

    Each op's ``inputs`` is overwritten to point at the previous op in
    the iterable (the first must be an :class:`Input`).
    """
    graph = Graph(name)
    previous: Optional[str] = None
    for op in ops:
        if previous is None:
            if not isinstance(op, Input):
                raise GraphError("first op of a sequential graph must be an Input")
        else:
            op.inputs = [previous]
        graph.add(op)
        previous = op.name
    return graph
