"""Layer-by-layer inference baseline (Sec. II-B of the paper).

The SOTA baseline against which CLSA-CIM is measured: a base layer may
start only after every base layer feeding it (through any non-base
path) has computed its *entire* OFM.  Intra-layer scheduling still
applies inside each layer (all the layer's PEs work in parallel, one
OFM vector per cycle), and weight-duplicated siblings execute
concurrently because they are independent base nodes — exactly the
``wdup`` configuration of Fig. 6(a).
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from ..ir.graph import Graph
from ..ir.tensor import Rect, Shape
from .kernels import gid_columns
from .schedule import Schedule, ScheduleColumns
from .sets import SetPartition


def layer_by_layer_schedule(
    graph: Graph, sets: Mapping[str, list[Rect]] | None = None
) -> Schedule:
    """Whole-layer-granularity schedule of a canonical graph.

    Parameters
    ----------
    graph:
        Canonical, possibly duplication-rewritten model.
    sets:
        Optional Stage I partition (or plain mapping of ``Rect``
        lists, converted once); when given, each layer's block of time
        is subdivided into per-set tasks (back to back, row-major) so
        traces are comparable with CLSA-CIM schedules.  When omitted,
        each layer is one task covering its whole OFM.

    Returns
    -------
    Schedule
        Makespan equals the sum over the critical path of whole-layer
        latencies ``t_OFM = OH * OW`` (cycles).  The schedule is
        columnar: one row per set, in layer order.
    """
    shapes = graph.infer_shapes()
    ready = _ReadyTimes(graph, shapes)
    layers = graph.base_layers()
    if sets is None:
        offsets = np.arange(len(layers) + 1, dtype=np.int64)
        coords = np.zeros((4, len(layers)), dtype=np.int64)
        coords[2] = [shapes[layer].height for layer in layers]
        coords[3] = [shapes[layer].width for layer in layers]
    else:
        partition = SetPartition.of(sets)
        if partition.layers != tuple(layers):  # rows follow the graph's layer order
            partition = SetPartition(layers, [partition.block(layer) for layer in layers])
        offsets, coords = partition.offsets, partition.coords
    area = (coords[2] - coords[0]) * (coords[3] - coords[1])
    done = np.concatenate(([0], np.cumsum(area)))  # work before each row
    layer_start = []
    for layer, busy in zip(layers, np.diff(done[offsets]).tolist()):
        start = ready.start(layer)
        ready.end[layer] = start + busy
        layer_start.append(start)
    # A layer's sets run back to back from the layer's start.
    shift = np.asarray(layer_start, dtype=np.int64) - done[offsets[:-1]]
    end = np.repeat(shift, np.diff(offsets)) + done[1:]
    layer_id, set_index = gid_columns(offsets)
    r0, c0, r1, c1 = coords.astype(np.int32)
    return Schedule(
        policy="layer-by-layer",
        columns=ScheduleColumns(
            layers=tuple(layers),
            layer_id=layer_id,
            set_index=set_index,
            start=end - area,
            end=end,
            image=np.zeros(len(area), dtype=np.int32),
            r0=r0,
            c0=c0,
            r1=r1,
            c1=c1,
        ),
    )


class _ReadyTimes:
    """When each base layer may start: the latest end among its producers.

    A layer's producers are the base layers its whole-OFM input
    regions reach along :meth:`~repro.ir.graph.Graph.routes`, walked
    with the scalar rules; a region clipped to empty reaches nothing.
    Layers start in topological order, so every end a walk reaches is
    known when it is asked for.
    """

    __slots__ = ("graph", "shapes", "routes", "end")

    def __init__(self, graph: Graph, shapes: dict[str, Shape]) -> None:
        self.graph = graph
        self.shapes = shapes
        self.routes = graph.routes()
        self.end: dict[str, int] = {}  # base layer -> its end, set by the caller

    def start(self, layer: str) -> int:
        """The latest end among the producers of base layer ``layer`` (0: none)."""
        return self._latest(layer, self.shapes[layer].full_rect())

    def _latest(self, name: str, rect: Rect) -> int:
        """The latest end among the base layers that ``rect`` of ``name``'s
        output reads, through ``name``'s rule and the routes of its inputs."""
        graph, shapes = self.graph, self.shapes
        op = graph[name]
        latest = 0
        needed = op.input_regions(rect, [shapes[p] for p in op.inputs], shapes[name])
        for producer, region in zip(op.inputs, needed):
            if region.is_empty():
                continue
            for node in self.routes[producer]:
                end = self.end[node] if graph[node].is_base else self._latest(node, region)
                if end > latest:
                    latest = end
        return latest
