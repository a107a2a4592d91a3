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

import numpy as np

from ..ir.graph import Graph
from ..ir.ops import rect_columns
from ..ir.tensor import Rect
from .dependencies import layer_level_dependencies
from .kernels import gid_columns, set_offsets
from .schedule import Schedule, ScheduleColumns


def layer_by_layer_schedule(
    graph: Graph, sets: dict[str, list[Rect]] | None = None
) -> Schedule:
    """Whole-layer-granularity schedule of a canonical graph.

    Parameters
    ----------
    graph:
        Canonical, possibly duplication-rewritten model.
    sets:
        Optional Stage I partition; when given, each layer's block of
        time is subdivided into per-set tasks (back to back, row-major)
        so traces are comparable with CLSA-CIM schedules.  When
        omitted, each layer is one task covering its whole OFM.

    Returns
    -------
    Schedule
        Makespan equals the sum over the critical path of whole-layer
        latencies ``t_OFM = OH * OW`` (cycles).  The schedule is
        columnar: one row per set, in layer order.
    """
    shapes = graph.infer_shapes()
    preds = layer_level_dependencies(graph)
    layers = graph.base_layers()
    per_layer = [
        sets[layer] if sets is not None else [shapes[layer].full_rect()] for layer in layers
    ]
    offsets = set_offsets(map(len, per_layer))
    coords = rect_columns([rect for rects in per_layer for rect in rects])
    area = (coords[2] - coords[0]) * (coords[3] - coords[1])
    done = np.concatenate(([0], np.cumsum(area)))  # work before each row
    layer_end: dict[str, int] = {}
    layer_start = []
    for layer, busy in zip(layers, np.diff(done[offsets]).tolist()):
        start = max((layer_end[p] for p in preds[layer]), default=0)
        layer_end[layer] = start + busy
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
