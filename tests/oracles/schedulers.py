"""Pure-Python reference schedulers for Stage IV (Sec. IV-4).

The identity tests and ``benchmarks/bench_kernels.py`` compare the
columnar kernels of :mod:`repro.core.kernels` with these loops row for
row: the static scheduler (fixed Stage III order), the dynamic
ready-order list scheduler, and the batch pipeline.  They walk the
dict view of a :class:`~repro.core.dependencies.DependencyGraph`
(:func:`~oracles.dependencies.deps_dict`; the dynamic and batch loops
take one built before as ``deps``) and allocate one
:class:`~repro.core.schedule.SetTask` per set.

The cross-layer scheduler assigns every OFM set its *earliest feasible
start*: a set may begin once (a) the previous set of the same layer has
released the layer's PEs (resource dependency, Stage III order) and
(b) every required predecessor set has completed (data dependency,
Stage II).  Because set-level data dependencies always point from
topologically earlier base layers to later ones, a single pass over the
layers in graph topological order — visiting each layer's sets in
intra-layer order — computes the optimal start times directly.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.core.batch import BatchScheduleResult
from repro.core.dependencies import DependencyGraph, SetRef
from repro.core.schedule import Schedule, SetTask
from repro.ir.graph import Graph

from .dependencies import deps_dict

#: A (image, layer, set index) triple identifying a batched set.
BatchRef = tuple[int, str, int]


def cross_layer_schedule(
    graph: Graph,
    dependency_graph: DependencyGraph,
    order: dict[str, list[int]],
) -> Schedule:
    """Stage IV: earliest-feasible-start schedule of all sets.

    Parameters
    ----------
    graph:
        Canonical, possibly duplication-rewritten model.
    dependency_graph:
        Stage II output over the same graph.
    order:
        Stage III output: per-layer execution order of set indices.

    Returns
    -------
    Schedule
        One :class:`SetTask` per OFM set; makespan is the inference
        latency in cycles.
    """
    sets = dependency_graph.sets
    deps = deps_dict(dependency_graph)
    end_of: dict[SetRef, int] = {}
    tasks: list[SetTask] = []
    for layer in graph.base_layers():
        pe_free_at = 0  # the layer's PEs become available at this cycle
        for position, set_index in enumerate(order[layer]):
            rect = sets[layer][set_index]
            data_ready = 0
            for ref in deps[(layer, set_index)]:
                if ref not in end_of:
                    raise AssertionError(
                        f"dependency {ref} of ({layer}, {set_index}) not yet "
                        "scheduled; the graph is not in topological order"
                    )
                data_ready = max(data_ready, end_of[ref])
            start = max(pe_free_at, data_ready)
            end = start + rect.area
            tasks.append(
                SetTask(
                    layer=layer,
                    set_index=set_index,
                    rect=rect,
                    start=start,
                    end=end,
                )
            )
            end_of[(layer, set_index)] = end
            pe_free_at = end
    return Schedule(policy="clsa-cim", tasks=tasks)


def cross_layer_schedule_dynamic(
    graph: Graph,
    dependency_graph: DependencyGraph,
    deps: Optional[dict[SetRef, list[SetRef]]] = None,
) -> Schedule:
    """Stage IV with ready-order (dynamic) intra-layer sequencing.

    Instead of a fixed Stage III order, each layer greedily executes
    whichever of its sets has all data dependencies satisfied (ties
    broken row-major).  This matters with weight duplication: a
    producer's stripes emit rows in parallel, so a consumer bound to
    strict row-major order would stall on one stripe's tail while other
    stripes' data sits ready.  Ready-order sequencing rate-matches
    producer and consumer and realizes the paper's *maximum achievable*
    utilization (Sec. V); the static variant remains available as an
    ablation (``ScheduleOptions(order_mode='static')``).

    Implementation: discrete-event list scheduling.  Every set keeps a
    countdown of unfinished dependencies; completed sets wake their
    consumers; an idle layer starts its lowest-indexed ready set.
    """
    sets = dependency_graph.sets
    if deps is None:
        deps = deps_dict(dependency_graph)
    remaining: dict[SetRef, int] = {}
    consumers: dict[SetRef, list[SetRef]] = {}
    for ref, preds in deps.items():
        remaining[ref] = len(preds)
        for pred in preds:
            consumers.setdefault(pred, []).append(ref)

    ready: dict[str, list[int]] = {layer: [] for layer in sets}  # min-heaps of set ids
    layer_free: dict[str, int] = {layer: 0 for layer in sets}
    layer_busy: dict[str, bool] = {layer: False for layer in sets}
    events: list[tuple[int, str, int]] = []  # (end time, layer, set index)
    tasks: list[SetTask] = []

    def try_start(layer: str, now: int) -> None:
        if layer_busy[layer] or not ready[layer]:
            return
        set_index = heapq.heappop(ready[layer])
        rect = sets[layer][set_index]
        start = max(now, layer_free[layer])
        end = start + rect.area
        tasks.append(
            SetTask(layer=layer, set_index=set_index, rect=rect, start=start, end=end)
        )
        layer_busy[layer] = True
        layer_free[layer] = end
        heapq.heappush(events, (end, layer, set_index))

    for (layer, set_index), count in remaining.items():
        if count == 0:
            heapq.heappush(ready[layer], set_index)
    for layer in sets:
        try_start(layer, 0)

    while events:
        now, layer, set_index = heapq.heappop(events)
        layer_busy[layer] = False
        for consumer in consumers.get((layer, set_index), ()):  # wake dependents
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                heapq.heappush(ready[consumer[0]], consumer[1])
                try_start(consumer[0], now)
        try_start(layer, now)

    scheduled = len(tasks)
    total = dependency_graph.num_sets()
    if scheduled != total:  # pragma: no cover - guards dependency cycles
        raise AssertionError(
            f"dynamic scheduler placed {scheduled} of {total} sets; "
            "the set dependency graph is cyclic or disconnected"
        )
    return Schedule(policy="clsa-cim", tasks=tasks)


def reference_batch_schedule(
    graph: Graph,
    dependency_graph: DependencyGraph,
    batch_size: int,
    validate: bool = True,
    deps: Optional[dict[SetRef, list[SetRef]]] = None,
) -> BatchScheduleResult:
    """Stage IV extended to ``batch_size`` pipelined inferences.

    Every image carries the full set-dependency graph; all images of a
    layer share the layer's PEs (one set at a time).  Ready sets are
    served earliest-image-first (FIFO across the batch), tie-broken by
    set index.  Runs the static verifier's dependency/exclusivity
    checks unless ``validate=False``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    sets = dependency_graph.sets
    if deps is None:
        deps = deps_dict(dependency_graph)

    remaining: dict[BatchRef, int] = {}
    consumers: dict[BatchRef, list[BatchRef]] = {}
    for (layer, index), preds in deps.items():
        for image in range(batch_size):
            ref = (image, layer, index)
            remaining[ref] = len(preds)
            for pred_layer, pred_index in preds:
                consumers.setdefault((image, pred_layer, pred_index), []).append(ref)

    ready: dict[str, list[tuple[int, int]]] = {layer: [] for layer in sets}
    layer_free: dict[str, int] = {layer: 0 for layer in sets}
    layer_busy: dict[str, bool] = {layer: False for layer in sets}
    events: list[tuple[int, int, str, int]] = []  # (end, image, layer, set)
    tasks: list[SetTask] = []

    def try_start(layer: str, now: int) -> None:
        if layer_busy[layer] or not ready[layer]:
            return
        image, set_index = heapq.heappop(ready[layer])
        rect = sets[layer][set_index]
        start = max(now, layer_free[layer])
        end = start + rect.area
        tasks.append(
            SetTask(
                layer=layer,
                set_index=set_index,
                rect=rect,
                start=start,
                end=end,
                image=image,
            )
        )
        layer_busy[layer] = True
        layer_free[layer] = end
        heapq.heappush(events, (end, image, layer, set_index))

    for (image, layer, index), count in remaining.items():
        if count == 0:
            heapq.heappush(ready[layer], (image, index))
    for layer in sets:
        try_start(layer, 0)

    while events:
        now, image, layer, set_index = heapq.heappop(events)
        layer_busy[layer] = False
        for consumer in consumers.get((image, layer, set_index), ()):
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                heapq.heappush(ready[consumer[1]], (consumer[0], consumer[2]))
                try_start(consumer[1], now)
        try_start(layer, now)

    expected = dependency_graph.num_sets() * batch_size
    if len(tasks) != expected:  # pragma: no cover - cycle guard
        raise AssertionError(f"batch scheduler placed {len(tasks)} of {expected} sets")

    first = [None] * batch_size
    last = [0] * batch_size
    for task in tasks:  # one pass over all images' tasks
        image = task.image
        if first[image] is None or task.start < first[image]:
            first[image] = task.start
        if task.end > last[image]:
            last[image] = task.end
    spans = list(zip(first, last))
    schedule = Schedule(policy=f"clsa-cim-batch{batch_size}", tasks=tasks)
    result = BatchScheduleResult(
        schedule=schedule,
        batch_size=batch_size,
        makespan=schedule.makespan,
        image_spans=spans,
    )
    if validate:
        from repro.verify.hazards import assert_batch_schedule

        assert_batch_schedule(result, dependency_graph)
    return result
