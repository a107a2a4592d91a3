"""Batch (multi-inference) cross-layer scheduling.

The paper observes that "the utilization of the architecture for a
single NN inference usually remains below 10 %" because late layers own
many PEs but little work.  With stationary weights, consecutive
inferences can be *pipelined*: image ``b``'s layer may start as soon as
its data dependencies for image ``b`` are met and the layer's PEs are
free from image ``b-1`` — no remapping is needed.  This module extends
Stage IV to a batch of inferences, exposing the steady-state throughput
and the utilization ceiling the architecture can actually reach.

This is an *extension* beyond the paper's single-inference evaluation
(its future-work direction of higher utilization), kept separate from
the core pipeline so the reproduction path stays faithful.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

from ..ir.graph import Graph
from .dependencies import DependencyGraph
from .kernels import ENGINES, csr_batch_schedule
from .schedule import Schedule, SetTask

#: A (image, layer, set index) triple identifying a batched set.
BatchRef = tuple[int, str, int]


@dataclass
class BatchScheduleResult:
    """Outcome of a batched CLSA-CIM run.

    Attributes
    ----------
    schedule:
        All tasks of all images (``SetTask.image`` identifies the
        inference).
    batch_size:
        Number of pipelined inferences.
    makespan:
        Cycles until the last image completes.
    image_spans:
        Per image, the (first start, last end) cycle interval.
    """

    schedule: Schedule
    batch_size: int
    makespan: int
    image_spans: list[tuple[int, int]] = field(default_factory=list)

    @property
    def steady_state_interval(self) -> float:
        """Average cycles per image once the pipeline is warm.

        Computed as ``(end_B - end_1) / (B - 1)`` for batch size B > 1;
        equals the makespan for B = 1.
        """
        if self.batch_size == 1:
            return float(self.makespan)
        first_end = self.image_spans[0][1]
        last_end = self.image_spans[-1][1]
        return (last_end - first_end) / (self.batch_size - 1)

    def throughput_images_per_ms(self, t_mvm_ns: float) -> float:
        """Steady-state throughput in images per millisecond."""
        return 1e6 / (self.steady_state_interval * t_mvm_ns)


def cross_layer_schedule_batch(
    graph: Graph,
    dependency_graph: DependencyGraph,
    batch_size: int,
    engine: str = "csr",
    validate: bool = True,
) -> BatchScheduleResult:
    """Stage IV extended to ``batch_size`` pipelined inferences.

    Every image carries the full set-dependency graph; all images of a
    layer share the layer's PEs (one set at a time).  Ready sets are
    served earliest-image-first (FIFO across the batch), tie-broken by
    set index, which keeps per-image latency close to the single-image
    schedule while filling idle PE time with later images.

    ``engine='csr'`` (default) runs the columnar kernel of
    :mod:`repro.core.kernels`; ``engine='python'`` the reference
    implementation below.  Both produce identical schedules, and both
    run the static verifier's cheap dependency/exclusivity checks
    unless ``validate=False``.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if engine not in ENGINES:
        raise ValueError(f"engine must be one of {ENGINES}, got {engine!r}")
    if engine == "csr":
        schedule, spans = csr_batch_schedule(
            dependency_graph.arrays, batch_size, validate=validate
        )
        return BatchScheduleResult(
            schedule=schedule,
            batch_size=batch_size,
            makespan=schedule.makespan,
            image_spans=spans,
        )
    sets = dependency_graph.sets

    remaining: dict[BatchRef, int] = {}
    consumers: dict[BatchRef, list[BatchRef]] = {}
    for (layer, index), preds in dependency_graph.deps.items():
        for image in range(batch_size):
            ref = (image, layer, index)
            remaining[ref] = len(preds)
            for pred_layer, pred_index in preds:
                consumers.setdefault((image, pred_layer, pred_index), []).append(ref)

    ready: dict[str, list[tuple[int, int]]] = {layer: [] for layer in sets}
    layer_free: dict[str, int] = {layer: 0 for layer in sets}
    layer_busy: dict[str, bool] = {layer: False for layer in sets}
    events: list[tuple[int, int, str, int]] = []  # (end, image, layer, set)
    schedule = Schedule(policy=f"clsa-cim-batch{batch_size}")

    def try_start(layer: str, now: int) -> None:
        if layer_busy[layer] or not ready[layer]:
            return
        image, set_index = heapq.heappop(ready[layer])
        rect = sets[layer][set_index]
        start = max(now, layer_free[layer])
        end = start + rect.area
        schedule.tasks.append(
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
    if len(schedule.tasks) != expected:  # pragma: no cover - cycle guard
        raise AssertionError(
            f"batch scheduler placed {len(schedule.tasks)} of {expected} sets"
        )

    first = [None] * batch_size
    last = [0] * batch_size
    for task in schedule.tasks:  # one pass over all images' tasks
        image = task.image
        if first[image] is None or task.start < first[image]:
            first[image] = task.start
        if task.end > last[image]:
            last[image] = task.end
    spans = list(zip(first, last))
    result = BatchScheduleResult(
        schedule=schedule,
        batch_size=batch_size,
        makespan=schedule.makespan,
        image_spans=spans,
    )
    if validate:
        from ..verify.hazards import assert_batch_schedule

        assert_batch_schedule(result, dependency_graph)
    return result


def validate_batch_schedule(
    result: BatchScheduleResult, dependency_graph: DependencyGraph
) -> None:
    """Deprecated shim over :func:`repro.verify.assert_batch_schedule`.

    Resource exclusivity and per-image data dependencies are now
    asserted by the unified static verifier.
    """
    from ..exec.runtime import warn_deprecated
    from ..verify.hazards import assert_batch_schedule

    warn_deprecated(
        "core.batch.validate_batch_schedule",
        "repro.verify.assert_batch_schedule (or Session.verify)",
    )
    assert_batch_schedule(result, dependency_graph)
