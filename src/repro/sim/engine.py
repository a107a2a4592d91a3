"""Event-driven system-level simulator.

The analytical schedulers in :mod:`repro.core` compute start times in
one pass under the paper's cost-free forwarding assumption.  This
engine *executes* schedules as a discrete-event simulation, serving two
purposes:

1. **Validation** — replaying a schedule with zero transfer costs must
   reproduce the analytical makespan exactly (asserted in tests, row
   for row against the event-driven reference of ``tests/oracles``).
2. **Cost-model ablation** — with a :class:`~repro.sim.noc_cost.NocCostModel`,
   dependency edges acquire transfer delays and the engine re-schedules
   dynamically, quantifying the paper's future-work concern that data
   movement may erode cross-layer gains.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Optional, Protocol

from ..core.dependencies import DependencyGraph, SetRef
from ..core.kernels import csr_replay
from ..core.pipeline import CompiledModel
from ..core.schedule import Schedule, SetTask


class EdgeCostModel(Protocol):
    """Anything that prices a dependency edge in cycles."""

    def edge_delay_cycles(
        self, producer: SetRef, consumer: SetRef, dependency_graph: DependencyGraph
    ) -> int: ...


@dataclass
class SimulationResult:
    """Outcome of one engine run."""

    schedule: Schedule
    finish_cycles: int
    events_processed: int
    #: Total edge delay charged, in cycle-edges (0 without a cost model).
    total_edge_delay_cycles: int = 0
    #: Per-layer idle cycles between that layer's first start and last end.
    per_layer_stall: dict[str, int] = field(default_factory=dict)

    @property
    def num_tasks(self) -> int:
        return self.schedule.num_tasks


def simulate(
    compiled: CompiledModel,
    cost_model: Optional[EdgeCostModel] = None,
) -> SimulationResult:
    """Execute a compiled model's set graph as a discrete-event simulation.

    Requires a CLSA-CIM compilation (``dependencies`` present).  With no
    cost model the result's ``finish_cycles`` equals the analytical
    schedule's makespan; with a cost model the engine re-schedules with
    per-edge delays (data arrives ``delay`` cycles after the producer
    set completes).

    Without a cost model the replay runs on the columnar CSR kernels
    (:func:`~repro.core.kernels.csr_replay`: the dynamic list scheduler,
    one layer at a time).  A cost model prices every edge, so the event
    loop below serves it: ready sets are served in data-arrival order
    (FIFO forwarding), tie-broken by set index.
    """
    if compiled.dependencies is None:
        raise ValueError(
            "simulate() needs set-level dependencies; compile with "
            "scheduling='clsa-cim' (the layer-by-layer baseline has no set graph)"
        )
    dependency_graph = compiled.dependencies

    if cost_model is None:
        schedule, stalls, events_processed = csr_replay(
            dependency_graph.arrays, compiled.schedule.policy
        )
        return SimulationResult(
            schedule=schedule,
            finish_cycles=schedule.makespan,
            events_processed=events_processed,
            total_edge_delay_cycles=0,
            per_layer_stall=stalls,
        )

    sets = dependency_graph.sets

    remaining: dict[SetRef, int] = {}
    consumers: dict[SetRef, list[SetRef]] = {}
    for ref, preds in dependency_graph.deps.items():
        remaining[ref] = len(preds)
        for pred in preds:
            consumers.setdefault(pred, []).append(ref)

    ready: dict[str, list[tuple[int, int]]] = {layer: [] for layer in sets}
    layer_free: dict[str, int] = {layer: 0 for layer in sets}
    layer_busy: dict[str, bool] = {layer: False for layer in sets}
    data_ready_at: dict[SetRef, int] = {ref: 0 for ref in remaining}
    events: list[tuple[int, str, int]] = []
    tasks: list[SetTask] = []
    total_edge_delay = 0
    events_processed = 0

    def try_start(layer: str, now: int) -> None:
        if layer_busy[layer] or not ready[layer]:
            return
        arrival, set_index = heapq.heappop(ready[layer])
        rect = sets.rect(layer, set_index)
        start = max(now, layer_free[layer], arrival)
        end = start + rect.area
        tasks.append(
            SetTask(layer=layer, set_index=set_index, rect=rect, start=start, end=end)
        )
        layer_busy[layer] = True
        layer_free[layer] = end
        heapq.heappush(events, (end, layer, set_index))

    for ref, count in remaining.items():
        if count == 0:
            heapq.heappush(ready[ref[0]], (0, ref[1]))
    for layer in sets:
        try_start(layer, 0)

    while events:
        now, layer, set_index = heapq.heappop(events)
        events_processed += 1
        layer_busy[layer] = False
        producer_ref = (layer, set_index)
        for consumer_ref in consumers.get(producer_ref, ()):  # deliver data
            delay = cost_model.edge_delay_cycles(
                producer_ref, consumer_ref, dependency_graph
            )
            total_edge_delay += delay
            arrival = now + delay
            data_ready_at[consumer_ref] = max(data_ready_at[consumer_ref], arrival)
            remaining[consumer_ref] -= 1
            if remaining[consumer_ref] == 0:
                heapq.heappush(
                    ready[consumer_ref[0]],
                    (data_ready_at[consumer_ref], consumer_ref[1]),
                )
                try_start(consumer_ref[0], now)
        try_start(layer, now)

    if len(tasks) != dependency_graph.num_sets():  # pragma: no cover
        raise AssertionError(
            f"simulation completed {len(tasks)} of "
            f"{dependency_graph.num_sets()} sets"
        )

    schedule = Schedule(policy=compiled.schedule.policy, tasks=tasks)
    stalls = {
        layer: (span_end - span_start) - busy
        for layer, (span_start, span_end, busy) in schedule.per_layer_stats().items()
    }

    return SimulationResult(
        schedule=schedule,
        finish_cycles=schedule.makespan,
        events_processed=events_processed,
        total_edge_delay_cycles=total_edge_delay,
        per_layer_stall=stalls,
    )
