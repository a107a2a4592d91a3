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

import numpy as np

from ..core.dependencies import DependencyGraph, SetRef
from ..core.kernels import _columns_from, csr_replay
from ..core.pipeline import CompiledModel, dependencies_of
from ..core.schedule import Schedule


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

    Requires a CLSA-CIM compilation (an artifact saved without its
    dependencies reruns Stage II).  With no cost model the result's
    ``finish_cycles`` equals the analytical schedule's makespan; with a
    cost model the engine re-schedules with per-edge delays (data
    arrives ``delay`` cycles after the producer set completes).

    Without a cost model the replay runs on the columnar CSR kernels
    (:func:`~repro.core.kernels.csr_replay`: the dynamic list scheduler,
    one layer at a time).  A cost model prices every edge, so the event
    loop below serves it, over global set ids: ready sets are served in
    data-arrival order (FIFO forwarding), tie-broken by set index, and
    completions pop in ``(end, layer name, set index)`` order.
    """
    dependency_graph = dependencies_of(compiled)
    if dependency_graph is None:
        raise ValueError(
            "simulate() needs set-level dependencies; compile with "
            "scheduling='clsa-cim' (the layer-by-layer baseline has no set graph)"
        )
    arrays = dependency_graph.arrays

    if cost_model is None:
        schedule, stalls, events_processed = csr_replay(arrays, compiled.schedule.policy)
        return SimulationResult(
            schedule=schedule,
            finish_cycles=schedule.makespan,
            events_processed=events_processed,
            total_edge_delay_cycles=0,
            per_layer_stall=stalls,
        )

    n = arrays.num_sets
    layer_of, area = arrays.layer_of.tolist(), arrays.area.tolist()
    lex_rank = arrays.lex_rank.tolist()
    refs = list(zip([arrays.layers[lid] for lid in layer_of], arrays.set_index.tolist()))
    remaining = np.diff(arrays.indptr).tolist()
    # Each set's consumers, in gid order: the edges sorted by producer.
    by_producer = np.argsort(arrays.indices, kind="stable")
    consumers = np.repeat(np.arange(n), remaining)[by_producer].tolist()
    fan_out = np.bincount(arrays.indices, minlength=n)
    first = np.concatenate(([0], np.cumsum(fan_out))).tolist()

    ready: list[list[tuple[int, int]]] = [[] for _ in arrays.layers]  # (arrival, gid)
    layer_free = [0] * arrays.num_layers
    layer_busy = [False] * arrays.num_layers
    data_ready_at = [0] * n
    events: list[tuple[int, int, int]] = []  # (end, lex rank of the layer, gid)
    emit: list[int] = []
    ends: list[int] = []
    total_edge_delay = 0
    events_processed = 0

    def try_start(lid: int, now: int) -> None:
        if layer_busy[lid] or not ready[lid]:
            return
        arrival, gid = heapq.heappop(ready[lid])
        end = max(now, layer_free[lid], arrival) + area[gid]
        emit.append(gid)
        ends.append(end)
        layer_busy[lid] = True
        layer_free[lid] = end
        heapq.heappush(events, (end, lex_rank[lid], gid))

    for gid, count in enumerate(remaining):
        if count == 0:
            heapq.heappush(ready[layer_of[gid]], (0, gid))
    for lid in range(arrays.num_layers):
        try_start(lid, 0)

    while events:
        now, _, gid = heapq.heappop(events)
        events_processed += 1
        layer_busy[layer_of[gid]] = False
        for consumer in consumers[first[gid] : first[gid + 1]]:  # deliver data
            delay = cost_model.edge_delay_cycles(refs[gid], refs[consumer], dependency_graph)
            total_edge_delay += delay
            data_ready_at[consumer] = max(data_ready_at[consumer], now + delay)
            remaining[consumer] -= 1
            if remaining[consumer] == 0:
                heapq.heappush(ready[layer_of[consumer]], (data_ready_at[consumer], consumer))
                try_start(layer_of[consumer], now)
        try_start(layer_of[gid], now)

    if len(emit) != n:  # pragma: no cover
        raise AssertionError(f"simulation completed {len(emit)} of {n} sets")

    rows = np.asarray(emit, dtype=np.int64)
    end = np.asarray(ends, dtype=np.int64)
    schedule = Schedule(
        policy=compiled.schedule.policy,
        columns=_columns_from(arrays, rows, end - arrays.area[rows], end),
    )
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
