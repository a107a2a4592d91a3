"""Reference cost-model simulator: the discrete-event loop, priced edge by edge.

:func:`repro.sim.simulate` with a cost model replays the set graph on
the per-layer Stage IV pass (:func:`repro.core.kernels.csr_replay`),
from one column of edge delays.  The identity tests and
``benchmarks/bench_kernels.py`` compare it with the loop below, row for
row: a global event heap over set ids, where every completion delivers
data to its consumers and each edge is priced by one
``edge_delay_cycles(producer, consumer, dependency_graph)`` call.
:class:`ScalarNocCostModel` is the NoC cost model in that scalar form
(one ``Rect`` per priced edge), and :class:`ColumnCostModel` prices
each edge from a given delay column.
"""

from __future__ import annotations

import heapq
import math

import numpy as np

from repro.arch.noc import MeshNoc
from repro.core.dependencies import DependencyGraph, SetRef
from repro.core.kernels import _columns_from
from repro.core.schedule import Schedule
from repro.core.sets import SetPartition
from repro.ir.graph import Graph
from repro.mapping.placement import Placement
from repro.sim.engine import SimulationResult
from repro.sim.noc_cost import CostModelConfig


class ScalarNocCostModel:
    """Per-dependency-edge delay in cycles, one edge per call.

    The delay of edge ``(producer set) -> (consumer set)`` is the NoC
    transfer latency of the producer set's payload between the two
    layers' home tiles, converted to t_MVM cycles (rounded up).
    """

    def __init__(
        self,
        graph: Graph,
        placement: Placement,
        config: CostModelConfig = CostModelConfig(),
    ) -> None:
        self.graph = graph
        self.placement = placement
        self.config = config
        self.arch = placement.arch
        self.noc: MeshNoc = self.arch.build_noc()
        self._shapes = graph.infer_shapes()
        # Home tile of a layer: the tile hosting its first PE.
        self._home_tile = {
            layer: self.placement.tiles_of(layer)[0]
            for layer in self.placement.pe_ranges
        }
        self._channels = {
            layer: self._shapes[layer].channels for layer in self.placement.pe_ranges
        }

    def payload_bytes(self, producer: SetRef, sets: SetPartition) -> int:
        """Bytes of one producer set's output (rect area x channels)."""
        layer, index = producer
        rect = sets.rect(layer, index)
        return rect.area * self._channels[layer] * self.config.bytes_per_element

    def edge_delay_cycles(
        self, producer: SetRef, consumer: SetRef, dependency_graph: DependencyGraph
    ) -> int:
        """Delay in cycles charged on one dependency edge."""
        src = self._home_tile[producer[0]]
        dst = self._home_tile[consumer[0]]
        payload = self.payload_bytes(producer, dependency_graph.sets)
        latency_ns = self.noc.transfer_latency_ns(src, dst, payload)
        if (
            self.config.model_buffer_spills
            and payload > self.arch.tile.input_buffer_bytes
        ):
            latency_ns += self.noc.dram_round_trip_ns(payload)
        if self.config.model_gpeu:
            latency_ns += self._gpeu_ns(payload)
        return math.ceil(latency_ns / self.arch.t_mvm_ns)

    def _gpeu_ns(self, payload_bytes: int) -> float:
        """Crude GPEU occupancy: elements / throughput, in nanoseconds."""
        elements = payload_bytes / self.config.bytes_per_element
        cycles = elements / self.arch.tile.gpeu.throughput_per_cycle
        return cycles * self.arch.t_mvm_ns


class ColumnCostModel:
    """Prices each edge of ``dependency_graph``, one edge per call, from
    a delay column aligned with its CSR ``indices``."""

    def __init__(self, dependency_graph: DependencyGraph, delays: np.ndarray) -> None:
        arrays = dependency_graph.arrays
        consumers = np.repeat(np.arange(arrays.num_sets), np.diff(arrays.indptr))
        self._delay_of = dict(
            zip(zip(arrays.indices.tolist(), consumers.tolist()), np.asarray(delays).tolist())
        )
        self._arrays = arrays

    def edge_delay_cycles(
        self, producer: SetRef, consumer: SetRef, dependency_graph: DependencyGraph
    ) -> int:
        return self._delay_of[(self._arrays.gid(*producer), self._arrays.gid(*consumer))]


def scalar_edge_delays(cost_model, dependency_graph: DependencyGraph) -> np.ndarray:
    """``cost_model.edge_delay_cycles`` of every CSR edge, aligned with
    ``dependency_graph.arrays.indices``."""
    arrays = dependency_graph.arrays
    refs = list(zip([arrays.layers[lid] for lid in arrays.layer_of], arrays.set_index.tolist()))
    consumers = np.repeat(np.arange(arrays.num_sets), np.diff(arrays.indptr))
    return np.array(
        [
            cost_model.edge_delay_cycles(refs[producer], refs[consumer], dependency_graph)
            for producer, consumer in zip(arrays.indices.tolist(), consumers.tolist())
        ],
        dtype=np.int64,
    )


def reference_simulate(
    dependency_graph: DependencyGraph, cost_model, policy: str = "clsa-cim"
) -> SimulationResult:
    """Execute the set graph as a discrete-event simulation with priced edges.

    Data arrives ``delay`` cycles after the producer set completes.  The
    loop runs over global set ids: ready sets are served in
    data-arrival order (FIFO forwarding), tie-broken by set index, and
    completions pop in ``(end, layer name, set index)`` order.
    """
    arrays = dependency_graph.arrays
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
        policy=policy,
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
