"""Optional data-movement cost model (the paper's Sec. V-C future work).

The paper's headline results assume partial-result forwarding is free;
Section V-C acknowledges that "depending on the topology, forwarding
partial results may incur varying costs".  This module quantifies that
sensitivity: every set-level dependency edge is charged the NoC latency
of moving the producer set's payload from the producer's tile to the
consumer's tile (XY-routed mesh), optionally bouncing through global
DRAM when the payload exceeds the consumer's input buffer.  An optional
GPEU term charges the non-base operations between the two layers.

Used by :func:`repro.sim.engine.simulate` to re-schedule with edge
delays, and by the ablation benchmark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arch.noc import MeshNoc
from ..core.dependencies import DependencyGraph, SetRef
from ..core.sets import SetPartition
from ..ir.graph import Graph
from ..mapping.placement import Placement


@dataclass(frozen=True)
class CostModelConfig:
    """Knobs of the data-movement cost model."""

    #: Bytes per activation element (quantized activations).
    bytes_per_element: int = 1
    #: Charge DRAM round trips for payloads exceeding the input buffer.
    model_buffer_spills: bool = True
    #: Charge GPEU time for non-base ops (elements / throughput cycles).
    model_gpeu: bool = False

    def __post_init__(self) -> None:
        if self.bytes_per_element < 1:
            raise ValueError("bytes_per_element must be >= 1")


class NocCostModel:
    """Per-dependency-edge delay in cycles.

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


class ZeroCostModel:
    """The paper's headline assumption: forwarding is free."""

    def edge_delay_cycles(
        self, producer: SetRef, consumer: SetRef, dependency_graph: DependencyGraph
    ) -> int:
        return 0
