"""System-level simulator: replay a compiled set graph, free or priced.

The analytical schedulers in :mod:`repro.core` compute start times in
one pass under the paper's cost-free forwarding assumption.  This
module *replays* the set graph, serving two purposes:

1. **Validation** — replaying a schedule with zero transfer costs must
   reproduce the analytical makespan exactly (asserted in tests, row
   for row against the event-driven reference of ``tests/oracles``).
2. **Cost-model ablation** — with a :class:`~repro.sim.noc_cost.NocCostModel`,
   dependency edges acquire transfer delays and the replay re-schedules
   dynamically, quantifying the paper's future-work concern that data
   movement may erode cross-layer gains.

Both run on the one Stage IV pass, :func:`~repro.core.kernels.csr_replay`;
a cost model contributes one column of edge delays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

import numpy as np

from ..core.kernels import SetGraphArrays, csr_replay
from ..core.pipeline import CompiledModel, dependencies_of
from ..core.schedule import Schedule


class EdgeCostModel(Protocol):
    """Anything that prices the dependency edges of a set graph in cycles."""

    def edge_delays(self, arrays: SetGraphArrays) -> np.ndarray:
        """Non-negative integer delays, one per edge, aligned with
        ``arrays.indices``."""
        ...


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
    """Replay a compiled model's set graph, one completion event per set.

    Requires a CLSA-CIM compilation (an artifact saved without its
    dependencies reruns Stage II).  With no cost model the result's
    ``finish_cycles`` equals the analytical schedule's makespan: the
    replay is the dynamic list scheduler.  A cost model prices every
    edge (:meth:`EdgeCostModel.edge_delays`): data arrives ``delay``
    cycles after the producer set completes, and each layer serves its
    ready sets in data-arrival order (FIFO forwarding), tie-broken by
    set index.  Both are :func:`~repro.core.kernels.csr_replay`, one
    layer at a time.

    Raises ``ValueError`` if the cost model's delays are not an integer
    array with one non-negative delay per edge.
    """
    dependency_graph = dependencies_of(compiled)
    if dependency_graph is None:
        raise ValueError(
            "simulate() needs set-level dependencies; compile with "
            "scheduling='clsa-cim' (the layer-by-layer baseline has no set graph)"
        )
    arrays = dependency_graph.arrays
    delays = None if cost_model is None else _delay_column(cost_model, arrays)
    schedule, stalls, events_processed = csr_replay(
        arrays, compiled.schedule.policy, delays
    )
    return SimulationResult(
        schedule=schedule,
        finish_cycles=schedule.makespan,
        events_processed=events_processed,
        total_edge_delay_cycles=0 if delays is None else int(delays.sum()),
        per_layer_stall=stalls,
    )


def _delay_column(cost_model: EdgeCostModel, arrays: SetGraphArrays) -> np.ndarray:
    """``cost_model``'s edge delays as int64, or ``ValueError``."""
    delays = cost_model.edge_delays(arrays)
    name = f"{type(cost_model).__name__}.edge_delays"
    if not isinstance(delays, np.ndarray) or not np.issubdtype(delays.dtype, np.integer):
        raise ValueError(
            f"{name} must return an integer array, not "
            f"{getattr(delays, 'dtype', type(delays).__name__)}"
        )
    if delays.shape != (arrays.num_edges,):
        raise ValueError(
            f"{name} returned shape {delays.shape} for {arrays.num_edges} edges"
        )
    delays = delays.astype(np.int64, copy=False)
    negative = int(np.count_nonzero(delays < 0))
    if negative:
        raise ValueError(
            f"{name} returned {negative} negative delay(s); data cannot "
            "arrive before its producer set ends"
        )
    return delays
