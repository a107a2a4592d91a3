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

from dataclasses import dataclass, field

from ..ir.graph import Graph
from .dependencies import DependencyGraph
from .kernels import csr_batch_schedule
from .schedule import Schedule


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
    validate: bool = True,
) -> BatchScheduleResult:
    """Stage IV extended to ``batch_size`` pipelined inferences.

    Every image carries the full set-dependency graph; all images of a
    layer share the layer's PEs (one set at a time).  Ready sets are
    served earliest-image-first (FIFO across the batch), tie-broken by
    set index, which keeps per-image latency close to the single-image
    schedule while filling idle PE time with later images.

    Runs the columnar kernel of :mod:`repro.core.kernels`, including
    the static verifier's cheap dependency/exclusivity checks unless
    ``validate=False``.
    """
    schedule, spans = csr_batch_schedule(
        dependency_graph.arrays, batch_size, validate=validate
    )
    return BatchScheduleResult(
        schedule=schedule,
        batch_size=batch_size,
        makespan=schedule.makespan,
        image_spans=spans,
    )
