"""Critical-path extraction from schedules.

Answers "what limits this schedule's latency?": starting from the
last-finishing set, walk backwards through whichever constraint was
*binding* at each step — a data dependency whose producer finished
exactly when the set became ready, or the layer's own previous set
(resource dependency).  The per-layer summary shows where latency
accumulates, which is how the duplication-axis and ordering issues in
this reproduction were diagnosed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.pipeline import CompiledModel, dependencies_of
from ..verify.hazards import covering_table


@dataclass(frozen=True)
class CriticalStep:
    """One task on the critical path."""

    layer: str
    set_index: int
    start: int
    end: int
    #: 'data' (bound by a producer set), 'resource' (bound by the same
    #: layer's previous set) or 'source' (started at its ready time).
    bound_by: str


def critical_path(compiled: CompiledModel, max_steps: int = 100_000) -> list[CriticalStep]:
    """The chain of binding tasks ending at the schedule's makespan.

    Requires a CLSA-CIM compilation (set-level dependencies present).
    Returned in execution order (earliest step first).  A data
    dependency binds before the layer's previous set; among binding
    producers the first in Stage II order wins.
    """
    dependencies = dependencies_of(compiled)
    if dependencies is None:
        raise ValueError("critical_path needs a CLSA-CIM compilation")
    arrays = dependencies.arrays
    table = covering_table(arrays, compiled.schedule.columns())
    emitted = table.row_gid
    # A set's layer predecessor: the set before it in start order (ties
    # in emission order), or -1 for its layer's first.
    by_start = emitted[np.lexsort((table.start[emitted], arrays.layer_of[emitted]))]
    previous = np.full(arrays.num_sets, -1, dtype=np.int64)
    same_layer = arrays.layer_of[by_start[1:]] == arrays.layer_of[by_start[:-1]]
    previous[by_start[1:][same_layer]] = by_start[:-1][same_layer]

    layer_of, set_index = arrays.layer_of.tolist(), arrays.set_index.tolist()
    indptr, indices = arrays.indptr.tolist(), arrays.indices.tolist()
    start, end, previous = table.start.tolist(), table.end.tolist(), previous.tolist()
    steps: list[CriticalStep] = []
    gid = int(emitted[np.argmax(table.end[emitted])])  # the first row to end last
    for _ in range(max_steps):
        ready = start[gid]
        producer = next(
            (pred for pred in indices[indptr[gid] : indptr[gid + 1]] if end[pred] == ready), -1
        )
        if producer >= 0:
            bound_by, after = "data", producer
        elif previous[gid] >= 0 and end[previous[gid]] == ready:
            bound_by, after = "resource", previous[gid]
        else:
            bound_by, after = "source", -1
        steps.append(
            CriticalStep(
                arrays.layers[layer_of[gid]], set_index[gid], ready, end[gid], bound_by
            )
        )
        if after < 0:
            break
        gid = after
    steps.reverse()
    return steps


def critical_layer_summary(
    compiled: CompiledModel, steps: list[CriticalStep] | None = None
) -> dict[str, int]:
    """Cycles each *original* layer contributes to the critical path."""
    if steps is None:
        steps = critical_path(compiled)
    totals: dict[str, int] = {}
    for step in steps:
        origin = compiled.origin_of_layer(step.layer)
        totals[origin] = totals.get(origin, 0) + (step.end - step.start)
    return totals


def format_critical_path(compiled: CompiledModel, limit: int = 20) -> str:
    """Human-readable critical-path report (top contributors first)."""
    steps = critical_path(compiled)
    summary = critical_layer_summary(compiled, steps)
    total = sum(summary.values())
    lines = [
        f"critical path: {len(steps)} steps, {total} cycles "
        f"(makespan {compiled.latency_cycles})"
    ]
    ranked = sorted(summary.items(), key=lambda item: -item[1])
    for layer, cycles in ranked[:limit]:
        share = 100.0 * cycles / total if total else 0.0
        lines.append(f"  {layer:<28} {cycles:>8} cycles  {share:5.1f}%")
    return "\n".join(lines)
