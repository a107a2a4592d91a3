"""Schedule data structures shared by all scheduling policies.

A schedule assigns every *(base layer, OFM set)* pair a start and end
time in cycles (one cycle = one ``t_MVM``, Sec. III-B).  Each base
layer owns its PEs exclusively (weight-stationary mapping), so the
per-layer timeline doubles as the per-PE timeline of that layer's PEs.

A :class:`Schedule` stores one :class:`ScheduleColumns`
structure-of-arrays (int64/int32 NumPy columns), the form the CSR
kernels in :mod:`repro.core.kernels` emit, and answers every query
(``makespan``, ``busy_cycles``, ``layer_span``,
``validate_intra_layer_order``...) from it.  Row producers (plugin
schedulers, the cost-model simulator) build a schedule once from a
list of :class:`SetTask` rows, ``Schedule(policy, tasks=rows)``, which
converts them to columns.  ``tasks`` is the read-only row form: the
given rows, or a tuple materialized from the columns on first access.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np

from ..ir.tensor import Rect


@dataclass(frozen=True)
class SetTask:
    """One scheduled OFM set.

    Attributes
    ----------
    layer:
        Base layer node name (post-duplication graph).
    set_index:
        Index of the set within the layer's intra-layer order.
    rect:
        OFM region the set covers (full channel depth).
    start / end:
        Cycle interval ``[start, end)``; ``end - start`` equals the
        set's pixel count (one MVM per OFM pixel, Sec. III-B).
    """

    layer: str
    set_index: int
    rect: Rect
    start: int
    end: int
    #: Inference index for batch schedules (0 for single-image runs).
    image: int = 0

    @property
    def duration(self) -> int:
        """Busy cycles of the set."""
        return self.end - self.start

    def __post_init__(self) -> None:
        if self.start < 0 or self.end < self.start:
            raise ValueError(
                f"invalid interval [{self.start}, {self.end}) for "
                f"{self.layer} set {self.set_index}"
            )
        if self.duration != self.rect.area:
            raise ValueError(
                f"{self.layer} set {self.set_index}: duration {self.duration} "
                f"does not match set area {self.rect.area}"
            )


def layer_overlaps(
    layer_ids: np.ndarray, start: np.ndarray, end: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``(earlier, later)`` of one layer whose intervals overlap.

    Rows are sorted by (layer, start, end) and each is checked against
    the next, so a zero-length row never overlaps a row starting with
    it.
    """
    order = np.lexsort((end, start, layer_ids))
    lid = layer_ids[order]
    at = np.flatnonzero((lid[1:] == lid[:-1]) & (start[order[1:]] < end[order[:-1]]))
    return order[at], order[at + 1]


def check_layer_exclusivity(
    layer_ids: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    set_index: np.ndarray,
    layers: tuple[str, ...],
    prefix: str = "resource violation",
) -> None:
    """Vectorized resource rule over columnar rows: within a layer, no
    two rows may overlap in time (:func:`layer_overlaps`).

    Shared by the columnar :class:`Schedule` validation and the kernel
    validators of :mod:`repro.verify.hazards` (single-image and batch),
    so the resource-rule semantics and error format cannot diverge.
    """
    earlier, later = layer_overlaps(layer_ids, start, end)
    if len(earlier):
        first, second = int(earlier[0]), int(later[0])
        raise AssertionError(
            f"{prefix} in '{layers[int(layer_ids[first])]}': set "
            f"{int(set_index[second])} starts at {int(start[second])} "
            f"before set {int(set_index[first])} ends at {int(end[first])}"
        )


@dataclass(frozen=True)
class ScheduleColumns:
    """Structure-of-arrays form of a schedule.

    One row per scheduled set, in the scheduler's emission order.  All
    columns have equal length; ``layer_id`` indexes into ``layers``.
    The rectangle coordinates are stored inline (``r0..c1``) so the
    row form can be materialized without any side table.
    """

    layers: tuple[str, ...]
    layer_id: np.ndarray
    set_index: np.ndarray
    start: np.ndarray
    end: np.ndarray
    image: np.ndarray
    r0: np.ndarray
    c0: np.ndarray
    r1: np.ndarray
    c1: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @staticmethod
    def from_tasks(tasks: Iterable[SetTask]) -> "ScheduleColumns":
        """Build columns from row form (layers in first-appearance order)."""
        layers: list[str] = []
        layer_ids: dict[str, int] = {}
        rows: list[tuple[int, int, int, int, int, int, int, int, int]] = []
        for task in tasks:
            lid = layer_ids.get(task.layer)
            if lid is None:
                lid = layer_ids[task.layer] = len(layers)
                layers.append(task.layer)
            rect = task.rect
            rows.append(
                (
                    lid,
                    task.set_index,
                    task.start,
                    task.end,
                    task.image,
                    rect.r0,
                    rect.c0,
                    rect.r1,
                    rect.c1,
                )
            )
        data = np.asarray(rows, dtype=np.int64).reshape(len(rows), 9)
        return ScheduleColumns(
            layers=tuple(layers),
            layer_id=np.ascontiguousarray(data[:, 0], dtype=np.int32),
            set_index=np.ascontiguousarray(data[:, 1], dtype=np.int32),
            start=np.ascontiguousarray(data[:, 2]),
            end=np.ascontiguousarray(data[:, 3]),
            image=np.ascontiguousarray(data[:, 4], dtype=np.int32),
            r0=np.ascontiguousarray(data[:, 5], dtype=np.int32),
            c0=np.ascontiguousarray(data[:, 6], dtype=np.int32),
            r1=np.ascontiguousarray(data[:, 7], dtype=np.int32),
            c1=np.ascontiguousarray(data[:, 8], dtype=np.int32),
        )

    def to_tasks(self) -> list[SetTask]:
        """Materialize the row form (one :class:`SetTask` per row)."""
        layers = self.layers
        return [
            SetTask(
                layer=layers[lid],
                set_index=si,
                rect=Rect(r0, c0, r1, c1),
                start=s,
                end=e,
                image=img,
            )
            for lid, si, s, e, img, r0, c0, r1, c1 in zip(
                self.layer_id.tolist(),
                self.set_index.tolist(),
                self.start.tolist(),
                self.end.tolist(),
                self.image.tolist(),
                self.r0.tolist(),
                self.c0.tolist(),
                self.r1.tolist(),
                self.c1.tolist(),
            )
        ]


class Schedule:
    """A complete schedule of one model on one architecture.

    Attributes
    ----------
    policy:
        Human-readable scheduling policy name (``'layer-by-layer'`` or
        ``'clsa-cim'``).
    tasks:
        All scheduled sets as a read-only tuple (materialized on first
        access when the schedule was built from columns).
    """

    __slots__ = ("policy", "_tasks", "_columns")

    def __init__(
        self,
        policy: str,
        tasks: Optional[Iterable[SetTask]] = None,
        columns: Optional[ScheduleColumns] = None,
    ) -> None:
        if tasks is not None and columns is not None:
            raise ValueError("Schedule takes tasks= or columns=, not both")
        self.policy = policy
        self._tasks = None if tasks is None else tuple(tasks)
        self._columns = (
            columns
            if columns is not None
            else ScheduleColumns.from_tasks(self._tasks or ())
        )

    @property
    def tasks(self) -> tuple[SetTask, ...]:
        """The row form; materialized from the columns on first access."""
        if self._tasks is None:
            self._tasks = tuple(self._columns.to_tasks())
        return self._tasks

    @property
    def num_tasks(self) -> int:
        """Number of scheduled sets (no row materialization)."""
        return len(self._columns)

    def columns(self) -> ScheduleColumns:
        """The columnar form."""
        return self._columns

    def __reduce__(self) -> tuple:
        """Pickle the columns only; rows re-materialize on demand."""
        return (Schedule, (self.policy, None, self._columns))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.policy == other.policy and self.tasks == other.tasks

    def __repr__(self) -> str:
        return f"Schedule(policy={self.policy!r}, tasks=<{self.num_tasks} sets>)"

    # -- queries ----------------------------------------------------------

    @property
    def makespan(self) -> int:
        """Total inference latency in cycles (``t_NN``)."""
        end = self._columns.end
        return int(end.max()) if len(end) else 0

    def tasks_of(self, layer: str) -> list[SetTask]:
        """Tasks of one layer, in set order."""
        cols = self._columns
        if layer not in cols.layers:
            return []
        rows = np.flatnonzero(cols.layer_id == cols.layers.index(layer))
        rows = rows[np.argsort(cols.set_index[rows], kind="stable")]
        tasks = self.tasks
        return [tasks[row] for row in rows.tolist()]

    def layers(self) -> list[str]:
        """Distinct layer names in first-appearance order."""
        layer_id = self._columns.layer_id
        if not len(layer_id):
            return []
        _, first = np.unique(layer_id, return_index=True)
        return [self._columns.layers[layer_id[i]] for i in np.sort(first)]

    def busy_cycles(self) -> dict[str, int]:
        """Per-layer busy cycles (sum of set durations)."""
        cols = self._columns
        num_layers = len(cols.layers)
        totals = np.bincount(
            cols.layer_id, weights=(cols.end - cols.start), minlength=num_layers
        ).astype(np.int64)
        counts = np.bincount(cols.layer_id, minlength=num_layers)
        return {
            layer: int(totals[lid]) for lid, layer in enumerate(cols.layers) if counts[lid]
        }

    def per_layer_stats(self) -> dict[str, tuple[int, int, int]]:
        """Per layer ``(span start, span end, busy cycles)`` in one pass.

        The single-pass form of ``layer_span`` + ``busy_cycles`` for
        callers that need both for every layer (e.g. the simulator's
        stall computation).
        """
        cols = self._columns
        num_layers = len(cols.layers)
        starts = np.full(num_layers, np.iinfo(np.int64).max, dtype=np.int64)
        ends = np.zeros(num_layers, dtype=np.int64)
        np.minimum.at(starts, cols.layer_id, cols.start)
        np.maximum.at(ends, cols.layer_id, cols.end)
        busy = np.bincount(
            cols.layer_id, weights=(cols.end - cols.start), minlength=num_layers
        ).astype(np.int64)
        counts = np.bincount(cols.layer_id, minlength=num_layers)
        return {
            layer: (int(starts[lid]), int(ends[lid]), int(busy[lid]))
            for lid, layer in enumerate(cols.layers)
            if counts[lid]
        }

    def layer_span(self, layer: str) -> tuple[int, int]:
        """Earliest start and latest end of one layer's tasks."""
        stats = self.per_layer_stats().get(layer)
        if stats is None:
            raise KeyError(f"no tasks for layer '{layer}'")
        return (stats[0], stats[1])

    def validate_intra_layer_order(self) -> None:
        """Check the resource rule: a layer's sets never overlap in time.

        Sets of the same layer share that layer's PEs (the orange
        resource dependencies of Fig. 5(b)) and must run sequentially —
        in whatever execution order the scheduler chose.
        """
        cols = self._columns
        check_layer_exclusivity(
            cols.layer_id, cols.start, cols.end, cols.set_index, cols.layers
        )
