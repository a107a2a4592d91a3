"""Schedule data structures shared by all scheduling policies.

A schedule assigns every *(base layer, OFM set)* pair a start and end
time in cycles (one cycle = one ``t_MVM``, Sec. III-B).  Each base
layer owns its PEs exclusively (weight-stationary mapping), so the
per-layer timeline doubles as the per-PE timeline of that layer's PEs.

Two storage forms coexist behind one API:

* **Row form** — a list of :class:`SetTask` dataclasses, appended by
  row-at-a-time schedulers (plugins, the cost-model simulator).
* **Columnar form** — a :class:`ScheduleColumns` structure-of-arrays
  (int64/int32 NumPy columns), produced by the CSR kernels in
  :mod:`repro.core.kernels`.  ``tasks`` materializes the row form
  lazily on first access, so downstream consumers written against
  :class:`SetTask` keep working unchanged while the aggregate queries
  (``makespan``, ``busy_cycles``, ``layer_span``,
  ``validate_intra_layer_order``) run vectorized.

All derived queries are cached per layer and invalidated on any
mutation of ``tasks`` (the historical implementations rescanned the
full task list per call, which made ``simulate()``'s stall computation
O(L·n)).
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


def check_layer_exclusivity(
    layer_ids: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    set_index: np.ndarray,
    layers: tuple[str, ...],
    prefix: str = "resource violation",
) -> None:
    """Vectorized resource rule over columnar rows: within a layer, no
    two rows may overlap in time.

    Shared by the columnar :class:`Schedule` validation and the kernel
    validators of :mod:`repro.verify.hazards` (single-image and batch),
    so the resource-rule semantics and error format cannot diverge.
    """
    if len(start) < 2:
        return
    order = np.lexsort((start, layer_ids))
    lid = layer_ids[order]
    sorted_start = start[order]
    sorted_end = end[order]
    overlap = (lid[1:] == lid[:-1]) & (sorted_start[1:] < sorted_end[:-1])
    if overlap.any():
        at = int(np.flatnonzero(overlap)[0])
        earlier, later = order[at], order[at + 1]
        raise AssertionError(
            f"{prefix} in '{layers[int(lid[at])]}': set "
            f"{int(set_index[later])} starts at {int(sorted_start[at + 1])} "
            f"before set {int(set_index[earlier])} ends at "
            f"{int(sorted_end[at])}"
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
        n = len(tasks) if hasattr(tasks, "__len__") else None
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
        data = np.asarray(rows, dtype=np.int64).reshape(n or len(rows), 9)
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


class _TaskList(list):
    """Task list that invalidates the owning schedule's caches on mutation."""

    __slots__ = ("_owner",)

    def __init__(self, owner: "Schedule", iterable: Iterable[SetTask] = ()) -> None:
        super().__init__(iterable)
        self._owner = owner

    def _touch(self) -> None:
        self._owner._invalidate()

    def append(self, item):  # noqa: D102
        super().append(item)
        self._touch()

    def extend(self, iterable):  # noqa: D102
        super().extend(iterable)
        self._touch()

    def insert(self, index, item):  # noqa: D102
        super().insert(index, item)
        self._touch()

    def pop(self, index=-1):  # noqa: D102
        value = super().pop(index)
        self._touch()
        return value

    def remove(self, item):  # noqa: D102
        super().remove(item)
        self._touch()

    def clear(self):  # noqa: D102
        super().clear()
        self._touch()

    def sort(self, **kwargs):  # noqa: D102
        super().sort(**kwargs)
        self._touch()

    def reverse(self):  # noqa: D102
        super().reverse()
        self._touch()

    def __setitem__(self, index, value):
        super().__setitem__(index, value)
        self._touch()

    def __delitem__(self, index):
        super().__delitem__(index)
        self._touch()

    def __iadd__(self, other):
        result = super().__iadd__(other)
        self._touch()
        return result

    def __imul__(self, factor):
        result = super().__imul__(factor)
        self._touch()
        return result


class Schedule:
    """A complete schedule of one model on one architecture.

    Attributes
    ----------
    policy:
        Human-readable scheduling policy name (``'layer-by-layer'`` or
        ``'clsa-cim'``).
    tasks:
        All scheduled sets (materialized lazily for columnar schedules).
    """

    __slots__ = ("policy", "_tasks", "_columns", "_cache")

    def __init__(
        self,
        policy: str,
        tasks: Optional[Iterable[SetTask]] = None,
        columns: Optional[ScheduleColumns] = None,
    ) -> None:
        self.policy = policy
        self._columns = columns
        self._tasks: Optional[_TaskList] = None
        if tasks is not None or columns is None:
            self._tasks = _TaskList(self, tasks or ())
        self._cache: dict = {}

    # -- storage management --------------------------------------------

    def _invalidate(self) -> None:
        """Drop derived caches (and stale columns) after a mutation."""
        self._cache.clear()
        if self._tasks is not None:
            self._columns = None

    @property
    def tasks(self) -> list[SetTask]:
        """The row form; materialized from columns on first access."""
        if self._tasks is None:
            assert self._columns is not None
            self._tasks = _TaskList(self, self._columns.to_tasks())
        return self._tasks

    @tasks.setter
    def tasks(self, value: Iterable[SetTask]) -> None:
        self._tasks = _TaskList(self, value)
        self._columns = None
        self._cache.clear()

    @property
    def has_columns(self) -> bool:
        """Whether this schedule is natively columnar (kernel-built)."""
        return self._columns is not None

    @property
    def num_tasks(self) -> int:
        """Number of scheduled sets (no row materialization)."""
        if self._columns is not None:
            return len(self._columns)
        return len(self.tasks)

    def columns(self) -> ScheduleColumns:
        """The columnar form; built from the row form when needed."""
        if self._columns is not None:
            return self._columns
        cols = self._cache.get("columns")
        if cols is None:
            cols = self._cache["columns"] = ScheduleColumns.from_tasks(self.tasks)
        return cols

    def __getstate__(self) -> dict:
        """Pickle the row form as a plain list (caches are dropped)."""
        return {
            "policy": self.policy,
            "tasks": list(self._tasks) if self._tasks is not None else None,
            "columns": self._columns,
        }

    def __setstate__(self, state: dict) -> None:
        self.policy = state["policy"]
        self._columns = state["columns"]
        tasks = state["tasks"]
        self._tasks = None if tasks is None else _TaskList(self, tasks)
        if self._tasks is None and self._columns is None:
            self._tasks = _TaskList(self)
        self._cache = {}

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Schedule):
            return NotImplemented
        return self.policy == other.policy and self.tasks == other.tasks

    def __repr__(self) -> str:
        return f"Schedule(policy={self.policy!r}, tasks=<{self.num_tasks} sets>)"

    # -- cached per-layer index ------------------------------------------

    def _layer_index(self) -> dict[str, list[SetTask]]:
        """Per-layer task buckets (append order), built in one pass."""
        index = self._cache.get("layer_index")
        if index is None:
            index = {}
            for task in self.tasks:
                bucket = index.get(task.layer)
                if bucket is None:
                    bucket = index[task.layer] = []
                bucket.append(task)
            self._cache["layer_index"] = index
        return index

    # -- queries ----------------------------------------------------------

    @property
    def makespan(self) -> int:
        """Total inference latency in cycles (``t_NN``)."""
        if self._columns is not None:
            end = self._columns.end
            return int(end.max()) if len(end) else 0
        value = self._cache.get("makespan")
        if value is None:
            value = self._cache["makespan"] = max(
                (task.end for task in self.tasks), default=0
            )
        return value

    def tasks_of(self, layer: str) -> list[SetTask]:
        """Tasks of one layer, in set order."""
        by_layer = self._cache.setdefault("tasks_of", {})
        tasks = by_layer.get(layer)
        if tasks is None:
            bucket = self._layer_index().get(layer, [])
            tasks = by_layer[layer] = sorted(bucket, key=lambda t: t.set_index)
        return list(tasks)

    def layers(self) -> list[str]:
        """Distinct layer names in first-appearance order."""
        if self._columns is not None and self._tasks is None:
            layer_id = self._columns.layer_id
            if not len(layer_id):
                return []
            _, first = np.unique(layer_id, return_index=True)
            return [self._columns.layers[layer_id[i]] for i in np.sort(first)]
        return list(self._layer_index())

    def busy_cycles(self) -> dict[str, int]:
        """Per-layer busy cycles (sum of set durations)."""
        if self._columns is not None and self._tasks is None:
            cols = self._columns
            if not len(cols):
                return {}
            num_layers = len(cols.layers)
            totals = np.bincount(
                cols.layer_id, weights=(cols.end - cols.start), minlength=num_layers
            ).astype(np.int64)
            counts = np.bincount(cols.layer_id, minlength=num_layers)
            return {
                layer: int(totals[lid])
                for lid, layer in enumerate(cols.layers)
                if counts[lid]
            }
        totals: dict[str, int] = {}
        for layer, bucket in self._layer_index().items():
            totals[layer] = sum(task.duration for task in bucket)
        return totals

    def per_layer_stats(self) -> dict[str, tuple[int, int, int]]:
        """Per layer ``(span start, span end, busy cycles)`` in one pass.

        The single-pass form of ``layer_span`` + ``busy_cycles`` for
        callers that need both for every layer (e.g. the simulator's
        stall computation, historically O(L·n)).
        """
        stats = self._cache.get("per_layer_stats")
        if stats is not None:
            return dict(stats)
        if self._columns is not None and self._tasks is None:
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
            stats = {
                layer: (int(starts[lid]), int(ends[lid]), int(busy[lid]))
                for lid, layer in enumerate(cols.layers)
                if counts[lid]
            }
        else:
            stats = {}
            for layer, bucket in self._layer_index().items():
                start = min(task.start for task in bucket)
                end = max(task.end for task in bucket)
                busy = sum(task.duration for task in bucket)
                stats[layer] = (start, end, busy)
        self._cache["per_layer_stats"] = stats
        return dict(stats)

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
        if self._columns is not None and self._tasks is None:
            cols = self._columns
            check_layer_exclusivity(
                cols.layer_id, cols.start, cols.end, cols.set_index, cols.layers
            )
            return
        for layer, bucket in self._layer_index().items():
            tasks = sorted(bucket, key=lambda task: task.start)
            for earlier, later in zip(tasks, tasks[1:]):
                if later.start < earlier.end:
                    raise AssertionError(
                        f"resource violation in '{layer}': set "
                        f"{later.set_index} starts at {later.start} before set "
                        f"{earlier.set_index} ends at {earlier.end}"
                    )
