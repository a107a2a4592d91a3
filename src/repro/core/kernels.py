"""Columnar scheduling kernels: CSR set graphs + array-backed schedules.

At the paper's "maximum achievable" granularity (one OFM row per set) a
single darknet model already produces thousands of sets, and the batch
extension multiplies that by the batch size.  Walking
``dict[(str, int)]`` structures and allocating one frozen
:class:`~repro.core.schedule.SetTask` per set is pure interpreter
overhead at that scale.

This module holds the set-level problem as flat NumPy arrays, the
:class:`SetGraphArrays` *CSR set graph*:

* a **global dense set-id space**: set ``(layer, set_index)`` becomes
  ``gid = offsets[layer_id] + set_index``, with per-gid ``layer_of`` /
  ``set_index`` / ``area`` / rect-coordinate columns;
* a **CSR encoding** of the set dependencies (``indptr`` / ``indices``
  over predecessor gids) plus the **reverse CSR** (``rindptr`` /
  ``rindices`` over consumer gids) for event-driven wake-ups.

Stage II (:func:`repro.core.dependencies.determine_dependencies`)
emits these arrays directly and the
:class:`~repro.core.dependencies.DependencyGraph` stores them, so the
static scheduler, the dynamic list scheduler, the batch pipeline
scheduler, the simulator replay, the energy model and the verifier all
share one set graph.  A graph built from a ``deps`` dict is lowered
once, on first use (:func:`lower_dependencies`).

These kernels are Stage IV: every compile, batch run and zero-cost
simulator replay schedules here.  The pure-Python reference schedulers
they must match row for row live with the tests (``tests/oracles``);
the kernels self-validate with vectorized dependency/resource checks.

Event-ordering note: ties in the event heaps break by *layer name*
(string comparison), as in the reference schedulers.  The kernels order
on each layer's lexicographic rank (``lex_rank``), so even tie-heavy
schedules match the reference set-for-set.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from ..ir.ops import rect_columns
from .schedule import Schedule, ScheduleColumns

if TYPE_CHECKING:
    from ..ir.tensor import Rect
    from .dependencies import SetRef

@dataclass(frozen=True)
class SetGraphArrays:
    """The CSR set graph of one compilation (set ids, rects, edges).

    Attributes
    ----------
    layers:
        Base layer names in Stage I order (graph topological order).
    offsets:
        ``int64[L+1]``; layer ``l`` owns gids ``[offsets[l], offsets[l+1])``,
        with ``gid - offsets[l]`` equal to the set index within the layer.
    layer_of / set_index / area / r0 / c0 / r1 / c1:
        Per-gid columns (layer id, intra-layer set index, pixel count,
        and the set rectangle's coordinates).
    indptr / indices:
        CSR of the data-dependency edges: the predecessors of ``gid``
        are ``indices[indptr[gid]:indptr[gid+1]]``.
    rindptr / rindices:
        Reverse CSR: the consumers of ``gid``, ascending.
    lex_rank:
        Per layer id, the layer's rank when names are sorted
        lexicographically (tie-break parity with the reference
        schedulers' string-keyed event heaps).
    """

    layers: tuple[str, ...]
    offsets: np.ndarray
    layer_of: np.ndarray
    set_index: np.ndarray
    area: np.ndarray
    r0: np.ndarray
    c0: np.ndarray
    r1: np.ndarray
    c1: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    rindptr: np.ndarray
    rindices: np.ndarray
    lex_rank: np.ndarray

    @classmethod
    def from_csr(
        cls,
        layers: tuple[str, ...],
        offsets: np.ndarray,
        coords: np.ndarray,
        indptr: np.ndarray,
        indices: np.ndarray,
    ) -> "SetGraphArrays":
        """Assemble the set graph from its CSR and the set rectangles.

        ``coords`` is int64 ``(4, n)`` with rows ``r0, c0, r1, c1`` in
        gid order; the per-gid columns and the reverse CSR are derived.
        """
        n = int(offsets[-1])
        layer_of, set_index = gid_columns(offsets)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(indptr))
        rindices = rows[np.argsort(indices, kind="stable")]
        rindptr = np.concatenate(
            ([0], np.cumsum(np.bincount(indices, minlength=n)))
        ).astype(np.int64)
        lex_rank = np.empty(len(layers), dtype=np.int32)
        lex_rank[sorted(range(len(layers)), key=lambda i: layers[i])] = np.arange(
            len(layers), dtype=np.int32
        )
        r0, c0, r1, c1 = np.ascontiguousarray(coords, dtype=np.int32)
        return cls(
            layers=tuple(layers),
            offsets=np.asarray(offsets, dtype=np.int64),
            layer_of=layer_of,
            set_index=set_index,
            area=(coords[2] - coords[0]) * (coords[3] - coords[1]),
            r0=r0,
            c0=c0,
            r1=r1,
            c1=c1,
            indptr=np.asarray(indptr, dtype=np.int64),
            indices=np.asarray(indices, dtype=np.int64),
            rindptr=rindptr,
            rindices=rindices,
            lex_rank=lex_rank,
        )

    def __getstate__(self) -> dict:
        """Pickle the arrays only; the :meth:`as_lists` memo is rebuilt."""
        state = dict(self.__dict__)
        state.pop("_lists", None)
        return state

    @property
    def num_sets(self) -> int:
        """Total sets (the size of the global gid space)."""
        return len(self.layer_of)

    @property
    def num_layers(self) -> int:
        """Number of base layers."""
        return len(self.layers)

    @property
    def num_edges(self) -> int:
        """Total data-dependency edges."""
        return len(self.indices)

    def gid(self, layer: str, set_index: int) -> int:
        """Global set id of ``(layer, set_index)``."""
        return int(self.offsets[self.layers.index(layer)]) + set_index

    def as_lists(self) -> dict[str, list]:
        """Plain-list views of the hot columns (memoized).

        The event-driven kernels index per element, where Python lists
        beat NumPy scalar indexing by an order of magnitude; the
        conversion is done once per lowering, not per schedule.
        """
        cached = getattr(self, "_lists", None)
        if cached is None:
            rindptr = self.rindptr.tolist()
            rindices = self.rindices.tolist()
            cached = {
                "offsets": self.offsets.tolist(),
                "layer_of": self.layer_of.tolist(),
                "set_index": self.set_index.tolist(),
                "area": self.area.tolist(),
                "indegree": np.diff(self.indptr).tolist(),
                # Per-gid consumer tuples: slicing rindices per event in
                # the hot loops would allocate a fresh list each time.
                "consumers": [
                    tuple(rindices[rindptr[gid] : rindptr[gid + 1]])
                    for gid in range(len(self.layer_of))
                ],
                "lex": self.lex_rank.tolist(),
            }
            object.__setattr__(self, "_lists", cached)
        return cached


def set_offsets(counts: Iterable[int]) -> np.ndarray:
    """``int64[L+1]`` gid offsets of layers holding ``counts`` sets each."""
    return np.concatenate(([0], np.cumsum(list(counts), dtype=np.int64)))


def gid_columns(offsets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-gid ``(layer_of, set_index)`` int32 columns of ``offsets``."""
    counts = np.diff(offsets)
    layer_of = np.repeat(np.arange(len(counts), dtype=np.int32), counts)
    set_index = np.arange(offsets[-1], dtype=np.int64) - np.repeat(offsets[:-1], counts)
    return layer_of, set_index.astype(np.int32)


def lower_dependencies(
    sets: dict[str, list["Rect"]], deps: dict["SetRef", list["SetRef"]]
) -> SetGraphArrays:
    """Lower a ``deps`` dict over ``sets`` to the CSR set graph."""
    layers = tuple(sets)
    offsets = set_offsets(map(len, sets.values()))
    base = {layer: int(offsets[lid]) for lid, layer in enumerate(layers)}
    indptr_list = [0]
    indices_list: list[int] = []
    for layer in layers:
        for si in range(len(sets[layer])):
            refs = deps.get((layer, si))
            if refs is None:
                raise KeyError(
                    f"dependency graph has no entry for set ({layer!r}, {si}); "
                    "run determine_dependencies() over the same Stage I sets"
                )
            indices_list.extend(base[ref_layer] + ref_si for ref_layer, ref_si in refs)
            indptr_list.append(len(indices_list))
    return SetGraphArrays.from_csr(
        layers,
        offsets,
        rect_columns([rect for rects in sets.values() for rect in rects]),
        np.asarray(indptr_list, dtype=np.int64),
        np.asarray(indices_list, dtype=np.int64),
    )


# ---------------------------------------------------------------------------
# schedule assembly + vectorized validation
# ---------------------------------------------------------------------------


def _columns_from(
    arrays: SetGraphArrays,
    emit: np.ndarray,
    start: np.ndarray,
    end: np.ndarray,
    image: np.ndarray | None = None,
    per_row: bool = False,
) -> ScheduleColumns:
    """Columns for gids emitted in ``emit`` order.

    ``start``/``end`` are indexed by gid unless ``per_row`` is set, in
    which case they are already aligned with ``emit`` (batch schedules
    emit each gid once per image).
    """
    row_start = start if per_row else start[emit]
    row_end = end if per_row else end[emit]
    return ScheduleColumns(
        layers=arrays.layers,
        layer_id=arrays.layer_of[emit],
        set_index=arrays.set_index[emit],
        start=row_start,
        end=row_end,
        image=(
            np.zeros(len(emit), dtype=np.int32)
            if image is None
            else np.asarray(image, dtype=np.int32)
        ),
        r0=arrays.r0[emit],
        c0=arrays.c0[emit],
        r1=arrays.r1[emit],
        c1=arrays.c1[emit],
    )


# ---------------------------------------------------------------------------
# Stage IV: static (fixed Stage III order) scheduler
# ---------------------------------------------------------------------------


def csr_static_schedule(
    arrays: SetGraphArrays,
    order: dict[str, list[int]],
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """Vectorized earliest-feasible-start schedule (static Stage III order).

    The per-layer recurrence ``end_i = max(end_{i-1}, ready_i) + a_i``
    unrolls to a prefix form: with ``S_i = sum_{k<=i} a_k``,

    ``end_i = S_i + cummax_i(ready_i - S_{i-1})``

    so each layer is one gather (predecessor ends), one segmented max
    (``maximum.reduceat`` over the CSR), a permutation into Stage III
    order, and a ``cumsum`` + ``cummax`` — no Python-level inner loop.
    """
    n = arrays.num_sets
    start = np.zeros(n, dtype=np.int64)
    end = np.full(n, -1, dtype=np.int64)
    emit = np.empty(n, dtype=np.int64)
    offsets = arrays.offsets
    indptr = arrays.indptr
    indices = arrays.indices
    pos = 0
    for lid, layer in enumerate(arrays.layers):
        lo = int(offsets[lid])
        hi = int(offsets[lid + 1])
        if lo == hi:
            continue
        k = hi - lo
        edge_lo = int(indptr[lo])
        edge_hi = int(indptr[hi])
        ready = np.zeros(k, dtype=np.int64)
        if edge_hi > edge_lo:
            pred_end = end[indices[edge_lo:edge_hi]]
            if pred_end.min() < 0:
                raise AssertionError(
                    f"a dependency of layer {layer!r} is not yet scheduled; "
                    "the set graph is not in topological layer order"
                )
            local_ptr = indptr[lo:hi] - edge_lo
            seg_counts = np.diff(np.append(local_ptr, edge_hi - edge_lo))
            bounded = np.minimum(local_ptr, pred_end.size - 1)
            ready = np.where(
                seg_counts > 0, np.maximum.reduceat(pred_end, bounded), 0
            )
        perm = np.asarray(order[layer], dtype=np.int64)
        areas = arrays.area[lo:hi][perm]
        cum = np.cumsum(areas)
        layer_end = cum + np.maximum.accumulate(ready[perm] - (cum - areas))
        gids = lo + perm
        end[gids] = layer_end
        start[gids] = layer_end - areas
        emit[pos : pos + k] = gids
        pos += k
    if validate:
        from ..verify.hazards import assert_arrays_schedule

        assert_arrays_schedule(arrays, start, end)
    return Schedule(policy=policy, columns=_columns_from(arrays, emit, start, end))


# ---------------------------------------------------------------------------
# Stage IV: dynamic (ready-order) list scheduler
# ---------------------------------------------------------------------------


def csr_dynamic_schedule(
    arrays: SetGraphArrays,
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """Event-driven list scheduling over integer heaps (ready order).

    Each layer greedily executes whichever of its sets has all data
    dependencies satisfied, lowest set index first.  With weight
    duplication a producer's stripes emit rows in parallel; ready-order
    sequencing rate-matches producer and consumer and realizes the
    paper's *maximum achievable* utilization (Sec. V).  Runs on flat
    int lists indexed by gid; consumer wake-ups walk the reverse CSR.
    """
    columns, start, end, _ = _run_dynamic(arrays)
    if validate:
        from ..verify.hazards import assert_arrays_schedule

        assert_arrays_schedule(arrays, start, end)
    return Schedule(policy=policy, columns=columns)


def _run_dynamic(
    arrays: SetGraphArrays,
) -> tuple[ScheduleColumns, np.ndarray, np.ndarray, np.ndarray]:
    """The shared dynamic event loop; returns (columns, start, end, emit).

    Hot-loop notes: event tuples are ``(end, lex_rank, gid)`` — at most
    one event per layer is ever outstanding, so ``(end, lex_rank)`` is
    unique among live events and orders pops exactly like the reference
    scheduler's ``(end, layer_name, set_index)`` heap; the gid rides
    along as payload so nothing is re-derived on pop.  Starts are
    inlined; outside the wake loop every layer with a non-empty ready
    queue is busy (each push is followed by a start attempt), so a
    newly ready set whose layer is idle with an empty queue starts
    directly, skipping both ready-heap operations.
    """
    lists = arrays.as_lists()
    n = arrays.num_sets
    num_layers = arrays.num_layers
    offsets = lists["offsets"]
    layer_of = lists["layer_of"]
    set_of = lists["set_index"]
    area = lists["area"]
    remaining = lists["indegree"].copy()
    consumers = lists["consumers"]
    lex = lists["lex"]

    ready: list[list[int]] = [[] for _ in range(num_layers)]
    layer_free = [0] * num_layers
    layer_busy = [False] * num_layers
    start = [0] * n
    end = [0] * n
    emit: list[int] = []
    emit_append = emit.append
    events: list[tuple[int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    for gid in range(n):
        if remaining[gid] == 0:
            heappush(ready[layer_of[gid]], set_of[gid])
    for lid in range(num_layers):
        queue = ready[lid]
        if queue:
            si = heappop(queue)
            gid = offsets[lid] + si
            e = area[gid]
            end[gid] = e
            emit_append(gid)
            layer_busy[lid] = True
            layer_free[lid] = e
            heappush(events, (e, lex[lid], gid))

    while events:
        now, rank, gid = heappop(events)
        lid = layer_of[gid]
        for consumer in consumers[gid]:
            left = remaining[consumer] - 1
            remaining[consumer] = left
            if left == 0:
                clid = layer_of[consumer]
                if layer_busy[clid]:
                    heappush(ready[clid], set_of[consumer])
                else:
                    free = layer_free[clid]
                    s = now if now > free else free
                    e = s + area[consumer]
                    start[consumer] = s
                    end[consumer] = e
                    emit_append(consumer)
                    layer_busy[clid] = True
                    layer_free[clid] = e
                    heappush(events, (e, lex[clid], consumer))
        queue = ready[lid]
        if queue:
            nsi = heappop(queue)
            ngid = offsets[lid] + nsi
            free = layer_free[lid]
            s = now if now > free else free
            e = s + area[ngid]
            start[ngid] = s
            end[ngid] = e
            emit_append(ngid)
            layer_free[lid] = e
            heappush(events, (e, rank, ngid))
        else:
            layer_busy[lid] = False

    if len(emit) != n:  # pragma: no cover - guards dependency cycles
        raise AssertionError(
            f"dynamic kernel placed {len(emit)} of {n} sets; "
            "the set dependency graph is cyclic or disconnected"
        )
    start_arr = np.asarray(start, dtype=np.int64)
    end_arr = np.asarray(end, dtype=np.int64)
    emit_arr = np.asarray(emit, dtype=np.int64)
    columns = _columns_from(arrays, emit_arr, start_arr, end_arr)
    return columns, start_arr, end_arr, emit_arr


# ---------------------------------------------------------------------------
# batch pipeline scheduler
# ---------------------------------------------------------------------------


def csr_batch_schedule(
    arrays: SetGraphArrays,
    batch_size: int,
    policy: str | None = None,
    validate: bool = True,
) -> tuple[Schedule, list[tuple[int, int]]]:
    """Batched event-driven scheduler; returns (schedule, image spans).

    Ready sets are
    served earliest-image-first, tie-broken by set index; every image
    carries the full set graph; all images of a layer share its PEs.
    Batched state lives in flat ``image * n + gid`` arrays.

    ``validate=True`` (the default, matching the single-image
    schedulers) runs the vectorized dependency/exclusivity checks of
    the static verifier before returning.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    lists = arrays.as_lists()
    n = arrays.num_sets
    num_layers = arrays.num_layers
    total = n * batch_size
    offsets = lists["offsets"]
    layer_of = lists["layer_of"]
    set_of = lists["set_index"]
    area = lists["area"]
    indegree = lists["indegree"]
    # Per-image state lists: the wake loop indexes them by bare gid
    # after one per-event lookup, instead of computing image * n + gid
    # for every edge of every event.
    remaining = [indegree.copy() for _ in range(batch_size)]
    starts = [[0] * n for _ in range(batch_size)]
    ends = [[0] * n for _ in range(batch_size)]
    consumers = lists["consumers"]
    lex = lists["lex"]

    # Ready sets are served earliest-image-first, tie-broken by set
    # index.  One queue per (layer, image) keeps each backlog small (a
    # layer's single-image backlog instead of its whole cross-batch
    # backlog); ``hint`` tracks each layer's lowest image with queued
    # sets — it only moves forward on pops and is reset by a push with
    # a lower image, so the forward scan is amortized O(1).  Each
    # queue is a sorted list consumed from a head index: row-major
    # production makes sets ready in (mostly) ascending set-index
    # order, so pushes are O(1) appends with a rare ``insort``
    # fallback, and pops take the head element — same min-pop
    # semantics as a heap without the sift costs.  Event tuples are
    # (end, image, lex_rank, gid): one live event per layer makes the
    # (end, image, lex_rank) prefix unique, so pops order like the
    # reference's (end, image, layer_name, set_index) heap.
    ready: list[list[list[int]]] = [
        [[] for _ in range(batch_size)] for _ in range(num_layers)
    ]
    heads: list[list[int]] = [[0] * batch_size for _ in range(num_layers)]
    pending = [0] * num_layers
    hint = [0] * num_layers
    layer_free = [0] * num_layers
    layer_busy = [False] * num_layers
    emit: list[int] = []  # emission-ordered slots (image * n + gid)
    emit_append = emit.append
    events: list[tuple[int, int, int, int]] = []
    heappush = heapq.heappush
    heappop = heapq.heappop

    for gid in range(n):  # ascending gid => ascending si per queue
        if indegree[gid] == 0:
            lid = layer_of[gid]
            si = set_of[gid]
            queues = ready[lid]
            for image in range(batch_size):
                queues[image].append(si)
            pending[lid] += batch_size
    for lid in range(num_layers):
        if pending[lid]:
            queues = ready[lid]
            head = heads[lid]
            image = hint[lid]
            while head[image] >= len(queues[image]):
                image += 1
            hint[lid] = image
            queue = queues[image]
            pos = head[image]
            si = queue[pos]
            if pos + 1 == len(queue):
                queues[image] = []
                head[image] = 0
            else:
                head[image] = pos + 1
            pending[lid] -= 1
            gid = offsets[lid] + si
            e = area[gid]
            ends[image][gid] = e
            emit_append(image * n + gid)
            layer_busy[lid] = True
            layer_free[lid] = e
            heappush(events, (e, image, lex[lid], gid))

    while events:
        now, image, rank, gid = heappop(events)
        lid = layer_of[gid]
        rem = remaining[image]
        for consumer in consumers[gid]:
            left = rem[consumer] - 1
            rem[consumer] = left
            if left == 0:
                clid = layer_of[consumer]
                if layer_busy[clid]:
                    queue = ready[clid][image]
                    si = set_of[consumer]
                    if not queue or si > queue[-1]:
                        queue.append(si)
                    else:
                        insort(queue, si, heads[clid][image])
                    pending[clid] += 1
                    if image < hint[clid]:
                        hint[clid] = image
                else:
                    free = layer_free[clid]
                    s = now if now > free else free
                    e = s + area[consumer]
                    starts[image][consumer] = s
                    ends[image][consumer] = e
                    emit_append(image * n + consumer)
                    layer_busy[clid] = True
                    layer_free[clid] = e
                    heappush(events, (e, image, lex[clid], consumer))
        if pending[lid]:
            queues = ready[lid]
            head = heads[lid]
            nimage = hint[lid]
            while head[nimage] >= len(queues[nimage]):
                nimage += 1
            hint[lid] = nimage
            queue = queues[nimage]
            pos = head[nimage]
            nsi = queue[pos]
            if pos + 1 == len(queue):
                queues[nimage] = []
                head[nimage] = 0
            else:
                head[nimage] = pos + 1
            pending[lid] -= 1
            ngid = offsets[lid] + nsi
            free = layer_free[lid]
            s = now if now > free else free
            e = s + area[ngid]
            starts[nimage][ngid] = s
            ends[nimage][ngid] = e
            emit_append(nimage * n + ngid)
            layer_free[lid] = e
            heappush(events, (e, nimage, rank, ngid))
        else:
            layer_busy[lid] = False

    if len(emit) != total:  # pragma: no cover - cycle guard
        raise AssertionError(f"batch kernel placed {len(emit)} of {total} sets")

    slots = np.asarray(emit, dtype=np.int64)
    image_arr = (slots // n).astype(np.int32) if n else slots.astype(np.int32)
    emit_arr = slots % n if n else slots
    start_all = np.asarray(starts, dtype=np.int64).reshape(total)
    end_all = np.asarray(ends, dtype=np.int64).reshape(total)
    if validate:
        from ..verify.hazards import assert_batch_arrays_schedule

        assert_batch_arrays_schedule(arrays, batch_size, start_all, end_all)
    columns = _columns_from(
        arrays,
        emit_arr,
        start_all[slots],
        end_all[slots],
        image=image_arr,
        per_row=True,
    )
    spans = (
        []
        if n == 0
        else [
            (
                int(start_all[image * n : (image + 1) * n].min()),
                int(end_all[image * n : (image + 1) * n].max()),
            )
            for image in range(batch_size)
        ]
    )
    name = policy if policy is not None else f"clsa-cim-batch{batch_size}"
    return Schedule(policy=name, columns=columns), spans


# ---------------------------------------------------------------------------
# simulator replay (zero-cost path)
# ---------------------------------------------------------------------------


def csr_replay(
    arrays: SetGraphArrays, policy: str
) -> tuple[Schedule, dict[str, int], int]:
    """Zero-cost discrete-event replay on the columnar arrays.

    Returns ``(schedule, per_layer_stall, events_processed)``.  With
    free forwarding the replay is the dynamic list scheduler; stalls
    are computed in one vectorized pass over the layer-contiguous gid
    slices.
    """
    columns, start, end, _ = _run_dynamic(arrays)
    stalls: dict[str, int] = {}
    offsets = arrays.offsets
    for lid, layer in enumerate(arrays.layers):
        lo = int(offsets[lid])
        hi = int(offsets[lid + 1])
        if lo == hi:
            continue
        busy = int(arrays.area[lo:hi].sum())
        stalls[layer] = int(end[lo:hi].max()) - int(start[lo:hi].min()) - busy
    return Schedule(policy=policy, columns=columns), stalls, arrays.num_sets
