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
  ``rindices`` over consumer gids) for the batch kernel's wake-ups.

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

Release keys.  Ready order is defined by the reference event loop:
completions pop in ``(end, layer name)`` order, each waking its
consumers in gid order (one whose layer is idle starts at once) before
its own layer starts its lowest-indexed ready set.  With ``L`` layers,
a completion's key ``end * L + lex_rank[layer]`` orders those pops, and
a set is released by its predecessors' largest key (-1 with none).  So
Stage IV schedules one layer at a time, in topological order: the
row-major recurrence ``end_i = max(end_{i-1}, ready_i) + a_i`` is the
layer's ready order when its sets' release keys are non-decreasing;
otherwise a heap over the layer's own sets decides.  One stable sort
of the sets (-2 if started before any event, ``2 * done + 1`` if
started when the layer's previous set completed with key ``done``,
``2 * key`` if started on release) gives the loop's rows.  Keys assume
that every set ends after it starts, so ready order needs empty sets
isolated, as Stage II leaves them.
"""

from __future__ import annotations

import heapq
from bisect import insort
from dataclasses import dataclass
from itertools import chain
from operator import is_
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
        """Plain-list views of the hot columns (memoized), for the batch kernel.

        Its event loop indexes per element, where Python lists beat
        NumPy scalar indexing by an order of magnitude; the conversion
        is done once per lowering, not per schedule.
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


def layer_rect_columns(per_layer: Iterable[list["Rect"]]) -> np.ndarray:
    """Rect columns of every layer's sets, concatenated in layer order.

    Stage I gives layers of one OFM shape lists of the same ``Rect``
    objects, so each distinct list is converted once: a list reuses an
    earlier conversion only if it holds the very same rect objects.
    """
    converted: dict[tuple[int, int], tuple[list["Rect"], np.ndarray]] = {}
    blocks = [np.empty((4, 0), dtype=np.int64)]
    for rects in per_layer:
        key = (len(rects), id(rects[0]) if rects else 0)
        seen = converted.get(key)  # holds its rects, so their ids stay unique
        if seen is None or not all(map(is_, seen[0], rects)):
            seen = converted[key] = (rects, rect_columns(rects))
        blocks.append(seen[1])
    return np.concatenate(blocks, axis=1)


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
        layers, offsets, layer_rect_columns(sets.values()),
        np.asarray(indptr_list, dtype=np.int64), np.asarray(indices_list, dtype=np.int64),
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
# Stage IV: one pass per layer, in topological layer order
# ---------------------------------------------------------------------------


def csr_static_schedule(
    arrays: SetGraphArrays,
    order: dict[str, list[int]],
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """Earliest-feasible-start schedule; sets and rows in Stage III order."""
    start, end, emit = _schedule_layers(arrays, order, validate)
    return Schedule(policy=policy, columns=_columns_from(arrays, emit, start, end))


def csr_dynamic_schedule(
    arrays: SetGraphArrays,
    policy: str = "clsa-cim",
    validate: bool = True,
) -> Schedule:
    """List scheduling in ready order, one layer at a time (release keys).

    Each layer greedily executes whichever of its sets has all data
    dependencies satisfied, lowest set index first.  With weight
    duplication a producer's stripes emit rows in parallel; ready-order
    sequencing rate-matches producer and consumer and realizes the
    paper's *maximum achievable* utilization (Sec. V).
    """
    start, end, emit = _schedule_layers(arrays, None, validate)
    return Schedule(policy=policy, columns=_columns_from(arrays, emit, start, end))


def _schedule_layers(
    arrays: SetGraphArrays, order: dict[str, list[int]] | None, validate: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(start, end, emit)`` of every set: Stage III ``order``, or ready order.

    Per layer, one gather of the predecessors' completion keys and one
    segmented max give the release keys; the recurrence runs in prefix
    form, ``end_i = S_i + cummax_i(ready_i - S_{i-1})``, ``S_i`` being
    the sum of the first ``i + 1`` areas in sequence.
    """
    n, num_layers = arrays.num_sets, arrays.num_layers
    offsets, indptr, indices = arrays.offsets, arrays.indptr, arrays.indices
    bounds, counts = offsets.tolist(), np.diff(offsets)
    _check_set_graph(arrays, ready_order=order is None)
    if order is None:
        seq = np.arange(n, dtype=np.int64)
    else:
        local = chain.from_iterable(order[layer] for layer in arrays.layers)
        seq = np.fromiter(local, dtype=np.int64, count=n) + np.repeat(offsets[:-1], counts)
    # In a layer with edges, a set without predecessors reads slot n (key -1).
    fan_in = np.diff(indptr)
    lonely = (fan_in == 0) & np.repeat(np.diff(indptr[offsets]) > 0, counts)
    if lonely.any():
        indices = np.insert(indices, indptr[:-1][lonely], n)
        indptr = np.concatenate(([0], np.cumsum(fan_in + lonely)))
    edge_bounds = indptr[offsets].tolist()
    heads = indptr[:-1] - np.repeat(indptr[offsets[:-1]], counts)
    areas = arrays.area[seq]
    work = np.concatenate(([0], np.cumsum(areas, dtype=np.int64)))
    before = work[:-1] - np.repeat(work[offsets[:-1]], counts)  # S_{i-1}
    # ``S_i * L + lex``: a set's completion key if its layer never waits.
    base = (before + areas) * num_layers + arrays.lex_rank[arrays.layer_of]
    tag = np.full(n + 1, -1, dtype=np.int64)  # completion keys by gid
    keys = np.full(n, -1, dtype=np.int64)  # release keys by gid
    for lid in range(num_layers):
        lo, hi = bounds[lid], bounds[lid + 1]
        if lo == hi:
            continue
        if edge_bounds[lid] == edge_bounds[lid + 1]:
            key = keys[lo:hi]
        else:
            key = keys[lo:hi] = np.maximum.reduceat(
                tag[indices[edge_bounds[lid] : edge_bounds[lid + 1]]], heads[lo:hi]
            )
        if order is not None:
            key = key[seq[lo:hi] - lo]
        elif np.count_nonzero(key[1:] < key[:-1]):  # released out of row-major order
            perm, dones = _ready_order(
                key.tolist(), areas[lo:hi].tolist(), int(arrays.lex_rank[lid]), num_layers
            )
            seq[lo:hi] = lo + np.asarray(perm, dtype=np.int64)
            tag[seq[lo:hi]] = dones
            continue
        lag = key // num_layers - before[lo:hi]
        if lag[0] < 0:  # a set without predecessors is ready at 0
            lag[0] = 0
        tag[seq[lo:hi]] = base[lo:hi] + np.maximum.accumulate(lag) * num_layers
    end = tag[:n] // max(num_layers, 1)
    start = end - arrays.area
    if validate:
        from ..verify.hazards import assert_arrays_schedule

        assert_arrays_schedule(arrays, start, end)
    if order is not None:
        return start, end, seq
    # Each set's layer predecessor in sequence completed with key ``due``.
    due = np.empty(n, dtype=np.int64)
    due[seq[1:]] = tag[seq[:-1]]
    due[seq[offsets[:-1][counts > 0]]] = -1
    rank = np.where(keys < due, 2 * due + 1, 2 * keys)
    return start, end, seq[np.argsort(rank[seq], kind="stable")]


def _ready_order(
    keys: list[int], areas: list[int], lex: int, num_layers: int
) -> tuple[list[int], list[int]]:
    """``(order, completion keys)`` of one layer, from a heap over its sets.

    When a set completes, the lowest index released before that
    completion starts next; if there is none, the next set released
    starts when it is.
    """
    released = sorted(range(len(keys)), key=keys.__getitem__)  # by (key, index)
    queued: list[int] = []
    order: list[int] = []
    dones: list[int] = []
    done, end, nxt = -1, 0, 0
    for _ in released:
        while nxt < len(released) and keys[released[nxt]] < done:
            heapq.heappush(queued, released[nxt])
            nxt += 1
        if queued:
            i = heapq.heappop(queued)
        else:
            i, nxt = released[nxt], nxt + 1
            end = max(end, keys[i] // num_layers)
        end += areas[i]
        done = end * num_layers + lex
        order.append(i)
        dones.append(done)
    return order, dones


def _check_set_graph(arrays: SetGraphArrays, ready_order: bool) -> None:
    """Edges must point to earlier layers (``AssertionError``) and, in
    ready order, empty sets must have none (``ValueError``)."""
    edge_lo = arrays.indptr[arrays.offsets]
    has = np.flatnonzero(edge_lo[1:] > edge_lo[:-1])
    late = has[np.maximum.reduceat(arrays.indices, edge_lo[has]) >= arrays.offsets[has]]
    if len(late):
        raise AssertionError(
            f"a dependency of layer {arrays.layers[late[0]]!r} is not yet "
            "scheduled; the set graph is not in topological layer order"
        )
    if ready_order and not arrays.area.all():
        fan = np.diff(arrays.indptr) + np.diff(arrays.rindptr)
        linked = np.flatnonzero((arrays.area == 0) & (fan > 0))
        if len(linked):
            gid = int(linked[0])
            raise ValueError(
                f"set ({arrays.layers[arrays.layer_of[gid]]!r}, "
                f"{int(arrays.set_index[gid])}) is empty but has dependency "
                "edges; ready order needs empty sets isolated"
            )


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
    """Zero-cost replay on the columnar arrays.

    Returns ``(schedule, per_layer_stall, events_processed)``.  With
    free forwarding the replay is the ready-order schedule of
    :func:`csr_dynamic_schedule` (one completion event per set); a
    layer's stall is its idle time inside its busy span.
    """
    start, end, emit = _schedule_layers(arrays, None)
    filled = np.flatnonzero(np.diff(arrays.offsets))
    heads = arrays.offsets[filled]
    idle = (
        np.maximum.reduceat(end, heads)
        - np.minimum.reduceat(start, heads)
        - np.add.reduceat(arrays.area, heads)
    )
    stalls = dict(zip([arrays.layers[lid] for lid in filled.tolist()], idle.tolist()))
    columns = _columns_from(arrays, emit, start, end)
    return Schedule(policy=policy, columns=columns), stalls, arrays.num_sets
